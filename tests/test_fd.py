"""Finite-difference pipeline as an independent cross-check of the jet
engine."""

import dataclasses
import math

import numpy as np
import pytest

from finsler import catalog, fdpipe
from finsler.dsl import metric_from_dsl
from finsler.engine import ChartJets
from finsler.errors import DegenerateMetric
from finsler.fdpipe import (FDPipeline, _base_h, _d1, _d2, _richardson,
                             _trail)
from finsler.jets import d_x, d_y
from finsler.metric import SamplePoint, check_g
from finsler.sampling import SamplingSpec, sample_points

P = SamplePoint([0.1, -0.2, 0.15], [0.7, -0.3, 1.1])


class TestAgreement:
    def test_funk_all_quantities(self):
        metric = catalog.funk(3)
        fd = FDPipeline(metric)
        for p in sample_points(metric, SamplingSpec(count=5, seed=41)):
            cj = ChartJets(metric, p, 2, 4)
            T = fd.tensors(p)
            for name, jet in [("g", cj.g), ("G", cj.G), ("N", cj.N),
                              ("Rhat", cj.Rhat), ("H", cj.H),
                              ("k", cj.k)]:
                jv = np.asarray(jet.value())
                fv = np.asarray(T[name])
                rel = np.abs(jv - fv).max() / max(np.abs(jv).max(), 1e-12)
                assert rel < 1e-4, (name, rel)

    def test_c_form_randers(self):
        metric = catalog.randers_pflat(3)
        fd = FDPipeline(metric)
        C_fd = fd.c_form(P)
        C_jet = ChartJets(metric, P, 2, 5).C.value()
        assert np.abs(C_fd - C_jet).max() < 1e-3

    def test_c_form_vanishes_on_constant(self):
        fd = FDPipeline(catalog.funk(3))
        assert np.abs(fd.c_form(P)).max() < 1e-3

    def test_euclidean_exact_zeros(self):
        fd = FDPipeline(catalog.euclidean(3))
        T = fd.tensors(P)
        assert np.abs(T["G"]).max() < 1e-10
        assert np.abs(T["Rhat"]).max() < 1e-9
        assert abs(T["k"]) < 1e-9

    def test_space_form_k(self):
        fd = FDPipeline(catalog.riemannian_space_form(3, 1.0))
        assert fd.tensors(P)["k"] == pytest.approx(1.0, abs=1e-4)


class TestStencils:
    """The FD pipeline's Richardson-extrapolated stencils on scalar
    fields: first and second partials against closed forms and jets."""

    def test_against_closed_form(self):
        def f(x, y):
            return np.sin(x[..., 0]) * (y * y).sum(axis=-1)

        grad = _richardson(_d1, f, P.x, P.y, "x", h=1e-3)
        expected = math.cos(P.x[0]) * float(P.y @ P.y)
        assert grad[0] == pytest.approx(expected, abs=1e-8)
        assert abs(grad[1]) < 1e-8
        # d2f/dx^c dy^j is not symmetric in (c, j), so this pins the layout
        mixed = _richardson(_d2, f, P.x, P.y, "x", "y", h=1e-3)
        assert mixed[0] == pytest.approx(2.0 * math.cos(P.x[0]) * P.y,
                                         abs=1e-8)
        assert np.abs(mixed[1:]).max() < 1e-8

    def test_zero_field(self):
        def zero(x, y):
            return np.zeros(x.shape[:-1])

        h = _base_h(P.x, P.y)
        for arr in (_d1(zero, P.x, P.y, "x", h),
                    _d1(zero, P.x, P.y, "y", h),
                    _d2(zero, P.x, P.y, "x", "y", h),
                    _d2(zero, P.x, P.y, "y", "y", h)):
            assert np.abs(arr).max() == 0.0

    def test_agreement_with_jets_on_funk(self):
        metric = catalog.funk(3)
        L = ChartJets(metric, P, 1, 2).L
        jet = {(1, 0): d_x(L), (0, 1): d_y(L), (1, 1): d_y(d_x(L)),
               (0, 2): d_y(d_y(L))}
        x, y, f, h = P.x, P.y, FDPipeline(metric)._L, _base_h(P.x, P.y)
        stencils = {
            (1, 0): (_d1, "x"),
            (0, 1): (_d1, "y"),
            (1, 1): (_d2, "x", "y"),  # [x, y] axes
            (0, 2): (_d2, "y", "y"),
        }
        for key, (stencil, *vars) in stencils.items():
            jv = jet[key].value()
            fv = _richardson(stencil, f, x, y, *vars, h=h)
            rel = np.abs(jv - fv).max() / max(np.abs(jv).max(), 1e-12)
            assert rel < 1e-5, (key, rel)

    def test_array_valued_f_stacks_scalar_components(self):
        """An array-valued f gives, bit for bit, its scalar components'
        stencils stacked ahead of the derivative axes."""
        def component(i):
            return lambda x, y: _field(x, y)[..., i]

        h = _base_h(P.x, P.y)
        for stencil in (lambda g: _d1(g, P.x, P.y, "x", h),
                        lambda g: _d1(g, P.x, P.y, "y", h),
                        lambda g: _d2(g, P.x, P.y, "x", "y", h),
                        lambda g: _d2(g, P.x, P.y, "y", "y", h)):
            out = stencil(_field)
            stacked = np.stack([stencil(component(i)) for i in range(3)])
            assert out.shape == stacked.shape
            assert out.tobytes() == stacked.tobytes()
        yy = _d2(_field, P.x, P.y, "y", "y", h)
        assert np.array_equal(yy, yy.transpose(0, 2, 1))

    def test_batch_equals_points(self):
        """On a (2, 2) batch of points, with one step per point, every
        stencil equals, bit for bit, its per-point results."""
        X, Y, h = _batch()
        for stencil in (lambda x, y, hh: _d1(_field, x, y, "x", hh),
                        lambda x, y, hh: _d1(_field, x, y, "y", hh),
                        lambda x, y, hh: _d2(_field, x, y, "x", "y", hh),
                        lambda x, y, hh: _d2(_field, x, y, "y", "y", hh)):
            out = stencil(X, Y, h)
            points = np.array([[stencil(X[a, b], Y[a, b], h[a, b])
                                for b in range(2)] for a in range(2)])
            assert out.shape == (2, 2, 3) + points.shape[3:]
            assert out.tobytes() == points.tobytes()

    def test_richardson_pair_equals_two_calls(self):
        """On the (2, 2) batch, with one step per point, a Richardson pair
        evaluated in one stencil call equals, bit for bit, (4 T(h/2) -
        T(h)) / 3 from two calls: evaluating both steps on one batch axis
        moves no value of the pipeline."""
        X, Y, h = _batch()
        for stencil, *vars in ((_d1, "x"), (_d1, "y"), (_d2, "x", "y"),
                               (_d2, "y", "y")):
            one = _richardson(stencil, _field, X, Y, *vars, h=h)
            two = (4.0 * stencil(_field, X, Y, *vars, h / 2.0)
                   - stencil(_field, X, Y, *vars, h)) / 3.0
            assert one.shape == two.shape
            assert one.tobytes() == two.tobytes()

    def test_matches_pointwise_loop(self):
        """Bit for bit the stencils of a loop that evaluates f at one
        shifted point at a time (for va == vb, on the upper triangle
        mirrored)."""
        h = _base_h(P.x, P.y)
        for var in ("x", "y"):
            assert (_d1(_field, P.x, P.y, var, h).tobytes()
                    == _loop_d1(_field, P.x, P.y, var, h).tobytes())
        for va, vb in (("x", "y"), ("y", "y"), ("x", "x")):
            assert (_d2(_field, P.x, P.y, va, vb, h).tobytes()
                    == _loop_d2(_field, P.x, P.y, va, vb, h).tobytes())
        # without the pairs i == j, which read 0
        off = _loop_d2(_field, P.x, P.y, "x", "y", h)
        off[..., range(3), range(3)] = 0.0
        assert (_d2(_field, P.x, P.y, "x", "y", h, diagonal=False).tobytes()
                == off.tobytes())

    def test_points_stay_exact(self, monkeypatch):
        """The points each stencil hands to f equal, bit for bit and in
        sign, np.where(s != 0, u + s h, u) of each row s of its sign
        table: on a batch, on strided and broadcast points from an outer
        Richardson pair, and with -0.0 where a stencil does not shift."""
        at, checked = fdpipe._at, []

        def checking_at(f, x, y, h, S):
            def recording(X, Y):
                for got, want in zip((X, Y), _where_points(x, y, h, S)):
                    assert got.shape == want.shape
                    assert np.array_equal(np.signbit(got), np.signbit(want))
                    assert got.tobytes() == want.tobytes()
                checked.append(S.shape)
                return f(X, Y)
            return at(recording, x, y, h, S)

        monkeypatch.setattr(fdpipe, "_at", checking_at)
        stencils = ((_d1, "x"), (_d1, "y"), (_d2, "x", "y"),
                    (_d2, "y", "y"), (_d2, "x", "x"))
        X, Y, h = _batch()
        X0, Y0 = X.copy(), Y.copy()
        X0[0, :, 0] = Y0[:, 1, 1] = -0.0
        for stencil, *vars in stencils:
            stencil(_field, X, Y, *vars, h)
            stencil(_field, X0, Y0, *vars, h)

            def inner(xx, yy):  # xx, yy: an outer stencil's points
                return _richardson(stencil, _field, xx, yy, *vars,
                                   h=_trail(h.T, 2))
            _richardson(_d2, inner, X.swapaxes(0, 1),
                        np.broadcast_to(Y[:1], Y.shape), "x", "y", h=h.T)
        assert len(checked) == 4 * len(stencils)

    def test_shifted_components_are_contiguous(self):
        """The layout that makes a stencil's points cheap to write and
        to read: in a _d2(x, y) stencil of a Richardson pair, each
        component array of x and y that FDPipeline._L hands to L is one
        contiguous array."""
        funk, seen = catalog.funk(3), []

        def evaluate(xs, ys):
            seen.extend(xs + ys)
            return funk.evaluate(xs, ys)

        fd = FDPipeline(dataclasses.replace(funk, evaluate=evaluate))
        _richardson(_d2, fd._L, P.x, P.y, "x", "y", h=_base_h(P.x, P.y))
        assert len(seen) == 6
        assert all(c.flags.c_contiguous for c in seen)


def _batch():
    """A (2, 2) batch of points (..., 3) and one step per point."""
    rng = np.random.Generator(np.random.Philox(5))
    X = rng.uniform(-0.4, 0.4, size=(2, 2, 3))
    Y = rng.normal(size=(2, 2, 3))
    return X, Y, _base_h(X, Y)


def _where_points(x, y, h, S):
    """The points (x, y) + h S[r] as np.where(s != 0, u + s h, u) writes
    them: each component that S does not shift is u itself."""
    n, hs = x.shape[-1], _trail(h, 2)

    def shifted(u, s):
        u = u[..., None, :]
        return np.where(s != 0, u + s * hs, u)

    return np.broadcast_arrays(shifted(x, S[:, :n]), shifted(y, S[:, n:]))


def _shift(z, h, *steps):
    zz = z.copy()
    for q, s in steps:
        zz[q] += s * h
    return zz


def _loop_d1(f, x, y, var, h):
    n = len(x)
    z = np.concatenate([x, y])
    out = []
    for q in range(n) if var == "x" else range(n, 2 * n):
        zp, zm = _shift(z, h, (q, 1.0)), _shift(z, h, (q, -1.0))
        out.append((f(zp[:n], zp[n:]) - f(zm[:n], zm[n:])) / (2.0 * h))
    return np.moveaxis(np.array(out), 0, -1)


def _loop_d2(f, x, y, va, vb, h):
    n = len(x)
    z = np.concatenate([x, y])
    a = 0 if va == "x" else n
    b = 0 if vb == "x" else n
    sym = va == vb
    out = np.empty(np.shape(f(x, y)) + (n, n))
    for i in range(n):
        for j in range(i if sym else 0, n):
            if sym and i == j:
                zp = _shift(z, h, (a + i, 1.0))
                zm = _shift(z, h, (a + i, -1.0))
                val = (f(zp[:n], zp[n:]) - 2.0 * f(x, y)
                       + f(zm[:n], zm[n:])) / (h * h)
            else:
                val = 0.0
                for si in (1.0, -1.0):
                    for sj in (1.0, -1.0):
                        zz = _shift(z, h, (a + i, si), (b + j, sj))
                        val += si * sj * f(zz[:n], zz[n:])
                val = val / (4.0 * h * h)
            out[..., i, j] = val
            if sym:
                out[..., j, i] = val
    return out


def _field(x, y):
    """An array-valued test field of batched points, components last;
    np.power, not **, so that one point and a batch share a ufunc loop."""
    return np.stack([np.sin(x[..., 0]) * (y * y).sum(axis=-1),
                     np.exp(x[..., 1] - y[..., 2]),
                     np.power((x * y).sum(axis=-1), 3)], axis=-1)


class TestOnePass:
    """tensors evaluates the curvature once, on p.y and the 2n directions
    of C's stencil, and skips the x-y pairs c == j that R-hat cancels:
    bit for bit what a curvature pass at p.y on the full x-y grid and a
    second pass for C (a central difference of a k closure) gave."""

    METRICS = catalog.default_metrics(3) + [metric_from_dsl(
        "sqrt(norm2(y)) + b * dot(x, y) / sqrt(1 + b^2 * norm2(x))", 3,
        name="randers-dsl", constants={"b": 0.3})]

    @pytest.mark.parametrize("seed", [0, 7])
    @pytest.mark.parametrize("metric", METRICS, ids=lambda m: m.name)
    def test_equals_two_passes(self, metric, seed):
        fd = FDPipeline(metric)
        for p in sample_points(metric, SamplingSpec(count=2, seed=seed)):
            T, want = fd.tensors(p), _two_passes(fd, p)
            for name in ("N", "Rhat", "H", "k", "C"):
                assert np.array_equal(T[name], want[name]), name
            assert not T["Rhat"][..., range(3), range(3)].any()

    def test_no_diagonal_pairs(self):
        S, I, J = fdpipe._d2_signs(3, "x", "y", False)
        assert len(I) == 6 and not (I == J).any()
        shifted = [(np.flatnonzero(s[:3]), np.flatnonzero(s[3:])) for s in S]
        assert len(S) == 24
        assert all(len(i) == len(j) == 1 and i != j for i, j in shifted)


def _two_passes(fd, p):
    """N, Rhat, H and k from a curvature pass at p.y with the x-y
    stencil on the full grid, and C = L dk/dy from a second such pass at
    the 2n directions of a central difference."""
    def curvature(x, y, L):
        h = _base_h(x, y)

        def G(xx, yy):
            return fd.spray_at(xx, yy, _trail(h, 2))[1]

        N = _richardson(_d1, G, x, y, "y", h=h)
        Gxy = _richardson(_d2, G, x, y, "x", "y", h=20.0 * h)
        Gyy = _richardson(_d2, G, x, y, "y", "y", h=20.0 * h)
        dN = np.einsum("...icj->...ijc", Gxy) - np.einsum(
            "...mc,...ijm->...ijc", N, np.einsum("...imj->...ijm", Gyy))
        Rhat = dN - np.swapaxes(dN, -1, -2)
        H = np.einsum("...k,...ikj->...ij", y, Rhat)
        k = np.trace(H, axis1=-2, axis2=-1) / ((y.shape[-1] - 1) * L * L)
        return N, Rhat, H, k

    L = fd.metric.L(p)
    N, Rhat, H, k = curvature(p.x, p.y, L)
    h = 1e-2 * (1.0 + float(np.max(np.abs(p.y))))
    C = L * _d1(lambda x, y: curvature(x, y, fd._L(x, y))[3],
                p.x, p.y, "y", h)
    return {"N": N, "Rhat": Rhat, "H": H, "k": float(k), "C": C}


class TestWork:
    def test_few_calls_of_L_per_point(self):
        """Each Richardson pair is one call of L on all its points: one
        tensors point on funk, C included, evaluates L on 83,821 points
        in a handful of calls (one call per point would be about 10^5
        calls)."""
        calls = _funk_tensors_calls()
        points = sum(math.prod(shape) for shape in calls)
        print(f"tensors on funk: {len(calls)} calls of L, "
              f"{points} points, largest batch {max(map(math.prod, calls))}")
        assert points == 83821

    def test_tensors_calls_of_L(self):
        """tensors, C included, makes at most 14 calls of L: one for L at
        the point, one per Richardson pair of the spray there (g comes
        with it), one for L at the 2n directions of C's stencil, and three
        sprays for the curvature at all 2n + 1 directions."""
        calls = _funk_tensors_calls()
        print(f"tensors on funk: {len(calls)} calls of L")
        assert len(calls) <= 14

    def test_degenerate_metric_names_one_point(self):
        """DegenerateMetric names the first degenerate point of a batch
        in plain floats."""
        fd = FDPipeline(metric_from_dsl("sqrt(y1^2 + y2^2)", 3))
        p = SamplePoint([0.1, 0.2, 0.0], [0.6, 0.8, 0.0])
        with pytest.raises(DegenerateMetric) as info:
            fd.tensors(p)
        assert "x=[0.1, 0.2, 0.0], y=[0.6, 0.8, 0.0]" in str(info.value)
        X = np.array([p.x, [0.3, 0.3, 0.3]])
        Y = np.array([p.y, [1.0, 0.5, 0.0]])
        with pytest.raises(DegenerateMetric) as info:
            fd.spray_at(X, Y, _base_h(X, Y))
        assert "x=[0.1, 0.2, 0.0], y=[0.6, 0.8, 0.0]" in str(info.value)
        assert isinstance(info.value.min_eigenvalue, float)


def _funk_tensors_calls():
    """The batch shape of each call of L that one funk tensors call at P
    makes."""
    funk = catalog.funk(3)
    calls = []

    def counted(x, y):
        calls.append(np.shape(x[0]))
        return funk.evaluate(x, y)

    FDPipeline(dataclasses.replace(funk, evaluate=counted)).tensors(P)
    return calls


class TestCheckG:
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_g_is_degenerate(self, bad):
        """A g that is not finite is DegenerateMetric at its point, not a
        LinAlgError from eigvalsh or a pass on nan eigenvalues."""
        g = np.stack([np.eye(3), np.eye(3)])
        g[1, 0, 1] = g[1, 1, 0] = bad
        x, y = np.zeros((2, 3)), np.array([[1.0, 0, 0], [0, 1.0, 0]])
        with pytest.raises(DegenerateMetric, match=r"y=\[0.0, 1.0, 0.0\] "
                           r"\(smallest eigenvalue nan\)"):
            check_g(g, x, y)
        check_g(g[:1], x[:1], y[:1])
