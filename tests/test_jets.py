"""Truncated-Taylor jet arithmetic against closed-form calculus."""

import itertools
import math
import operator

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finsler import catalog
from finsler.engine import ChartJets
from finsler.errors import EvalDomainError, OrderUnsupported
from finsler.jets import (Jet, cos, d_x, d_y, exp, get_space, jet_einsum,
                          jet_matrix_inverse, jpow, jstack, log, restrict,
                          shared, sin, sqrt)
from finsler.metric import SamplePoint

P = SamplePoint([0.1, -0.2, 0.15], [0.7, -0.3, 1.1])


def seed(n=2, px=2, py=3, x=(0.3, -0.2), y=(1.1, 0.7)):
    sp = get_space(n, px, py)
    return sp.seed(list(x), list(y))


def partial(f, xs=(), ys=()):
    """The value of the mixed partial of jet f in the x-variables xs and
    the y-variables ys; past f's budget dx/dy raise OrderUnsupported."""
    for q in xs:
        f = f.dx(q)
    for q in ys:
        f = f.dy(q)
    return f.value()


class TestBasics:
    def test_polynomial_partials(self):
        xs, ys = seed()
        f = xs[0] * ys[1] * ys[1] + 2.0 * ys[0]
        assert f.value() == pytest.approx(0.3 * 0.49 + 2.2)
        assert partial(f, xs=(0,), ys=(1, 1)) == pytest.approx(2.0)
        assert partial(f, ys=(0,)) == pytest.approx(2.0)
        assert partial(f, xs=(0,)) == pytest.approx(0.49)

    def test_quotient_and_power(self):
        xs, ys = seed()
        f = (1.0 + xs[0] * xs[0]) / (2.0 - ys[0])
        x0, y0 = 0.3, 1.1
        assert f.value() == pytest.approx((1 + x0 ** 2) / (2 - y0))
        assert partial(f, ys=(0,)) == pytest.approx(
            (1 + x0 ** 2) / (2 - y0) ** 2)
        g = ys[0] ** 1.5
        assert partial(g, ys=(0,)) == pytest.approx(1.5 * y0 ** 0.5)
        assert partial(g, ys=(0, 0)) == pytest.approx(0.75 * y0 ** -0.5)

    def test_schwarz_symmetry(self):
        xs, ys = seed()
        f = sqrt(ys[0] * ys[0] + ys[1] * ys[1]) * exp(xs[0] * ys[1])
        a = partial(f, xs=(0,), ys=(0, 1))
        b = partial(f, xs=(0,), ys=(1, 0))
        assert a == b  # one coefficient times the same integers: exact

    def test_order_budget(self):
        xs, ys = seed(px=1, py=2)
        f = xs[0] * ys[0]
        with pytest.raises(OrderUnsupported):
            f.dx(0).dx(0)
        with pytest.raises(OrderUnsupported):
            f.dy(0).dy(0).dy(0)
        with pytest.raises(OrderUnsupported):
            partial(f, xs=(0, 0))


def norm2(y):
    acc = y[0] * y[0]
    for v in y[1:]:
        acc = acc + v * v
    return acc


def partials(field, p, px, py):
    """The px-fold x- then py-fold y-derivative array of field(x, y) at p,
    x-axes first."""
    xs, ys = get_space(p.n, px, py).seed(p.x, p.y)
    f = field(xs, ys)
    for _ in range(px):
        f = d_x(f)
    for _ in range(py):
        f = d_y(f)
    return np.asarray(f.value())


class TestPartials:
    """Exact mixed partials in three dimensions against closed forms."""

    def test_quadratic(self):
        hess = partials(lambda x, y: norm2(y), P, 0, 2)
        np.testing.assert_allclose(hess, 2.0 * np.eye(3), atol=1e-14)

    def test_mixed_bilinear(self):
        xs, ys = get_space(3, 2, 2).seed(P.x, P.y)
        dxf = d_x(xs[0] * ys[1])
        expected = np.zeros((3, 3))
        expected[0, 1] = 1.0
        np.testing.assert_allclose(d_y(dxf).value(), expected, atol=1e-14)
        dxxf = d_x(dxf)
        assert np.abs(d_y(d_y(dxxf)).value()).max() < 1e-14
        assert np.abs(d_y(dxxf).value()).max() < 1e-14

    def test_euler_degree_one(self):
        p = SamplePoint([0.0, 0.0, 0.0], [1.0, 2.0, 2.0])
        xs, ys = get_space(3, 0, 1).seed(p.x, p.y)
        f = sqrt(norm2(ys))
        assert float(p.y @ d_y(f).value()) == pytest.approx(3.0)
        assert f.value() == pytest.approx(3.0)

    def test_order_bounds(self):
        xs, ys = get_space(3, 0, 1).seed(P.x, P.y)
        with pytest.raises(OrderUnsupported):
            d_y(d_y(norm2(ys)))

    def test_schwarz(self):
        arr = partials(lambda x, y: exp(x[0] * y[2]) * y[1], P, 2, 2)
        np.testing.assert_allclose(arr, arr.transpose(1, 0, 2, 3),
                                   atol=1e-12)
        np.testing.assert_allclose(arr, arr.transpose(0, 1, 3, 2),
                                   atol=1e-12)


class TestFiberDerivatives:
    """Fiber (y) derivatives of L against the structural frame."""

    def test_first_order_is_ell(self):
        metric = catalog.funk(3)
        cj = ChartJets(metric, P, 0, 2)
        grad = partials(metric.evaluate, P, 0, 1)
        np.testing.assert_allclose(grad, cj.ell.value(), atol=1e-12)

    def test_second_order_is_angular(self):
        metric = catalog.randers_pflat(3)
        cj = ChartJets(metric, P, 0, 2)
        hess = partials(metric.evaluate, P, 0, 2)
        L = cj.L.value()
        np.testing.assert_allclose(hess, cj.hbar / L, atol=1e-12)

    def test_constant_field(self):
        f = get_space(3, 0, 3).constant(4.2)
        for _ in range(3):
            f = d_y(f)
            assert np.abs(f.value()).max() == 0.0


class TestAnalytic:
    y0 = 1.1

    def _y(self):
        xs, ys = seed()
        return ys[0]

    def test_sqrt(self):
        f = sqrt(self._y())
        assert partial(f, ys=(0,)) == pytest.approx(0.5 / math.sqrt(self.y0))
        assert partial(f, ys=(0, 0)) == pytest.approx(
            -0.25 * self.y0 ** -1.5)

    def test_exp_log(self):
        f = exp(self._y())
        for order in range(4):
            assert partial(f, ys=(0,) * order) == pytest.approx(
                math.exp(self.y0))
        g = log(self._y())
        assert g.value() == pytest.approx(math.log(self.y0))
        assert partial(g, ys=(0,)) == pytest.approx(1.0 / self.y0)
        assert partial(g, ys=(0, 0)) == pytest.approx(-self.y0 ** -2)

    def test_sin_cos(self):
        s, c = sin(self._y()), cos(self._y())
        assert partial(s, ys=(0,)) == pytest.approx(math.cos(self.y0))
        assert partial(c, ys=(0,)) == pytest.approx(-math.sin(self.y0))
        ident = s * s + c * c
        assert ident.value() == pytest.approx(1.0)
        assert abs(partial(ident, ys=(0,))) < 1e-12

    def test_sqrt_domain(self):
        xs, ys = seed()
        with pytest.raises(EvalDomainError):
            sqrt(ys[0] - 5.0)


# identities of the series, as [lhs, rhs, every other jet they involve]
IDENTITIES = {
    "reciprocal": lambda u: [u * u.reciprocal(),
                             u.space.constant(np.ones(u.shape)),
                             u, u.reciprocal()],
    "sqrt-of-square": lambda u: [sqrt(u * u), u, u * u],
    "exp-of-log": lambda u: [exp(log(u)), u, log(u)],
    "power-sum": lambda u: [jpow(u, 0.3) * jpow(u, 1.45), jpow(u, 1.75),
                            jpow(u, 0.3), jpow(u, 1.45)],
}


class TestSeries:
    """One series per function, solved degree by degree, at the full
    budget (3, 7)."""

    xs, ys = get_space(3, 3, 7).seed(P.x, P.y)
    us = [xs[0] * ys[1] + 0.5 * ys[2] * ys[2] + xs[2],
          sqrt(norm2(ys)) - xs[1] * ys[0],
          1.0 + xs[1] * xs[2] * ys[0]]

    @pytest.mark.parametrize("f", [sin, cos, exp, log])
    def test_stacked_equals_scalar(self, f):
        """A tensor jet runs one series with array coefficients."""
        stacked = f(jstack(self.us)).c
        scalar = np.stack([f(u).c for u in self.us], axis=-1)
        np.testing.assert_allclose(stacked, scalar, rtol=0,
                                   atol=1e-14 * np.abs(scalar).max())

    def test_sin_cos_pythagoras(self):
        for u in self.us:
            r = sin(u) * sin(u) + cos(u) * cos(u) - 1.0
            assert np.abs(r.c).max() <= 1e-14

    @pytest.mark.parametrize("identity", sorted(IDENTITIES))
    @pytest.mark.parametrize("stacked", [False, True],
                             ids=["scalar", "shape-3"])
    def test_identity(self, identity, stacked):
        """Every coefficient of lhs - rhs is at most 1e-13 of the largest
        coefficient of the jets involved; a wrong weight in the recurrence
        misses by far more."""
        for u in [jstack(self.us)] if stacked else self.us:
            lhs, rhs, *rest = IDENTITIES[identity](u)
            scale = max(np.abs(j.c).max() for j in (lhs, rhs, *rest))
            assert np.abs((lhs - rhs).c).max() <= 1e-13 * scale

    def test_chain_rule(self):
        """d_y sin(u) = cos(u) d_y u and d_y cos(u) = -sin(u) d_y u: a
        wrongly rotated derivative cycle fails here."""
        for u in self.us:
            r = d_y(sin(u)) - cos(u) * d_y(u)
            assert np.abs(r.c).max() <= 1e-14
            r = d_y(cos(u)) + sin(u) * d_y(u)
            assert np.abs(r.c).max() <= 1e-14


_R = np.random.default_rng(5)
_A2, _B2 = _R.normal(size=(2, 2, 2))
_A4, _B4 = _R.normal(size=(2, 4, 4))
# matrix jets of seed()'s variables; "row swap" has the constant term
# [[0, 1], [1, 0]], on which elimination without pivoting fails
INVERSE_CASES = {
    "2x2": lambda xs, ys: jstack([jstack([1.0 + ys[0] * ys[0], xs[0] * ys[1]]),
                                  jstack([xs[0] * ys[1], 2.0 + ys[1]])]),
    "4x4": lambda xs, ys: (4.0 * np.eye(4) + xs[0] * ys[1] * _A4
                           + exp(ys[0] - xs[1]) * _B4),
    "row swap": lambda xs, ys: (np.array([[0.0, 1.0], [1.0, 0.0]])
                                + (xs[0] - xs[0].value()) * _A2
                                + (ys[1] - ys[1].value()) * ys[0] * _B2),
}


class TestTensorStructure:
    def test_stack_and_derivative_axes(self):
        xs, ys = seed()
        v = jstack(ys)  # the direction vector as a jet
        assert v.shape == (2,)
        dv = d_y(v)  # identity matrix
        np.testing.assert_allclose(dv.value(), np.eye(2), atol=1e-14)
        assert np.allclose(d_x(v).value(), 0.0)

    def test_einsum_matches_manual(self):
        xs, ys = seed()
        a = jstack([ys[0] * ys[1], xs[0] + ys[0]])
        b = jstack([exp(xs[0]), ys[1] * 2.0])
        dot = jet_einsum("i,i->", a, b)
        manual = ys[0] * ys[1] * exp(xs[0]) + (xs[0] + ys[0]) * ys[1] * 2.0
        np.testing.assert_allclose(dot.c, manual.c, atol=1e-13)

    @pytest.mark.parametrize("scale", [1.0, 1e-20, 1e20])
    @pytest.mark.parametrize("case", sorted(INVERSE_CASES))
    def test_matrix_inverse(self, case, scale):
        m = INVERSE_CASES[case](*seed())
        inv = jet_matrix_inverse(m * scale)
        prod = jet_einsum("ij,jk->ik", m, inv * scale)
        np.testing.assert_allclose(prod.c[0], np.eye(m.shape[0]), atol=1e-12)
        # all derivative coefficients of the product vanish
        assert np.abs(prod.c[1:]).max() < 1e-12

    @pytest.mark.parametrize("m0", [[[1.0, 2.0], [2.0, 4.0]],
                                    [[np.nan, 0.0], [0.0, 1.0]]])
    def test_singular_matrix_inverse_raises(self, m0):
        xs, ys = seed()
        m = np.array(m0) + (xs[0] - xs[0].value()) * ys[1] * np.eye(2)
        with pytest.raises(EvalDomainError, match="singular"):
            jet_matrix_inverse(m)

    def test_trace_and_transpose(self):
        xs, ys = seed()
        m = jstack([jstack([ys[0], ys[1]]),
                    jstack([xs[0], ys[0] * ys[1]])]).tr(1, 0)
        tr = m.trace(0, 1)
        manual = ys[0] + ys[0] * ys[1]
        np.testing.assert_allclose(tr.c, manual.c, atol=1e-14)
        mt = m.tr(1, 0)
        np.testing.assert_allclose(mt.value(), m.value().T)

    @pytest.mark.parametrize("op", [operator.add, operator.sub,
                                    operator.mul], ids=["+", "-", "*"])
    def test_array_of_higher_rank(self, op):
        """A jet and an array of higher rank broadcast as the jet and the
        array's constant jet do."""
        sp = get_space(3, 1, 1)
        v = jstack(sp.seed(P.x, P.y)[1])           # shape (3,)
        arr = np.arange(9.0).reshape(3, 3)
        const = sp.constant(arr)
        for got, want in ((op(v, arr), op(v, const)),
                          (op(arr, v), op(const, v))):
            assert got.shape == (3, 3)
            np.testing.assert_array_equal(got.c, want.c)


def _shifted(u, c):
    """u + c by the explicit rule: u's coefficients broadcast to the
    sum's shape, with c added to the constant term only."""
    c = np.asarray(c, dtype=float)
    out = np.zeros((u.space.T,) + np.broadcast_shapes(u.shape, c.shape))
    out += u.c.reshape(u.c.shape[:1] + (1,) * (out.ndim - u.c.ndim)
                       + u.shape)
    out[0] += c
    return out


class TestAddRule:
    """A jet plus or minus a number or array shifts the constant term,
    leaves every other coefficient as it was, and keeps the support."""

    @staticmethod
    def jets():
        sp = get_space(3, 2, 3)
        xs, ys = sp.seed(P.x, P.y)
        y = jstack(ys)
        rng = np.random.Generator(np.random.Philox(7))
        partial = [xs[0] * ys[1], y, jet_einsum("i,j->ij", y, y)]
        full = [Jet(sp, rng.normal(size=(sp.T,) + shape))
                for shape in ((), (3,), (3, 3))]
        return partial + full

    @pytest.mark.parametrize("c", [0.7, np.array([1.5, -2.0, 0.25]),
                                   np.arange(9.0).reshape(3, 3) - 4.0],
                             ids=["()", "(3,)", "(3, 3)"])
    def test_matches_the_explicit_rule(self, c):
        for u in self.jets():
            assert u.support in ((1, 1), (0, 1), (0, 2), (2, 3))
            for got, want in ((u + c, _shifted(u, c)),
                              (c + u, _shifted(u, c)),
                              (u - c, _shifted(u, -c)),
                              (c - u, _shifted(-u, c))):
                assert got.space is u.space and got.support == u.support
                assert np.array_equal(got.c, want)


@settings(max_examples=25, deadline=None)
@given(st.lists(st.floats(-2.0, 2.0), min_size=2, max_size=2),
       st.lists(st.floats(0.5, 2.0), min_size=2, max_size=2))
def test_product_rule_property(xv, yv):
    """d(fg) = f dg + g df, for random base points."""
    sp = get_space(2, 1, 4)
    xs, ys = sp.seed(xv, yv)
    f = ys[0] * ys[0] + xs[1]
    g = ys[1] + xs[0] * ys[0]
    lhs = (f * g).dy(0)
    rhs = f.dy(0) * g + f * g.dy(0)
    # compare values and partials within the common validity budget
    assert lhs.value() == pytest.approx(rhs.value(), abs=1e-10)
    for q in range(2):
        assert partial(lhs, ys=(q,)) == pytest.approx(
            partial(rhs, ys=(q,)), abs=1e-10)
        assert partial(lhs, xs=(q,)) == pytest.approx(
            partial(rhs, xs=(q,)), abs=1e-10)


def random_jet(rng, sp, shape=(), scale=0.3):
    """A jet with random coefficients: an arbitrary polynomial in the
    space's monomials."""
    return Jet(sp, scale * rng.normal(size=(sp.T,) + shape))


BUDGETS = [(3, 7), (2, 7), (3, 4), (1, 2), (0, 5), (3, 0), (0, 0)]


class TestTruncation:
    """A jet's budget is its space; restriction to a smaller budget
    commutes with every operation."""

    sp = get_space(3, 3, 7)

    def _pair(self, shape_a=(), shape_b=()):
        rng = np.random.default_rng(11)
        return (random_jet(rng, self.sp, shape_a),
                random_jet(rng, self.sp, shape_b))

    @pytest.mark.parametrize("budget", BUDGETS)
    def test_exact_ops_commute(self, budget):
        a, b = self._pair((3,), (3,))
        r = lambda j: restrict(j, *budget)
        ops = [
            lambda u, v: u + v,
            lambda u, v: u - v,
            lambda u, v: u * v,
            lambda u, v: u[1] * v,
            lambda u, v: jet_einsum("i,j->ij", u, v),
            lambda u, v: jet_einsum("i,i->", u, v),
            lambda u, v: jstack([u, v, u[0] * v]),
        ]
        for op in ops:
            full, low = r(op(a, b)), op(r(a), r(b))
            assert low.space is get_space(3, *budget)
            np.testing.assert_array_equal(full.c, low.c)

    @pytest.mark.parametrize("budget", [b for b in BUDGETS if b[0] >= 1])
    def test_dx_commutes(self, budget):
        a, _ = self._pair((2,))
        px, py = budget
        for q in range(3):
            full = restrict(a.dx(q), px - 1, py)
            low = restrict(a, px, py).dx(q)
            assert low.space is get_space(3, px - 1, py)
            np.testing.assert_array_equal(full.c, low.c)

    @pytest.mark.parametrize("budget", [b for b in BUDGETS if b[1] >= 1])
    def test_dy_commutes(self, budget):
        a, _ = self._pair((2,))
        px, py = budget
        for q in range(3):
            full = restrict(a.dy(q), px, py - 1)
            low = restrict(a, px, py).dy(q)
            assert low.space is get_space(3, px, py - 1)
            np.testing.assert_array_equal(full.c, low.c)

    @pytest.mark.parametrize("budget", BUDGETS)
    def test_series_commute(self, budget):
        a, _ = self._pair()
        m, _ = self._pair((3, 3))
        u = a + 2.0                              # positive constant term
        mat = m * 0.2 + 3.0 * np.eye(3)          # well-conditioned
        r = lambda j: restrict(j, *budget)
        for op, arg in ((Jet.reciprocal, u), (sqrt, u), (exp, a), (log, u),
                        (sin, a), (cos, a), (lambda v: jpow(v, 0.37), u),
                        (jet_matrix_inverse, mat)):
            full, low = r(op(arg)), op(r(arg))
            assert low.space is get_space(3, *budget)
            err = np.abs(full.c - low.c).max()
            assert err <= 1e-15 * np.abs(full.c).max(), op

    def test_mixed_budgets_meet_at_the_smaller(self):
        a, b = self._pair()
        low = restrict(b, 1, 4)
        assert (a * low).space is get_space(3, 1, 4)
        assert (a + restrict(b, 2, 7) * restrict(b, 3, 2)).space \
            is get_space(3, 2, 2)
        np.testing.assert_array_equal((a * low).c, (restrict(a, 1, 4) * low).c)

    def test_restrict_cannot_extend(self):
        a, _ = self._pair()
        with pytest.raises(OrderUnsupported):
            restrict(restrict(a, 1, 4), 2, 4)

    def test_partial_past_budget(self):
        xs, ys = get_space(3, 2, 3).seed(P.x, P.y)
        f = xs[0] * ys[1] * ys[1]
        g = f.dy(1)
        assert g.space is get_space(3, 2, 2)
        assert partial(g, xs=(0,), ys=(1,)) == pytest.approx(2.0)
        with pytest.raises(OrderUnsupported):
            partial(g, ys=(1, 1, 1))
        h = f * xs[0].dx(0)                     # meets at (1, 3)
        with pytest.raises(OrderUnsupported):
            partial(h, xs=(0, 0))
        with pytest.raises(OrderUnsupported):
            h.dx(0).dx(0)

    def test_different_dimensions_raise(self):
        a = get_space(2, 1, 2).constant(1.0)
        b = get_space(3, 1, 2).constant(1.0)
        for op in (lambda: a + b, lambda: a * b, lambda: b - a,
                   lambda: jet_einsum(",->", a, b), lambda: jstack([a, b])):
            with pytest.raises(ValueError):
                op()


def _scaled(jet):
    """jet scaled to coefficients of at most 1, so a chain of series
    stays finite."""
    return jet * (1.0 / max(1.0, float(np.abs(jet.c).max())))


def _positive(jet):
    """jet shifted to a constant term of at least 1."""
    return jet + (abs(jet.value()) + 1.0)


def _matrix(a, b):
    """A well-conditioned 2x2 matrix jet of two scaled jets."""
    return jstack([jstack([a + 3.0, b]), jstack([0.5 * b, a - 4.0])])


# each op takes two jets of the pool and an integer k
SUPPORT_OPS = {
    "+": lambda a, b, k: a + b,
    "-": lambda a, b, k: a - b,
    "*": lambda a, b, k: a * b,
    "reciprocal": lambda a, b, k: _positive(a).reciprocal(),
    "sqrt": lambda a, b, k: sqrt(_positive(a)),
    "exp": lambda a, b, k: exp(a),
    "log": lambda a, b, k: log(_positive(a)),
    "sin": lambda a, b, k: sin(a),
    "cos": lambda a, b, k: cos(a),
    "jpow": lambda a, b, k: jpow(_positive(a), 0.37),
    "dx": lambda a, b, k: a.dx(k % a.space.n) if a.space.px else a,
    "dy": lambda a, b, k: a.dy(k % a.space.n) if a.space.py else a,
    "restrict": lambda a, b, k: restrict(a, k % (a.space.px + 1),
                                         k // 4 % (a.space.py + 1)),
    "jstack": lambda a, b, k: jstack([a, b, a * b])[k % 3],
    "jet_einsum": lambda a, b, k: jet_einsum(
        "ij,j->i", _matrix(a, b), jstack([b, a]))[k % 2],
    "jet_matrix_inverse": lambda a, b, k: jet_matrix_inverse(
        _matrix(a, b))[k % 2, k // 2 % 2],
}


def run_program(program, leaves):
    """Every jet of the pool that ``program`` grows from ``leaves``: each
    step applies one op to two pool jets (indices taken modulo the pool)."""
    pool = list(leaves)
    for name, i, j, k in program:
        a, b = pool[i % len(pool)], pool[j % len(pool)]
        pool.append(_scaled(SUPPORT_OPS[name](a, b, k)))
    return pool


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([2, 3]), st.integers(0, 3), st.integers(0, 7),
       st.lists(st.tuples(st.sampled_from(sorted(SUPPORT_OPS)),
                          st.integers(0, 99), st.integers(0, 99),
                          st.integers(0, 99)), min_size=1, max_size=10))
def test_support_is_sound(n, px, py, program):
    """Random expression trees over seeded x- and y-jets: every coefficient
    outside a jet's support is exactly 0.0, and each jet equals the one the
    same tree gives from full-support seeds, Jet(sp, seed.c.copy())."""
    sp = get_space(n, px, py)
    xs, ys = sp.seed(P.x[:n], P.y[:n])
    seeds = xs + ys + [sp.constant(0.25)]
    full = [Jet(sp, seed.c.copy()) for seed in seeds]
    for jet, dense in zip(run_program(program, seeds),
                          run_program(program, full)):
        sx, sy = jet.support
        assert sx <= jet.space.px and sy <= jet.space.py
        block = get_space(n, sx, sy)
        grid = jet.c.reshape(jet.space.NX, jet.space.NY)
        assert not grid[block.NX:].any() and not grid[:, block.NY:].any()
        assert dense.space is jet.space
        assert np.array_equal(jet.c, dense.c)


@pytest.mark.parametrize("n, px, py", [(2, 3, 4), (2, 0, 3), (3, 2, 3),
                                       (3, 1, 0), (4, 1, 2), (4, 2, 1)])
def test_pair_table_brute_force(n, px, py):
    """The product table lists every (i, j) with mono[i] + mono[j] ==
    mono[k], grouped by k in increasing order (every k has a group) and
    by i inside a group."""
    sp = get_space(n, px, py)
    for monos, cap in ((sp.xm, px), (sp.ym, py)):
        every = [m for m in itertools.product(range(cap + 1), repeat=n)
                 if sum(m) <= cap]
        assert sorted(monos) == sorted(every)
        assert [sum(m) for m in monos] == sorted(sum(m) for m in monos)
    monos = [xm + ym for xm in sp.xm for ym in sp.ym]
    index = {m: k for k, m in enumerate(monos)}
    pairs = {k: [] for k in range(sp.T)}
    for i, a in enumerate(monos):
        for j, b in enumerate(monos):
            k = index.get(tuple(p + q for p, q in zip(a, b)))
            if k is not None:
                pairs[k].append((i, j))
    want = [pair for k in range(sp.T) for pair in pairs[k]]
    np.testing.assert_array_equal(np.stack([sp.mI, sp.mJ], axis=1), want)
    # group k starts where the pairs of the monomials before it end
    sizes = [len(pairs[k]) for k in range(sp.T)]
    np.testing.assert_array_equal(sp.red_starts,
                                  np.cumsum([0] + sizes[:-1]))


@pytest.mark.parametrize("n, px, py", [(2, 3, 4), (2, 0, 3), (3, 2, 3),
                                       (3, 1, 0), (4, 1, 2), (4, 2, 1)])
def test_graded_table_brute_force(n, px, py):
    """The series table of total degree d lists every (i, j) with i != 0
    and mono[i] + mono[j] == mono[k], deg k = d, grouped by k in
    increasing order and by i inside a group; deg is each monomial's total
    degree."""
    sp = get_space(n, px, py)
    monos = [xm + ym for xm in sp.xm for ym in sp.ym]
    index = {m: k for k, m in enumerate(monos)}
    deg, tables = sp.graded
    np.testing.assert_array_equal(deg, [sum(m) for m in monos])
    assert len(tables) == px + py
    for d, (K, I, J, starts) in enumerate(tables, 1):
        pairs = {k: [] for k, m in enumerate(monos) if sum(m) == d}
        for i, a in enumerate(monos[1:], 1):
            for j, b in enumerate(monos):
                k = index.get(tuple(p + q for p, q in zip(a, b)))
                if k in pairs:
                    pairs[k].append((i, j))
        np.testing.assert_array_equal(K, sorted(pairs))
        want = [pair for k in sorted(pairs) for pair in pairs[k]]
        np.testing.assert_array_equal(np.stack([I, J], axis=1), want)
        sizes = [len(pairs[k]) for k in sorted(pairs)]
        np.testing.assert_array_equal(starts, np.cumsum([0] + sizes[:-1]))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(1, 4), st.integers(0, 4), st.integers(0, 4),
       st.sampled_from([(), (3,), (3, 3)]),
       st.tuples(st.integers(0, 4), st.integers(0, 4)), st.integers(0, 99))
def test_derivatives_brute_force(n, px, py, shape, support, seed):
    """d_x and d_y equal the formal derivative read off the exponent
    lists: coefficient K of d f / d v_q is (the exponent of v_q in K + e_q)
    times coefficient K + e_q of f, bit for bit.  The result lives one
    order lower on that axis with support one lower (capped at 0), and at
    order 0 the derivative raises OrderUnsupported."""
    sp = get_space(n, px, py)
    support = (min(support[0], px), min(support[1], py))
    block = get_space(n, *support)
    rng = np.random.default_rng(seed)
    grid = np.zeros((sp.NX, sp.NY) + shape)
    grid[:block.NX, :block.NY] = rng.normal(size=(block.NX, block.NY)
                                            + shape)
    f = Jet(sp, grid.reshape((sp.T,) + shape), support)
    index = {xm + ym: k for k, (xm, ym) in
             enumerate(itertools.product(sp.xm, sp.ym))}
    for axis, derivative in ((0, d_x), (1, d_y)):
        if (px, py)[axis] == 0:
            with pytest.raises(OrderUnsupported):
                derivative(f)
            continue
        low = get_space(n, px - 1 + axis, py - axis)
        want = np.zeros((low.T,) + shape + (n,))
        for k, (xm, ym) in enumerate(itertools.product(low.xm, low.ym)):
            for q in range(n):
                source = list(xm + ym)
                source[axis * n + q] += 1
                want[k, ..., q] = (source[axis * n + q]
                                   * f.c[index[tuple(source)]])
        got = derivative(f)
        assert got.space is low
        assert np.array_equal(got.c, want)
        lowered = list(support)
        lowered[axis] = max(lowered[axis] - 1, 0)
        assert got.support == tuple(lowered)


class TestImmutable:
    """No jet operation writes into its operands' coefficients, which is
    what lets a restriction that only lowers x return a view."""

    @staticmethod
    def operands():
        rng = np.random.default_rng(5)
        big, small = get_space(3, 2, 4), get_space(3, 1, 4)
        a = random_jet(rng, big, (3,)) + 2.0   # constant terms near 2
        b = random_jet(rng, small, (3,)) + 2.0
        m = random_jet(rng, big, (3, 3), 0.1) + 3.0 * np.eye(3)
        xs, ys = big.seed(P.x, P.y)
        seeded = jstack([xs[0] * ys[1], ys[0], xs[2]]) + 2.0
        # full supports, a partial support, and a view of a
        return [a, b, m, seeded, restrict(a, 1, 4)]

    OPS = {
        "*": lambda a, b, m: a * b,
        "+": lambda a, b, m: a + b,
        "-": lambda a, b, m: a - b,
        "jet_einsum": lambda a, b, m: jet_einsum("ij,j->i", m, b),
        "d_x": lambda a, b, m: d_x(a),
        "d_y": lambda a, b, m: d_y(a),
        "restrict": lambda a, b, m: restrict(a, 1, 2),
        "shared": lambda a, b, m: shared([a, b, m]),
        "reciprocal": lambda a, b, m: a.reciprocal(),
        "sqrt": lambda a, b, m: sqrt(a),
        "exp": lambda a, b, m: exp(a),
        "log": lambda a, b, m: log(a),
        "sin": lambda a, b, m: sin(a),
        "cos": lambda a, b, m: cos(a),
        "jet_matrix_inverse": lambda a, b, m: jet_matrix_inverse(m),
    }

    @pytest.mark.parametrize("op", sorted(OPS))
    def test_operands_unchanged(self, op):
        pool = self.operands()
        before = [jet.c.tobytes() for jet in pool]
        a, b, m, seeded, view = pool
        for args in ((a, b, m), (view, seeded, m), (seeded, view, m),
                     (b, a, m)):
            self.OPS[op](*args)
        assert [jet.c.tobytes() for jet in pool] == before

    def test_x_only_restriction_is_a_view(self):
        a = self.operands()[0]
        for px in (0, 1):
            low = restrict(a, px, a.space.py)
            assert np.shares_memory(low.c, a.c)
            assert np.array_equal(low.c, a.c[:low.space.T])
        assert not np.shares_memory(restrict(a, 2, 3).c, a.c)
