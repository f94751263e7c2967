"""Torsion, full curvature, deviation tensor, and the universal
identities relating them; oracles are the brute-force Riemann tensor on
Riemannian entries and closed forms on constant-curvature models."""

import numpy as np
import pytest

from finsler import catalog
from finsler.dsl import metric_from_dsl
from finsler.engine import ChartJets, chart
from finsler.metric import SamplePoint
from finsler.sampling import SamplingSpec, sample_points
from finsler.suites import suite_bianchi
from oracles import (H_spray, deviation_fd, k_pflat, riemann_fd,
                     space_form_a)

P = SamplePoint([0.1, -0.2, 0.15], [0.7, -0.3, 1.1])
P4 = SamplePoint([0.1, -0.2, 0.15, 0.05], [0.7, -0.3, 1.1, 0.4])

# the Randers metric of demos/04_dsl_and_cli.py, on jets through the DSL
DSL_RANDERS = metric_from_dsl(
    "sqrt(norm2(y)) + b * dot(x, y) / sqrt(1 + b^2 * norm2(x))", 3,
    name="randers-dsl", constants={"b": 0.3})


def torsion(metric, p):
    return ChartJets(metric, p, 2, 4).Rhat.value()


def deviation(metric, p):
    return ChartJets(metric, p, 2, 4).H.value()


def bianchi_cyclic(metric, p):
    """The cyclic-identity residual of the bianchi suite."""
    return suite_bianchi(chart(metric, p, "bianchi"))["cyclic_identity"]


ALL_METRICS = [
    catalog.euclidean(3),
    catalog.riemannian_space_form(3, 1.0),
    catalog.riemannian_space_form(3, -1.0),
    catalog.funk(3),
    catalog.randers_pflat(3),
    catalog.perturbed_riemannian(3, seed=0),
]


class TestTorsion:
    def test_euclidean_zero(self):
        assert np.abs(torsion(catalog.euclidean(3), P)).max() == 0.0

    @pytest.mark.parametrize("metric", ALL_METRICS, ids=lambda m: m.name)
    def test_antisymmetry(self, metric):
        arr = torsion(metric, P)
        scale = max(1.0, np.abs(arr).max())
        assert np.abs(arr + arr.transpose(0, 2, 1)).max() / scale < 1e-10

    @pytest.mark.parametrize("kappa", [1.0, -1.0])
    def test_constant_curvature_closed_form(self, kappa):
        metric = catalog.riemannian_space_form(3, kappa)
        cj = ChartJets(metric, P, 2, 4)
        Rhat = cj.Rhat.value()
        L, ell = cj.L.value(), cj.ell.value()
        pred = kappa * L * (np.einsum("x,iy->ixy", ell, np.eye(3))
                            - np.einsum("y,ix->ixy", ell, np.eye(3)))
        np.testing.assert_allclose(Rhat, pred, atol=1e-10)


class TestDeviation:
    def test_euclidean_zero(self):
        assert np.abs(deviation(catalog.euclidean(3), P)).max() == 0.0

    @pytest.mark.parametrize("kappa", [1.0, -1.0])
    def test_riemann_oracle_space_form(self, kappa):
        metric = catalog.riemannian_space_form(3, kappa)
        H = deviation(metric, P)
        oracle = deviation_fd(space_form_a(kappa), P.x, P.y)
        np.testing.assert_allclose(H, oracle, atol=1e-6)
        # closed form: H = kappa L^2 phi
        cj = ChartJets(metric, P, 2, 4)
        pred = kappa * cj.L.value() ** 2 * cj.phi.value()
        np.testing.assert_allclose(H, pred, atol=1e-10)

    def test_riemann_oracle_perturbed(self):
        metric = catalog.perturbed_riemannian(3, seed=0)
        H = deviation(metric, P)
        oracle = deviation_fd(metric.a_matrix, P.x, P.y)
        assert np.abs(H - oracle).max() < 1e-5 * max(1, np.abs(H).max())

    @pytest.mark.parametrize("n", [3, 4])
    def test_randers_pflat_closed_form(self, n):
        """F = |y| + <x, y> is projectively flat: with P = F_{x^k} y^k /
        (2F) = |y|^2 / (2F), K = (P^2 - P_{x^k} y^k) / F^2 = 3|y|^4 /
        (4F^4) (Chern-Shen, Riemann-Finsler Geometry, ch. 8).  Its L has
        x-degree 1, so k varies through every product of x- and y-jets."""
        metric = catalog.randers_pflat(n)
        for p in sample_points(metric, SamplingSpec(count=4, seed=5)):
            F = np.linalg.norm(p.y) + p.x @ p.y
            want = 3.0 * (p.y @ p.y) ** 2 / (4.0 * F ** 4)
            assert chart(metric, p, "k").k.value() == pytest.approx(
                want, rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("n", [3, 4])
    @pytest.mark.parametrize("make", [catalog.funk, catalog.randers_pflat],
                             ids=["funk", "randers_pflat"])
    def test_projectively_flat_oracle(self, make, n):
        """Jet k against K from float x-derivatives of L alone
        (``oracles.k_pflat``), which shares no code with the spray, N, Rhat
        and H chain of the engine."""
        metric = make(n)
        for p in sample_points(metric, SamplingSpec(count=4, seed=3)):
            assert chart(metric, p, "k").k.value() == pytest.approx(
                k_pflat(metric, p), rel=1e-6, abs=0.0)

    @pytest.mark.parametrize("p", [P, P4], ids=["n3", "n4"])
    def test_randers_pflat_C_closed_form(self, p):
        """C = F dk/dy of the closed form k = 3|y|^4 / (4F^4) above:
        C = 3|y|^2 / F^3 (y - |y|^2 (y/|y| + x) / F)."""
        r = np.linalg.norm(p.y)
        F = r + p.x @ p.y
        want = 3.0 * r ** 2 / F ** 3 * (p.y - r ** 2 * (p.y / r + p.x) / F)
        C = chart(catalog.randers_pflat(len(p.y)), p, "C").C.value()
        assert np.abs(C - want).max() <= 1e-12 * np.abs(want).max()

    @pytest.mark.parametrize("metric", catalog.default_metrics(3)
                             + catalog.default_metrics(4) + [DSL_RANDERS],
                             ids=lambda m: f"{m.name}-n{m.n}")
    def test_spray_formula(self, metric):
        """Jet H equals the curvature from the spray alone
        (``oracles.H_spray``), and k is tr H / ((n - 1) L^2) of it.  This
        catches a wrong Rhat, H or k; a wrong G is read by both sides."""
        for p in sample_points(metric, SamplingSpec(count=4, seed=11)):
            cj = ChartJets(metric, p, 2, 4)
            H, R, L = cj.H.value(), H_spray(cj), cj.L.value()
            assert np.abs(H - R).max() <= 1e-12 * max(1.0, np.abs(H).max())
            k_R = np.trace(R) / ((metric.n - 1) * L * L)
            assert abs(cj.k.value() - k_R) <= 1e-12 * max(1.0, abs(k_R))

    @pytest.mark.parametrize("metric", ALL_METRICS, ids=lambda m: m.name)
    def test_kills_direction(self, metric):
        H = deviation(metric, P)
        assert np.abs(H @ P.y).max() < 1e-10 * max(1, np.abs(H).max())


class TestFullCurvature:
    def test_euclidean_zero(self):
        cj = ChartJets(catalog.euclidean(3), P, 2, 5)
        assert np.abs(cj.R.value()).max() == 0.0
        assert np.abs(cj.R_low).max() == 0.0

    @pytest.mark.parametrize("metric", ALL_METRICS, ids=lambda m: m.name)
    def test_contracts_to_torsion(self, metric):
        cj = chart(metric, P, "R_low")
        Rhat = cj.Rhat.value()
        back = np.einsum("ixyz,z->ixy", cj.R.value(), P.y)
        scale = max(1.0, np.abs(Rhat).max())
        assert np.abs(back - Rhat).max() / scale < 1e-10

    @pytest.mark.parametrize("kappa", [1.0, -1.0])
    def test_lowered_matches_riemann_oracle(self, kappa):
        metric = catalog.riemannian_space_form(3, kappa)
        Rlow = ChartJets(metric, P, 2, 5).R_low
        riem = riemann_fd(space_form_a(kappa), P.x)
        a0 = space_form_a(kappa)(P.x)
        lowered = np.einsum("wi,ijkl->jklw", a0, riem)
        oracle = lowered.transpose(2, 1, 0, 3)  # slot arrangement
        np.testing.assert_allclose(Rlow, oracle, atol=1e-6)

    @pytest.mark.parametrize("kappa", [1.0, -1.0])
    def test_lowered_closed_form(self, kappa):
        metric = catalog.riemannian_space_form(3, kappa)
        cj = ChartJets(metric, P, 2, 5)
        g = cj.g.value()
        pred = kappa * (np.einsum("zx,yw->xyzw", g, g)
                        - np.einsum("zy,xw->xyzw", g, g))
        np.testing.assert_allclose(cj.R_low, pred, atol=1e-10)


class TestUniversalIdentities:
    @pytest.mark.parametrize("metric", ALL_METRICS, ids=lambda m: m.name)
    def test_reconstruction_from_deviation(self, metric):
        """The torsion is one third of the antisymmetrized fiber
        derivative of the deviation tensor — on every metric, including
        the non-isotropic control."""
        cj = ChartJets(metric, P, 3, 5)
        res = suite_bianchi(cj)
        assert res["torsion_from_deviation"] < 1e-10

    @pytest.mark.parametrize("metric", ALL_METRICS, ids=lambda m: m.name)
    def test_bianchi_cyclic_sum(self, metric):
        assert bianchi_cyclic(metric, P) < 1e-10

    def test_bianchi_funk_many_points(self):
        metric = catalog.funk(3)
        for p in sample_points(metric, SamplingSpec(count=20, seed=17)):
            assert bianchi_cyclic(metric, p) < 1e-6

    def test_bianchi_sphere(self):
        metric = catalog.riemannian_space_form(3, 1.0)
        for p in sample_points(metric, SamplingSpec(count=5, seed=18)):
            assert bianchi_cyclic(metric, p) < 1e-6
