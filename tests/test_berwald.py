"""Spray, nonlinear connection, connection coefficients, and covariant
derivatives, cross-checked against an independent Christoffel-symbol
oracle on Riemannian metrics."""

import numpy as np
import pytest

from finsler import catalog
from finsler.engine import ChartJets, chart
from finsler.jets import d_y, jet_einsum
from finsler.metric import SamplePoint
from finsler.sampling import SamplingSpec, sample_points
from oracles import christoffel_fd, riemannian_a

P = SamplePoint([0.1, -0.2, 0.15], [0.7, -0.3, 1.1])


def spray(metric, p):
    """The geodesic spray G^i at the orders it needs."""
    return ChartJets(metric, p, 1, 2).G.value()


ALL_METRICS = [
    catalog.euclidean(3),
    catalog.riemannian_space_form(3, 1.0),
    catalog.riemannian_space_form(3, -1.0),
    catalog.funk(3),
    catalog.randers_pflat(3),
    catalog.perturbed_riemannian(3, seed=0),
]


class TestSpray:
    def test_euclidean_vanishes(self):
        assert np.abs(spray(catalog.euclidean(3), P)).max() == 0.0

    @pytest.mark.parametrize("kappa", [1.0, -1.0])
    def test_riemannian_christoffel_oracle(self, kappa):
        metric = catalog.riemannian_space_form(3, kappa)
        gamma = christoffel_fd(riemannian_a(metric), P.x)
        expected = 0.5 * np.einsum("ijk,j,k->i", gamma, P.y, P.y)
        np.testing.assert_allclose(spray(metric, P), expected, atol=1e-9)

    def test_perturbed_christoffel_oracle(self):
        metric = catalog.perturbed_riemannian(3, seed=0)
        gamma = christoffel_fd(riemannian_a(metric), P.x)
        expected = 0.5 * np.einsum("ijk,j,k->i", gamma, P.y, P.y)
        np.testing.assert_allclose(spray(metric, P), expected, atol=1e-8)

    def test_degree_two_homogeneity(self):
        metric = catalog.funk(3)
        G1 = spray(metric, P)
        P2 = SamplePoint(P.x, 2.0 * P.y)
        G2 = spray(metric, P2)
        np.testing.assert_allclose(G2, 4.0 * G1, rtol=1e-10)


class TestConnection:
    def test_euclidean_vanishes(self):
        cj = chart(catalog.euclidean(3), P, "Gamma")
        assert np.abs(cj.N.value()).max() == 0.0
        assert np.abs(cj.Gamma.value()).max() == 0.0

    @pytest.mark.parametrize("metric", ALL_METRICS,
                             ids=lambda m: m.name)
    def test_invariants(self, metric):
        for p in sample_points(metric, SamplingSpec(count=4, seed=13)):
            cj = chart(metric, p, "Gamma")
            G, N, Gamma = cj.G.value(), cj.N.value(), cj.Gamma.value()
            # torsion-freeness: symmetric lower pair
            assert np.abs(Gamma - Gamma.transpose(0, 2, 1)).max() < 1e-10
            # homogeneity contractions
            np.testing.assert_allclose(Gamma @ p.y, N, atol=1e-10)
            np.testing.assert_allclose(N @ p.y, 2.0 * G, atol=1e-10)

    def test_riemannian_coefficients_are_christoffel(self):
        metric = catalog.perturbed_riemannian(3, seed=1)
        gamma = christoffel_fd(riemannian_a(metric), P.x)
        Gamma = chart(metric, P, "Gamma").Gamma.value()
        np.testing.assert_allclose(Gamma, gamma, atol=1e-8)
        # and they are independent of y for a Riemannian metric
        p2 = SamplePoint(P.x, [0.3, 1.4, -0.8])
        Gamma2 = chart(metric, p2, "Gamma").Gamma.value()
        np.testing.assert_allclose(Gamma2, Gamma, atol=1e-10)


class TestCovariantDerivatives:
    @pytest.mark.parametrize("metric", ALL_METRICS,
                             ids=lambda m: m.name)
    def test_horizontal_constancy(self, metric):
        cj = ChartJets(metric, P, 2, 4)
        assert np.abs(cj.h_cov(cj.L).value()).max() < 1e-10
        assert np.abs(cj.h_cov(cj.ell).value()).max() < 1e-10

    def test_euclidean_constant_field(self):
        cj = ChartJets(catalog.euclidean(3), P, 2, 4)
        const = cj.space.constant(np.array([1.0, 2.0, 3.0]))
        assert np.abs(cj.h_cov(const).value()).max() == 0.0

    # vertical covariant derivatives are plain fiber derivatives d_y,
    # since the vertical connection coefficients vanish

    def test_vertical_of_L_is_ell(self):
        metric = catalog.funk(3)
        cj = ChartJets(metric, P, 0, 3)
        np.testing.assert_allclose(d_y(cj.L).value(), cj.ell.value(),
                                   atol=1e-12)

    def test_vertical_of_phi(self):
        metric = catalog.randers_pflat(3)
        cj = ChartJets(metric, P, 0, 3)
        L = cj.L.value()
        phi, ell = cj.phi.value(), cj.ell.value()
        hbar = cj.hbar
        pred = -(np.einsum("jc,i->ijc", hbar, P.y)
                 + L * np.einsum("ic,j->ijc", phi, ell)) / (L * L)
        np.testing.assert_allclose(d_y(cj.phi).value(), pred, atol=1e-10)

    def test_vertical_of_x_independent_scalar(self):
        cj = ChartJets(catalog.euclidean(3), P, 0, 3)
        out = d_y(cj.space.constant(3.7))
        assert np.abs(out.value()).max() == 0.0


class TestHomogeneityLadder:
    """Euler checks: y . d_y f = r f for each pipeline tensor."""

    @pytest.mark.parametrize("metric", ALL_METRICS,
                             ids=lambda m: m.name)
    def test_degrees(self, metric):
        cj = ChartJets(metric, P, 2, 5)
        cases = [
            (cj.L, 1, ""), (cj.g, 0, "ab"), (cj.G, 2, "a"),
            (cj.N, 1, "ab"), (cj.Gamma, 0, "abc"), (cj.k, 0, ""),
        ]
        for f, degree, sub in cases:
            euler = jet_einsum(f"{sub}w,w->{sub}", d_y(f), cj.yjet)
            resid = np.abs(np.asarray(euler.value())
                           - degree * np.asarray(f.value())).max()
            scale = max(1.0, np.abs(np.asarray(f.value())).max())
            assert resid / scale < 1e-10, (degree, sub)
