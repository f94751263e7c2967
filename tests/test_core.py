"""Sample points and the structural frame (L, g, g^-1, ell, phi, hbar)."""

import numpy as np
import pytest

from finsler import catalog
from finsler.engine import chart
from finsler.errors import DegenerateMetric, DomainError
from finsler.jets import sqrt
from finsler.metric import FinslerMetric, SamplePoint
from finsler.sampling import SamplingSpec, sample_points

P = SamplePoint([0.1, -0.2, 0.15], [0.7, -0.3, 1.1])


class TestTensorValue:
    def test_sample_point_validation(self):
        with pytest.raises(DomainError):
            SamplePoint([0.0, 0.0, 0.0], [0.0, 0.0, 0.0])  # zero direction
        with pytest.raises(DomainError):
            SamplePoint([0.0, 0.0], [1.0, 0.0, 0.0])  # length mismatch


def frame(metric, p):
    """The structural frame at the jet orders g^-1 needs."""
    cj = chart(metric, p, "g_inv")
    return (cj.L.value(), cj.g.value(), cj.g_inv.value(), cj.ell.value(),
            cj.phi.value(), cj.hbar)


class TestStructuralFrame:
    def test_euclidean_closed_form(self):
        _, g, _, ell, _, hbar = frame(catalog.euclidean(3), P)
        u = P.y / np.linalg.norm(P.y)
        np.testing.assert_allclose(g, np.eye(3), atol=1e-12)
        np.testing.assert_allclose(ell, u, atol=1e-12)
        np.testing.assert_allclose(hbar, np.eye(3) - np.outer(u, u),
                                   atol=1e-12)

    @pytest.mark.parametrize("key", sorted(catalog.CATALOG))
    def test_frame_invariants(self, key):
        params = {"kappa": 1.0} if key == "riemannian_space_form" else {}
        metric = catalog.build_catalog_metric(key, 3, **params)
        for p in sample_points(metric, SamplingSpec(count=5, seed=11)):
            L, g, g_inv, ell, phi, hbar = frame(metric, p)
            assert float(ell @ p.y) == pytest.approx(L, rel=1e-10)
            assert np.abs(phi @ p.y).max() < 1e-10
            assert np.abs(hbar @ p.y).max() < 1e-10 * max(1, L)
            np.testing.assert_allclose(g, hbar + np.outer(ell, ell),
                                       atol=1e-10)
            assert np.trace(phi) == pytest.approx(2.0, abs=1e-10)
            np.testing.assert_allclose(g_inv @ g, np.eye(3), atol=1e-9)
            np.testing.assert_allclose(g, g.T, atol=1e-12)
            # ell is the metric pairing with the normalized direction
            np.testing.assert_allclose(ell, g @ p.y / L, atol=1e-10)

    def test_domain_error(self):
        metric = catalog.funk(3)
        with pytest.raises(DomainError):
            frame(metric, SamplePoint([1.2, 0, 0], [1, 0, 0]))

    def test_degenerate_metric(self):
        # |y|^2 + 3 y1 y2 has an indefinite fiber Hessian
        def L(x, y):
            return sqrt(y[0] * y[0] + y[1] * y[1] + y[2] * y[2]
                        + 3.0 * y[0] * y[1])

        metric = FinslerMetric(n=3, evaluate=L, name="indefinite")
        with pytest.raises(DegenerateMetric) as info:
            frame(metric, SamplePoint([0, 0, 0], [1, 1, 0.5]))
        assert info.value.min_eigenvalue is not None
