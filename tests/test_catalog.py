"""Built-in reference metrics: domains, homogeneity, and the Riemannian
component matrix read off L."""

import numpy as np
import pytest

from finsler import catalog
from finsler.errors import ConfigError, DomainError
from finsler.metric import SamplePoint
from finsler.sampling import SamplingSpec, sample_points
from oracles import riemannian_a

P = SamplePoint([0.1, -0.2, 0.15], [0.7, -0.3, 1.1])


class TestConstructors:
    def test_euclidean_value(self):
        metric = catalog.euclidean(3)
        assert metric.L(SamplePoint([0, 0, 0], [3, 4, 0])) == \
            pytest.approx(5.0)

    def test_funk_domain(self):
        metric = catalog.funk(3)
        with pytest.raises(DomainError):
            metric.L(SamplePoint([1.1, 0, 0], [1, 0, 0]))
        assert metric.L(SamplePoint([0, 0, 0], [1, 0, 0])) == \
            pytest.approx(1.0)

    def test_negative_curvature_domain(self):
        metric = catalog.riemannian_space_form(3, -1.0)
        with pytest.raises(DomainError):
            metric.L(SamplePoint([2.5, 0, 0], [1, 0, 0]))

    def test_randers_domain(self):
        metric = catalog.randers_pflat(3)
        with pytest.raises(DomainError):
            metric.L(SamplePoint([0.8, 0.8, 0], [1, 0, 0]))

    def test_unknown_key(self):
        with pytest.raises(ConfigError):
            catalog.build_catalog_metric("nope", 3)

    def test_build_with_params(self):
        metric = catalog.build_catalog_metric(
            "riemannian_space_form", 3, kappa=-1.0)
        assert "kappa=-1" in metric.name

    def test_build_accepts_integer_values(self):
        """An integer fits a float parameter; an integer seed is kept."""
        metric = catalog.build_catalog_metric(
            "riemannian_space_form", 3, kappa=2)
        assert "kappa=2" in metric.name
        metric = catalog.build_catalog_metric(
            "perturbed_riemannian", 3, seed=5, eps=0)
        assert "seed=5" in metric.name

    @pytest.mark.parametrize("key, params", [
        ("riemannian_space_form", {"kappa": "1"}),
        ("riemannian_space_form", {"kappa": float("inf")}),
        ("perturbed_riemannian", {"seed": 2.0}),
        ("perturbed_riemannian", {"eps": False}),
    ], ids=["kappa-string", "kappa-inf", "seed-float", "eps-bool"])
    def test_build_rejects_bad_values(self, key, params):
        with pytest.raises(ConfigError, match="must be"):
            catalog.build_catalog_metric(key, 3, **params)


class TestHomogeneity:
    @pytest.mark.parametrize("metric", catalog.default_metrics(3),
                             ids=lambda m: m.name)
    def test_euler_degree_one(self, metric):
        points = sample_points(metric, SamplingSpec(count=10, seed=31))
        metric.check_homogeneity(points)  # raises on failure


class TestPerturbed:
    def test_polarized_components(self):
        """a(x) read off L is symmetric positive definite, and L^2 is its
        quadratic form."""
        metric = catalog.perturbed_riemannian(3, seed=0)
        a = riemannian_a(metric)(P.x)
        np.testing.assert_allclose(a, a.T, atol=1e-14)
        assert np.linalg.eigvalsh(a)[0] > 0
        L = metric.L(P)
        assert L * L == pytest.approx(float(P.y @ a @ P.y), rel=1e-12)

    def test_seed_determinism(self):
        L1 = catalog.perturbed_riemannian(3, seed=4).L(P)
        L2 = catalog.perturbed_riemannian(3, seed=4).L(P)
        L3 = catalog.perturbed_riemannian(3, seed=5).L(P)
        assert L1 == L2
        assert abs(L1 - L3) > 1e-4

    def test_funk_is_not_riemannian(self):
        """The polarization oracle refuses an L^2 that is not quadratic in
        y: funk is Riemannian only at x = 0."""
        a_fn = riemannian_a(catalog.funk(3))
        np.testing.assert_allclose(a_fn(np.zeros(3)), np.eye(3), atol=1e-15)
        with pytest.raises(ValueError, match="not quadratic"):
            a_fn(P.x)
