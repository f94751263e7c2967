"""Scalar-curvature extraction, the derivative ladder, the
characterization checks, and classification verdicts."""

from dataclasses import asdict
from functools import cached_property

import numpy as np
import pytest

from finsler import catalog, scalarclass
from finsler.engine import ChartJets, chart
from finsler.errors import DimensionTooSmall, InternalInconsistency
from finsler.jets import dot, sqrt
from finsler.metric import FinslerMetric, SamplePoint
from finsler.sampling import SamplingSpec, sample_points
from finsler.scalarclass import classify
from finsler.suites import (SUITES, UNIVERSAL_SUITES, isotropy, run_suites,
                            suite_lemma22, suite_lemma23, suite_prop21)
from oracles import deviation_fd, projected_norms, space_form_a

P = SamplePoint([0.1, -0.2, 0.15], [0.7, -0.3, 1.1])


def run_suite(name, metric, p):
    return SUITES[name](chart(metric, p, name))


def extract_k(metric, p):
    return chart(metric, p, "k").k.value()


def isotropy_residual(metric, p):
    cj = chart(metric, p, "H")
    return isotropy(cj.H.value(), cj.k.value(), cj.L.value(),
                    cj.phi.value())


def prop21_with_norms(metric, p):
    """The prop21 suite plus the two projected norms Prop 2.1 compares."""
    cj = chart(metric, p, "prop21")
    res = suite_prop21(cj)
    res["projected_curvature_norm"], res["projected_N_norm"] = \
        projected_norms(cj)
    return res


CONSTANT_METRICS = [
    catalog.euclidean(3),
    catalog.riemannian_space_form(3, 1.0),
    catalog.riemannian_space_form(3, -1.0),
    catalog.funk(3),
]


class TestExtraction:
    def test_euclidean_zero(self):
        assert extract_k(catalog.euclidean(3), P) == 0.0
        assert isotropy_residual(catalog.euclidean(3), P) == 0.0

    @pytest.mark.parametrize("kappa", [1.0, -1.0])
    def test_space_form_oracle(self, kappa):
        metric = catalog.riemannian_space_form(3, kappa)
        k = extract_k(metric, P)
        assert k == pytest.approx(kappa, abs=1e-10)
        # cross-check the trace formula against the Riemann oracle
        H = deviation_fd(space_form_a(kappa), P.x, P.y)
        a0 = space_form_a(kappa)(P.x)
        L2 = float(P.y @ a0 @ P.y)
        assert np.trace(H) / (2.0 * L2) == pytest.approx(k, abs=1e-6)

    def test_funk_value(self):
        assert extract_k(catalog.funk(3), P) == pytest.approx(-0.25,
                                                              abs=1e-12)

    def test_perturbed_not_isotropic(self):
        metric = catalog.perturbed_riemannian(3, seed=0)
        points = sample_points(metric, SamplingSpec(count=10, seed=21))
        bad = sum(isotropy_residual(metric, p) > 1e-2 for p in points)
        assert bad >= 8


class TestDerivativeLadder:
    @pytest.mark.parametrize("metric", CONSTANT_METRICS,
                             ids=lambda m: m.name)
    def test_ladder_vanishes_on_constant(self, metric):
        cj = chart(metric, P, "A")
        assert np.abs(cj.C.value()).max() < 1e-12
        assert np.abs(cj.B.value()).max() < 1e-12
        assert np.abs(cj.A.value()).max() < 1e-12

    def test_randers_nonzero_with_lemmas(self):
        metric = catalog.randers_pflat(3)
        cj = ChartJets(metric, P, 2, 7)
        assert np.abs(cj.C.value()).max() > 1e-3
        res = suite_lemma22(cj)
        res.update(suite_lemma23(cj))
        for name, val in res.items():
            assert val < 1e-10, name

    def test_tensor_accessors(self):
        metric = catalog.randers_pflat(3)
        # each form at the jet orders it needs
        C = chart(metric, P, "C").C.value()
        B = chart(metric, P, "B").B.value()
        A = chart(metric, P, "A").A.value()
        # B symmetric, everything indicatory
        assert np.abs(B - B.T).max() < 1e-12
        assert abs(C @ P.y) < 1e-12
        assert np.abs(A @ P.y).max() < 1e-10

    def test_NF_forms(self):
        metric = catalog.riemannian_space_form(3, 1.0)
        cj = ChartJets(metric, P, 2, 6)
        g, ell = cj.g.value(), cj.ell.value()
        # constant curvature kills B and C: N = k(g + ell ell), F = 0
        np.testing.assert_allclose(cj.Ntensor,
                                   g + np.outer(ell, ell), atol=1e-12)
        assert np.abs(cj.F).max() < 1e-12
        cj0 = ChartJets(catalog.euclidean(3), P, 2, 6)
        assert np.abs(cj0.Ntensor).max() < 1e-14
        assert np.abs(cj0.F).max() < 1e-14


class TestChecks:
    def test_theorem21_on_scalar_metrics(self):
        for metric in CONSTANT_METRICS + [catalog.randers_pflat(3)]:
            res = run_suite("theorem21", metric, P)
            assert res["deviation_isotropic"] < 1e-10, metric.name
            assert res["torsion_form"] < 1e-10, metric.name
            assert res["curvature_form"] < 1e-10, metric.name

    def test_theorem21_negative_control(self):
        metric = catalog.perturbed_riemannian(3, seed=0)
        res = run_suite("theorem21", metric, P)
        assert res["deviation_isotropic"] > 1e-2
        assert res["torsion_form"] > 1e-2

    def test_corollary21(self):
        for metric in CONSTANT_METRICS + [catalog.randers_pflat(3)]:
            res = run_suite("corollary21", metric, P)
            assert res["antisymmetric_part"] < 1e-10, metric.name
            assert res["symmetric_part"] < 1e-10, metric.name

    def test_prop21_biconditional(self):
        tol = 1e-7
        for metric in CONSTANT_METRICS + [catalog.randers_pflat(3)]:
            for p in sample_points(metric, SamplingSpec(count=5, seed=23)):
                res = prop21_with_norms(metric, p)
                pr = res["projected_curvature_norm"]
                pn = res["projected_N_norm"]
                assert (pr < tol) == (pn < tol), metric.name
                assert res["projected_curvature_form"] < 1e-10

    def test_prop21_euclidean_both_zero(self):
        res = prop21_with_norms(catalog.euclidean(3), P)
        assert res["projected_curvature_norm"] == 0.0
        assert res["projected_N_norm"] == 0.0

    def test_prop21_sphere_both_nonzero(self):
        res = prop21_with_norms(catalog.riemannian_space_form(3, 1.0), P)
        assert res["projected_curvature_norm"] > 1e-3
        assert res["projected_N_norm"] > 1e-3

    def test_lemma31(self):
        for metric in CONSTANT_METRICS + [catalog.randers_pflat(3)]:
            res = run_suite("lemma31", metric, P)
            assert res["A_from_B"] < 1e-10, metric.name
        # the antisymmetry obstruction vanishes exactly on constant
        # curvature (A and C both zero there)
        for metric in CONSTANT_METRICS:
            res = run_suite("lemma31", metric, P)
            assert res["constancy_obstruction"] < 1e-12, metric.name

    def test_horizontal_k_constancy(self):
        """On constant-curvature metrics the horizontal derivative of k
        vanishes; on the scalar (non-constant) entry it does not."""
        for metric in CONSTANT_METRICS:
            cj = ChartJets(metric, P, 3, 5)
            assert np.abs(cj.h_cov(cj.k).value()).max() < 1e-10, metric.name
        cj = ChartJets(catalog.randers_pflat(3), P, 3, 5)
        assert np.abs(cj.h_cov(cj.k).value()).max() > 1e-3


class TestClassify:
    def test_dimension_too_small(self):
        with pytest.raises(DimensionTooSmall):
            classify(catalog.euclidean(2))

    @pytest.mark.parametrize("metric,verdict", [
        (catalog.euclidean(3), "constant"),
        (catalog.riemannian_space_form(3, 1.0), "constant"),
        (catalog.riemannian_space_form(3, -1.0), "constant"),
        (catalog.funk(3), "constant"),
        (catalog.randers_pflat(3), "scalar"),
        (catalog.perturbed_riemannian(3, seed=0), "generic"),
    ], ids=lambda v: v.name if hasattr(v, "name") else str(v))
    def test_catalog_verdicts(self, metric, verdict):
        report = classify(metric, SamplingSpec(count=8, seed=25))
        assert report.verdict == verdict
        if metric.name == "funk":
            assert report.k_mean == pytest.approx(-0.25, abs=1e-10)
            assert report.k_std < 1e-12
        if verdict == "scalar":
            assert report.residuals["max_C_norm"]["value"] > 1e-3

    def test_fd_backend_on_funk(self):
        report = classify(catalog.funk(3), SamplingSpec(count=4, seed=26),
                          backend="fd")
        assert report.verdict == "constant"
        assert report.k_mean == pytest.approx(-0.25, abs=1e-3)

    def test_report_contents(self):
        report = classify(catalog.funk(3), SamplingSpec(count=3, seed=27))
        assert report.sample_count == 3
        assert len(report.k_samples) == 3
        assert report.backend == "jet"
        d = asdict(report)
        assert d["verdict"] == "constant"
        for entry in d["residuals"].values():
            assert set(entry) == {"value", "tolerance"}


class TestSampleOrder:
    """A verdict does not depend on the order of the sample points: the
    same points, permuted, give the same verdict, per-point values and
    maxima; the mean and spread of k move only by summation order."""

    SPEC = SamplingSpec(count=4, seed=31)
    PERM = [2, 0, 3, 1]

    @pytest.mark.parametrize("backend", ["jet", "fd"])
    @pytest.mark.parametrize("metric", catalog.default_metrics(3),
                             ids=lambda m: m.name)
    def test_classify(self, monkeypatch, metric, backend):
        def permuted(metric, spec):
            points = sample_points(metric, spec)
            return [points[i] for i in self.PERM]

        base = classify(metric, self.SPEC, backend=backend)
        monkeypatch.setattr(scalarclass, "sample_points", permuted)
        perm = classify(metric, self.SPEC, backend=backend)
        assert perm.verdict == base.verdict
        assert perm.k_samples == [base.k_samples[i] for i in self.PERM]
        for name, entry in base.residuals.items():
            if name.startswith("max_"):
                assert perm.residuals[name] == entry, name
        tol = 1e-15 * (1.0 + abs(base.k_mean))
        assert abs(perm.k_mean - base.k_mean) <= tol
        assert abs(perm.k_std - base.k_std) <= tol

    @pytest.mark.parametrize("metric", catalog.default_metrics(3),
                             ids=lambda m: m.name)
    def test_run_suites(self, metric):
        points = sample_points(metric, self.SPEC)
        base = run_suites(metric, points, SUITES)
        perm = run_suites(metric, [points[i] for i in self.PERM], SUITES)

        def per_point(records, order):
            return [[(r["suite"], r["identity"], r["residual"])
                     for r in records if r["sample"] == j] for j in order]

        assert per_point(perm, range(4)) == per_point(base, self.PERM)


def _mutate(monkeypatch, name, change):
    """Make the ChartJets attribute ``name`` change(its jet): a planted
    defect for the cross-checks of classify to find."""
    build = ChartJets.__dict__[name].func
    prop = cached_property(lambda cj: change(build(cj)))
    prop.__set_name__(ChartJets, name)
    monkeypatch.setattr(ChartJets, name, prop)


class TestInternalInconsistency:
    """classify refuses a verdict when its redundant criteria disagree."""

    def test_constancy_criteria_disagree(self, monkeypatch):
        _mutate(monkeypatch, "A", lambda A: A + 1.0)
        with pytest.raises(InternalInconsistency, match=(
                r"^constancy criteria disagree on funk: \|C\|=\S+e-\d+, "
                r"\|B\|=\S+e-\d+, \|A\|=1\.000e\+00 at tolerance 1e-07$")):
            classify(catalog.funk(3), SamplingSpec(count=2, seed=0))

    def test_C_criterion_and_k_spread_disagree(self, monkeypatch):
        _mutate(monkeypatch, "C", lambda C: C * 0.0)
        with pytest.raises(InternalInconsistency, match=(
                r"^C-criterion and k-spread witness disagree on "
                r"randers_pflat: \|C\|=0\.000e\+00, std\(k\)=\S+$")):
            classify(catalog.randers_pflat(3), SamplingSpec(count=3, seed=0))


# ---------------------------------------------------------------------------
# power: every characterization identity can fail

def f_eps(eps):
    """F_eps = |y| + 0.3<x, y> + eps x_1 y_2 on the unit ball: a Randers
    metric whose 1-form is closed, so projectively flat and of scalar
    curvature, only at eps = 0; a characterization residual grows as
    eps^2 from the rounding floor."""

    def L(x, y):
        return sqrt(dot(y, y)) + 0.3 * dot(x, y) + eps * x[0] * y[1]

    return FinslerMetric(n=3, evaluate=L, name=f"F_eps({eps:g})",
                         domain=catalog._ball(1.0))


POWER_POINTS = sample_points(catalog.randers_pflat(3),
                             SamplingSpec(count=3, seed=0, radius=0.3))
CHARACTERIZATION_SUITES = [s for s in SUITES if s not in UNIVERSAL_SUITES]


def max_residuals(metric, suite):
    """{identity: max residual over POWER_POINTS} of one suite."""
    out = {}
    for r in run_suites(metric, POWER_POINTS, [suite]):
        out[r["identity"]] = max(out.get(r["identity"], 0.0), r["residual"])
    return out


class TestPower:
    """Each identity of a suite outside UNIVERSAL_SUITES must fail where
    the curvature is not scalar: above 1e-3 on the generic metric; on
    F_eps at eps = 1e-3 more than 1e3 times its value on randers_pflat;
    and from eps = 1e-3 to 1e-1 up by eps^2, 1e4, within a factor of 2.
    An identity that holds on every metric belongs to a universal suite
    or nowhere."""

    @pytest.mark.parametrize("suite", CHARACTERIZATION_SUITES)
    def test_identities_detect_non_scalar_curvature(self, suite):
        generic = max_residuals(catalog.perturbed_riemannian(3), suite)
        floor = max_residuals(catalog.randers_pflat(3), suite)
        small = max_residuals(f_eps(1e-3), suite)
        large = max_residuals(f_eps(1e-1), suite)
        weak = []
        for ident in generic:
            growth = large[ident] / max(small[ident], 1e-300)
            print(f"{suite}.{ident}: generic {generic[ident]:.2e}, "
                  f"randers_pflat {floor[ident]:.2e}, F_eps(1e-3) "
                  f"{small[ident]:.2e}, F_eps(1e-1) {large[ident]:.2e}, "
                  f"growth {growth:.3g}")
            if not (generic[ident] > 1e-3
                    and small[ident] > 1e3 * floor[ident]
                    and 5e3 <= growth <= 2e4):
                weak.append(ident)
        assert not weak, f"{suite} identities that cannot fail: {weak}"
