"""Acceptance gate.

Each test covers one acceptance criterion and prints a single
``[PASS]``/``[FAIL]`` line with the measured figure of merit, then
asserts it.  Oracles are independent of the jet engine: brute-force
Riemann tensors from the Riemannian matrix field, closed-form values on
the constant-curvature models, and the finite-difference pipeline.
"""

import json

import numpy as np
import pytest

from finsler import catalog
from finsler.cli import main
from finsler.engine import ChartJets, chart
from finsler.fdpipe import FDPipeline
from finsler.sampling import SamplingSpec, sample_points
from finsler.scalarclass import classify
from finsler.suites import isotropy, run_suites, suite_prop21
from oracles import deviation_fd, projected_norms, space_form_a

N = 3

CATALOG_METRICS = catalog.default_metrics(N)
SCALAR_METRICS = [m for m in CATALOG_METRICS
                  if not m.name.startswith("perturbed_riemannian")]


def isotropy_residual(metric, p):
    cj = chart(metric, p, "H")
    return isotropy(cj.H.value(), cj.k.value(), cj.L.value(),
                    cj.phi.value())


def emit(capsys, num, label, ok, detail):
    status = "PASS" if ok else "FAIL"
    with capsys.disabled():
        print(f"[{status}] acceptance {num} — {label}: {detail}")
    assert ok, f"acceptance {num} ({label}): {detail}"


def test_01_structural_identities(capsys):
    """Structural-frame identities hold to 1e-7 on 100 samples of every
    catalog metric."""
    tol = 1e-7
    worst = 0.0
    for metric in CATALOG_METRICS:
        points = sample_points(metric, SamplingSpec(count=100, seed=101))
        records = run_suites(metric, points, ["lemma21"])
        worst = max(worst, max(r["residual"] for r in records))
    emit(capsys, 1, "structural identities", worst < tol,
         f"max residual {worst:.2e} over 6 metrics x 100 samples "
         f"(tol {tol:.0e})")


def test_02_universal_curvature_identities(capsys):
    """Torsion reconstruction from the deviation tensor, contraction of
    the full curvature back to the torsion, and the Bianchi cyclic sum
    hold on every catalog metric including the non-scalar control."""
    tol = 1e-6
    names = ("torsion_from_deviation", "curvature_contracts_to_torsion",
             "cyclic_identity")
    worst = 0.0
    for metric in CATALOG_METRICS:
        points = sample_points(metric, SamplingSpec(count=15, seed=102))
        records = run_suites(metric, points, ["bianchi"])
        worst = max(worst, max(r["residual"] for r in records
                               if r["identity"] in names))
    emit(capsys, 2, "universal curvature identities", worst < tol,
         f"max residual {worst:.2e} over 6 metrics x 15 samples "
         f"(tol {tol:.0e})")


def test_03_known_curvature_oracles(capsys):
    """Extracted curvature scalar matches independent oracles: the
    brute-force Riemann tensor on the space forms, the closed-form value
    -1/4 on the projective-sphere entry, and exact zeros on the flat
    entry."""
    tol = 1e-6
    jet_errs, oracle_errs = [], []
    for kappa in (-1.0, 0.0, 1.0):
        metric = (catalog.euclidean(N) if kappa == 0.0
                  else catalog.riemannian_space_form(N, kappa))
        for p in sample_points(metric, SamplingSpec(count=10, seed=103)):
            jet_errs.append(abs(chart(metric, p, "k").k.value() - kappa))
            # engine-independent witness via the FD Riemann oracle
            a_fn = (space_form_a(kappa) if kappa != 0.0
                    else lambda x: np.eye(N))
            H = deviation_fd(a_fn, p.x, p.y)
            L2 = float(p.y @ a_fn(p.x) @ p.y)
            oracle_errs.append(abs(np.trace(H) / (2.0 * L2) - kappa))
    space_err = max(jet_errs)
    oracle_err = max(oracle_errs)

    funk = catalog.funk(N)
    funk_errs = [abs(chart(funk, p, "k").k.value() + 0.25) for p in
                 sample_points(funk, SamplingSpec(count=10, seed=104))]
    funk_err = max(funk_errs)
    verdict = classify(funk, SamplingSpec(count=8, seed=105)).verdict

    p0 = sample_points(catalog.euclidean(N),
                       SamplingSpec(count=1, seed=106))[0]
    cj = ChartJets(catalog.euclidean(N), p0, 2, 5)
    flat_max = max(np.abs(np.asarray(t.value())).max()
                   for t in (cj.G, cj.N, cj.Gamma, cj.Rhat, cj.H, cj.R,
                             cj.k))

    ok = (space_err < tol and oracle_err < 1e-5 and funk_err < tol
          and verdict == "constant" and flat_max < 1e-12)
    emit(capsys, 3, "known-curvature oracles", ok,
         f"space-form err {space_err:.2e} (oracle agreement "
         f"{oracle_err:.2e}), funk err {funk_err:.2e} "
         f"(verdict {verdict}), flat blocks {flat_max:.2e}")


def test_04_isotropy_equivalence(capsys):
    """Wherever the deviation tensor is isotropic the torsion and
    curvature factor through the characteristic forms; on the perturbed
    control the factorization fails where isotropy fails."""
    worst = 0.0
    for metric in SCALAR_METRICS:
        points = sample_points(metric, SamplingSpec(count=20, seed=107))
        assert all(isotropy_residual(metric, p) < 1e-7 for p in points)
        records = run_suites(metric, points, ["theorem21"])
        worst = max(worst, max(r["residual"] for r in records))

    control = catalog.perturbed_riemannian(N, seed=0)
    points = sample_points(control, SamplingSpec(count=20, seed=108))
    iso = [isotropy_residual(control, p) for p in points]
    frac_bad = sum(r > 1e-2 for r in iso) / len(iso)
    control_records = run_suites(control, points, ["theorem21"])
    control_res = max(r["residual"] for r in control_records
                      if r["identity"] == "deviation_isotropic")

    ok = worst < 1e-6 and frac_bad >= 0.8 and control_res > 1e-2
    emit(capsys, 4, "isotropy equivalence", ok,
         f"scalar-side residual {worst:.2e} (tol 1e-06), control "
         f"non-isotropic at {frac_bad:.0%} of samples, control residual "
         f"{control_res:.2e}")


def test_05_fourway_agreement(capsys):
    """Per sample, the four constancy predicates (classification
    verdict, vanishing of the first, second, and third derivative forms)
    agree on every catalog metric."""
    tol = 1e-7
    agree = True
    detail = []
    for metric in CATALOG_METRICS:
        verdict = classify(metric, SamplingSpec(count=6, seed=109)).verdict
        is_const = verdict == "constant"
        for p in sample_points(metric, SamplingSpec(count=6, seed=109)):
            cj = chart(metric, p, "A")
            preds = (is_const,
                     np.abs(cj.C.value()).max() < tol,
                     np.abs(cj.B.value()).max() < tol,
                     np.abs(cj.A.value()).max() < tol)
            if len(set(preds)) != 1:
                agree = False
                detail.append(f"{metric.name}: {preds}")

    emit(capsys, 5, "four-way constancy agreement", agree,
         f"predicates agree on all metrics/samples"
         f"{'' if agree else ' EXCEPT ' + '; '.join(detail)}")


def test_06_scalar_not_constant_witness(capsys):
    """The projectively flat Randers entry is scalar but not constant:
    the verdict is scalar, the first derivative form is macroscopically
    nonzero, and the derivative-form structure lemmas hold on it."""
    metric = catalog.randers_pflat(N)
    report = classify(metric, SamplingSpec(count=8, seed=111))
    points = sample_points(metric, SamplingSpec(count=10, seed=112))
    max_C = max(np.abs(chart(metric, p, "A").C.value()).max()
                for p in points)
    records = run_suites(metric, points, ["lemma22", "lemma23"])
    worst = max(r["residual"] for r in records)
    ok = report.verdict == "scalar" and max_C > 1e-3 and worst < 1e-6
    emit(capsys, 6, "scalar-not-constant witness", ok,
         f"verdict {report.verdict}, max |C| {max_C:.2e}, "
         f"lemma residuals {worst:.2e} (tol 1e-06)")


def test_07_projection_biconditional(capsys):
    """At every sample of every scalar-curvature metric the projected
    curvature vanishes exactly when the projected N-form does, and the
    projected-curvature identity holds to 1e-6."""
    tol = 1e-7
    bicond = True
    worst = 0.0
    for metric in SCALAR_METRICS:
        for p in sample_points(metric, SamplingSpec(count=10, seed=113)):
            cj = chart(metric, p, "prop21")
            pr, pn = projected_norms(cj)
            bicond = bicond and ((pr < tol) == (pn < tol))
            worst = max(worst, suite_prop21(cj)["projected_curvature_form"])
    ok = bicond and worst < 1e-6
    emit(capsys, 7, "projection biconditional", ok,
         f"biconditional holds: {bicond}, identity residual "
         f"{worst:.2e} (tol 1e-06)")


def test_08_backend_cross_validation(capsys):
    """Jet and finite-difference backends agree on all first-stage
    tensors within 1e-4 relative over 20 samples."""
    metric = catalog.funk(N)
    fd = FDPipeline(metric)
    worst = 0.0
    for p in sample_points(metric, SamplingSpec(count=20, seed=114)):
        cj = ChartJets(metric, p, 2, 4)
        T = fd.tensors(p)
        for name, jet in [("g", cj.g), ("G", cj.G), ("N", cj.N),
                          ("Rhat", cj.Rhat), ("H", cj.H), ("k", cj.k)]:
            jv = np.asarray(jet.value())
            rel = np.abs(jv - np.asarray(T[name])).max() / \
                max(np.abs(jv).max(), 1e-12)
            worst = max(worst, rel)
    emit(capsys, 8, "backend cross-validation", worst < 1e-4,
         f"max relative disagreement {worst:.2e} over 20 samples "
         f"(tol 1e-04)")


def test_09_determinism(capsys, tmp_path):
    """Two verification runs from the same config produce byte-identical
    reports."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "metric": {"catalog": "funk", "dimension": N},
        "sampling": {"count": 5, "seed": 115},
        "suites": "all",
    }))
    out1, out2 = tmp_path / "r1.jsonl", tmp_path / "r2.jsonl"
    rc1 = main(["verify", "--config", str(cfg), "--out", str(out1)])
    rc2 = main(["verify", "--config", str(cfg), "--out", str(out2)])
    identical = out1.read_bytes() == out2.read_bytes()
    ok = rc1 == 0 and rc2 == 0 and identical
    emit(capsys, 9, "determinism", ok,
         f"exit codes ({rc1}, {rc2}), reports byte-identical: {identical}")
