"""Scalar-curvature extraction, the derivative ladder C, B, A, the
auxiliary forms N and F, per-identity checks, and metric classification.

The classification verdict is sample-based: "scalar" means the deviation
tensor was isotropic at every sampled point (dimension must be >= 3),
"constant" additionally requires the first derivative form C to vanish
everywhere sampled; the spread of the extracted k values is used as a
second, independent witness of constancy.  The deeper forms B and A
must agree with the C criterion — a disagreement indicates a pipeline
bug and raises InternalInconsistency rather than producing a verdict.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import TensorValue
from .engine import REQUIRED_ORDERS, ChartJets, chart_for
from .errors import ConfigError, DimensionTooSmall, InternalInconsistency
from .fdpipe import FDPipeline
from .metric import FinslerMetric, SamplePoint
from .sampling import SamplingSpec, sample_points
from . import suites

JET_TOL = 1e-7
FD_TOL = 1e-3


@dataclass(frozen=True)
class ScalarData:
    """The scalar curvature and its derivative ladder at one point."""

    k: float
    C: TensorValue
    B: TensorValue
    A: TensorValue
    Ntensor: TensorValue
    F: TensorValue


@dataclass(frozen=True)
class ClassificationReport:
    metric_name: str
    verdict: str  # 'generic' | 'scalar' | 'constant' (at sampled points)
    backend: str
    seed: int
    sample_count: int
    tolerance: float
    k_samples: list  # [{'x': [...], 'y': [...], 'k': float}, ...]
    k_mean: float
    k_std: float
    residuals: dict = field(default_factory=dict)  # name -> {value, tolerance}

    def to_json_dict(self):
        return {
            "metric": self.metric_name,
            "verdict": self.verdict,
            "backend": self.backend,
            "seed": self.seed,
            "sample_count": self.sample_count,
            "tolerance": self.tolerance,
            "k_mean": self.k_mean,
            "k_std": self.k_std,
            "k_samples": self.k_samples,
            "residuals": self.residuals,
        }


def extract_k(metric: FinslerMetric, p: SamplePoint,
              chart: ChartJets = None) -> float:
    """k = trace(H) / ((n-1) L^2); on an isotropic metric this is the
    flag curvature, on a generic metric it is the trace average used by
    isotropy_residual."""
    cj = chart_for(metric, p, chart, "k")
    return float(cj.k.value())


def isotropy_residual(metric: FinslerMetric, p: SamplePoint,
                      chart: ChartJets = None) -> float:
    """|H - k L^2 phi| / max(|H|, L^2); zero iff the deviation tensor is
    isotropic at p."""
    cj = chart_for(metric, p, chart, "H")
    return suites.isotropy(cj.H.value(), cj.k.value(), cj.L.value(),
                           cj.phi.value())


def scalar_data(metric: FinslerMetric, p: SamplePoint,
                chart: ChartJets = None) -> ScalarData:
    cj = chart_for(metric, p, chart, "A")
    return ScalarData(
        k=float(cj.k.value()),
        C=TensorValue(p, (0, 1), cj.C.value()),
        B=TensorValue(p, (0, 2), cj.B.value()),
        A=TensorValue(p, (0, 3), cj.A.value()),
        Ntensor=TensorValue(p, (0, 2), cj.Ntensor.value()),
        F=TensorValue(p, (0, 2), cj.F.value()),
    )


def check_prop21(metric: FinslerMetric, p: SamplePoint,
                 chart: ChartJets = None) -> dict:
    """The prop21 suite plus the two projected norms it compares."""
    cj = chart_for(metric, p, chart, "Ntensor")
    out = dict(suites.suite_prop21(cj))
    pr, pn = suites.projected_norms(cj)
    out["projected_curvature_norm"] = pr
    out["projected_N_norm"] = pn
    return out


# ---------------------------------------------------------------------------
# classification


def classify(metric: FinslerMetric, spec: SamplingSpec = None,
             backend: str = "jet",
             tolerance: float = None) -> ClassificationReport:
    """Sample the metric and decide generic / scalar / constant."""
    if metric.n < 3:
        raise DimensionTooSmall(
            f"classification requires dimension n >= 3, got {metric.n}")
    if backend not in ("jet", "fd"):
        raise ConfigError(f"unknown backend {backend!r}")
    spec = spec or SamplingSpec()
    tol = tolerance if tolerance is not None else (
        JET_TOL if backend == "jet" else FD_TOL)
    points = sample_points(metric, spec)

    iso = []
    ks = []
    c_norm = []
    b_norm = []
    a_norm = []
    fd = FDPipeline(metric)
    for p in points:
        if backend == "jet":
            cj = ChartJets(metric, p, *REQUIRED_ORDERS["A"])
            k = float(cj.k.value())
            iso.append(suites.isotropy(cj.H.value(), k, cj.L.value(),
                                       cj.phi.value()))
            ks.append(k)
            c_norm.append(float(np.abs(cj.C.value()).max()))
            b_norm.append(float(np.abs(cj.B.value()).max()))
            a_norm.append(float(np.abs(cj.A.value()).max()))
        else:
            T = fd.tensors(p)
            ell = T["g"] @ p.y / T["L"]
            phi = np.eye(metric.n) - np.outer(p.y, ell) / T["L"]
            iso.append(suites.isotropy(T["H"], T["k"], T["L"], phi))
            ks.append(T["k"])
            c_norm.append(float(np.abs(fd.c_form(p)).max()))

    max_iso = max(iso)
    max_c = max(c_norm)
    k_mean = float(np.mean(ks))
    k_std = float(np.std(ks))
    std_tol = 1e-6 * (1.0 + abs(k_mean)) if backend == "jet" \
        else 1e-2 * (1.0 + abs(k_mean))

    is_scalar = max_iso < tol
    c_vanishes = max_c < tol
    k_steady = k_std < std_tol

    residuals = {
        "max_isotropy_residual": {"value": max_iso, "tolerance": tol},
        "max_C_norm": {"value": max_c, "tolerance": tol},
        "k_std": {"value": k_std, "tolerance": std_tol},
    }

    if backend == "jet":
        # cross-validate the redundant constancy criteria
        max_b, max_a = max(b_norm), max(a_norm)
        residuals["max_B_norm"] = {"value": max_b, "tolerance": tol}
        residuals["max_A_norm"] = {"value": max_a, "tolerance": tol}
        b_vanishes = max_b < tol
        a_vanishes = max_a < tol
        if not (c_vanishes == b_vanishes == a_vanishes):
            raise InternalInconsistency(
                f"constancy criteria disagree on {metric.name}: "
                f"|C|={max_c:.3e}, |B|={max_b:.3e}, |A|={max_a:.3e} "
                f"at tolerance {tol:g}")
        if c_vanishes != k_steady and is_scalar:
            raise InternalInconsistency(
                f"C-criterion and k-spread witness disagree on "
                f"{metric.name}: |C|={max_c:.3e}, std(k)={k_std:.3e}")

    if not is_scalar:
        verdict = "generic"
    elif c_vanishes:
        verdict = "constant"
    else:
        verdict = "scalar"

    k_samples = [{"x": p.x.tolist(), "y": p.y.tolist(), "k": k}
                 for p, k in zip(points, ks)]
    return ClassificationReport(
        metric_name=metric.name,
        verdict=verdict,
        backend=backend,
        seed=spec.seed,
        sample_count=spec.count,
        tolerance=tol,
        k_samples=k_samples,
        k_mean=k_mean,
        k_std=k_std,
        residuals=residuals,
    )
