"""Metric classification from the scalar curvature k and its vertical
derivative ladder C, B, A (read from :class:`~finsler.engine.ChartJets`).

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

from .engine import chart
from .errors import ConfigError, DimensionTooSmall, InternalInconsistency
from .fdpipe import FDPipeline
from .metric import FinslerMetric
from .sampling import SamplingSpec, sample_points
from . import suites

JET_TOL = 1e-7
FD_TOL = 1e-3


@dataclass(frozen=True)
class ClassificationReport:
    metric: str
    verdict: str  # 'generic' | 'scalar' | 'constant' (at sampled points)
    backend: str
    seed: int
    sample_count: int
    tolerance: float
    k_samples: list  # [{'x': [...], 'y': [...], 'k': float}, ...]
    k_mean: float
    k_std: float
    residuals: dict = field(default_factory=dict)  # name -> {value, tolerance}


def classify(metric: FinslerMetric, spec: SamplingSpec = None,
             backend: str = "jet") -> ClassificationReport:
    """Sample the metric and decide generic / scalar / constant."""
    if metric.n < 3:
        raise DimensionTooSmall(
            f"classification requires dimension n >= 3, got {metric.n}")
    if backend not in ("jet", "fd"):
        raise ConfigError(f"unknown backend {backend!r}")
    spec = spec or SamplingSpec()
    tol = JET_TOL if backend == "jet" else FD_TOL
    points = sample_points(metric, spec)

    iso = []
    ks = []
    c_norm = []
    b_norm = []
    a_norm = []
    fd = FDPipeline(metric)
    for p in points:
        if backend == "jet":
            cj = chart(metric, p, "A")
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
        # the spread of one k value is always 0
        if c_vanishes != k_steady and is_scalar and len(ks) > 1:
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
        metric=metric.name,
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
