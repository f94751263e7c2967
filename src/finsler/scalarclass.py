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


def check_dimension(n):
    """Classification needs n >= 3: every surface has scalar curvature."""
    if n < 3:
        raise DimensionTooSmall(
            f"classification requires dimension n >= 3, got {n}")


def classify(metric: FinslerMetric, spec: SamplingSpec = None,
             backend: str = "jet") -> ClassificationReport:
    """Sample the metric and decide generic / scalar / constant."""
    check_dimension(metric.n)
    if backend not in ("jet", "fd"):
        raise ConfigError(f"unknown backend {backend!r}")
    spec = spec or SamplingSpec()
    tol = JET_TOL if backend == "jet" else FD_TOL
    points = sample_points(metric, spec)

    iso, ks = [], []
    norms = {"C": [], "B": [], "A": []}  # the FD backend fills only C
    fd = FDPipeline(metric)
    for p in points:
        if backend == "jet":
            cj = chart(metric, p, "A")
            H, k, L, phi = (a.value() for a in (cj.H, cj.k, cj.L, cj.phi))
            for name, norm in norms.items():
                norm.append(suites._mx(getattr(cj, name).value()))
        else:
            T = fd.tensors(p)
            H, k, L = T["H"], T["k"], T["L"]
            phi = np.eye(metric.n) - np.outer(p.y, T["g"] @ p.y / L) / L
            norms["C"].append(suites._mx(T["C"]))
        iso.append(suites.isotropy(H, k, L, phi))
        ks.append(k)

    max_iso = max(iso)
    k_mean = float(np.mean(ks))
    k_std = float(np.std(ks))
    std_tol = (1e-6 if backend == "jet" else 1e-2) * (1.0 + abs(k_mean))
    maxes = {name: max(norm) for name, norm in norms.items() if norm}

    is_scalar = max_iso < tol
    c_vanishes = maxes["C"] < tol

    residuals = {
        "max_isotropy_residual": {"value": max_iso, "tolerance": tol},
        **{f"max_{name}_norm": {"value": value, "tolerance": tol}
           for name, value in maxes.items()},
        "k_std": {"value": k_std, "tolerance": std_tol},
    }

    # cross-validate the redundant constancy criteria (jet backend only)
    if len({value < tol for value in maxes.values()}) > 1:
        raise InternalInconsistency(
            f"constancy criteria disagree on {metric.name}: "
            f"|C|={maxes['C']:.3e}, |B|={maxes['B']:.3e}, "
            f"|A|={maxes['A']:.3e} at tolerance {tol:g}")
    # the spread of one k value is always 0
    if backend == "jet" and c_vanishes != (k_std < std_tol) and is_scalar \
            and len(ks) > 1:
        raise InternalInconsistency(
            f"C-criterion and k-spread witness disagree on "
            f"{metric.name}: |C|={maxes['C']:.3e}, std(k)={k_std:.3e}")

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
