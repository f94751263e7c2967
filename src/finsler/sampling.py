"""Deterministic sample-point generation.

All randomness flows from a single seed through a counter-based
generator, so reports are reproducible regardless of evaluation order.
Base points are uniform in a ball, directions uniform on the unit
sphere scaled by a random factor in [0.5, 2] (exercising homogeneity);
no direction is special-cased.

Each rejected draw is logged at DEBUG level on the ``finsler`` logger,
with its reason; nothing is shown unless logging is configured for it.
When too many draws are rejected, the error counts them by reason.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DomainError, EvalDomainError
from .metric import FinslerMetric, L_fault, SamplePoint

_RADIUS = 0.4  # of the ball the base points are drawn from


@dataclass(frozen=True)
class SamplingSpec:
    count: int = 20
    seed: int = 0
    radius: Optional[float] = None  # None: _RADIUS


def sample_points(metric: FinslerMetric, spec: SamplingSpec):
    """Draw ``spec.count`` valid sample points for ``metric``."""
    rng = np.random.Generator(np.random.Philox(spec.seed))
    radius = spec.radius if spec.radius is not None else _RADIUS
    n = metric.n
    points = []
    rejected = {}  # reason -> number of draws
    attempts = 0
    while len(points) < spec.count:
        attempts += 1
        if attempts > 100 * spec.count + 100:
            counts = ", ".join(f"{k}: {v}" for k, v in rejected.items())
            raise DomainError(
                f"could not draw {spec.count} valid sample points for "
                f"{metric.name} (domain: {metric.domain_desc}); rejected "
                f"draws by reason: {counts}")
        u = rng.normal(size=n)
        r = rng.uniform(0.0, 1.0) ** (1.0 / n)
        x = radius * r * u / np.linalg.norm(u)
        v = rng.normal(size=n)
        y = rng.uniform(0.5, 2.0) * v / np.linalg.norm(v)
        p = SamplePoint(x, y)
        fault, detail = "outside domain", ""
        if metric.in_domain(x):
            try:
                fault = L_fault(metric.L(p))
            except (DomainError, EvalDomainError) as e:
                fault, detail = type(e).__name__, f": {e}"
        if not fault:
            points.append(p)
            continue
        rejected[fault] = rejected.get(fault, 0) + 1
        # imported here, not with the package: logging adds about 5 ms to
        # every start-up, and most runs reject no draw
        import logging

        logging.getLogger("finsler").debug(
            "%s: rejected sample draw %d (%s) at x=%s, y=%s",
            metric.name, attempts, fault + detail, x, y)
    return points
