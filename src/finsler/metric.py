"""Finsler metric handle: dimension plus a generic evaluator for L(x, y).

The evaluator receives the chart coordinates and direction components as
lists of generic scalars: floats, :class:`~finsler.jets.Jet` values, or
numpy arrays of any one batch shape, which it must evaluate elementwise
(the FD backend passes every point of a stencil in one call).  It must be
written with arithmetic and the generic math functions of
``finsler.jets`` (``sqrt exp log sin cos dot``) so the whole pipeline can
differentiate through it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import jets
from .errors import DomainError, HomogeneityError


@dataclass(frozen=True)
class SamplePoint:
    """Chart coordinates x and a nonzero tangent direction y."""

    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "x", np.asarray(self.x, dtype=float))
        object.__setattr__(self, "y", np.asarray(self.y, dtype=float))
        if self.x.shape != self.y.shape or self.x.ndim != 1:
            raise DomainError("x and y must be 1-d arrays of equal length")
        if not np.all(np.isfinite(self.x)) or not np.all(np.isfinite(self.y)):
            raise DomainError("non-finite sample point")
        if float(np.linalg.norm(self.y)) == 0.0:
            raise DomainError("direction y must be nonzero (slit bundle)")

    @property
    def n(self):
        return self.x.shape[0]


@dataclass(frozen=True)
class FinslerMetric:
    """A fundamental function L(x, y) on a single coordinate chart."""

    n: int
    evaluate: Callable
    name: str = "metric"
    domain: Optional[Callable] = None  # x -> bool; None means all of R^n
    domain_desc: str = "all of R^n"

    def in_domain(self, x) -> bool:
        x = np.asarray(x, dtype=float)
        return bool(self.domain(x)) if self.domain is not None else True

    def check_point(self, p: SamplePoint):
        if p.n != self.n:
            raise DomainError(
                f"point dimension {p.n} != metric dimension {self.n}")
        if not self.in_domain(p.x):
            raise DomainError(
                f"x={p.x.tolist()} outside chart domain ({self.domain_desc})")

    def L(self, p: SamplePoint) -> float:
        self.check_point(p)
        val = self.evaluate(p.x.tolist(), p.y.tolist())
        return float(val)

    def check_homogeneity(self, points):
        """Euler check y . dL/dy = L; raises HomogeneityError on failure."""
        from .engine import REQUIRED_ORDERS  # engine imports this module

        for p in points:
            self.check_point(p)
            sp = jets.get_space(self.n, *REQUIRED_ORDERS["ell"])
            L = self.evaluate(*sp.seed(p.x, p.y))
            if not isinstance(L, jets.Jet):  # L is constant in y
                L = sp.constant(L)
            val = L.value()
            euler = jets.d_y(L).value() @ p.y
            if abs(euler - val) > 1e-8 * max(abs(val), 1.0):
                raise HomogeneityError(
                    f"{self.name}: y.dL/dy = {euler:.6g} but L = {val:.6g} "
                    f"at x={p.x.tolist()}, y={p.y.tolist()}; L is not "
                    "positively homogeneous of degree 1")
