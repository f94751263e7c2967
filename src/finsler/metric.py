"""Finsler metric handle, and the one definition of the checks on L and g.

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
from .errors import DegenerateMetric, DomainError, HomogeneityError


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
    domain: Optional[Callable] = None  # x (..., n) -> bool (...); None: R^n
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
            L = self.evaluate(*sp.seed(p.x, p.y))  # a float if constant
            L = L if isinstance(L, jets.Jet) else sp.constant(L)
            val = L.value()
            euler = jets.d_y(L).value() @ p.y
            if abs(euler - val) > 1e-8 * max(abs(val), 1.0):
                raise HomogeneityError(
                    f"{self.name}: y.dL/dy = {euler:.6g} but L = {val:.6g} "
                    f"at x={p.x.tolist()}, y={p.y.tolist()}; L is not "
                    "positively homogeneous of degree 1")


def L_fault(L: float) -> Optional[str]:
    """Why the value L is not a positive number, or None if it is one."""
    return "L is NaN" if np.isnan(L) else "L <= 0" if L <= 0.0 else None


def check_L(L, p: SamplePoint) -> float:
    """The value at p of L (a float, a 0-d array or a jet) as a float;
    DomainError unless it is a positive number."""
    val = float(L.value() if isinstance(L, jets.Jet) else L)
    fault, x, y = L_fault(val), p.x.tolist(), p.y.tolist()
    if fault:
        raise DomainError(f"L = {val:.6g} <= 0 at x={x}, y={y}"
                          if fault == "L <= 0" else f"{fault} at x={x}, y={y}")
    return val


def check_g(g, x, y):
    """DegenerateMetric unless g at (x, y), or each g (..., n, n) of a
    batch at (x, y) (..., n), is finite and has its least eigenvalue
    > 1e-9 |largest|; a g that is not finite has the eigenvalues nan."""
    ok = np.isfinite(g).all(axis=(-2, -1))
    ev = np.linalg.eigvalsh(g if ok.all() else np.where(ok[..., None, None],
                                                        g, 0.0))
    ev[~ok] = np.nan
    bad = ~(ev[..., 0] > 1e-9 * np.abs(ev[..., -1]))
    if np.any(bad):
        i = tuple(np.argwhere(bad)[0])  # () for one point
        raise DegenerateMetric(
            f"fundamental tensor not positive definite at x={x[i].tolist()}, "
            f"y={y[i].tolist()} (smallest eigenvalue {ev[i][0]:.3e})",
            min_eigenvalue=float(ev[i][0]))
