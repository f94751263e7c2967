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
from .errors import (ConfigError, DegenerateMetric, DomainError,
                     HomogeneityError)


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

    def inside(self, x):
        """The domain at each x (..., n) as bools (...), their shape checked."""
        inside = (np.asarray(self.domain(x)) if self.domain is not None
                  else np.ones(x.shape[:-1], dtype=bool))
        if inside.shape != x.shape[:-1]:
            raise ConfigError(f"{self.name}: domain of x of shape {x.shape} "
                              f"has shape {inside.shape}")
        return inside

    def in_domain(self, x) -> bool:
        return bool(self.inside(np.asarray(x, dtype=float)))

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
    """Why the value L is not a positive number whose square is a positive
    finite float (g is the y-Hessian of L^2 / 2), or None if it is one."""
    square = float(L) * float(L)  # floats under- and overflow silently
    return ("L is NaN" if np.isnan(L) else "L <= 0" if L <= 0.0
            else None if 0.0 < square < np.inf else "L^2 out of float range")


def check_L(L, p: SamplePoint) -> float:
    """The value at p of L (a float, a 0-d array or a jet) as a float;
    DomainError unless it is a positive number."""
    val = float(L.value() if isinstance(L, jets.Jet) else L)
    fault, x, y = L_fault(val), p.x.tolist(), p.y.tolist()
    if fault:
        raise DomainError(f"L = {val:.6g} <= 0 at x={x}, y={y}"
                          if fault == "L <= 0" else f"{fault} at x={x}, y={y}")
    return val


def check_finite(what, a, x, y):
    """DomainError unless a, the values of ``what`` at (x, y), or at each
    point of a batch (..., n) whose axes lead a's, is finite: E = L^2 / 2
    and its differences overflow where L^2 is near the end of float range
    (run them under np.errstate, so that they do so silently)."""
    ok = np.isfinite(a).reshape(x.shape[:-1] + (-1,)).all(axis=-1)
    if not ok.all():
        i = tuple(np.argwhere(~ok)[0])  # () for one point
        raise DomainError(f"{what} out of float range at x={x[i].tolist()}, "
                          f"y={y[i].tolist()}")


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
            "fundamental tensor "
            f"{'not positive definite' if ok[i] else 'out of float range'} "
            f"at x={x[i].tolist()}, y={y[i].tolist()} (smallest eigenvalue "
            f"{ev[i][0]:.3e})", min_eigenvalue=float(ev[i][0]))
