"""Pointwise tensor data model and the basic algebraic operators.

``TensorValue`` is a dense component array anchored at a sample point,
with an explicit variance signature (contravariant rank r, covariant
rank s), indices stored contravariant-first.  The operators here —
antisymmetrization over a slot pair, cyclic sum over a slot triple, and
the indicatrix projection (composition with the angular projector phi on
every slot) — are pure array manipulations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .engine import ChartJets, chart_for
from .errors import RankError
from .metric import FinslerMetric, SamplePoint


@dataclass(frozen=True)
class TensorValue:
    """Dense tensor components at one sample point."""

    base: SamplePoint
    signature: tuple  # (r contravariant, s covariant)
    components: np.ndarray

    def __post_init__(self):
        r, s = self.signature
        object.__setattr__(self, "components",
                           np.asarray(self.components, dtype=float))
        n = self.base.n
        expected = (n,) * (r + s)
        if self.components.shape != expected:
            raise RankError(
                f"components shape {self.components.shape} does not match "
                f"signature ({r},{s}) in dimension {n}")
        if not np.all(np.isfinite(self.components)):
            raise RankError("non-finite tensor components")

    @property
    def rank(self):
        return self.signature[0] + self.signature[1]

    def norm(self):
        return float(np.linalg.norm(self.components.ravel()))


@dataclass(frozen=True)
class StructuralFrame:
    """The zeroth-order frame derived from L at one point: metric,
    inverse metric, unit covector ell, angular projector phi, and
    angular metric hbar."""

    L: float
    g: TensorValue
    g_inv: TensorValue
    ell: TensorValue
    phi: TensorValue
    hbar: TensorValue

    @property
    def base(self):
        return self.g.base

    @property
    def n(self):
        return self.g.base.n


def structural_frame(metric: FinslerMetric, p: SamplePoint,
                     chart: ChartJets = None) -> StructuralFrame:
    """Evaluate L, g, g^-1, ell, phi, hbar at p."""
    cj = chart_for(metric, p, chart, "g_inv")
    return StructuralFrame(
        L=cj.L.value(),
        g=TensorValue(p, (0, 2), cj.g.value()),
        g_inv=TensorValue(p, (2, 0), cj.g_inv.value()),
        ell=TensorValue(p, (0, 1), cj.ell.value()),
        phi=TensorValue(p, (1, 1), cj.phi.value()),
        hbar=TensorValue(p, (0, 2), cj.hbar.value()),
    )


def _covariant_axes(tv: TensorValue, slots):
    """Map covariant slot numbers (0-based within the covariant block)
    to array axes; raise RankError when out of range."""
    r, s = tv.signature
    axes = []
    for q in slots:
        if not 0 <= q < s:
            raise RankError(
                f"covariant slot {q} out of range for signature ({r},{s})")
        axes.append(r + q)
    if len(set(axes)) != len(axes):
        raise RankError("designated slots must be distinct")
    return axes


def _swap(arr, a, b):
    perm = list(range(arr.ndim))
    perm[a], perm[b] = perm[b], perm[a]
    return arr.transpose(perm)


def antisymmetrize(tv: TensorValue, slot_a: int, slot_b: int) -> TensorValue:
    """omega(..., X, ..., Y, ...) - omega(..., Y, ..., X, ...) over two
    designated covariant slots."""
    a, b = _covariant_axes(tv, (slot_a, slot_b))
    out = tv.components - _swap(tv.components, a, b)
    return TensorValue(tv.base, tv.signature, out)


def cyclic_sum(tv: TensorValue, slot_a: int, slot_b: int,
               slot_c: int) -> TensorValue:
    """Sum of the three cyclic permutations of three designated covariant
    slots."""
    a, b, c = _covariant_axes(tv, (slot_a, slot_b, slot_c))
    arr = tv.components
    perm1 = list(range(arr.ndim))
    perm1[a], perm1[b], perm1[c] = perm1[c], perm1[a], perm1[b]
    perm2 = list(range(arr.ndim))
    perm2[a], perm2[b], perm2[c] = perm2[b], perm2[c], perm2[a]
    out = arr + arr.transpose(perm1) + arr.transpose(perm2)
    return TensorValue(tv.base, tv.signature, out)


def indicatrix_project(tv: TensorValue,
                       frame: StructuralFrame) -> TensorValue:
    """Project a (1,p) or (0,p) tensor onto the indicatory subspace by
    composing with phi on the output (if contravariant) and on every
    covariant slot.  The result annihilates y in every slot."""
    r, s = tv.signature
    if r not in (0, 1):
        raise RankError(
            f"indicatrix projection defined for (0,p)/(1,p) tensors, "
            f"got signature ({r},{s})")
    phi = frame.phi.components
    out = tv.components
    if r == 1:
        out = np.tensordot(phi, out, axes=(1, 0))
    for q in range(s):
        axis = r + q
        # contract phi^a_x into covariant slot q: new index x replaces a
        out = np.moveaxis(np.tensordot(out, phi, axes=(axis, 0)), -1, axis)
    return TensorValue(tv.base, tv.signature, out)
