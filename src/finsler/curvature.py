"""Curvature of the nonlinear connection and derived tensors.

Conventions (validated against the constant-curvature anchors, which fix
the overall sign so the round sphere model comes out positive):

* ``Rhat[i, j, k]`` with slots (X, Y) = (j, k):
  Rhat^i_jk = delta_k N^i_j - delta_j N^i_k; antisymmetric in (j, k).
* ``H[i, j] = y^k Rhat[i, k, j]`` (deviation / Jacobi endomorphism).
* ``R[i, x, y, z]``: the full horizontal curvature R(X, Y)Z, computed as
  the fiber derivative of Rhat in the Z direction; contracting Z with y
  reproduces Rhat.
* ``R_lowered[x, y, z, w] = g_iw R^i_xyz``.

The Bianchi-type cyclic identity is checked by the ``bianchi`` suite in
:mod:`finsler.suites`.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import TensorValue
from .engine import ChartJets, chart_for
from .metric import FinslerMetric, SamplePoint


@dataclass(frozen=True)
class CurvatureBundle:
    Rhat: TensorValue    # (1,2), antisymmetric in the covariant pair
    R: TensorValue       # (1,3), slots (X, Y, Z)
    H: TensorValue       # (1,1)
    R_lowered: TensorValue  # (0,4), slots (X, Y, Z, W)


def curvature_bundle(metric: FinslerMetric, p: SamplePoint,
                     chart: ChartJets = None) -> CurvatureBundle:
    cj = chart_for(metric, p, chart, "R_low")
    return CurvatureBundle(
        Rhat=TensorValue(p, (1, 2), cj.Rhat.value()),
        R=TensorValue(p, (1, 3), cj.R.value()),
        H=TensorValue(p, (1, 1), cj.H.value()),
        R_lowered=TensorValue(p, (0, 4), cj.R_low.value()),
    )
