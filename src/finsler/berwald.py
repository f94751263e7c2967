"""Geodesic spray, nonlinear connection and connection coefficients.

The covariant derivatives of tensor fields are
:meth:`~finsler.engine.ChartJets.h_cov` (horizontal) and ``d_y``
(vertical, since the vertical connection coefficients vanish).
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import TensorValue
from .engine import ChartJets, chart_for
from .metric import FinslerMetric, SamplePoint


@dataclass(frozen=True)
class ConnectionData:
    """Spray G (1,0), nonlinear connection N = dG/dy (1,1), and the
    connection coefficients Gamma = d2G/dy dy (1,2), symmetric in the
    lower pair (torsion-freeness)."""

    G: TensorValue
    N: TensorValue
    Gamma: TensorValue


def connection(metric: FinslerMetric, p: SamplePoint,
               chart: ChartJets = None) -> ConnectionData:
    cj = chart_for(metric, p, chart, "Gamma")
    return ConnectionData(
        G=TensorValue(p, (1, 0), cj.G.value()),
        N=TensorValue(p, (1, 1), cj.N.value()),
        Gamma=TensorValue(p, (1, 2), cj.Gamma.value()),
    )
