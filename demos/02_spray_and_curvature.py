"""From the metric to the curvature scalar.

Builds the geodesic spray, the nonlinear connection, and the curvature
tensors for two metrics with known geometry, and prints the extracted
curvature scalar k at a handful of random points.
"""

import numpy as np

from finsler import catalog
from finsler.engine import chart
from finsler.sampling import SamplingSpec, sample_points

for metric, expected in [
    (catalog.riemannian_space_form(3, 1.0), "k = +1 (round sphere)"),
    (catalog.funk(3), "k = -1/4 (Funk metric on the unit ball)"),
]:
    print(f"\n=== {metric.name}: expect {expected} ===")
    points = sample_points(metric, SamplingSpec(count=3, seed=7))

    p = points[0]
    # one ChartJets at the jet orders of the lowered curvature serves
    # the spray, the connection and every curvature tensor
    cj = chart(metric, p, "R_low")
    print("spray G =", np.array_str(cj.G.value(), precision=4))
    print("connection N:")
    print(np.array_str(cj.N.value(), precision=4))

    # the full curvature contracted with y gives back the torsion
    back = np.einsum("ixyz,z->ixy", cj.R.value(), p.y)
    err = np.abs(back - cj.Rhat.value()).max()
    print(f"R(·,·,y) reproduces the torsion to {err:.2e}")

    for i, q in enumerate(points):
        print(f"  sample {i}: k = {chart(metric, q, 'k').k.value():+.10f}")
