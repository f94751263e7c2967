"""Walk through the structural frame of a Finsler metric.

Evaluates the fundamental function, the metric tensor, the unit form,
and the two projection operators at a point, and checks the basic
algebraic relations between them by hand.
"""

import numpy as np

from finsler import catalog
from finsler.engine import chart
from finsler.metric import SamplePoint

metric = catalog.funk(3)
p = SamplePoint([0.1, -0.2, 0.15], [0.7, -0.3, 1.1])

# a ChartJets at the jet orders of what the frame reads: (0, 2)
cj = chart(metric, p, "g", "phi", "hbar")
L, g, ell = cj.L.value(), cj.g.value(), cj.ell.value()
phi, hbar = cj.phi.value(), cj.hbar

print(f"metric: {metric.name}, point x={p.x}, direction y={p.y}")
print(f"L(x, y)      = {L:.6f}")
print("g (metric tensor):")
print(np.array_str(g, precision=4))
print("ell (unit form):", np.array_str(ell, precision=4))

# ell is g applied to the normalized direction
np.testing.assert_allclose(ell, g @ p.y / L, atol=1e-12)
print("check: ell = g·y / L                            ok")

# phi projects along y: phi(y) = 0, and phi is idempotent
np.testing.assert_allclose(phi @ p.y, 0.0, atol=1e-12)
np.testing.assert_allclose(phi @ phi, phi, atol=1e-12)
print("check: phi(y) = 0 and phi o phi = phi           ok")

# the angular metric is the restriction of g to the kernel of ell
np.testing.assert_allclose(hbar, g - np.outer(ell, ell), atol=1e-12)
print("check: hbar = g - ell (x) ell                   ok")
print("trace of phi =", round(np.trace(phi), 12),
      "(= n - 1, the indicatrix dimension)")
