"""Classify every catalog metric.

Runs the isotropy test and the derivative ladder on each built-in
metric and prints the verdict: constant curvature, scalar (pointwise
isotropic but k varies), or generic.
"""

from finsler import catalog
from finsler.sampling import SamplingSpec
from finsler.scalarclass import classify

spec = SamplingSpec(count=8, seed=3)

print(f"{'metric':<34} {'verdict':<10} {'k mean':>12} {'k spread':>10}")
print("-" * 70)
for metric in catalog.default_metrics(3):
    report = classify(metric, spec)
    print(f"{metric.name:<34} {report.verdict:<10} "
          f"{report.k_mean:>12.6f} {report.k_std:>10.2e}")

# the same decision from the finite-difference backend, which shares no
# differentiation code with the jets (one point: each costs ~10^5 calls of L)
fd = classify(catalog.funk(3), SamplingSpec(count=1, seed=0), backend="fd")
print(f"\nfinite differences, funk at one point: {fd.verdict} "
      f"(k = {fd.k_mean:.6f})")

print("""
Reading the table:
  constant -- deviation tensor isotropic and k the same everywhere
              (all three derivative forms C, B, A vanish)
  scalar   -- isotropic at every point but k genuinely varies
  generic  -- the deviation tensor is not a multiple of the angular
              projector, so no single k(x, y) describes it
""")
