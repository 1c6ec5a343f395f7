"""How the planar degree certificate works, from the ground up.

For p1/p1t problems the existence question reduces to a map of the plane:

    G(x, y) = ( -(1/T) * integral of f(t, x + y (t - t_e), y),  y - x )

with t_e = 0 for p1 and t_e = T for p1t, the end where u and u' are tied.

A zero of G is an affine candidate satisfying the boundary tie and the mean
condition; the Brouwer degree of G on a suitable domain counts such zeros
with orientation, and a nonzero count certifies a genuine solution.  The
degree itself is the winding number of G around the domain boundary, which
the package computes by accumulating signed angles along a polygon, bisecting
any segment that turns too fast.  A planar map takes arrays of points, so
each map below is called on all polygon vertices at once.
"""

import numpy as np

from tribvp import (DomainDelta, PlanarMap, boundary_polygon, curvature,
                    reduction_map, winding_degree)
from tribvp.problem_file import load_problem
from pathlib import Path

rng = np.random.default_rng(3)

print("== winding numbers of hand-built maps ==")
circle = boundary_polygon(DomainDelta(1.0, 0.9, curvature()), 256)
for label, fn in [
    ("identity      ", lambda x, y: (x, y)),
    ("swap (reflect)", lambda x, y: (y, x)),
    ("z -> z^2      ", lambda x, y: (x * x - y * y, 2 * x * y)),
]:
    result = winding_degree(PlanarMap(fn), circle)
    print(f"  {label}  degree {result.degree:+d}")

print("== random linear maps: degree equals sign(det) ==")
hits = draws = 0
for _ in range(50):
    a, b, c, d = rng.uniform(-2, 2, size=4)
    if abs(a * d - b * c) < 0.05:
        continue
    got = winding_degree(
        PlanarMap(lambda x, y, a=a, b=b, c=c, d=d: (a * x + b * y, c * x + d * y)),
        circle).degree
    draws += 1
    hits += int(got == int(np.sign(a * d - b * c)))
print(f"  agreement on every draw: {hits}/{draws}")

print("== the steep-slope problem's certificate ==")
doc = load_problem(Path(__file__).parent / "problems" / "steep_slope.prob")
gmap = reduction_map(doc.spec)
gx, gy = gmap(0.25, 0.25)
print(f"  G(0.25, 0.25) = ({float(gx)}, {float(gy)})   <- the affine solution, exactly")

# Delta = ball of radius rho intersected with the strip |phi(x)| < kappa;
# the degree is the same on any admissible choice (excision property)
for rho, kappa in [(1.2, 0.9), (1.35, 0.92), (1.5, 0.95)]:
    poly = boundary_polygon(DomainDelta(rho, kappa, doc.spec.phi), 512)
    result = winding_degree(gmap, poly)
    print(f"  rho={rho:<5g} kappa={kappa:<5g} degree {result.degree:+d} "
          f"(min boundary norm {result.min_boundary_norm:.3f})")
print("  the boundary margin above is also a stability certificate: any")
print("  perturbation smaller than it cannot change the degree.")
