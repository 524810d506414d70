"""
Checking a spherical domain before solving
==========================================

The radial-graph conclusions need the spherical domain of the boundary
curve to be beta-convex: every boundary point must admit a cone of
half-angle beta containing the whole domain.  For a round cap of opening
alpha_c this holds exactly when alpha_c <= beta, which makes a clean
oracle to probe.
"""

import numpy as np

import conesurf as cs

beta = np.pi / 3

for alpha_c in (0.5 * beta, 0.9 * beta, 1.1 * beta):
    b = cs.SphericalBoundary.cap(alpha_c)
    flag, margin = cs.is_beta_convex(b, beta)
    print(f"cap alpha_c = {alpha_c:.3f}  beta-convex = {flag}  "
          f"margin = {margin:.3e}  (analytic: {alpha_c <= beta})")

# a perturbed cap: the axis of the containing cone now varies with theta
boundary = cs.SphericalBoundary.perturbed_cap(0.8 * beta, cos_coeffs=[0.05])
flag, margin = cs.is_beta_convex(boundary, beta)
print()
print("perturbed cap beta-convex:", flag, " margin:", margin)

amap = cs.AxisMap(boundary, beta, n_boundary=64)
tilts = np.degrees(np.arccos(np.clip(amap.axes[:, 2], -1.0, 1.0)))
print("axis tilt from e3 (degrees): min %.3f max %.3f" % (tilts.min(), tilts.max()))

# beta-convexity implies convexity (supporting-plane test), and the
# induced orientation is negative for a positively oriented boundary
print("convex:", cs.is_convex(boundary))
print("orientation sign:", cs.orientation_sign(amap))

# a large wobble destroys convexity
wavy = cs.SphericalBoundary.perturbed_cap(0.5, cos_coeffs=[0.0, 0.0, 0.35])
print()
print("heavily perturbed cap convex:", cs.is_convex(wavy))
