"""
End-to-end solve and verification
=================================

A non-trivial scenario: a radial field at 90% of the growth bound over a
perturbed-cap boundary.  After solving, every geometric conclusion is
checked numerically: cone enclosure, positivity of N.X, stability,
projection degree, injectivity of the radial projection, and the
radial-graph representation lambda(p) of the surface.
"""

import numpy as np

import conesurf as cs

beta = np.pi / 3
boundary = cs.SphericalBoundary.perturbed_cap(0.8 * beta)
g = cs.FourierScalar(1.0, cos_coeffs=[0.1])
curve = cs.build_curve(boundary, g, beta)
field = cs.CurvatureField("radial", c=0.9 * cs.c_beta(beta))

print("growth margin over samples:",
      cs.check_growth(field, beta, boundary.domain_samples(512) * 1.5))

mesh = cs.build_disk_mesh(24, 48)
state = cs.solve(mesh, curve, field, cs.SolveConfig(max_iters=400))
print("solver residual:", state.residual,
      " defect:", cs.conformality_defect(state))

amap = cs.AxisMap(boundary, beta)
report = cs.verify_surface(state, field, beta, axis_map=amap,
                           boundary=boundary, grid_size=256)
print()
for check in report["checks"]:
    mark = "ok " if check["pass"] else "FAIL"
    print(f"  [{mark}] {check['name']:35s} value = {check['value']:.6g}")
print()
print("all checks passed:", report["pass"])

# the surface as a radial graph: lambda(p) = |X| over the spherical domain
grid = cs.domain_grid(boundary, 1000)
lam = cs.extract_radial_graph(state, grid)
print("radial graph lambda range: [%.4f, %.4f]" % (lam.min(), lam.max()))
print("boundary radii g(theta) range: [%.4f, %.4f]"
      % (g(np.linspace(0, 2 * np.pi, 256)).min(),
         g(np.linspace(0, 2 * np.pi, 256)).max()))
