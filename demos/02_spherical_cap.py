"""
Spherical cap with constant mean curvature
==========================================

A constant field H = 1/2 over the unit circle at height 2 produces a cap
of the sphere of radius 2 centered at (0, 0, 2 + sqrt(3)).  The demo
solves at three resolutions and measures the distance-to-sphere error,
which should drop at second order.
"""

import numpy as np

import conesurf as cs

beta = np.pi / 3
alpha_c = np.arctan2(1.0, 2.0)
boundary = cs.SphericalBoundary.cap(alpha_c)
curve = cs.build_curve(boundary, cs.FourierScalar(np.sqrt(5.0)), beta)

field = cs.CurvatureField("constant", h0=0.5)
center = np.array([0.0, 0.0, 2.0 + np.sqrt(3.0)])

errs = []
for n_theta in (16, 32, 64):
    mesh = cs.build_disk_mesh(n_theta // 2, n_theta)
    state = cs.solve(mesh, curve, field, cs.SolveConfig(max_iters=400))
    err = np.max(np.abs(np.linalg.norm(state.X - center, axis=1) - 2.0))
    errs.append(err)
    print(f"n_theta = {n_theta:3d}  sphere error = {err:.3e}  "
          f"iterations = {state.iterations}")

for coarse, fine in zip(errs, errs[1:]):
    print("observed order:", np.log2(coarse / fine))

# the center of the disk maps to the bottom of the cap at z = sqrt(3)
mesh = cs.build_disk_mesh(16, 32)
state = cs.solve(mesh, curve, field, cs.SolveConfig(max_iters=400))
print("cap bottom z            ", state.X[0, 2], " (sqrt(3) =", np.sqrt(3.0), ")")

# Gauss curvature recovered from the second fundamental form: 1/R^2 = 1/4
geometry = cs.surface_geometry(state, field)
inner = np.linalg.norm(mesh.vertices, axis=1) < 0.8
print("mean interior K         ", float(np.mean(geometry.K[inner])), " (exact 0.25)")
