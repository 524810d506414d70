"""
Flat disk sanity check
======================

The simplest curve with a known solution: the unit circle at height 2.
With H = 0 the surface spanning it is the flat disk X(u, v) = (u, v, 2),
so every quantity the solver reports can be compared against a closed
form.
"""

import numpy as np

import conesurf as cs

beta = np.pi / 3

# the circle x^2 + y^2 = 1 at z = 2 is the cap of opening atan(1/2) on
# the sphere of radius sqrt(5)
alpha_c = np.arctan2(1.0, 2.0)
boundary = cs.SphericalBoundary.cap(alpha_c)
curve = cs.build_curve(boundary, cs.FourierScalar(np.sqrt(5.0)), beta)

mesh = cs.build_disk_mesh(16, 32)
state = cs.solve(mesh, curve, cs.CurvatureField("zero"))

exact = np.column_stack([mesh.vertices, np.full(len(mesh.vertices), 2.0)])
print("max vertex error        ", np.max(np.abs(state.X - exact)))
print("conformality defect     ", cs.conformality_defect(state))
print("solver residual         ", state.residual)

# the Dirichlet energy of the identity chart over the unit disk is pi;
# boundary quadrature weights carry the circular-segment correction so
# this holds to machine precision rather than to polygon-area accuracy
F = cs.energy_F(state, cs.CurvatureField("zero"))
print("energy F                ", F, " (pi =", np.pi, ")")

# the barrier phi = X.e3 - |X| cos(beta) stays positive, confirming the
# disk sits strictly inside the cone of half-angle pi/3
enc = cs.check_enclosure(cs.surface_geometry(state, cs.CurvatureField("zero")), beta)
print("min cone barrier        ", enc["min_phi_closed"])
print("expected (closed form)  ", 2.0 - np.sqrt(5.0) / 2.0)
