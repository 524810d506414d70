"""The Gauss map's PDE Delta N + 2 p N = -2 E grad H(X) as a weak
residual: a convergence check of the discrete normals and density that
`verify` does not report, so it lives with the tests."""

from conesurf.verifier import _tested_weak_residual


def normal_pde_residual(geometry):
    """Weak residual of Delta N + 2 p N = -2 E grad H(X) on a surface's
    geometry record, measured with the tested weak pairing; see
    conesurf.verifier._tested_weak_residual."""
    N = geometry.N
    neg_lap_rhs = 2.0 * geometry.p[:, None] * N + 2.0 * geometry.E[:, None] * geometry.grad_H
    return _tested_weak_residual(geometry.state.mesh, N, neg_lap_rhs)
