"""Computation of disk-type surfaces of prescribed mean curvature.

The vector PDE  Delta X = 2 H(X) X_u ^ X_v  with Dirichlet data X = Gamma
on the boundary ring is discretized with P1 finite elements on the polar
disk mesh and solved as the fixed point of the Picard map G: one polar
Laplace solve with the right-hand side frozen at the current iterate, plus
continuation in the field strength over CONTINUATION_LEVELS levels to stay
in the contraction regime of the radial growth bound.

Each step is a type-II Anderson step (Walker & Ni 2011) of depth
ANDERSON_DEPTH on the interior unknowns: it mixes the last Picard images
by a small least-squares fit of their residuals G(x) - x, so a step
without history is the plain Picard step G(x).  The history is cleared
whenever ||G(x) - x||_2 grows.

A continuation level stalls when an update is not finite or not below the
update STALL_WINDOW steps earlier; the solve then raises NoConvergence
naming the level, as it does at once when an iterate leaves the domain of
the field.  A stalled level is not restarted: in every case measured,
damped restarts of a stalled level converged only to fixed points outside
the cone, which are not the paper's surface.

Only the final level is driven to config.update_tol.  A level before it
only seeds the next one, so it stops once its update is at most
max(update_tol, LEVEL_REDUCTION * the first update of that level): an iterate
left at that fraction is off by about LEVEL_REDUCTION * q / (1 - q) of the
jump between levels (q the contraction per step), which the next level's
first steps remove.

Each quantity that is fixed for a solve is computed once: the harmonic
part (the Dirichlet solution for the boundary values g with no interior
load) and an iterate template holding g on the boundary ring are built
when the solve starts.  The interior stiffness K_II is solved by the
mesh's polar solve, a DFT along the rings and one tridiagonal system per
Fourier mode, whose batched Thomas factors the mesh computes on its first
solve and keeps; the harmonic part gets one step of iterative refinement
against the full stiffness.  A step is then one
right-hand-side assembly, one polar solve added to the harmonic part and
one least-squares fit with at most ANDERSON_DEPTH columns.  `energies`
returns F and G together from one quadrature of their shared Q coupling.

The boundary ring is placed at equal arclength along Gamma and stays
there.  F is not minimized over the monotone reparametrizations of the
boundary, so the discrete surface is not conformal; solve.json records its
conformality_defect and the gap energy_F - energy_G.
"""

import numbers
from dataclasses import dataclass, field as dc_field

import numpy as np

from .errors import FieldOutOfDomain, NoConvergence, OutOfRange
from .fields import build_potential_Q, is_real
from .mesh import DiskMesh

STALL_WINDOW = 20   # steps between the two updates a stall test compares
LEVEL_REDUCTION = 1e-2  # intermediate level stops at this share of its first update
CONTRACTION_WINDOW = 5  # trailing update ratios in a contraction estimate
ANDERSON_DEPTH = 5  # Picard images mixed by one Anderson step
CONTINUATION_LEVELS = 4  # field strengths k / CONTINUATION_LEVELS, k = 1 .. 4
ARCLENGTH_SAMPLES = 4096  # chords of Gamma summed for its arclength


@dataclass
class SolveConfig:
    max_iters: int = 200
    residual_tol: float = 1e-8
    update_tol: float = 1e-11

    def __post_init__(self):
        value = self.max_iters
        if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 1:
            raise OutOfRange(f"max_iters must be a positive integer, got {value!r}")
        for name in ("residual_tol", "update_tol"):
            value = getattr(self, name)
            if not (is_real(value) and value > 0):
                raise OutOfRange(f"{name} must be a positive finite real number, got {value!r}")


@dataclass
class SurfaceState:
    mesh: DiskMesh
    X: np.ndarray                    # (nv, 3) vertex positions
    boundary_theta: np.ndarray       # Gamma parameter per boundary vertex
    iterations: int = 0
    residual: float = np.nan
    iteration_log: list = dc_field(default_factory=list)
    level_iterations: list = dc_field(default_factory=list)
    level_contraction: list = dc_field(default_factory=list)

    def triangle_derivatives(self):
        """(X_u, X_v) per triangle, each (nt, 3)."""
        return self.mesh.d_u @ self.X, self.mesh.d_v @ self.X


EFLOOR_REL = 1e-14


def conformality_defect(state):
    """max over triangles of (| |X_u|^2 - |X_v|^2 | + 2 |X_u . X_v|) / E,
    with E floored at 1e-14 * median(E) near branch triangles."""
    xu, xv = state.triangle_derivatives()
    e = np.einsum("ij,ij->i", xu, xu)
    g = np.einsum("ij,ij->i", xv, xv)
    f = np.einsum("ij,ij->i", xu, xv)
    floor = max(EFLOOR_REL * np.median(e), 1e-300)
    return float(np.max((np.abs(e - g) + 2.0 * np.abs(f)) / np.maximum(e, floor)))


def energies(state, field):
    """(F, G) by centroid quadrature.  F is the Dirichlet part plus
    2 int Q(X) . X_u ^ X_v; G is the area term int |X_u ^ X_v| plus the same
    Q coupling, integrated once for both.  G equals F exactly when the map
    is conformal."""
    mesh = state.mesh
    xu, xv = state.triangle_derivatives()
    w = np.cross(xu, xv)
    dirichlet = 0.5 * np.sum(
        mesh.quad_weights
        * (np.einsum("ij,ij->i", xu, xu) + np.einsum("ij,ij->i", xv, xv))
    )
    area_term = np.sum(mesh.quad_weights * np.linalg.norm(w, axis=1))
    coupling = 2.0 * _q_term(state, field, w)
    return float(dirichlet + coupling), float(area_term + coupling)


def energy_F(state, field):
    """F of `energies`."""
    return energies(state, field)[0]


def energy_G(state, field):
    """G of `energies`."""
    return energies(state, field)[1]


def _q_term(state, field, w):
    """int Q(X) . w over the disk, w = X_u ^ X_v per triangle."""
    if field.family == "zero":
        return 0.0
    mesh = state.mesh
    centroids = mesh.centroid_op @ state.X
    total = 0.0
    for t in range(len(mesh.triangles)):
        q = build_potential_Q(field, centroids[t])
        total += mesh.quad_weights[t] * (q @ w[t])
    return total


class _DiskSystem:
    """Dirichlet solves of one solve: the harmonic part (the solution with
    zero interior load and the boundary values g), and an iterate template
    that holds g on the boundary ring.  The interior stiffness K_II is
    solved by the mesh's polar solve."""

    def __init__(self, mesh, boundary_values):
        self.mesh = mesh
        # the interior vertices are the prefix of the mesh layout, so the
        # interior values of a vertex array are a view of its first rows
        n = len(mesh.interior)
        self.interior = slice(0, n)
        self.template = np.zeros((len(mesh.vertices), boundary_values.shape[1]))
        self.template[mesh.boundary] = boundary_values
        # K_II x = -K_ib g, then one step of fixed-precision iterative
        # refinement (Skeel 1980) on the interior residual -(K X)[interior]
        # of the full system; without it the (96, 192) flat plane's
        # residual is 1.4e-8, above the default residual_tol
        x = np.zeros((n, boundary_values.shape[1]))
        for _ in range(2):
            x += mesh.solve_interior_stiffness(-(mesh.stiffness @ self.embed(x))[self.interior])
        self.harmonic = x

    def solve_interior(self, rhs_interior):
        """Interior values of the solution of K X = b with X = g on the
        boundary ring and b = rhs_interior on the interior."""
        return self.harmonic + self.mesh.solve_interior_stiffness(rhs_interior)

    def embed(self, x):
        """Iterate with interior values x and g on the boundary ring."""
        X = self.template.copy()
        X[self.interior] = x
        return X


class _Anderson:
    """Type-II Anderson mixing of depth ANDERSON_DEPTH for x = G(x) on n
    unknowns.  The differences of the last residuals f = G(x) - x and
    images G(x) are kept in preallocated columns; a step fits f by them in
    least squares and extrapolates G(x) by the fit.  The history is
    cleared when ||f||_2 grows, and a step without history is G(x)."""

    def __init__(self, n):
        self.dF = np.empty((n, ANDERSON_DEPTH), order="F")
        self.dG = np.empty((n, ANDERSON_DEPTH), order="F")
        self.f = self.g = None  # f and G(x) of the previous step
        self.norm = np.inf      # ||f||_2 of the previous step
        self.count = 0          # history columns held
        self.next = 0           # column the next difference goes to

    def step(self, x, gx):
        """The iterate after x, given its Picard image gx (same shape),
        which is kept for the next step and must not change."""
        g = gx.reshape(-1)
        f = g - x.reshape(-1)
        norm = float(np.linalg.norm(f))
        if not norm <= self.norm:       # grown or not finite: restart
            self.count = self.next = 0
        elif self.norm < np.inf:        # not the first step
            np.subtract(f, self.f, out=self.dF[:, self.next])
            np.subtract(g, self.g, out=self.dG[:, self.next])
            self.next = (self.next + 1) % ANDERSON_DEPTH
            self.count = min(self.count + 1, ANDERSON_DEPTH)
        self.f, self.g, self.norm = f, g, norm
        if not self.count:
            return gx
        gamma = np.linalg.lstsq(self.dF[:, :self.count], f, rcond=None)[0]
        return gx - (self.dG[:, :self.count] @ gamma).reshape(gx.shape)


def _assemble_rhs(mesh, X, field):
    """Load vector of -2 H(X) X_u ^ X_v (weak form moves the sign), and
    the per-triangle values 2 H(X) X_u ^ X_v at the centroids."""
    xu, xv, centroids = (mesh.triangle_gather @ X).reshape(3, -1, 3)
    w = np.empty_like(xu)
    w[:, 0] = xu[:, 1] * xv[:, 2] - xu[:, 2] * xv[:, 1]
    w[:, 1] = xu[:, 2] * xv[:, 0] - xu[:, 0] * xv[:, 2]
    w[:, 2] = xu[:, 0] * xv[:, 1] - xu[:, 1] * xv[:, 0]
    r = np.linalg.norm(centroids, axis=1)
    if not np.all(np.isfinite(r)):
        raise FieldOutOfDomain("iterate has non-finite vertices")
    needs_origin = field.family not in ("zero", "constant")
    if needs_origin and np.any(r < 1e-10):
        raise FieldOutOfDomain("iterate touches the origin of the field domain")
    tri_load = 2.0 * field.eval(centroids)[:, None] * w
    return -(mesh.load_op @ tri_load), tri_load


def solve_residual(mesh, X, field):
    """(inf-norm residual, scale) of the discrete H-system at interior
    vertices, measured per unit of lumped mass."""
    b, tri_load = _assemble_rhs(mesh, X, field)
    r = (mesh.stiffness @ X - b)[mesh.interior]
    r = r / mesh.lumped_mass[mesh.interior, None]
    return float(np.max(np.abs(r))), max(1.0, float(np.max(np.abs(tri_load))))


def arclength_parametrization(curve, n_boundary):
    """Boundary parameters theta_j placing the n_boundary ring vertices at
    equal arclength along Gamma, with theta_0 = 0."""
    thetas = np.linspace(0.0, 2.0 * np.pi, ARCLENGTH_SAMPLES + 1)
    pts = curve.points(thetas)
    seg = np.linalg.norm(np.diff(pts, axis=0), axis=1)
    s = np.concatenate([[0.0], np.cumsum(seg)])
    targets = np.arange(n_boundary) / n_boundary * s[-1]
    return np.interp(targets, s, thetas)


def _relax(system, field, X, config, log, level, final):
    """Anderson-mixed Picard steps of continuation level `level` (1-based)
    from X, appending each update to log, until the update meets the
    level's tolerance or config.max_iters run out.  The tolerance is
    config.update_tol when final (the last level) and max(update_tol,
    LEVEL_REDUCTION * first update) otherwise.  Returns (X, contraction);
    raises NoConvergence naming the level when the steps stall, and at once
    (residual inf) when an iterate leaves the domain of the field."""
    mesh, interior = system.mesh, system.interior
    start = len(log)
    tol = config.update_tol
    x = X[interior]
    mixer = _Anderson(x.size)
    for _ in range(config.max_iters):
        try:
            b, _ = _assemble_rhs(mesh, X, field)
        except FieldOutOfDomain as exc:
            raise NoConvergence(len(log), np.inf, level=level) from exc
        x_next = mixer.step(x, system.solve_interior(b[interior]))
        update = float(np.max(np.abs(x_next - x)))
        x = x_next
        X = system.embed(x)
        log.append(update)
        if not np.isfinite(update):
            break
        if not final and len(log) == start + 1:
            tol = max(config.update_tol, LEVEL_REDUCTION * update)
        if update <= tol:
            return X, _contraction(log[start:])
        earlier = len(log) - 1 - STALL_WINDOW
        if earlier >= start and update >= log[earlier]:
            break
    else:  # out of steps: the final residual test of `solve` decides
        return X, _contraction(log[start:])
    # stalled: not finite, or not below the update STALL_WINDOW steps earlier
    residual = solve_residual(mesh, X, field)[0] if np.all(np.isfinite(X)) else np.inf
    raise NoConvergence(len(log), residual, level=level,
                        contraction=_contraction(log[start:]))


def _contraction(updates):
    """Geometric mean of the ratios of successive updates over the last
    CONTRACTION_WINDOW steps; None with fewer than two updates, inf when
    the updates left the finite range."""
    tail = updates[-(CONTRACTION_WINDOW + 1):]
    if len(tail) < 2 or not tail[0] > 0:
        return None
    q = (tail[-1] / tail[0]) ** (1.0 / (len(tail) - 1))
    return float(q) if np.isfinite(q) else np.inf


def solve(mesh, curve, field, config=None):
    """Converged SurfaceState for the given curve and field.

    The boundary ring is placed at equal arclength along the curve.  The
    initial guess is the harmonic extension of the boundary data (the
    zero-field solve); the field strength is then ramped up over
    CONTINUATION_LEVELS levels of Picard iteration, the last at full
    strength.
    """
    if config is None:
        config = SolveConfig()
    boundary_theta = arclength_parametrization(curve, mesh.n_theta)

    system = _DiskSystem(mesh, curve.points(boundary_theta))
    X = system.embed(system.harmonic)

    log, level_iterations, level_contraction = [], [], []
    if field.family != "zero":
        for level in range(1, CONTINUATION_LEVELS + 1):
            start = len(log)
            X, contraction = _relax(
                system, field.scaled(level / CONTINUATION_LEVELS), X, config, log, level,
                final=level == CONTINUATION_LEVELS)
            level_iterations.append(len(log) - start)
            level_contraction.append(contraction)

    residual, scale = solve_residual(mesh, X, field)
    state = SurfaceState(
        mesh=mesh, X=X, boundary_theta=boundary_theta,
        iterations=len(log), residual=residual, iteration_log=log,
        level_iterations=level_iterations, level_contraction=level_contraction,
    )
    if residual > config.residual_tol * scale or (log and log[-1] > config.update_tol):
        raise NoConvergence(len(log), residual, level=len(level_iterations) or None,
                            contraction=level_contraction[-1] if level_contraction else None)
    return state
