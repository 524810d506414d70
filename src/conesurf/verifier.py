"""Post-solve verification of the geometric conclusions: Gauss map and
branch points, density function and stability, enclosure barriers, radial
normal positivity, projection degree, and radial-graph extraction.

`verify_surface` evaluates H(X), grad H(X) and the conformal factor E at
the vertices once, in `density_field`, and every check reads them from the
returned DensityField.  The report is one table: each row is a check's
name, value, comparison and tolerance, and its pass flag is the comparison
applied to the value and the tolerance.

The stability eigenvalue mu_1 is computed by a one-vector LOBPCG
(Knyazev 2001) preconditioned with the mesh's polar solve of the interior
stiffness (a DFT along the rings and one tridiagonal system per Fourier
mode): a Rayleigh-Ritz step on [x, w, p] per iteration, with the operators
applied as the mesh's stencils, so `verify` builds no matrix."""

from dataclasses import dataclass
from operator import eq, ge, gt, lt

import numpy as np

from .errors import (
    EigensolverFailure,
    FloatingPointFailure,
    InconsistentDegree,
    NotInjectiveAt,
    OriginHit,
    Uncovered,
)
from .geometry import stereographic_south, winding_degree

# A triangle with E <= BRANCH_THRESHOLD * median(E) is a candidate branch
# point; below 1, at least half of the triangles keep their normal.
BRANCH_THRESHOLD = 1e-6
# The surface is stable when mu_1 >= -STABILITY_TOL * median(E).
STABILITY_TOL = 1e-3
# Boundary vertices whose cone axis is tested, and winding-degree probes.
N_AXES = 16
N_PROBE = 8
# Residual bound on the stability eigenpair, in the 2-norm with the vector
# M-normalized.  The Rayleigh quotient's error is about residual^2 / gap;
# 1e-8 gives mu_1 within 5e-13 relative of shift-invert Lanczos on meshes
# (4,8) to (96,192).
EIGEN_TOL = 1e-8
# LOBPCG steps before EigensolverFailure: about 4 times the most seen (26,
# for a random p of scale 30); solved surfaces take 7-9
EIGEN_MAXITER = 100


# ---------------------------------------------------------------------------
# Gauss map and branch detection


@dataclass
class NormalField:
    tri_normals: np.ndarray      # (nt, 3), rows of flagged triangles are nan
    vertex_normals: np.ndarray   # (nv, 3) unit where defined
    vertex_defined: np.ndarray   # (nv,) bool
    branch_triangles: np.ndarray  # indices of flagged triangles


def gauss_map(state):
    """Unit normal (X_u ^ X_v)/|X_u ^ X_v| per triangle; triangles with
    E <= BRANCH_THRESHOLD * median(E) are flagged as candidate branch
    points."""
    mesh = state.mesh
    xu, xv = state.triangle_derivatives()
    w = np.cross(xu, xv)
    e = np.einsum("ij,ij->i", xu, xu)
    defined = e > BRANCH_THRESHOLD * np.median(e)
    n = np.full_like(w, np.nan)
    norms = np.linalg.norm(w, axis=1)
    ok = defined & (norms > 0)
    n[ok] = w[ok] / norms[ok, None]

    acc = mesh.load_op @ np.where(ok[:, None], n, 0.0)
    wsum = mesh.load_op @ ok.astype(float)
    vdef = wsum > 0
    vn = np.full((len(mesh.vertices), 3), np.nan)
    vn[vdef] = acc[vdef] / wsum[vdef, None]
    lens = np.linalg.norm(vn[vdef], axis=1)
    vn[vdef] = vn[vdef] / lens[:, None]
    return NormalField(
        tri_normals=n, vertex_normals=vn,
        vertex_defined=vdef, branch_triangles=np.nonzero(~defined)[0],
    )


# ---------------------------------------------------------------------------
# Density function and stability


@dataclass
class DensityField:
    p: np.ndarray          # per-vertex density, 0 where undefined
    E: np.ndarray          # per-vertex conformal factor
    K: np.ndarray          # per-vertex Gaussian curvature
    H: np.ndarray          # H(X) per vertex
    grad_H: np.ndarray     # grad H(X) per vertex, (nv, 3)


def vertex_conformal_factor(state):
    """Per-vertex E, averaging (|X_u|^2 + |X_v|^2)/2 over adjacent triangles."""
    xu, xv = state.triangle_derivatives()
    e = 0.5 * (np.einsum("ij,ij->i", xu, xu) + np.einsum("ij,ij->i", xv, xv))
    return state.mesh.vertex_average(e)


def density_field(state, field, normals):
    """Density p = E (2 H^2 - K - grad H . N) per vertex, with K from the
    second fundamental form (e g - f^2)/E^2 using discrete second
    derivatives of X."""
    mesh = state.mesh
    E = vertex_conformal_factor(state)
    second = mesh.second_derivatives(state.X)  # (nv, 3, 3): uu, uv, vv
    N = normals.vertex_normals
    defined = normals.vertex_defined

    ee = np.einsum("ij,ij->i", second[:, 0, :], np.nan_to_num(N))
    ff = np.einsum("ij,ij->i", second[:, 1, :], np.nan_to_num(N))
    gg = np.einsum("ij,ij->i", second[:, 2, :], np.nan_to_num(N))
    K = np.zeros(len(E))
    K[defined] = (ee[defined] * gg[defined] - ff[defined] ** 2) / E[defined] ** 2

    h = field.eval(state.X)
    gh = field.grad(state.X)
    ghn = np.einsum("ij,ij->i", gh, np.nan_to_num(N))

    p = np.zeros(len(E))
    p[defined] = E[defined] * (
        2.0 * h[defined] ** 2 - K[defined] - ghn[defined]
    )
    return DensityField(p=p, E=E, K=K, H=h, grad_H=gh)


def stability_eigenvalue(state, p):
    """Smallest eigenvalue mu_1 of (stiffness - 2 p mass) phi = mu mass phi
    with zero boundary values, for the per-vertex density p; verify_surface
    calls the surface stable when mu_1 >= -STABILITY_TOL * median(E).

    mu_1 comes from a one-vector LOBPCG (Knyazev 2001) preconditioned by
    the mesh's polar solve of the interior stiffness K_II, started from the
    constant vector.  A non-finite iterate, a breakdown of the Rayleigh-Ritz
    step, and a pair whose residual |A phi - mu_1 M phi| (phi M-normalized)
    still exceeds EIGEN_TOL after EIGEN_MAXITER steps raise
    EigensolverFailure."""
    mesh = state.mesh
    # the interior vertices are the prefix 0 .. n-1 of the mesh layout
    n, nv = len(mesh.interior), len(mesh.vertices)
    # mass matrix weighted by p (p interpolated as triangle averages)
    Mp = mesh.weighted_mass(p[mesh.triangles].mean(axis=1))

    def interior(apply):
        """The interior block [:n, :n] of a map of vertex vectors."""
        def block(x):
            full = np.zeros(nv)
            full[:n] = x
            return apply(full)[:n]
        return block

    A = interior(lambda x: mesh.stiffness @ x - 2.0 * (Mp @ x))
    B = interior(lambda x: mesh.mass @ x)

    # K_II^-1 A is the identity plus the bounded -2 K_II^-1 M_p, so the
    # polar solve is a nearly exact preconditioner; the ground state of the
    # form is positive, so the constant start is not orthogonal to it
    return _smallest_eigenvalue(A, B, mesh.solve_interior_stiffness, np.ones(n))


def _smallest_eigenvalue(A, B, T, x):
    """Smallest eigenvalue of A x = mu B x (B positive definite) by
    one-vector LOBPCG preconditioned with T, from the start vector x.  Each
    step is a Rayleigh-Ritz step on the B-normalized columns [x, w, p]: w the
    preconditioned residual, B-orthogonalized against x, and p the part of
    the previous step along w and p.  A, B and T map (n,) vectors to (n,)
    vectors; A and B are applied once each per step, and their
    products with x and p are carried along.  When the carried residual
    meets EIGEN_TOL it is recomputed from fresh products, and the solve goes
    on from those when it does not."""
    def normalized(v, Av, Bv, step, optional=False):
        """(v, Av, Bv) scaled to v B v = 1; None for a zero optional v."""
        scale = float(v @ Bv)
        if not scale > 0.0:
            if optional and scale == 0.0:
                return None
            raise EigensolverFailure(f"stability eigen-solve broke down at step {step}")
        scale = 1.0 / np.sqrt(scale)
        return v * scale, Av * scale, Bv * scale

    x, Ax, Bx = normalized(x, A(x), B(x), 0)
    mu = float(x @ Ax)
    p = None
    for step in range(EIGEN_MAXITER + 1):
        r = Ax - mu * Bx
        residual = float(np.linalg.norm(r))
        if residual <= EIGEN_TOL:
            Ax, Bx = A(x), B(x)
            mu = float(x @ Ax) / float(x @ Bx)
            r = Ax - mu * Bx
            residual = float(np.linalg.norm(r)) / np.sqrt(float(x @ Bx))
            if residual <= EIGEN_TOL:
                return mu
        if not np.isfinite(residual):
            raise EigensolverFailure(f"stability eigen-solve reached a non-finite "
                                     f"residual at step {step}")
        if step == EIGEN_MAXITER:
            raise EigensolverFailure(f"stability eigenpair residual {residual:.3e} "
                                     f"exceeds {EIGEN_TOL:.0e} after {step} steps")
        w = T(r)
        w -= x * float(Bx @ w)
        w = normalized(w, A(w), B(w), step)
        basis = [(x, Ax, Bx), w] + ([p] if p is not None else [])
        for columns in (basis, basis[:2]):
            S, AS, BS = (np.column_stack(c) for c in zip(*columns))
            try:
                L = np.linalg.cholesky(0.5 * (S.T @ BS + BS.T @ S))
            except np.linalg.LinAlgError:
                continue
            Linv = np.linalg.inv(L)
            vals, vecs = np.linalg.eigh(Linv @ (0.5 * (S.T @ AS + AS.T @ S)) @ Linv.T)
            break
        else:
            raise EigensolverFailure(f"stability eigen-solve broke down at step {step}")
        y = Linv.T @ vecs[:, 0]
        mu = float(vals[0])
        x, Ax, Bx = normalized(S @ y, AS @ y, BS @ y, step)
        y[0] = 0.0
        p = normalized(S @ y, AS @ y, BS @ y, step, optional=True)


# ---------------------------------------------------------------------------
# Enclosure barriers


def _tested_weak_residual(mesh, values, neg_lap_rhs):
    """Weak residual of -Delta(values) = rhs tested against a fixed set of
    smooth functions vanishing on the boundary.  Used when `values` comes
    from the discrete Gauss map, whose O(h^2) high-frequency error the
    stiffness operator amplifies to O(1) pointwise; the tested pairing
    still converges at O(h)."""
    r = mesh.stiffness @ values - mesh.mass @ neg_lap_rhs
    u, v = mesh.vertices[:, 0], mesh.vertices[:, 1]
    bump = 1.0 - (u * u + v * v)
    tests = [bump, bump * u, bump * v, bump * u * v,
             bump * (u * u - v * v), bump**2]
    worst = 0.0
    for t in tests:
        num = float(np.max(np.abs(t @ r)))
        den = float(np.abs(t) @ mesh.lumped_mass)
        worst = max(worst, num / den)
    return worst


def _weak_rms_residual(mesh, values, neg_lap_rhs, deep):
    """Mass-weighted RMS of the weak residual of -Delta(values) = rhs over
    the given vertices.  The pointwise lumped Laplacian is not consistent
    on this mesh, so residuals are measured in this integral norm, which
    converges under refinement."""
    r = (mesh.stiffness @ values - mesh.mass @ neg_lap_rhs) / mesh.lumped_mass
    w = mesh.lumped_mass[deep]
    return float(np.sqrt(np.sum(w * r[deep] ** 2) / np.sum(w)))


def check_enclosure(state, beta, density):
    """Barrier phi = X.e3 - |X| cos(beta): minima on the closed disk, the
    interior and the boundary ring, and the discrete residual of the
    superharmonicity identity for -Delta phi (with the density's E and H)
    at the vertices at least two rings away from the boundary."""
    X = state.X
    r = np.linalg.norm(X, axis=1)
    if np.min(r) < 1e-10:
        raise OriginHit(f"|X| reaches {np.min(r):.3e}")
    cosb = np.cos(beta)
    phi = X[:, 2] - r * cosb

    mesh = state.mesh
    xu = mesh.vertex_average(mesh.d_u @ X)
    xv = mesh.vertex_average(mesh.d_v @ X)
    E, h = density.E, density.H
    w = np.cross(xu, xv)
    px = X / r[:, None]
    pxu = _safe_unit(xu)
    pxv = _safe_unit(xv)
    rhs = (
        -2.0 * h * w[:, 2]
        + 2.0 * E / r * cosb
        + 2.0 * h * np.einsum("ij,ij->i", px, w) * cosb
        - (np.einsum("ij,ij->i", px, pxu) ** 2
           + np.einsum("ij,ij->i", px, pxv) ** 2) * E * cosb / r
    )
    # the interior vertices are numbered ring by ring from the center
    deep = np.arange(1 + (mesh.n_r - 2) * mesh.n_theta)
    res = _weak_rms_residual(mesh, phi, rhs, deep)

    return {
        "min_phi_closed": float(np.min(phi)),
        "min_phi_interior": float(np.min(phi[mesh.interior])),
        "min_phi_boundary": float(np.min(phi[mesh.boundary])),
        "identity_residual": res,
    }


def _safe_unit(v):
    n = np.linalg.norm(v, axis=1)
    n = np.where(n > 0, n, 1.0)
    return v / n[:, None]


def check_cone_condition_functions(state, axis_map, beta):
    """Per boundary vertex of N_AXES equally spaced ones: interior minimum
    of the cone barrier phi_p for the axis at that point (expected > 0) and
    the outward normal derivative of phi_p there (expected < 0)."""
    mesh = state.mesh
    X = state.X
    r = np.linalg.norm(X, axis=1)
    cosb = np.cos(beta)
    n_b = len(state.boundary_theta)
    sample_js = np.linspace(0, n_b, N_AXES, endpoint=False).astype(int)

    interior_mins = []
    normal_derivs = []
    for j in sample_js:
        phi_p = X @ axis_map.axis(state.boundary_theta[j]) - r * cosb
        interior_mins.append(np.min(phi_p[mesh.interior]))
        normal_derivs.append(mesh.boundary_normal_derivative(phi_p, j))
    return {
        "min_interior_phi_p": float(np.min(interior_mins)),
        "max_normal_derivative": float(np.max(normal_derivs)),
    }


# ---------------------------------------------------------------------------
# Radial normal positivity


def check_radial_normal(state, density, normals):
    """f = N.X: minimum over the closed disk, minimum of |f| on the
    boundary, and the residual of Delta f + 2 p f = -2E(grad H . X + H)."""
    mesh = state.mesh
    X = state.X
    N = np.nan_to_num(normals.vertex_normals)
    f = np.einsum("ij,ij->i", N, X)

    rhs = -2.0 * density.E * (np.einsum("ij,ij->i", density.grad_H, X) + density.H)
    # Delta f + 2 p f = rhs  =>  -Delta f = 2 p f - rhs; f involves the
    # discrete Gauss map, so measure against smooth test functions
    res = _tested_weak_residual(mesh, f, 2.0 * density.p * f - rhs)

    return {
        "min_NdotX": float(np.min(f[normals.vertex_defined])),
        "min_abs_NdotX_boundary": float(np.min(np.abs(f[mesh.boundary]))),
        "pde_residual": res,
    }


def normal_pde_residual(state, density, normals):
    """Weak residual of Delta N + 2 p N = -2 E grad H(X).

    Measured with the tested weak pairing; see _tested_weak_residual."""
    mesh = state.mesh
    N = np.nan_to_num(normals.vertex_normals)
    neg_lap_rhs = 2.0 * density.p[:, None] * N + 2.0 * density.E[:, None] * density.grad_H
    return _tested_weak_residual(mesh, N, neg_lap_rhs)


# ---------------------------------------------------------------------------
# Degree, Jacobian identity, radial-graph extraction


def _rotation_to_north(v):
    """Rotation matrix mapping unit vector v to (0, 0, 1)."""
    v = v / np.linalg.norm(v)
    e3 = np.array([0.0, 0.0, 1.0])
    c = float(v @ e3)
    axis = np.cross(v, e3)
    s = np.linalg.norm(axis)
    if s < 1e-14:
        return np.eye(3) if c > 0 else np.diag([1.0, -1.0, -1.0])
    axis = axis / s
    Kx = np.array([
        [0.0, -axis[2], axis[1]],
        [axis[2], 0.0, -axis[0]],
        [-axis[1], axis[0], 0.0],
    ])
    return np.eye(3) + s * Kx + (1.0 - c) * (Kx @ Kx)


def projection_degree(state):
    """Winding degree of the stereographic image of the projected boundary
    ring around N_PROBE interior probe points; all probes must agree."""
    mesh = state.mesh
    X = state.X
    S = X / np.linalg.norm(X, axis=1)[:, None]
    centroid = S[mesh.boundary].mean(axis=0)
    R = _rotation_to_north(centroid)
    S_rot = S @ R.T
    if np.min(S_rot[:, 2]) <= 0.0:
        raise OriginHit("projected surface leaves the open upper hemisphere")
    loop = stereographic_south(S_rot[mesh.boundary])
    center = loop.mean(axis=0)
    js = (np.arange(N_PROBE) * len(loop)) // N_PROBE
    degs = winding_degree(loop, center + 0.25 * (loop[js] - center)).tolist()
    if len(set(degs)) != 1:
        raise InconsistentDegree(f"probe degrees disagree: {degs}")
    return degs[0]


def jacobian_identity_check(state):
    """Max discrepancy (relative to the field scale) between the affine
    model of (PX)_u ^ (PX)_v . PX and (X_u ^ X_v . X)/|X|^3 per triangle."""
    mesh = state.mesh
    X = state.X
    S = X / np.linalg.norm(X, axis=1)[:, None]
    left_dir = np.cross(mesh.d_u @ S, mesh.d_v @ S)
    s_c = S[mesh.triangles].mean(axis=1)
    s_c = s_c / np.linalg.norm(s_c, axis=1)[:, None]
    left = np.einsum("ij,ij->i", left_dir, s_c)

    xu, xv = state.triangle_derivatives()
    x_c = X[mesh.triangles].mean(axis=1)
    right = np.einsum("ij,ij->i", np.cross(xu, xv), x_c) / np.linalg.norm(
        x_c, axis=1
    ) ** 3
    scale = float(np.max(np.abs(right)))
    return float(np.max(np.abs(left - right)) / scale)


def domain_grid(boundary, n):
    """n seeded unit vectors strictly inside the spherical domain, the
    radial graph's sample."""
    return boundary.domain_samples(n, seed=11, margin=0.05)


EDGE_TOL = 1e-10
# Candidate caps.  Triangle t's geodesic triangle on S^2 lies in the cap of
# chordal radius rho_t about its normalized vertex mean.  A loose hit (all
# barycentric coordinates >= -EDGE_TOL) lies outside the triangle by at most
# about 20 EDGE_TOL rho_t / d^2 in chord, d the smallest cosine between p
# and a vertex, so widening every cap by CAP_MARGIN keeps every loose hit
# with d >= 5e-4.  A loose hit with smaller d needs rho_t above 0.3, and
# triangles with a widened rho_t above WIDE_CAP are tested at every grid
# point.  The other caps are found by bucketing their centers in cubes at
# least as wide as every such cap, and no narrower than MIN_CUBE, which
# keeps the cube keys in int64.
CAP_MARGIN = 1e-2
WIDE_CAP = 0.25
MIN_CUBE = 1e-3
_NEIGHBOR_CUBES = np.array(list(np.ndindex(3, 3, 3))) - 1


def _candidate_pairs(S, tris, grid):
    """(grid index, triangle index) pairs, sorted, that contain every pair
    in which the triangle can contain the grid direction, strictly or
    within EDGE_TOL."""
    V = S[tris]
    mean = V.mean(axis=1)
    norm = np.linalg.norm(mean, axis=1)
    c = mean / np.where(norm > 0.0, norm, 1.0)[:, None]
    reach = (1.0 + CAP_MARGIN) * np.max(np.linalg.norm(V - c[:, None, :], axis=2), axis=1)
    narrow = np.nonzero(reach <= WIDE_CAP)[0]
    wide = np.nonzero(reach > WIDE_CAP)[0]

    # a direction within reach of a center lies in one of the 27 cubes
    # around the center's own
    h = max(np.max(reach[narrow], initial=0.0), MIN_CUBE)
    span = int(np.ceil(1.0 / h)) + 2  # every cube coordinate is in [-span, span)

    def key(cube):
        return ((cube[..., 0] + span) * 2 * span + cube[..., 1] + span) * 2 * span + cube[..., 2] + span

    keys = key(np.floor(c[narrow] / h).astype(int))
    order = np.argsort(keys)
    keys = keys[order]
    probe = key(np.floor(grid / h).astype(int)[:, None, :] + _NEIGHBOR_CUBES).ravel()
    lo = np.searchsorted(keys, probe, "left")
    count = np.searchsorted(keys, probe, "right") - lo
    q = np.repeat(np.arange(len(probe)), count)
    gi = q // len(_NEIGHBOR_CUBES)
    ti = narrow[order[lo[q] + np.arange(len(q)) - (np.cumsum(count) - count)[q]]]
    keep = np.linalg.norm(grid[gi] - c[ti], axis=1) <= reach[ti]

    gi = np.concatenate([gi[keep], np.repeat(np.arange(len(grid)), len(wide))])
    ti = np.concatenate([ti[keep], np.tile(wide, len(grid))])
    order = np.lexsort((ti, gi))
    return gi[order], ti[order]


def _locate(S, tris, grid):
    """Containing triangle and normalized barycentric weights of every grid
    direction on the unit-sphere mesh (S, tris); see extract_radial_graph."""
    grid = np.asarray(grid, dtype=float)
    n = len(grid)

    # tangent frame at every grid direction
    t1 = np.cross(grid, [0.0, 0.0, 1.0])
    polar = np.linalg.norm(t1, axis=1) < 1e-8
    t1[polar] = np.cross(grid[polar], [1.0, 0.0, 0.0])
    t1 /= np.linalg.norm(t1, axis=1)[:, None]
    t2 = np.cross(grid, t1)

    gi, ti = _candidate_pairs(S, tris, grid)
    V = S[tris[ti]]  # (pairs, 3 vertices, 3)
    d = np.einsum("pkj,pj->pk", V, grid[gi])
    front = d > 1e-9
    G = np.where(front[..., None],
                 V / np.where(front, d, 1.0)[..., None] - grid[gi][:, None, :], np.nan)
    ax, bx, cx = np.einsum("pkj,pj->kp", G, t1[gi])
    ay, by, cy = np.einsum("pkj,pj->kp", G, t2[gi])

    det = (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)
    nz = front.all(axis=1) & (np.abs(det) > 1e-18)
    safe = np.where(nz, det, 1.0)
    bary = np.where(nz[:, None], np.stack([
        (bx * cy - by * cx) / safe,
        (cx * ay - cy * ax) / safe,
        (ax * by - ay * bx) / safe,
    ], axis=1), np.nan)

    strict = nz & np.all(bary > EDGE_TOL, axis=1)
    loose = nz & np.all(bary >= -EDGE_TOL, axis=1)
    n_strict = np.bincount(gi[strict], minlength=n)
    bad = np.nonzero((n_strict > 1) | (np.bincount(gi[loose], minlength=n) == 0))[0]
    if len(bad):
        g = bad[0]
        point = tuple(grid[g].tolist())  # Python floats, for the message
        if n_strict[g] > 1:
            raise NotInjectiveAt(point, int(n_strict[g]))
        raise Uncovered(point)

    # pairs are sorted by (grid, triangle), so the first loose pair of each
    # grid point is its lowest-index loose triangle; a strict hit overrides
    _, first = np.unique(gi[loose], return_index=True)
    pick = np.nonzero(loose)[0][first]
    pick[gi[strict]] = np.nonzero(strict)[0]
    w = bary[pick]
    return ti[pick], w / w.sum(axis=1)[:, None]


def extract_radial_graph(state, grid):
    """Radial-graph table lambda(p) = |X| at the unique parameter point
    projecting to p, for each grid direction p.

    Point location is by gnomonic projection onto the tangent plane at p
    followed by a planar barycentric test; a point on an edge is assigned
    to the lowest-index containing triangle.  Only the triangles whose
    bounding cap on S^2 reaches p are tested, found by bucketing the cap
    centers in cubes.  Raises for the first grid point, in grid order, that is
    covered zero times or more than once (injectivity failure)."""
    radii = np.linalg.norm(state.X, axis=1)
    tris = state.mesh.triangles
    t, w = _locate(state.X / radii[:, None], tris, grid)
    return np.einsum("ij,ij->i", w, radii[tris[t]])


# ---------------------------------------------------------------------------
# Report assembly


def verify_surface(state, field, beta, axis_map=None, boundary=None, grid_size=512):
    """Run every geometric check on a converged state and return the
    `report.json` dict: `schema`, `pass` (every check passes), `checks`
    and `skipped`, plus `beta_convexity_margin` when given an `axis_map`.
    Each check is {name, value, tolerance, pass} with an optional
    `detail`.  `axis_map` enables the per-axis cone barriers; `boundary`
    enables radial-graph extraction over the spherical domain.  A numpy
    overflow, invalid value or division by zero in any check raises
    FloatingPointFailure instead of leaking a RuntimeWarning."""
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            normals = gauss_map(state)
            density = density_field(state, field, normals)
            mu1 = stability_eigenvalue(state, density.p)
            enc = check_enclosure(state, beta, density)
            rad = check_radial_normal(state, density, normals)
            # (name, value, comparison, tolerance, detail); a check passes when
            # comparison(value, tolerance) holds
            rows = [
                # a flagged triangle is a candidate branch point: none may remain
                ("branch_point_count", float(len(normals.branch_triangles)), eq, 0.0,
                 {"triangles": normals.branch_triangles.tolist()}),
                # mu_1 >= 0 up to the eigen-solve's discretization error, taken
                # relative to the surface's scale median(E)
                ("stability_eigenvalue", mu1, ge,
                 -STABILITY_TOL * float(np.median(density.E)), None),
                # the open cone: strictly positive barrier off the boundary
                ("enclosure_interior_margin", enc["min_phi_interior"], gt, 0.0, enc),
                # phi may vanish on the boundary ring, where the curve may touch the
                # cone; -1e-9 is the round-off of that zero
                ("enclosure_closed_margin", enc["min_phi_closed"], ge, -1e-9, None),
                # N.X > 0 is strict; the vertex values carry no error bound yet
                ("radial_normal_min", rad["min_NdotX"], gt, 0.0, rad),
            ]
            skipped = []
            if axis_map is not None:
                cc = check_cone_condition_functions(state, axis_map, beta)
                rows += [
                    # the paper's strict inequalities, compared exactly
                    ("cone_condition_interior", cc["min_interior_phi_p"], gt, 0.0, None),
                    ("cone_condition_normal_derivative", cc["max_normal_derivative"], lt,
                     0.0, None),
                ]
            else:
                skipped.append("cone_condition_functions (no axis map)")
            rows += [
                # an integer winding number, exact
                ("projection_degree", float(projection_degree(state)), eq, 1.0, None),
                # a fixed bound, not calibrated against mesh refinement
                ("jacobian_identity_discrepancy", jacobian_identity_check(state), lt, 0.5, None),
            ]
            if boundary is not None:
                # value: the grid directions with lambda > 0, or 0 when a direction
                # is covered zero times or more than once; all of them must count
                try:
                    lam = extract_radial_graph(state, domain_grid(boundary, grid_size))
                    value = float(np.count_nonzero(lam > 0.0))
                    detail = {"lambda_min": float(np.min(lam)), "lambda_max": float(np.max(lam))}
                except (NotInjectiveAt, Uncovered) as exc:
                    value, detail = 0.0, {"error": str(exc)}
                rows.append(("radial_graph_coverage", value, eq, float(grid_size), detail))
            else:
                skipped.append("radial_graph_extraction (no spherical domain)")
    except FloatingPointError as exc:
        raise FloatingPointFailure(
            f"floating-point error while verifying the surface: {exc} (largest"
            f" coordinate magnitude {float(np.max(np.abs(state.X))):.3g})") from exc

    checks = []
    for name, value, compare, tolerance, detail in rows:
        check = {"name": name, "value": value, "tolerance": tolerance,
                 "pass": bool(compare(value, tolerance))}
        if detail:
            check["detail"] = detail
        checks.append(check)
    report = {"schema": 1, "pass": all(c["pass"] for c in checks),
              "checks": checks, "skipped": skipped}
    if axis_map is not None:
        report["beta_convexity_margin"] = axis_map.margin
    return report
