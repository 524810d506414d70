"""Post-solve verification of the geometric conclusions: Gauss map and
branch points, density function and stability, enclosure barriers, radial
normal positivity, projection degree, and radial-graph extraction.

`verify_surface` builds one `SurfaceGeometry` record per surface, in
`surface_geometry`, and every check is a function of it.  The record
takes X_u, X_v and the centroid values of X from one triangle gather,
|X| and S = X/|X| from one pass, and evaluates H(X) and grad H(X) once;
it also holds the vertex conformal factor E, the Gauss map and the
density.  Building it is the step that raises on the geometry of X.  The
report is one table: each row is a check's name, value, comparison and
tolerance, and its pass flag is the comparison applied to the value and
the tolerance.

The degree and the radial-graph locator read S in one gnomonic chart,
about the mean boundary direction (`gnomonic_chart`).

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
from .geometry import gnomonic, winding_degree
from .solver import SurfaceState

# A triangle with |X_u|^2 <= BRANCH_THRESHOLD * median(|X_u|^2) is a candidate
# branch point; below 1, at least half of the triangles keep their normal.
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
# The geometry record


@dataclass
class SurfaceGeometry:
    """What the checks read of one surface, computed once by
    `surface_geometry`.  S's triangle gather is not kept: only
    `jacobian_identity_check` reads it."""
    state: SurfaceState         # mesh, X, boundary_theta
    r: np.ndarray               # |X| per vertex
    S: np.ndarray               # X / |X| per vertex, (nv, 3)
    xu: np.ndarray              # X_u per triangle, (nt, 3)
    xv: np.ndarray              # X_v per triangle, (nt, 3)
    x_c: np.ndarray             # X at the triangle centroids, (nt, 3)
    E: np.ndarray               # conformal factor per vertex
    N: np.ndarray               # unit normal per vertex, 0 where undefined
    defined: np.ndarray         # (nv,) bool: N is defined
    branch_triangles: np.ndarray  # indices of flagged triangles
    H: np.ndarray               # H(X) per vertex
    grad_H: np.ndarray          # grad H(X) per vertex, (nv, 3)
    K: np.ndarray               # Gaussian curvature per vertex, 0 where N is undefined
    p: np.ndarray               # density per vertex, 0 where N is undefined


def surface_geometry(state, field):
    """The geometry record of a surface in the field.  Raises OriginHit
    when |X| reaches 1e-10 at a vertex, before anything is evaluated at
    X; E is the area-weighted vertex average of (|X_u|^2 + |X_v|^2)/2."""
    mesh, X = state.mesh, state.X
    r = np.linalg.norm(X, axis=1)
    if np.min(r) < 1e-10:
        raise OriginHit(f"|X| reaches {np.min(r):.3e}")
    xu, xv, x_c = (mesh.triangle_gather @ X).reshape(3, -1, 3)
    E = mesh.vertex_average(
        0.5 * (np.einsum("ij,ij->i", xu, xu) + np.einsum("ij,ij->i", xv, xv)))
    N, defined, branch_triangles = gauss_map(mesh, xu, xv)
    H, grad_H = field.eval(X), field.grad(X)
    p, K = density_field(state, E, N, defined, H, grad_H)
    return SurfaceGeometry(
        state=state, r=r, S=X / r[:, None], xu=xu, xv=xv, x_c=x_c, E=E, N=N,
        defined=defined, branch_triangles=branch_triangles, H=H, grad_H=grad_H, K=K, p=p,
    )


# ---------------------------------------------------------------------------
# Gauss map and branch detection


def gauss_map(mesh, xu, xv):
    """Unit normal (X_u ^ X_v)/|X_u ^ X_v| per triangle, from the triangle
    derivatives, and its area-weighted vertex average; triangles with
    |X_u|^2 <= BRANCH_THRESHOLD * median(|X_u|^2) are flagged as candidate
    branch points and keep no normal.  Returns (unit vertex normals, 0
    where no adjacent triangle keeps its normal; the (nv,) bool mask of the
    vertices that have one; the flagged triangles)."""
    w = np.cross(xu, xv)
    e = np.einsum("ij,ij->i", xu, xu)
    defined = e > BRANCH_THRESHOLD * np.median(e)
    norms = np.linalg.norm(w, axis=1)
    ok = defined & (norms > 0)
    n = np.divide(w, norms[:, None], out=np.zeros_like(w), where=ok[:, None])

    acc = mesh.load_op @ n
    wsum = mesh.load_op @ ok.astype(float)
    vdef = wsum > 0
    # in C order: acc comes back coordinate-major, and the density's
    # einsums over N round differently in that layout
    vn = np.divide(acc, wsum[:, None], out=np.zeros(acc.shape), where=vdef[:, None])
    np.divide(vn, np.linalg.norm(vn, axis=1)[:, None], out=vn, where=vdef[:, None])
    return vn, vdef, np.nonzero(~defined)[0]


# ---------------------------------------------------------------------------
# Density function and stability


def density_field(state, E, N, defined, H, grad_H):
    """Density p = E (2 H^2 - K - grad H . N) per vertex, with K from the
    second fundamental form (e g - f^2)/E^2 using discrete second
    derivatives of X; both are 0 where N is undefined.  Returns (p, K)."""
    second = state.mesh.second_derivatives(state.X)  # (nv, 3, 3): uu, uv, vv
    ee = np.einsum("ij,ij->i", second[:, 0, :], N)
    ff = np.einsum("ij,ij->i", second[:, 1, :], N)
    gg = np.einsum("ij,ij->i", second[:, 2, :], N)
    K = np.zeros(len(E))
    K[defined] = (ee[defined] * gg[defined] - ff[defined] ** 2) / E[defined] ** 2

    ghn = np.einsum("ij,ij->i", grad_H, N)
    p = np.zeros(len(E))
    p[defined] = E[defined] * (
        2.0 * H[defined] ** 2 - K[defined] - ghn[defined]
    )
    return p, K


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
    Mp = mesh.weighted_mass(mesh.centroid_op @ p)

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


def check_enclosure(geometry, beta):
    """Barrier phi = X.e3 - |X| cos(beta): minima on the closed disk, the
    interior and the boundary ring, and the discrete residual of the
    superharmonicity identity for -Delta phi (with the record's E and H)
    at the vertices at least two rings away from the boundary."""
    mesh, X, r = geometry.state.mesh, geometry.state.X, geometry.r
    cosb = np.cos(beta)
    phi = X[:, 2] - r * cosb

    xu = mesh.vertex_average(geometry.xu)
    xv = mesh.vertex_average(geometry.xv)
    E, h = geometry.E, geometry.H
    w = np.cross(xu, xv)
    px = geometry.S
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


def check_cone_condition_functions(geometry, axis_map, beta):
    """Per boundary vertex of N_AXES equally spaced ones: interior minimum
    of the cone barrier phi_p for the axis at that point (expected > 0) and
    the outward normal derivative of phi_p there (expected < 0)."""
    state, r = geometry.state, geometry.r
    mesh, X = state.mesh, state.X
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


def check_radial_normal(geometry):
    """f = N.X: minimum over the vertices where N is defined, minimum of
    |f| on the boundary, and the residual of
    Delta f + 2 p f = -2E(grad H . X + H)."""
    mesh, X = geometry.state.mesh, geometry.state.X
    f = np.einsum("ij,ij->i", geometry.N, X)

    rhs = -2.0 * geometry.E * (np.einsum("ij,ij->i", geometry.grad_H, X) + geometry.H)
    # Delta f + 2 p f = rhs  =>  -Delta f = 2 p f - rhs; f involves the
    # discrete Gauss map, so measure against smooth test functions
    res = _tested_weak_residual(mesh, f, 2.0 * geometry.p * f - rhs)

    return {
        "min_NdotX": float(np.min(f[geometry.defined])),
        "min_abs_NdotX_boundary": float(np.min(np.abs(f[mesh.boundary]))),
        "pde_residual": res,
    }


# ---------------------------------------------------------------------------
# Degree, Jacobian identity, radial-graph extraction


def gnomonic_chart(S, mesh):
    """(c, P): c the normalized mean of the boundary directions of S (nv, 3)
    and P (nv, 2) every direction in the gnomonic chart about c, which maps
    great-circle arcs to segments and each triangle's radial projection to
    a straight triangle.  Raises OriginHit when some S . c <= 0."""
    c = S[mesh.boundary].mean(axis=0)
    c /= np.linalg.norm(c)
    if np.min(S @ c) <= 0.0:
        raise OriginHit("projected surface leaves the open hemisphere about the mean"
                        " boundary direction")
    return c, gnomonic(S, c)


def projection_degree(geometry):
    """Winding degree of the projected boundary ring around N_PROBE interior
    probe points, in the surface's gnomonic chart; all probes must agree."""
    mesh = geometry.state.mesh
    loop = gnomonic_chart(geometry.S, mesh)[1][mesh.boundary]
    center = loop.mean(axis=0)
    js = (np.arange(N_PROBE) * len(loop)) // N_PROBE
    degs = winding_degree(loop, center + 0.25 * (loop[js] - center)).tolist()
    if len(set(degs)) != 1:
        raise InconsistentDegree(f"probe degrees disagree: {degs}")
    return degs[0]


def jacobian_identity_check(geometry):
    """Max discrepancy (relative to the field scale) between the affine
    model of (PX)_u ^ (PX)_v . PX and (X_u ^ X_v . X)/|X|^3 per triangle."""
    su, sv, s_c = (geometry.state.mesh.triangle_gather @ geometry.S).reshape(3, -1, 3)
    s_c /= np.linalg.norm(s_c, axis=1)[:, None]
    left = np.einsum("ij,ij->i", np.cross(su, sv), s_c)

    xu, xv, x_c = geometry.xu, geometry.xv, geometry.x_c
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


def _candidate_pairs(P, tris, q):
    """(point, triangle) index pairs, sorted, of the chart points q (m, 2)
    and the triangles of the chart mesh (P, tris) whose bounding box,
    widened by 2 EDGE_TOL times its extent, holds the point: a point with
    every barycentric weight >= -EDGE_TOL, at most two of them negative,
    leaves the box of the corners by at most 2 EDGE_TOL (max - min)."""
    box = np.stack([P[:, k].take(tris.T.copy()) for k in range(2)])  # (2, 3, nt)
    lo, hi = box.min(axis=1), box.max(axis=1)
    lo, hi = lo - 2.0 * EDGE_TOL * (hi - lo), hi + 2.0 * EDGE_TOL * (hi - lo)
    h = np.max(hi - lo)
    if not h > 0.0:
        return np.zeros(0, dtype=int), np.zeros(0, dtype=int)
    # boxes go by low corner into square cells of side h, counted from one
    # below the lowest box's (at most nv + 3 a side: the mesh is connected); a
    # point, clipped into their span, finds its boxes in its cell or the 3 below/left
    origin = np.floor(lo.min(axis=1) / h)[:, None] - 1
    box_cell = (np.floor(lo / h) - origin).astype(np.int64)
    cols = int(np.max(box_cell[1])) + 2
    point = np.clip(q.T, lo.min(axis=1)[:, None], hi.max(axis=1)[:, None])
    point_cell = (np.floor(point / h) - origin).astype(np.int64)
    keys = np.array([cols, 1]) @ box_cell
    order = np.argsort(keys)
    keys = keys[order]
    # the occupied cells, each with the run of boxes (in key order) whose low
    # corner is in it; the last entry is a key above every cell's
    start = np.flatnonzero(np.diff(keys, prepend=-1))
    cells = np.append(keys[start], np.iinfo(np.int64).max)
    size = np.diff(start, append=len(keys))
    probe = ((np.array([cols, 1]) @ point_cell)[:, None] - [0, 1, cols, cols + 1]).ravel()
    at = np.searchsorted(cells, probe)
    hit = np.nonzero(cells[at] == probe)[0]
    at = at[hit]
    count = size[at]
    gi = np.repeat(hit // 4, count)
    # each candidate's place in key order: its run's start plus its rank in the run
    ti = order[np.arange(len(gi)) + np.repeat(start[at] - (np.cumsum(count) - count), count)]
    x = [coord.take(gi) for coord in q.T]
    keep = np.logical_and.reduce([(lo[k].take(ti) <= x[k]) & (x[k] <= hi[k].take(ti))
                                  for k in range(2)])
    gi, ti = gi[keep], ti[keep]
    order = np.argsort(gi * len(tris) + ti)
    return gi[order], ti[order]


def _locate(S, tris, c, P, grid):
    """Containing triangle and normalized barycentric weights of every grid
    direction on the unit-sphere mesh (S, tris), from a planar barycentric
    test in its gnomonic chart (c, P); see extract_radial_graph."""
    grid = np.asarray(grid, dtype=float)
    n = len(grid)
    # every vertex has S . c > 0, so a direction with p . c <= 0 is in no triangle
    front = np.flatnonzero(grid @ c > 0.0)
    q = gnomonic(grid[front], c)

    qi, ti = _candidate_pairs(P, tris, q)
    corners = tris.take(ti, axis=0).T
    (ax, bx, cx), (ay, by, cy) = (P[:, k].take(corners) - q[:, k].take(qi) for k in range(2))
    det = (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)
    nz = np.abs(det) > 1e-18
    bary = np.stack([bx * cy - by * cx, cx * ay - cy * ax, ax * by - ay * bx],
                    axis=1) / np.where(nz, det, 1.0)[:, None]

    gi = front[qi]
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
    t = ti[pick]
    # the chart weights nu give p / (p . c) = sum nu_k V_k / (V_k . c), so p's
    # weights in its own tangent plane are nu_k (V_k . p) / (V_k . c), normalized
    V = S[tris[t]]
    w = bary[pick] * np.einsum("ikj,ij->ik", V, grid) / (V @ c)
    return t, w / w.sum(axis=1)[:, None]


def extract_radial_graph(state, grid):
    """Radial-graph table lambda(p) = |X| at the unique parameter point
    projecting to p, for each grid direction p: a planar barycentric test in
    `gnomonic_chart` of the triangles whose chart bounding box holds p.  A
    point on an edge goes to the lowest-index containing triangle.  Raises
    OriginHit as the chart does, and for the first grid point, in grid
    order, covered zero times or more than once (injectivity failure)."""
    radii = np.linalg.norm(state.X, axis=1)
    S = state.X / radii[:, None]
    tris = state.mesh.triangles
    t, w = _locate(S, tris, *gnomonic_chart(S, state.mesh), grid)
    return np.einsum("ij,ij->i", w, radii[tris[t]])


# ---------------------------------------------------------------------------
# Report assembly


def verify_surface(state, field, beta, axis_map=None, boundary=None, grid_size=512):
    """Run every geometric check on a converged state and return the
    `report.json` dict: `schema`, `pass` (every check passes), `checks`
    and `skipped`, plus `beta_convexity_margin` when given an `axis_map`.
    Each check is {name, value, tolerance, pass} with an optional
    `detail`.  `axis_map` enables the per-axis cone barriers; `boundary`
    enables radial-graph extraction over the spherical domain.  A vertex
    at the origin raises OriginHit before any check runs, and a numpy
    overflow, invalid value or division by zero in any check raises
    FloatingPointFailure instead of leaking a RuntimeWarning."""
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            geometry = surface_geometry(state, field)
            mu1 = stability_eigenvalue(state, geometry.p)
            enc = check_enclosure(geometry, beta)
            rad = check_radial_normal(geometry)
            # (name, value, comparison, tolerance, detail); a check passes when
            # comparison(value, tolerance) holds
            rows = [
                # a flagged triangle is a candidate branch point: none may remain
                ("branch_point_count", float(len(geometry.branch_triangles)), eq, 0.0,
                 {"triangles": geometry.branch_triangles.tolist()}),
                # mu_1 >= 0 up to the eigen-solve's discretization error, taken
                # relative to the surface's scale median(E)
                ("stability_eigenvalue", mu1, ge,
                 -STABILITY_TOL * float(np.median(geometry.E)), None),
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
                cc = check_cone_condition_functions(geometry, axis_map, beta)
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
                ("projection_degree", float(projection_degree(geometry)), eq, 1.0, None),
                # a fixed bound, not calibrated against mesh refinement
                ("jacobian_identity_discrepancy", jacobian_identity_check(geometry), lt, 0.5, None),
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
