import re
import warnings
from pathlib import Path

import numpy as np
import pytest
from reference_operators import element_operators, interior_block
from scipy.sparse.linalg import eigsh

import conesurf as cs
from conesurf import verifier
from conesurf.errors import EigensolverFailure, NotInjectiveAt, Uncovered
from conesurf.solver import SurfaceState
from conesurf.verifier import (
    EDGE_TOL,
    _locate,
    check_cone_condition_functions,
    check_enclosure,
    check_radial_normal,
    density_field,
    domain_grid,
    extract_radial_graph,
    gauss_map,
    jacobian_identity_check,
    projection_degree,
    stability_eigenvalue,
    vertex_conformal_factor,
)

J01_SQUARED = 5.783185962946785  # first Dirichlet Laplace eigenvalue of the unit disk
BETA = np.pi / 3


def density_of(state, field):
    return density_field(state, field, gauss_map(state))


def synthetic_state(mesh, fn):
    n_b = mesh.n_theta
    X = np.array([fn(u, v) for u, v in mesh.vertices])
    return SurfaceState(
        mesh=mesh,
        X=X,
        boundary_theta=2 * np.pi * np.arange(n_b) / n_b,
    )


def branch_state(power, n_r, n_theta):
    # w -> w^power has a genuine branch point at the origin, where
    # E ~ power^2 r^(2 power - 2)
    def fn(u, v):
        w = complex(u, v) ** power
        return np.array([w.real, w.imag, 2.0])

    return synthetic_state(cs.build_disk_mesh(n_r, n_theta), fn)


class TestGaussMap:
    def test_flat_disk_normals(self, flat_disk_state):
        normals = gauss_map(flat_disk_state)
        assert len(normals.branch_triangles) == 0
        np.testing.assert_allclose(
            normals.tri_normals, np.tile([0.0, 0.0, 1.0], (len(flat_disk_state.mesh.triangles), 1)),
            atol=1e-10,
        )
        np.testing.assert_allclose(
            normals.vertex_normals[:, 2], 1.0, atol=1e-10
        )

    def test_cap_normals_are_radial_from_center(self, cap_state):
        normals = gauss_map(cap_state)
        c = np.array([0.0, 0.0, 2.0 + np.sqrt(3.0)])
        u = (cap_state.X - c) / np.linalg.norm(cap_state.X - c, axis=1)[:, None]
        dots = np.einsum("ij,ij->i", normals.vertex_normals, u)
        assert np.max(np.abs(np.abs(dots) - 1.0)) < 5e-3

    @staticmethod
    def assert_flagged_near_origin(st):
        normals = gauss_map(st)
        assert len(normals.branch_triangles) > 0
        flagged = (st.mesh.centroid_op @ st.mesh.vertices)[normals.branch_triangles]
        assert np.max(np.linalg.norm(flagged, axis=1)) < 0.2

    # E at the origin falls below BRANCH_THRESHOLD * median(E) from mesh
    # (48,96) on for w^3, and from (16,32) on for w^4
    def test_cubic_branch_point_flagged(self):
        self.assert_flagged_near_origin(branch_state(3, 48, 96))

    def test_quartic_branch_point_flagged(self):
        self.assert_flagged_near_origin(branch_state(4, 16, 32))

    @pytest.mark.xfail(strict=True, reason="a fixed BRANCH_THRESHOLD misses the w^3 branch "
                       "point below mesh (48,96); the test needs a mesh-aware threshold")
    def test_cubic_branch_point_flagged_at_default_mesh(self):
        # (24,48) is the CLI's default mesh
        self.assert_flagged_near_origin(branch_state(3, 24, 48))


class TestDensity:
    def test_flat_disk_density_vanishes(self, flat_disk_state):
        normals = gauss_map(flat_disk_state)
        d = density_field(flat_disk_state, cs.CurvatureField("zero"), normals)
        np.testing.assert_allclose(d.p, 0.0, atol=1e-8)
        np.testing.assert_allclose(d.K, 0.0, atol=1e-8)
        np.testing.assert_allclose(d.E, 1.0, atol=1e-8)

    def test_cap_gauss_curvature_and_density(self, cap_state):
        # sphere of radius 2: K = 1/4 and p = E(2 H^2 - K) = E/4
        normals = gauss_map(cap_state)
        field = cs.CurvatureField("constant", h0=0.5)
        d = density_field(cap_state, field, normals)
        r = np.linalg.norm(cap_state.mesh.vertices, axis=1)
        inner = r < 0.8
        np.testing.assert_allclose(d.K[inner], 0.25, rtol=0.1)
        np.testing.assert_allclose(d.p[inner], 0.25 * d.E[inner], rtol=0.1)

    def test_normal_pde_residual_order(self, flat_disk_curve):
        curve, _ = flat_disk_curve
        field = cs.CurvatureField("constant", h0=0.5)
        res = []
        for n_t in (16, 32):
            st = cs.solve(
                cs.build_disk_mesh(n_t // 2, n_t), curve, field,
                cs.SolveConfig(max_iters=400),
            )
            normals = gauss_map(st)
            d = density_field(st, field, normals)
            res.append(verifier.normal_pde_residual(st, d, normals))
        assert res[0] / res[1] > 1.5

    def test_vertex_conformal_factor_flat(self, flat_disk_state):
        E = vertex_conformal_factor(flat_disk_state)
        np.testing.assert_allclose(E, 1.0, atol=1e-8)


class TestStability:
    def test_flat_disk_first_eigenvalue(self):
        mesh = cs.build_disk_mesh(32, 64)
        st = synthetic_state(mesh, lambda u, v: np.array([u, v, 2.0]))
        mu = stability_eigenvalue(st, np.zeros(len(mesh.vertices)))
        assert mu == pytest.approx(J01_SQUARED, rel=0.02)

    def test_eigenvalue_converges_from_above(self):
        mus = []
        for n_t in (16, 32, 64):
            mesh = cs.build_disk_mesh(n_t // 2, n_t)
            st = synthetic_state(mesh, lambda u, v: np.array([u, v, 2.0]))
            mus.append(stability_eigenvalue(st, np.zeros(len(mesh.vertices))))
        assert mus[0] > mus[1] > mus[2] > J01_SQUARED

    def test_constant_density_shift_is_exact(self):
        # p constant c gives Mp = c M exactly, so mu_1(c) = mu_1(0) - 2c
        mesh = cs.build_disk_mesh(12, 24)
        st = synthetic_state(mesh, lambda u, v: np.array([u, v, 2.0]))
        c = 0.3
        mu0 = stability_eigenvalue(st, np.zeros(len(mesh.vertices)))
        muc = stability_eigenvalue(st, np.full(len(mesh.vertices), c))
        assert muc == pytest.approx(mu0 - 2.0 * c, abs=1e-9)

    def test_endtoend_state_is_stable(self, endtoend_state, endtoend_scenario):
        field = endtoend_scenario[4]
        normals = gauss_map(endtoend_state)
        d = density_field(endtoend_state, field, normals)
        mu = stability_eigenvalue(endtoend_state, d.p)
        assert mu > 0

    @staticmethod
    def plain_shift_invert(state, p):
        """mu_1 with eigsh factoring A - sigma M itself, on the
        element-loop matrices."""
        mesh = state.mesh
        ops = element_operators(mesh, p[mesh.triangles].mean(axis=1))
        A = interior_block(ops["stiffness"] - 2.0 * ops["weighted_mass"], mesh)
        M = interior_block(ops["mass"], mesh)
        inner = mesh.interior
        sigma = -2.0 * float(np.max(np.abs(p))) - 10.0
        vals = eigsh(A, k=1, M=M, sigma=sigma, which="LM", v0=np.ones(len(inner)),
                     return_eigenvectors=False)
        return float(vals[0])

    def test_matches_plain_shift_invert_flat(self):
        mesh = cs.build_disk_mesh(32, 64)
        st = synthetic_state(mesh, lambda u, v: np.array([u, v, 2.0]))
        p = np.zeros(len(mesh.vertices))
        mu = stability_eigenvalue(st, p)
        assert mu == pytest.approx(self.plain_shift_invert(st, p), rel=1e-12)

    def test_matches_plain_shift_invert_endtoend(self, endtoend_state, endtoend_scenario):
        field = endtoend_scenario[4]
        d = density_field(endtoend_state, field, gauss_map(endtoend_state))
        mu = stability_eigenvalue(endtoend_state, d.p)
        assert mu == pytest.approx(self.plain_shift_invert(endtoend_state, d.p), rel=1e-12)

    @staticmethod
    def density(kind, nv):
        if kind == "random":
            return 30.0 * np.random.default_rng(0).standard_normal(nv)
        return np.full(nv, {"zero": 0.0, "five": 5.0}[kind])

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("kind", ["zero", "five", "random"])
    @pytest.mark.parametrize("n_r, n_theta", [(5, 9), (7, 20), (24, 48)])
    def test_matches_plain_shift_invert(self, n_r, n_theta, kind):
        # p = 5 makes A indefinite (mu_1 < 0); the random p of scale 30
        # takes the most LOBPCG steps seen, about 20
        mesh = cs.build_disk_mesh(n_r, n_theta)
        st = synthetic_state(mesh, lambda u, v: np.array([u, v, 2.0]))
        p = self.density(kind, len(mesh.vertices))
        mu = stability_eigenvalue(st, p)
        if kind == "five":
            assert mu < 0
        assert mu == pytest.approx(self.plain_shift_invert(st, p), rel=1e-12)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("kind", ["zero", "five", "random"])
    @pytest.mark.parametrize("n_r, n_theta", [(4, 8), (7, 21), (48, 96)])
    def test_within_eigen_tol_bound_of_shift_invert(self, n_r, n_theta, kind):
        # the bound stated at EIGEN_TOL: the residual bound 1e-8 puts mu_1
        # within 5e-13 relative of shift-invert Lanczos; (7, 21) has an odd
        # number of ring vertices
        mesh = cs.build_disk_mesh(n_r, n_theta)
        st = synthetic_state(mesh, lambda u, v: np.array([u, v, 2.0]))
        p = self.density(kind, len(mesh.vertices))
        mu = stability_eigenvalue(st, p)
        assert mu == pytest.approx(self.plain_shift_invert(st, p), rel=5e-13)

    @staticmethod
    def assert_typed_failure(p):
        # EigensolverFailure whether the caller turns warnings into errors
        # or records them, and no warning reaches the caller
        mesh = cs.build_disk_mesh(7, 20)
        st = synthetic_state(mesh, lambda u, v: np.array([u, v, 2.0]))
        for action in ("error", "always"):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter(action)
                with pytest.raises(EigensolverFailure):
                    stability_eigenvalue(st, p(len(mesh.vertices)))
            assert caught == []

    def test_non_convergence_is_typed(self, monkeypatch):
        monkeypatch.setattr(verifier, "EIGEN_MAXITER", 2)
        self.assert_typed_failure(lambda nv: self.density("random", nv))

    def test_one_step_is_typed(self, monkeypatch):
        monkeypatch.setattr(verifier, "EIGEN_MAXITER", 1)
        self.assert_typed_failure(lambda nv: np.zeros(nv))

    def test_nan_density_is_typed(self):
        self.assert_typed_failure(lambda nv: np.where(np.arange(nv) == 3, np.nan, 0.0))

    def test_repeated_calls_are_equal(self, endtoend_state, endtoend_scenario):
        field = endtoend_scenario[4]
        d = density_field(endtoend_state, field, gauss_map(endtoend_state))
        mus = [stability_eigenvalue(endtoend_state, d.p) for _ in range(5)]
        assert mus == [mus[0]] * 5


class TestEnclosure:
    def test_flat_disk_barrier(self, flat_disk_state):
        rep = check_enclosure(flat_disk_state, BETA,
                              density_of(flat_disk_state, cs.CurvatureField("zero")))
        # phi = 2 - |X|/2, minimized on the boundary where |X| = sqrt(5)
        assert rep["min_phi_closed"] == pytest.approx(2.0 - np.sqrt(5.0) / 2.0, abs=1e-9)
        assert rep["min_phi_interior"] > rep["min_phi_boundary"]
        assert rep["identity_residual"] < 0.2

    def test_identity_residual_shrinks_with_resolution(self, flat_disk_curve):
        curve, _ = flat_disk_curve
        zero = cs.CurvatureField("zero")
        res = []
        for n_t in (16, 32):
            st = cs.solve(cs.build_disk_mesh(n_t // 2, n_t), curve, zero)
            res.append(check_enclosure(st, BETA, density_of(st, zero))["identity_residual"])
        assert res[1] < 0.6 * res[0]

    def test_endtoend_barrier_positive(self, endtoend_state, endtoend_scenario):
        beta, field = endtoend_scenario[0], endtoend_scenario[4]
        rep = check_enclosure(endtoend_state, beta, density_of(endtoend_state, field))
        assert rep["min_phi_closed"] > 0
        assert rep["min_phi_interior"] > 0


class TestConeCondition:
    def test_flat_disk(self, flat_disk_state, flat_disk_curve):
        curve, beta = flat_disk_curve
        amap = cs.AxisMap(curve.boundary, beta, n_boundary=64)
        rep = check_cone_condition_functions(flat_disk_state, amap, beta)
        assert rep["min_interior_phi_p"] > 0
        assert rep["max_normal_derivative"] < 0


class TestRadialNormal:
    def test_flat_disk(self, flat_disk_state):
        field = cs.CurvatureField("zero")
        normals = gauss_map(flat_disk_state)
        d = density_field(flat_disk_state, field, normals)
        rep = check_radial_normal(flat_disk_state, d, normals)
        # N = e3 so N . X = 2 identically
        assert rep["min_NdotX"] == pytest.approx(2.0, abs=1e-8)
        assert rep["min_abs_NdotX_boundary"] == pytest.approx(2.0, abs=1e-8)
        assert rep["pde_residual"] < 1e-6

    def test_endtoend_positive(self, endtoend_state, endtoend_scenario):
        field = endtoend_scenario[4]
        normals = gauss_map(endtoend_state)
        d = density_field(endtoend_state, field, normals)
        rep = check_radial_normal(endtoend_state, d, normals)
        assert rep["min_NdotX"] > 0


class TestDegreeAndJacobian:
    def test_flat_disk_degree(self, flat_disk_state):
        assert projection_degree(flat_disk_state) == 1

    def test_mirrored_state_degree(self, flat_disk_state):
        mirrored = SurfaceState(
            mesh=flat_disk_state.mesh,
            X=flat_disk_state.X * np.array([1.0, -1.0, 1.0]),
            boundary_theta=flat_disk_state.boundary_theta,
        )
        assert projection_degree(mirrored) == -1

    def test_flat_disk_jacobian_identity(self, flat_disk_state):
        assert jacobian_identity_check(flat_disk_state) < 5e-3

    def test_endtoend_jacobian_identity(self, endtoend_state):
        assert jacobian_identity_check(endtoend_state) < 5e-3


class TestRadialGraph:
    def test_domain_grid_inside(self):
        b = cs.SphericalBoundary.cap(0.5)
        grid = domain_grid(b, 200)
        np.testing.assert_allclose(np.linalg.norm(grid, axis=1), 1.0, atol=1e-12)
        assert np.min(grid @ np.array([0.0, 0.0, 1.0])) > np.cos(0.5)

    def test_flat_disk_graph_closed_form(self, flat_disk_state, flat_disk_curve):
        # the plane z = 2 seen radially: lambda(p) = 2 / (p . e3)
        curve, _ = flat_disk_curve
        grid = domain_grid(curve.boundary, 100)
        lam = extract_radial_graph(flat_disk_state, grid)
        np.testing.assert_allclose(lam, 2.0 / grid[:, 2], rtol=2e-3)

    def test_sphere_graph_is_constant(self):
        mesh = cs.build_disk_mesh(16, 32)

        def fn(u, v):
            p = np.array([u, v, 2.0])
            return 3.0 * p / np.linalg.norm(p)

        st = synthetic_state(mesh, fn)
        grid = domain_grid(cs.SphericalBoundary.cap(np.arctan2(1.0, 2.0)), 100)
        lam = extract_radial_graph(st, grid)
        np.testing.assert_allclose(lam, 3.0, atol=1e-9)

    def test_uncovered_direction_raises(self, flat_disk_state):
        # direction well outside the cap of opening atan(1/2)
        p = np.array([np.sin(1.0), 0.0, np.cos(1.0)])
        with pytest.raises(Uncovered):
            extract_radial_graph(flat_disk_state, p[None, :])

    def test_folded_surface_raises(self):
        # u -> u^3 - 0.75 u folds three times over x near 0
        mesh = cs.build_disk_mesh(16, 32)
        st = synthetic_state(
            mesh, lambda u, v: np.array([u**3 - 0.75 * u, v, 2.0])
        )
        p = np.array([0.0, 0.1, 2.0])
        p = p / np.linalg.norm(p)
        with pytest.raises(NotInjectiveAt):
            extract_radial_graph(st, p[None, :])

    def test_failure_names_the_point_in_python_floats(self, flat_disk_curve):
        # the zero-field flat disk at (4, 8) leaves part of the domain
        # uncovered; the point is stored and printed as plain floats
        curve, beta = flat_disk_curve
        state = cs.solve(cs.build_disk_mesh(4, 8), curve, cs.CurvatureField("zero"))
        grid = domain_grid(curve.boundary, 512)
        folded = folded_state()
        p = np.array([0.0, 0.1, 2.0]) / np.linalg.norm([0.0, 0.1, 2.0])
        for st, g in ((state, grid), (folded, p[None, :])):
            with pytest.raises((Uncovered, NotInjectiveAt)) as info:
                extract_radial_graph(st, g)
            assert [type(x) for x in info.value.point] == [float] * 3
            assert "np.float64" not in str(info.value)
        rep = cs.verify_surface(state, cs.CurvatureField("zero"), beta, boundary=curve.boundary)
        row = next(c for c in rep["checks"] if c["name"] == "radial_graph_coverage")
        assert not row["pass"]
        assert "not covered" in row["detail"]["error"]
        assert "np.float64" not in row["detail"]["error"]


def reference_radial_graph(state, grid):
    """Brute-force point location, every triangle tested for every grid
    direction in turn: (triangle per direction, lambda per direction)."""
    tris = state.mesh.triangles
    radii = np.linalg.norm(state.X, axis=1)
    S = state.X / radii[:, None]
    picked, lam = [], []
    for p in np.asarray(grid, dtype=float):
        t1 = np.cross(p, np.array([0.0, 0.0, 1.0]))
        if np.linalg.norm(t1) < 1e-8:
            t1 = np.cross(p, np.array([1.0, 0.0, 0.0]))
        t1 /= np.linalg.norm(t1)
        t2 = np.cross(p, t1)

        d = S @ p
        front = d > 1e-9
        G = np.where(front[:, None], S / np.where(front, d, 1.0)[:, None] - p, np.nan)
        x = G @ t1
        y = G @ t2

        a0, a1, a2 = tris[:, 0], tris[:, 1], tris[:, 2]
        ok = front[a0] & front[a1] & front[a2]
        ax, ay = x[a0], y[a0]
        bx, by = x[a1], y[a1]
        cx, cy = x[a2], y[a2]
        det = (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)
        nz = ok & (np.abs(det) > 1e-18)
        l0 = np.where(nz, (bx * cy - by * cx) / np.where(nz, det, 1.0), np.nan)
        l1 = np.where(nz, (cx * ay - cy * ax) / np.where(nz, det, 1.0), np.nan)
        l2 = np.where(nz, (ax * by - ay * bx) / np.where(nz, det, 1.0), np.nan)

        strict = nz & (l0 > EDGE_TOL) & (l1 > EDGE_TOL) & (l2 > EDGE_TOL)
        n_strict = int(np.count_nonzero(strict))
        if n_strict > 1:
            raise NotInjectiveAt(tuple(p), n_strict)
        if n_strict == 1:
            t = int(np.nonzero(strict)[0][0])
        else:
            loose = nz & (l0 >= -EDGE_TOL) & (l1 >= -EDGE_TOL) & (l2 >= -EDGE_TOL)
            hits = np.nonzero(loose)[0]
            if len(hits) == 0:
                raise Uncovered(tuple(p))
            t = int(hits[0])
        w = np.array([l0[t], l1[t], l2[t]])
        w = w / w.sum()
        picked.append(t)
        lam.append(float(w @ radii[tris[t]]))
    return np.array(picked, dtype=int), np.array(lam)


def located_triangles(state, grid):
    S = state.X / np.linalg.norm(state.X, axis=1)[:, None]
    return _locate(S, state.mesh.triangles, grid)[0]


def folded_state():
    # u -> u^3 - 0.75 u folds three times over x near 0
    mesh = cs.build_disk_mesh(16, 32)
    return synthetic_state(mesh, lambda u, v: np.array([u**3 - 0.75 * u, v, 2.0]))


def sphere_state():
    def fn(u, v):
        p = np.array([u, v, 2.0])
        return 3.0 * p / np.linalg.norm(p)

    return synthetic_state(cs.build_disk_mesh(16, 32), fn)


class TestRadialGraphAgainstBruteForce:
    """The KD-tree candidate location against testing every triangle."""

    def check(self, state, grid):
        ref_t, ref_lam = reference_radial_graph(state, grid)
        lam = extract_radial_graph(state, grid)
        np.testing.assert_allclose(lam, ref_lam, rtol=1e-13, atol=0)
        np.testing.assert_array_equal(located_triangles(state, grid), ref_t)

    def test_flat_disk(self, flat_disk_state, flat_disk_curve):
        self.check(flat_disk_state, domain_grid(flat_disk_curve[0].boundary, 300))

    def test_sphere(self):
        self.check(sphere_state(), domain_grid(cs.SphericalBoundary.cap(np.arctan2(1.0, 2.0)), 300))

    def test_solved_perturbed_cap(self, endtoend_state, endtoend_scenario):
        self.check(endtoend_state, domain_grid(endtoend_scenario[1], 300))

    def test_wide_triangles(self):
        # a coarse mesh over a wide cap: 72 of the 132 triangles have caps
        # wider than WIDE_CAP and are tested at every grid point
        st = synthetic_state(cs.build_disk_mesh(6, 12), lambda u, v: np.array([2 * u, 2 * v, 1.0]))
        self.check(st, domain_grid(cs.SphericalBoundary.cap(np.arctan(2.0)), 300))

    def test_empty_grid(self, flat_disk_state):
        assert extract_radial_graph(flat_disk_state, np.zeros((0, 3))).shape == (0,)

    def test_shared_vertex_and_edge_take_lowest_index(self):
        mesh = cs.build_disk_mesh(8, 16)
        st = synthetic_state(mesh, lambda u, v: np.array([u, v, 2.0]))
        S = st.X / np.linalg.norm(st.X, axis=1)[:, None]
        v = 1 + 2 * mesh.n_theta + 5        # ring 3
        w = v + mesh.n_theta                 # ring 4, same angle
        at_v = np.nonzero(np.any(mesh.triangles == v, axis=1))[0]
        on_vw = np.nonzero(np.any(mesh.triangles == v, axis=1)
                           & np.any(mesh.triangles == w, axis=1))[0]
        assert len(at_v) == 6 and len(on_vw) == 2
        mid = S[v] + S[w]
        grid = np.stack([S[v], mid / np.linalg.norm(mid)])
        ref_t, _ = reference_radial_graph(st, grid)
        np.testing.assert_array_equal(ref_t, [at_v[0], on_vw[0]])
        np.testing.assert_array_equal(located_triangles(st, grid), ref_t)

    def test_directions_at_the_rim_of_a_cap(self):
        # just beyond each triangle's vertex farthest from its cap center:
        # loose hits outside the unwidened cap
        mesh = cs.build_disk_mesh(8, 16)
        st = synthetic_state(mesh, lambda u, v: np.array([u, v, 2.0]))
        S = st.X / np.linalg.norm(st.X, axis=1)[:, None]
        c = S[mesh.triangles].mean(axis=1)
        c /= np.linalg.norm(c, axis=1)[:, None]
        out = S[mesh.triangles] - c[:, None, :]
        far = np.argmax(np.linalg.norm(out, axis=2), axis=1)
        vertex = mesh.triangles[np.arange(len(c)), far]
        step = out[np.arange(len(c)), far]
        grid = S[vertex] + 1e-12 * step / np.linalg.norm(step, axis=1)[:, None]
        grid = grid[~mesh.is_boundary[vertex]]
        self.check(st, grid / np.linalg.norm(grid, axis=1)[:, None])

    @pytest.mark.parametrize("order", [(0, 1), (1, 0)])
    def test_first_failing_point_in_grid_order(self, order):
        st = folded_state()
        folded = np.array([0.0, 0.1, 2.0]) / np.linalg.norm([0.0, 0.1, 2.0])
        outside = np.array([np.sin(1.0), 0.0, np.cos(1.0)])
        grid = np.stack([folded, outside])[list(order)]
        errors = []
        for locate in (reference_radial_graph, extract_radial_graph):
            with pytest.raises((NotInjectiveAt, Uncovered)) as info:
                locate(st, grid)
            errors.append(info.value)
        ref, got = errors
        assert type(got) is type(ref)
        assert got.point == ref.point == tuple(grid[0])
        assert isinstance(got, NotInjectiveAt if order == (0, 1) else Uncovered)
        if isinstance(ref, NotInjectiveAt):
            assert got.count == ref.count


class TestFullReport:
    def test_endtoend_report(self, endtoend_state, endtoend_scenario):
        beta, boundary, g, curve, field = endtoend_scenario
        amap = cs.AxisMap(boundary, beta)
        report = cs.verify_surface(
            endtoend_state, field, beta, axis_map=amap, boundary=boundary,
            grid_size=256,
        )
        assert report["pass"], [c["name"] for c in report["checks"] if not c["pass"]]
        assert report["schema"] == 1
        assert report["pass"] is True
        names = {c["name"] for c in report["checks"]}
        assert "stability_eigenvalue" in names
        assert "branch_point_count" in names

    def test_mirrored_report_fails(self, endtoend_state, endtoend_scenario):
        beta, boundary, g, curve, field = endtoend_scenario
        mirrored = SurfaceState(
            mesh=endtoend_state.mesh,
            X=endtoend_state.X * np.array([1.0, -1.0, 1.0]),
            boundary_theta=endtoend_state.boundary_theta,
        )
        report = cs.verify_surface(mirrored, field, beta)
        degree = [c for c in report["checks"] if "degree" in c["name"]]
        assert degree and not degree[0]["pass"]

    def test_evaluates_the_field_once(self, endtoend_state, endtoend_scenario, monkeypatch):
        # H(X) and grad H(X) at the vertices come from density_field alone
        beta, boundary, g, curve, field = endtoend_scenario
        calls = {"eval": 0, "grad": 0}
        for name, counted in [("eval", cs.CurvatureField.eval),
                              ("grad", cs.CurvatureField.grad)]:
            def counting(self, p, name=name, counted=counted):
                calls[name] += 1
                return counted(self, p)

            monkeypatch.setattr(cs.CurvatureField, name, counting)
        cs.verify_surface(endtoend_state, field, beta, axis_map=cs.AxisMap(boundary, beta),
                          boundary=boundary, grid_size=256)
        assert calls == {"eval": 1, "grad": 1}

    @pytest.mark.parametrize("case", ["endtoend", "mirrored", "branch"])
    def test_pass_flags_match_the_written_out_rules(self, case, endtoend_state,
                                                    endtoend_scenario):
        beta, boundary, g, curve, field = endtoend_scenario
        if case == "endtoend":
            args = (endtoend_state, field, beta)
            kw = dict(axis_map=cs.AxisMap(boundary, beta), boundary=boundary, grid_size=256)
        elif case == "mirrored":
            args = (SurfaceState(mesh=endtoend_state.mesh,
                                 X=endtoend_state.X * np.array([1.0, -1.0, 1.0]),
                                 boundary_theta=endtoend_state.boundary_theta),
                    field, beta)
            kw = dict(boundary=boundary, grid_size=256)
        else:
            args = (branch_state(3, 48, 96), cs.CurvatureField("zero"), beta)
            kw = {}
        report = cs.verify_surface(*args, **kw)
        expected = reference_passes(*args, **kw)
        assert {c["name"]: c["pass"] for c in report["checks"]} == expected
        assert report["pass"] is all(expected.values())
        assert all(expected.values()) is (case == "endtoend")

    def test_readme_table_lists_the_checks(self, endtoend_state, endtoend_scenario):
        beta, boundary, g, curve, field = endtoend_scenario
        report = cs.verify_surface(
            endtoend_state, field, beta,
            axis_map=cs.AxisMap(boundary, beta, n_boundary=64, n_domain=512),
            boundary=boundary, grid_size=128,
        )
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        rows = re.findall(r"^\| `([a-z_]+)` \| value [=<>≥] tolerance \|", readme, flags=re.M)
        assert rows == [c["name"] for c in report["checks"]]


def reference_passes(state, field, beta, axis_map=None, boundary=None, grid_size=512):
    """{check name: pass} of verify_surface's checks, each pass rule
    written out on its own."""
    normals = gauss_map(state)
    density = density_field(state, field, normals)
    mu1 = stability_eigenvalue(state, density.p)
    tol_mu = 1e-3 * float(np.median(density.E))
    enc = check_enclosure(state, beta, density)
    rad = check_radial_normal(state, density, normals)
    deg = projection_degree(state)
    jac = jacobian_identity_check(state)
    passes = {
        "branch_point_count": len(normals.branch_triangles) == 0,
        "stability_eigenvalue": mu1 >= -tol_mu,
        "enclosure_interior_margin": enc["min_phi_interior"] > 0.0,
        "enclosure_closed_margin": enc["min_phi_closed"] >= -1e-9,
        "radial_normal_min": rad["min_NdotX"] > 0.0,
        "projection_degree": deg == 1,
        "jacobian_identity_discrepancy": jac < 0.5,
    }
    if axis_map is not None:
        cc = check_cone_condition_functions(state, axis_map, beta)
        passes["cone_condition_interior"] = cc["min_interior_phi_p"] > 0.0
        passes["cone_condition_normal_derivative"] = cc["max_normal_derivative"] < 0.0
    if boundary is not None:
        try:
            lam = extract_radial_graph(state, domain_grid(boundary, grid_size))
            passes["radial_graph_coverage"] = bool(np.all(lam > 0.0))
        except (NotInjectiveAt, Uncovered):
            passes["radial_graph_coverage"] = False
    return passes
