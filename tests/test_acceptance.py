"""Acceptance gate: one test per top-level criterion, each printing a
single PASS/FAIL line and enforcing its runtime budget."""

import time

import numpy as np
import pytest

import conesurf as cs
from conesurf.errors import NotBetaConvexAt
from conesurf.solver import SurfaceState
from conesurf.verifier import (
    check_enclosure,
    check_radial_normal,
    domain_grid,
    extract_radial_graph,
    projection_degree,
    stability_eigenvalue,
    surface_geometry,
)
from finite_differences import divergence_fd
from normal_pde import normal_pde_residual

BETA = np.pi / 3
J01_SQUARED = 5.783185962946785


class Budget:
    def __init__(self, name, seconds):
        self.name = name
        self.seconds = seconds

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.t0
        status = "PASS" if exc_type is None and elapsed <= self.seconds else "FAIL"
        print(f"{status} {self.name} ({elapsed:.2f}s / {self.seconds:.0f}s budget)")
        if exc_type is None:
            assert elapsed <= self.seconds, (
                f"{self.name}: runtime {elapsed:.2f}s over {self.seconds}s budget"
            )
        return False


def circle_curve():
    alpha_c = np.arctan2(1.0, 2.0)
    boundary = cs.SphericalBoundary.cap(alpha_c)
    return cs.build_curve(boundary, cs.FourierScalar(np.sqrt(5.0)), BETA)


def test_criterion_1_flat_disk_oracle():
    with Budget("criterion 1: flat-disk oracle", 5.0):
        curve = circle_curve()
        mesh = cs.build_disk_mesh(32, 64)
        state = cs.solve(mesh, curve, cs.CurvatureField("zero"))
        exact = np.column_stack([mesh.vertices, np.full(len(mesh.vertices), 2.0)])
        assert np.max(np.abs(state.X - exact)) <= 1e-8
        assert cs.conformality_defect(state) <= 1e-10
        F = cs.energy_F(state, cs.CurvatureField("zero"))
        assert abs(F - np.pi) / np.pi <= 1e-6


def test_criterion_2_spherical_cap_oracle():
    with Budget("criterion 2: spherical-cap oracle", 30.0):
        curve = circle_curve()
        field = cs.CurvatureField("constant", h0=0.5)
        center = np.array([0.0, 0.0, 2.0 + np.sqrt(3.0)])
        errs = {}
        for n_t in (32, 64):
            mesh = cs.build_disk_mesh(n_t // 2, n_t)
            state = cs.solve(mesh, curve, field, cs.SolveConfig(max_iters=400))
            errs[n_t] = float(
                np.max(np.abs(np.linalg.norm(state.X - center, axis=1) - 2.0))
            )
        assert errs[64] <= 5e-3
        assert np.log2(errs[32] / errs[64]) >= 1.8


def test_criterion_3_smoothed_cone_suite():
    with Budget("criterion 3: smoothed-cone suite", 2.0):
        for beta in (np.pi / 6, np.pi / 4, np.pi / 3):
            delta = cs.select_delta(beta)
            mins = []
            for eps in (0.1, 0.05, 0.025):
                prof = cs.make_profile(beta, delta, eps)
                jumps = cs.junction_jumps(prof)
                assert abs(jumps["value"]) <= 1e-10 * eps
                assert abs(jumps["first"]) <= 1e-10
                assert abs(jumps["second"]) <= 1e-8 / eps
                # cone branch
                t = 3.0 * prof.t_eps
                expect = 1.0 / np.tan(beta + delta) / (2.0 * t)
                assert abs(cs.profile_mean_curvature(prof, t) - expect) <= 1e-10
                # lower bound on the cap
                for tt in np.linspace(1e-6 * prof.t_eps, prof.t_eps, 64):
                    assert (
                        cs.profile_mean_curvature(prof, tt)
                        >= cs.cap_curvature_lower_bound(prof, tt) - 1e-12
                    )
                mins.append(cs.min_cap_curvature(prof, 256))
            assert mins[1] / mins[0] >= 1.8
            assert mins[2] / mins[1] >= 1.8


def test_criterion_4_field_suite():
    with Budget("criterion 4: field suite", 2.0):
        delta = 0.05
        c_bd = cs.c_beta(BETA - delta)
        fields = [
            cs.CurvatureField("zero"),
            cs.CurvatureField("constant", h0=0.1),
            cs.CurvatureField("radial", c=0.5 * c_bd),
            cs.CurvatureField("power", c=0.05, s=0.5),
            cs.CurvatureField("modulated", c=0.05, a=0.02),
        ]
        rng = np.random.default_rng(2)
        pts = rng.normal(size=(100, 3))
        pts[:, 2] = np.abs(pts[:, 2]) + 0.5
        pts *= (rng.uniform(0.5, 2.0, 100) / np.linalg.norm(pts, axis=1))[:, None]
        for field in fields:
            for p in pts:
                h = field.eval(p)
                rel = abs(divergence_fd(field, p) - h) / max(1.0, abs(h))
                assert rel <= 1e-6
        # growth-saturating radial field: sup |Q| = c_{beta-delta}/2
        sat = cs.CurvatureField("radial", c=c_bd)
        sup_q = max(np.linalg.norm(cs.build_potential_Q(sat, p)) for p in pts[:25])
        assert sup_q <= c_bd / 2.0 + 1e-12
        assert abs(cs.check_monotonicity(sat, pts)) <= 1e-12


def test_criterion_5_beta_convexity_oracle():
    with Budget("criterion 5: beta-convexity oracle", 10.0):
        alphas = np.linspace(0.15, 1.25, 10)
        betas = np.linspace(0.2, 1.3, 10)
        for alpha_c in alphas:
            b = cs.SphericalBoundary.cap(alpha_c)
            for beta in betas:
                if abs(alpha_c - beta) < 1e-6:
                    continue
                flag, _ = cs.is_beta_convex(b, beta, n_boundary=32, n_domain=256)
                assert flag == (alpha_c <= beta), (alpha_c, beta)
                if flag:
                    assert cs.is_convex(b, n_samples=32, n_domain=256)


def test_criterion_6_stability_oracle():
    with Budget("criterion 6: stability oracle", 20.0):
        mesh = cs.build_disk_mesh(32, 64)
        n_b = mesh.n_theta
        X = np.column_stack([mesh.vertices, np.full(len(mesh.vertices), 2.0)])
        state = SurfaceState(
            mesh=mesh, X=X,
            boundary_theta=2 * np.pi * np.arange(n_b) / n_b,
        )
        mu0 = stability_eigenvalue(state, np.zeros(len(mesh.vertices)))
        assert abs(mu0 - J01_SQUARED) / J01_SQUARED <= 0.02
        c = 0.5
        muc = stability_eigenvalue(state, np.full(len(mesh.vertices), c))
        assert abs(muc - (mu0 - 2.0 * c)) / abs(mu0 - 2.0 * c) <= 0.02


@pytest.fixture(scope="module")
def endtoend():
    boundary = cs.SphericalBoundary.perturbed_cap(0.8 * BETA)
    g = cs.FourierScalar(1.0, [0.1])
    curve = cs.build_curve(boundary, g, BETA)
    field = cs.CurvatureField("radial", c=0.9 * cs.c_beta(BETA))
    return boundary, curve, field


def test_criterion_7_end_to_end_invariants(endtoend):
    with Budget("criterion 7: end-to-end invariant suite", 60.0):
        boundary, curve, field = endtoend
        residuals = {}
        for n_t in (24, 48):
            mesh = cs.build_disk_mesh(n_t // 2, n_t)
            state = cs.solve(mesh, curve, field, cs.SolveConfig(max_iters=400))
            geometry = surface_geometry(state, field)
            rad = check_radial_normal(geometry)
            residuals[n_t] = (
                rad["pde_residual"],
                normal_pde_residual(geometry),
            )
            if n_t == 48:
                assert len(geometry.branch_triangles) == 0
                enc = check_enclosure(geometry, BETA)
                assert enc["min_phi_interior"] > 0
                assert rad["min_NdotX"] > 0
                mu1 = stability_eigenvalue(state, geometry.p)
                assert mu1 >= -1e-3 * float(np.median(geometry.E))
                assert projection_degree(geometry) == 1
                grid = domain_grid(boundary, 512)
                lam = extract_radial_graph(state, grid)
                assert lam.shape == (512,)
                assert np.all(lam > 0)
        # both PDE residuals drop at first order or better under refinement
        assert residuals[24][0] / residuals[48][0] >= 1.5
        assert residuals[24][1] / residuals[48][1] >= 1.5


def test_criterion_8_designed_failures(endtoend):
    with Budget("criterion 8: designed-failure suite", 10.0):
        boundary, curve, field = endtoend
        mesh = cs.build_disk_mesh(12, 24)
        state = cs.solve(mesh, curve, field, cs.SolveConfig(max_iters=400))

        # orientation reversal flips the projection degree and fails the report
        mirrored = SurfaceState(
            mesh=mesh, X=state.X * np.array([1.0, -1.0, 1.0]),
            boundary_theta=state.boundary_theta,
        )
        assert projection_degree(surface_geometry(mirrored, field)) == -1
        report = cs.verify_surface(mirrored, field, BETA)
        assert not report["pass"]

        # cap wider than beta is rejected before any solve
        wide = cs.SphericalBoundary.cap(BETA + 0.1)
        samples = np.vstack(
            [wide.domain_samples(512), wide.boundary_samples(64)[1]]
        )
        with pytest.raises(NotBetaConvexAt):
            cs.boundary.axis_at(wide, BETA, 0.0, samples)

        # stretched map X = (u, v/2, 0) has defect exactly 3/4
        X = np.column_stack(
            [mesh.vertices[:, 0], 0.5 * mesh.vertices[:, 1],
             np.zeros(len(mesh.vertices))]
        )
        stretched = SurfaceState(
            mesh=mesh, X=X,
            boundary_theta=state.boundary_theta,
        )
        assert cs.conformality_defect(stretched) == pytest.approx(0.75, abs=1e-12)
