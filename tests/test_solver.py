import dataclasses
import warnings

import numpy as np
import pytest

import conesurf as cs
from conesurf.errors import FieldOutOfDomain, NoConvergence, OutOfRange
from conesurf.solver import (
    ANDERSON_DEPTH,
    CONTINUATION_LEVELS,
    LEVEL_REDUCTION,
    STALL_WINDOW,
    SurfaceState,
    _Anderson,
    _contraction,
    arclength_parametrization,
)


def make_state(mesh, X):
    n_b = mesh.n_theta
    return SurfaceState(
        mesh=mesh,
        X=np.asarray(X, dtype=float),
        boundary_theta=2 * np.pi * np.arange(n_b) / n_b,
    )


class TestConfig:
    def test_defaults_valid(self):
        cs.SolveConfig()

    @pytest.mark.parametrize(
        "kw",
        [dict(update_tol=0.0), dict(residual_tol=-1.0), dict(residual_tol=0.0),
         dict(update_tol=-1e-9), dict(max_iters=np.int64(0)),
         dict(residual_tol=float("nan")), dict(update_tol=float("nan")),
         dict(residual_tol=float("inf")), dict(update_tol=float("inf")),
         dict(max_iters=0), dict(max_iters=-1),
         dict(residual_tol=-float("inf")), dict(update_tol=-float("inf"))],
    )
    def test_rejects_bad_values(self, kw):
        with pytest.raises(OutOfRange):
            cs.SolveConfig(**kw)

    @pytest.mark.parametrize(
        "kw",
        [dict(max_iters=2.5), dict(max_iters=True), dict(max_iters="3"),
         dict(max_iters=2.0), dict(residual_tol="1e-8"),
         dict(residual_tol=True), dict(update_tol="1e-11"), dict(residual_tol=None),
         dict(update_tol=True)],
    )
    def test_rejects_bad_types(self, kw):
        with pytest.raises(OutOfRange, match=next(iter(kw))):
            cs.SolveConfig(**kw)

    def test_accepts_numpy_and_int_numbers(self):
        cfg = cs.SolveConfig(max_iters=np.int64(5), update_tol=1, residual_tol=np.float64(1e-8))
        assert cfg.max_iters == 5


class TestDefectAndEnergies:
    def test_identity_map_is_conformal(self):
        mesh = cs.build_disk_mesh(8, 24)
        X = np.column_stack([mesh.vertices, np.full(len(mesh.vertices), 2.0)])
        assert cs.conformality_defect(make_state(mesh, X)) < 1e-13

    def test_stretched_map_defect(self):
        # X = (u, v/2, 0): E = 1, G = 1/4, F = 0, defect = |E - G|/E = 3/4
        mesh = cs.build_disk_mesh(8, 24)
        X = np.column_stack(
            [mesh.vertices[:, 0], 0.5 * mesh.vertices[:, 1], np.zeros(len(mesh.vertices))]
        )
        assert cs.conformality_defect(make_state(mesh, X)) == pytest.approx(0.75, abs=1e-12)

    def test_flat_disk_energy_is_pi(self):
        mesh = cs.build_disk_mesh(8, 24)
        X = np.column_stack([mesh.vertices, np.full(len(mesh.vertices), 2.0)])
        st = make_state(mesh, X)
        zero = cs.CurvatureField("zero")
        assert cs.energy_F(st, zero) == pytest.approx(np.pi, rel=1e-13)
        assert cs.energy_G(st, zero) == pytest.approx(np.pi, rel=1e-13)

    def test_stretched_energies_closed_form(self):
        # X = (u, 2v, 0): F = pi (1 + 4)/2, G = 2 pi
        mesh = cs.build_disk_mesh(8, 24)
        X = np.column_stack(
            [mesh.vertices[:, 0], 2.0 * mesh.vertices[:, 1], np.zeros(len(mesh.vertices))]
        )
        st = make_state(mesh, X)
        zero = cs.CurvatureField("zero")
        assert cs.energy_F(st, zero) == pytest.approx(2.5 * np.pi, rel=1e-13)
        assert cs.energy_G(st, zero) == pytest.approx(2.0 * np.pi, rel=1e-13)

    def test_F_dominates_G(self):
        # pointwise AM-GM: |X_u|^2 + |X_v|^2 >= 2 |X_u ^ X_v|
        mesh = cs.build_disk_mesh(8, 24)
        rng = np.random.default_rng(5)
        u, v = mesh.vertices[:, 0], mesh.vertices[:, 1]
        X = np.column_stack([u + 0.1 * v**2, v - 0.2 * u * v, 0.3 * u**2 + 2.0])
        st = make_state(mesh, X)
        field = cs.CurvatureField("constant", h0=0.1)
        assert cs.energy_F(st, field) >= cs.energy_G(st, field) - 1e-12

    def test_F_rotation_invariant(self):
        mesh = cs.build_disk_mesh(8, 24)
        u, v = mesh.vertices[:, 0], mesh.vertices[:, 1]
        X = np.column_stack([u, v, 0.2 * u**2 + 2.0])
        c, s = np.cos(0.7), np.sin(0.7)
        R = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
        zero = cs.CurvatureField("zero")
        f1 = cs.energy_F(make_state(mesh, X), zero)
        f2 = cs.energy_F(make_state(mesh, X @ R.T), zero)
        assert f2 == pytest.approx(f1, rel=1e-13)


def two_pass_energies(state, field):
    """F and G each with its own quadrature of the Q coupling."""
    mesh = state.mesh
    xu, xv = mesh.d_u @ state.X, mesh.d_v @ state.X

    def q_term():
        if field.family == "zero":
            return 0.0
        w = np.cross(xu, xv)
        centroids = mesh.centroid_op @ state.X
        total = 0.0
        for t in range(len(mesh.triangles)):
            total += mesh.quad_weights[t] * (cs.build_potential_Q(field, centroids[t]) @ w[t])
        return total

    dirichlet = 0.5 * np.sum(
        mesh.quad_weights
        * (np.einsum("ij,ij->i", xu, xu) + np.einsum("ij,ij->i", xv, xv))
    )
    area = np.sum(mesh.quad_weights * np.linalg.norm(np.cross(xu, xv), axis=1))
    return float(dirichlet + 2.0 * q_term()), float(area + 2.0 * q_term())


@pytest.fixture(scope="module")
def flat_32_64_state(flat_disk_curve):
    curve, _ = flat_disk_curve
    return cs.solve(cs.build_disk_mesh(32, 64), curve, cs.CurvatureField("zero"))


class TestSharedEnergies:
    FIELDS = [cs.CurvatureField("zero"), cs.CurvatureField("radial", c=0.15),
              cs.CurvatureField("modulated", c=0.1, a=0.05)]

    @pytest.mark.parametrize("state", ["flat_32_64_state", "endtoend_state"])
    @pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.family)
    def test_energies_are_F_and_G_bitwise(self, request, state, field):
        st = request.getfixturevalue(state)
        F, G = cs.energies(st, field)
        assert (F, G) == (cs.energy_F(st, field), cs.energy_G(st, field))
        assert (F, G) == two_pass_energies(st, field)


class TestArclength:
    def test_circle_is_uniform(self, flat_disk_curve):
        curve, _ = flat_disk_curve
        theta = arclength_parametrization(curve, 32)
        np.testing.assert_allclose(theta, 2 * np.pi * np.arange(32) / 32, atol=1e-4)

    def test_equal_segment_lengths(self):
        beta = np.pi / 3
        boundary = cs.SphericalBoundary.perturbed_cap(0.8 * beta, cos_coeffs=[0.1])
        curve = cs.build_curve(boundary, cs.FourierScalar(1.0, [0.1]), beta)
        theta = arclength_parametrization(curve, 48)
        pts = curve.points(np.concatenate([theta, theta[:1]]))
        seg = np.linalg.norm(np.diff(pts, axis=0), axis=1)
        assert np.max(seg) / np.min(seg) < 1.01


class TestFlatDiskSolve:
    def test_vertex_error(self, flat_disk_state):
        mesh = flat_disk_state.mesh
        exact = np.column_stack([mesh.vertices, np.full(len(mesh.vertices), 2.0)])
        assert np.max(np.abs(flat_disk_state.X - exact)) < 1e-10

    def test_defect_and_residual(self, flat_disk_state):
        assert cs.conformality_defect(flat_disk_state) < 1e-10
        assert flat_disk_state.residual < 1e-10

    def test_energy_is_pi(self, flat_disk_state):
        f = cs.energy_F(flat_disk_state, cs.CurvatureField("zero"))
        assert f == pytest.approx(np.pi, rel=1e-6)

    def test_convex_hull_property(self, flat_disk_state):
        # harmonic maps stay in the convex hull of their boundary values
        X = flat_disk_state.X
        b = X[flat_disk_state.mesh.boundary]
        for k in range(3):
            assert np.min(X[:, k]) >= np.min(b[:, k]) - 1e-12
            assert np.max(X[:, k]) <= np.max(b[:, k]) + 1e-12


class TestCapSolve:
    CENTER = np.array([0.0, 0.0, 2.0 + np.sqrt(3.0)])

    def sphere_error(self, state):
        return float(np.max(np.abs(np.linalg.norm(state.X - self.CENTER, axis=1) - 2.0)))

    def test_cap_lies_on_sphere(self, cap_state):
        assert self.sphere_error(cap_state) < 5e-3

    def test_cap_bulges_downward(self, cap_state):
        center = cap_state.X[0]
        assert center[2] < 2.0
        assert center[2] == pytest.approx(np.sqrt(3.0), abs=5e-3)

    def test_convergence_order(self, flat_disk_curve):
        curve, _ = flat_disk_curve
        field = cs.CurvatureField("constant", h0=0.5)
        errs = []
        for n_t in (16, 32):
            mesh = cs.build_disk_mesh(n_t // 2, n_t)
            st = cs.solve(mesh, curve, field, cs.SolveConfig(max_iters=400))
            errs.append(self.sphere_error(st))
        order = np.log2(errs[0] / errs[1])
        assert order > 1.8

    def test_no_convergence_raises(self, flat_disk_curve):
        curve, _ = flat_disk_curve
        mesh = cs.build_disk_mesh(6, 12)
        field = cs.CurvatureField("constant", h0=0.5)
        cfg = cs.SolveConfig(max_iters=2, residual_tol=1e-12)
        with pytest.raises(NoConvergence) as info:
            cs.solve(mesh, curve, field, cfg)
        # two steps at each of the four levels, the last still short of the
        # tolerances
        assert (info.value.iterations, info.value.level) == (2 * CONTINUATION_LEVELS,
                                                             CONTINUATION_LEVELS)


class TestEndToEndSolve:
    def test_converges_and_stays_in_cone(self, endtoend_state, endtoend_scenario):
        beta = endtoend_scenario[0]
        X = endtoend_state.X
        assert endtoend_state.residual < 1e-7
        # the cone margin X . e3 - |X| cos(beta)
        assert np.min(X[:, 2] - np.linalg.norm(X, axis=1) * np.cos(beta)) > -1e-8

    def test_energy_ordering(self, endtoend_state, endtoend_scenario):
        field = endtoend_scenario[4]
        f = cs.energy_F(endtoend_state, field)
        g = cs.energy_G(endtoend_state, field)
        assert f >= g - 1e-10
        assert f == pytest.approx(g, rel=0.05)


@pytest.fixture(scope="module")
def seed1_cap():
    """Curve of the benchmark's seed-1 perturbed cap (beta = pi/3), mesh
    (24, 48) and c_beta, for radial fields at multiples of the growth
    bound."""
    beta = np.pi / 3
    boundary = cs.SphericalBoundary.perturbed_cap(
        0.8377580409572781,
        [0.0, 0.00023643249400513364, -0.007116807745607325],
        [0.0, 0.009009273926518705, 0.008972988942744878],
    )
    g = cs.FourierScalar(
        1.0,
        [0.09247325808041942, 0.013108103752817669],
        [-0.0030669420410969726, -0.0036320345452335485],
    )
    curve = cs.build_curve(boundary, g, beta)
    return curve, cs.build_disk_mesh(24, 48), cs.c_beta(beta)


def radial_solve(seed1_cap, strength, **config):
    curve, mesh, c_beta = seed1_cap
    field = cs.CurvatureField("radial", c=strength * c_beta)
    return cs.solve(mesh, curve, field, cs.SolveConfig(max_iters=400, **config))


# iterations of the Anderson-mixed solve per strength / c_beta (measured
# 17, 26, 56 and 132; damped Picard steps took 20, 54, 307 and 437, with
# halvings at 4 and 5 c_beta)
MAX_ITERATIONS = {0.9: 20, 3.0: 30, 4.0: 60, 5.0: 140}


class TestStallFallback:
    # (strength / c_beta, iterations of damped Picard steps with damping 0.5
    # on every step)
    @pytest.mark.parametrize("strength,damped_iterations", [
        (0.9, 134), (3.0, 226), (4.0, 450), (5.0, 714),
    ])
    def test_converges_beyond_growth_bound(self, seed1_cap, strength, damped_iterations):
        st = radial_solve(seed1_cap, strength)
        assert st.residual < 1e-8
        assert sum(st.level_iterations) == st.iterations == len(st.iteration_log)
        assert st.iterations < damped_iterations
        assert st.iterations <= MAX_ITERATIONS[strength]

    def test_ten_times_bound_fails_fast(self, seed1_cap):
        with pytest.raises(NoConvergence) as info:
            radial_solve(seed1_cap, 10.0)
        exc = info.value
        assert exc.level == 3
        assert "level 3" in str(exc) and "damping" not in str(exc)
        # damped Picard steps failed after 273 iterations, 1223 with damping
        # 0.5 on every step; Anderson steps with three damped restarts of the
        # failing level after 136, and with one run of it after 40
        assert exc.iterations <= 45
        assert exc.contraction > 1.0 and "contraction" in str(exc)

    def test_thirty_times_bound_fails_typed_without_warnings(self, seed1_cap):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NoConvergence):
                radial_solve(seed1_cap, 30.0)


class TestStalledLevelFails:
    # Anderson steps stall on each field at the given level.  Restarting
    # the level with halved damping converged every one of them, to a fixed
    # point outside the cone (interior enclosure margin -0.163, -0.585 and
    # -1.160), not to the paper's surface
    @pytest.mark.parametrize("family,strength,level", [
        ("modulated", 3.0, 4), ("power", 3.0, 4), ("power", 5.0, 2),
    ])
    def test_fails_at_the_stalled_level(self, seed1_cap, family, strength, level):
        curve, mesh, c_beta = seed1_cap
        c = strength * c_beta
        extra = dict(a=0.3 * c) if family == "modulated" else dict(s=0.5)
        field = cs.CurvatureField(family, c=c, **extra)
        with pytest.raises(NoConvergence) as info:
            cs.solve(mesh, curve, field, cs.SolveConfig(max_iters=400))
        exc = info.value
        assert exc.level == level
        # measured 55, 48 and 36 steps: the levels before it and one run of
        # the stalled level
        assert exc.iterations <= 60
        assert exc.contraction > 1.0


def linear_map(n=4, q=0.9, seed=0):
    """x -> A x + b with A symmetric of spectral radius q, and its fixed
    point."""
    rng = np.random.default_rng(seed)
    V, _ = np.linalg.qr(rng.standard_normal((n, n)))
    A = V @ np.diag(np.linspace(-q, q, n)) @ V.T
    b = rng.standard_normal(n)
    return (lambda x: A @ x + b), np.linalg.solve(np.eye(n) - A, b)


class TestAnderson:
    def test_step_without_history_is_picard(self):
        rng = np.random.default_rng(1)
        x, gx = rng.standard_normal((2, 7, 3))
        step = _Anderson(x.size).step(x, gx)
        assert np.array_equal(step, gx)

    def test_linear_map_solved_in_dimension_plus_one_steps(self):
        G, fixed = linear_map()
        mixer, x = _Anderson(4), np.zeros(4)
        for _ in range(5):
            x = mixer.step(x, G(x))
        assert np.max(np.abs(x - fixed)) < 1e-12
        # plain Picard steps still lag by about q^5
        y = np.zeros(4)
        for _ in range(5):
            y = G(y)
        assert np.max(np.abs(y - fixed)) > 0.1

    def test_history_is_preallocated_and_bounded(self):
        G, _ = linear_map(n=12, q=0.95)
        mixer, x = _Anderson(12), np.zeros(12)
        dF, dG = mixer.dF, mixer.dG
        for k in range(3 * ANDERSON_DEPTH):
            x = mixer.step(x, G(x))
            assert mixer.count == min(k, ANDERSON_DEPTH)
        assert mixer.dF is dF and mixer.dG is dG
        assert dF.shape == dG.shape == (12, ANDERSON_DEPTH)

    def test_growing_residual_clears_history(self):
        mixer, x = _Anderson(3), np.zeros(3)
        mixer.step(x, np.ones(3))
        mixer.step(x, 0.5 * np.ones(3))
        assert mixer.count == 1
        # ||G(x) - x|| grows from 0.87 to 3.5: the step is plain Picard
        step = mixer.step(x, 2.0 * np.ones(3))
        assert mixer.count == 0
        assert np.array_equal(step, 2.0 * np.ones(3))


def relifting_solve(mesh, curve, field, config):
    """The Picard loop of `solve` written out, with the refined harmonic
    part (the polar solve of the lift -K_ib g plus one refinement step)
    recomputed and the iterate rebuilt at every step; the steps are mixed
    by the solver's `_Anderson`.  Returns (X, iteration_log,
    [(iterations, contraction) per level]) or, when a level stalls,
    (None, iteration_log, level)."""
    g = curve.points(arclength_parametrization(curve, mesh.n_theta))
    K = mesh.stiffness.tocsc()
    K_ib = K[np.ix_(mesh.interior, mesh.boundary)]

    def iterate(x):
        X = np.zeros((len(mesh.vertices), 3))
        X[mesh.boundary] = g
        X[mesh.interior] = x
        return X

    def dirichlet(rhs_interior=None):
        harmonic = mesh.solve_interior_stiffness(-K_ib @ g)
        harmonic += mesh.solve_interior_stiffness(-(K @ iterate(harmonic))[mesh.interior])
        if rhs_interior is None:
            return harmonic
        return harmonic + mesh.solve_interior_stiffness(rhs_interior)

    def interior_load(X, level_field):
        w = np.cross(mesh.d_u @ X, mesh.d_v @ X)
        h = level_field.eval(mesh.centroid_op @ X)
        return -(mesh.load_op @ (2.0 * h[:, None] * w))[mesh.interior]

    X, log, levels = iterate(dirichlet()), [], []
    n = CONTINUATION_LEVELS
    for level in range(1, n + 1):
        level_field, final, start = field.scaled(level / n), level == n, len(log)
        tol, mixer = config.update_tol, _Anderson(X[mesh.interior].size)
        for _ in range(config.max_iters):
            x = X[mesh.interior]
            x_next = mixer.step(x, dirichlet(interior_load(X, level_field)))
            update = float(np.max(np.abs(x_next - x)))
            X = iterate(x_next)
            log.append(update)
            if not np.isfinite(update):
                return None, log, level
            if not final and len(log) == start + 1:
                tol = max(config.update_tol, LEVEL_REDUCTION * update)
            if update <= tol:
                break
            earlier = len(log) - 1 - STALL_WINDOW
            if earlier >= start and update >= log[earlier]:
                return None, log, level
        levels.append((len(log) - start, _contraction(log[start:])))
    return X, log, levels


class TestLiftOncePerSolve:
    @pytest.mark.parametrize("n_r", [12, 24])
    def test_same_iterates_as_relifting_every_step(self, seed1_cap, n_r):
        curve, _, c_beta = seed1_cap
        mesh = cs.build_disk_mesh(n_r, 2 * n_r)
        field = cs.CurvatureField("radial", c=0.9 * c_beta)
        config = cs.SolveConfig(max_iters=400)
        st = cs.solve(mesh, curve, field, config)
        X, log, levels = relifting_solve(mesh, curve, field, config)
        assert np.array_equal(st.X, X)
        assert st.iteration_log == log
        assert list(zip(st.level_iterations, st.level_contraction)) == levels

    def test_ten_times_bound_fails_where_relifting_fails(self, seed1_cap):
        curve, mesh, c_beta = seed1_cap
        field = cs.CurvatureField("radial", c=10.0 * c_beta)
        config = cs.SolveConfig(max_iters=400)
        with pytest.raises(NoConvergence) as info:
            cs.solve(mesh, curve, field, config)
        X, log, level = relifting_solve(mesh, curve, field, config)
        assert X is None
        assert info.value.level == level == 3
        assert info.value.iterations == len(log)


class TestInexactContinuation:
    def test_intermediate_levels_stop_early(self, seed1_cap):
        st = radial_solve(seed1_cap, 0.9)
        # 25 iterations when every level before the last ran to update_tol
        assert sum(st.level_iterations[:-1]) <= 12
        assert st.iteration_log[-1] <= cs.SolveConfig().update_tol
        start = 0
        for n in st.level_iterations[:-1]:
            run = st.iteration_log[start:start + n]
            assert run[-1] <= LEVEL_REDUCTION * run[0]
            start += n

    def test_same_surface_as_one_level(self, seed1_cap, monkeypatch):
        st = radial_solve(seed1_cap, 0.9)
        monkeypatch.setattr(cs.solver, "CONTINUATION_LEVELS", 1)
        one = radial_solve(seed1_cap, 0.9)
        assert one.level_iterations == [one.iterations]
        assert np.max(np.abs(st.X - one.X)) < 1e-10

    def test_level_contraction(self, seed1_cap):
        st = radial_solve(seed1_cap, 0.9)
        assert len(st.level_contraction) == len(st.level_iterations)
        # Anderson mixing keeps every level well inside the contraction
        # regime (measured at most 0.057; damped Picard steps grew to 0.12)
        assert all(0.0 < q < 0.1 for q in st.level_contraction)


class TestNoConvergence:
    def test_positional_fields(self):
        exc = NoConvergence(12, 3.5)
        assert (exc.iterations, exc.residual, exc.level, exc.contraction) == (12, 3.5, None, None)
        assert str(exc) == "no convergence after 12 iterations (residual 3.500e+00)"

    def test_message_names_level(self):
        exc = NoConvergence(12, 3.5, level=2)
        assert str(exc) == ("no convergence after 12 iterations at continuation"
                            " level 2 (residual 3.500e+00)")

    def test_message_names_contraction(self):
        exc = NoConvergence(12, 3.5, level=2, contraction=1.0123)
        assert exc.contraction == 1.0123
        assert str(exc) == ("no convergence after 12 iterations at continuation"
                            " level 2, contraction 1.012 (residual 3.500e+00)")

    def test_iterate_leaving_field_domain(self, seed1_cap, monkeypatch):
        calls = []
        assemble = cs.solver._assemble_rhs

        def leaves_on_third_call(mesh, X, field):
            calls.append(1)
            if len(calls) == 3:
                raise FieldOutOfDomain("iterate touches the origin")
            return assemble(mesh, X, field)

        monkeypatch.setattr(cs.solver, "_assemble_rhs", leaves_on_third_call)
        with pytest.raises(NoConvergence) as info:
            radial_solve(seed1_cap, 0.9)
        exc = info.value
        assert (exc.iterations, exc.residual, exc.level, exc.contraction) == (2, np.inf, 1, None)
        assert isinstance(exc.__cause__, FieldOutOfDomain)


# a non-default value per SolveConfig field; a field without an entry fails
NON_DEFAULT = {
    "max_iters": 3,
    "residual_tol": 1e-30,
    "update_tol": 1e-6,
}


def solve_outcome(seed1_cap, **config):
    """What a solve at 0.9 c_beta leaves to observe: the iteration log and
    the level counts, or the NoConvergence it raised."""
    curve, mesh, c_beta = seed1_cap
    field = cs.CurvatureField("radial", c=0.9 * c_beta)
    try:
        st = cs.solve(mesh, curve, field, cs.SolveConfig(**config))
    except NoConvergence as exc:
        return "NoConvergence", exc.iterations, exc.level
    return st.iteration_log, st.level_iterations


@pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(cs.SolveConfig)])
def test_every_config_field_is_read(seed1_cap, name):
    value = NON_DEFAULT[name]
    assert value != getattr(cs.SolveConfig(), name)
    assert solve_outcome(seed1_cap, **{name: value}) != solve_outcome(seed1_cap)
