import numpy as np
import pytest
from scipy import integrate

import conesurf as cs
from conesurf.errors import OutOfRange
from finite_differences import divergence_fd, gradient_fd

BETA = np.pi / 3

FAMILIES = [
    cs.CurvatureField("zero"),
    cs.CurvatureField("constant", h0=0.3),
    cs.CurvatureField("radial", c=0.12),
    cs.CurvatureField("power", c=0.1, s=0.5),
    cs.CurvatureField("power", c=0.1, s=-0.3),
    cs.CurvatureField("modulated", c=0.1, a=0.05),
]


def sample_points(n, seed=3, r_lo=0.3, r_hi=3.0):
    rng = np.random.default_rng(seed)
    pts = rng.normal(size=(n, 3))
    pts[:, 2] = np.abs(pts[:, 2]) + 0.5  # keep well inside the cone
    pts /= np.linalg.norm(pts, axis=1)[:, None]
    return pts * rng.uniform(r_lo, r_hi, n)[:, None]


class TestGradients:
    @pytest.mark.parametrize("field", FAMILIES, ids=lambda f: f"{f.family}")
    def test_grad_matches_finite_differences(self, field):
        for p in sample_points(20):
            fd = gradient_fd(field, p)
            g = field.grad(p)
            np.testing.assert_allclose(g, fd, rtol=1e-5, atol=1e-8)


class TestPotentialQ:
    def test_constant_field(self):
        field = cs.CurvatureField("constant", h0=0.7)
        p = np.array([0.4, -0.2, 1.1])
        np.testing.assert_allclose(
            cs.build_potential_Q(field, p), (0.7 / 3.0) * p, atol=1e-12
        )

    def test_radial_field_norm(self):
        field = cs.CurvatureField("radial", c=0.3)
        for p in sample_points(10):
            q = cs.build_potential_Q(field, p)
            np.testing.assert_allclose(q, 0.15 * p / np.linalg.norm(p), atol=1e-10)
            assert np.linalg.norm(q) == pytest.approx(0.15, abs=1e-10)

    def test_origin_rejected(self):
        with pytest.raises(OutOfRange):
            cs.build_potential_Q(cs.CurvatureField("zero"), [0, 0, 0])

    @pytest.mark.parametrize("field", FAMILIES, ids=lambda f: f"{f.family}")
    def test_divergence_is_H(self, field):
        for p in sample_points(15, seed=9):
            div = divergence_fd(field, p)
            h = field.eval(p)
            assert div == pytest.approx(h, rel=1e-6, abs=1e-7)

    def test_growth_bound_implies_Q_bound(self):
        # |H(p)| |p| <= c implies sup |Q| <= c/2 < 1/4
        beta, delta = BETA, 0.05
        c = cs.c_beta(beta - delta)
        field = cs.CurvatureField("radial", c=c)
        sup_q = max(
            np.linalg.norm(cs.build_potential_Q(field, p))
            for p in sample_points(30, seed=4)
        )
        assert sup_q <= c / 2 + 1e-10
        assert c / 2 < 0.25


def quad_reference_Q(field, p):
    """(int_0^1 H(t p) t^2 dt) p by adaptive quadrature."""
    val, _ = integrate.quad(
        lambda t: field.eval(t * p) * t * t, 0.0, 1.0,
        epsabs=0.0, epsrel=1e-13, limit=200,
    )
    return val * p


class TestArrayAPI:
    @pytest.mark.parametrize("field", FAMILIES, ids=lambda f: f"{f.family}")
    def test_array_eval_matches_rows(self, field):
        pts = sample_points(40, seed=5)
        h = field.eval(pts)
        assert h.shape == (40,)
        np.testing.assert_allclose(h, [field.eval(p) for p in pts], rtol=1e-14)

    @pytest.mark.parametrize("field", FAMILIES, ids=lambda f: f"{f.family}")
    def test_array_grad_matches_rows(self, field):
        pts = sample_points(40, seed=6)
        g = field.grad(pts)
        assert g.shape == (40, 3)
        np.testing.assert_allclose(
            g, [field.grad(p) for p in pts], rtol=1e-14, atol=1e-300
        )
        assert field.grad(pts[0]).shape == (3,)

    @pytest.mark.parametrize("field", FAMILIES, ids=lambda f: f"{f.family}")
    def test_scaled_is_plain_field(self, field):
        scaled = field.scaled(0.37)
        assert type(scaled) is cs.CurvatureField
        assert scaled.family == field.family
        assert scaled.params.get("s") == field.params.get("s")
        pts = sample_points(20, seed=8)
        np.testing.assert_allclose(
            scaled.eval(pts), 0.37 * field.eval(pts), rtol=1e-14, atol=1e-300
        )
        np.testing.assert_allclose(
            scaled.scaled(2.0).eval(pts), 0.74 * field.eval(pts),
            rtol=1e-14, atol=1e-300,
        )

    def test_solve_evaluates_field_once_per_iterate(self, monkeypatch):
        calls = []
        original = cs.CurvatureField.eval

        def counting(self, p):
            calls.append(1)
            return original(self, p)

        monkeypatch.setattr(cs.CurvatureField, "eval", counting)
        beta = BETA
        boundary = cs.SphericalBoundary.cap(0.8 * beta)
        curve = cs.build_curve(boundary, cs.FourierScalar(1.0), beta)
        mesh = cs.build_disk_mesh(8, 16)
        field = cs.CurvatureField("radial", c=0.5 * cs.c_beta(beta))
        state = cs.solve(mesh, curve, field, cs.SolveConfig(max_iters=400))
        # one call per Picard step plus the final residual
        assert len(calls) <= state.iterations + 2
        assert len(calls) < len(mesh.triangles)


class TestClosedFormQ:
    @pytest.mark.parametrize(
        "field",
        FAMILIES + [cs.CurvatureField("power", c=0.1, s=1.5)],
        ids=lambda f: f"{f.family}-{f.params.get('s', '')}",
    )
    def test_matches_quadrature(self, field):
        for p in sample_points(10, seed=12):
            np.testing.assert_allclose(
                cs.build_potential_Q(field, p), quad_reference_Q(field, p),
                rtol=1e-12, atol=1e-300,
            )

    def test_array_input(self):
        field = cs.CurvatureField("modulated", c=0.1, a=0.05)
        pts = sample_points(10, seed=13)
        np.testing.assert_allclose(
            cs.build_potential_Q(field, pts),
            [cs.build_potential_Q(field, p) for p in pts], rtol=1e-14,
        )

    @pytest.mark.parametrize("s", [2.0, 2.5])
    def test_divergent_power_rejected(self, s):
        with pytest.raises(OutOfRange):
            cs.build_potential_Q(cs.CurvatureField("power", c=0.1, s=s), [0, 0, 1])


class TestChecks:
    def test_growth_zero_field(self):
        pts = sample_points(50)
        margin = cs.check_growth(cs.CurvatureField("zero"), BETA, pts)
        assert margin == pytest.approx(cs.c_beta(BETA))

    def test_growth_equality_case(self):
        pts = sample_points(50)
        field = cs.CurvatureField("radial", c=cs.c_beta(BETA))
        assert cs.check_growth(field, BETA, pts) == pytest.approx(0.0, abs=1e-12)

    def test_growth_090_margin(self):
        pts = sample_points(50)
        field = cs.CurvatureField("radial", c=0.9 * cs.c_beta(BETA))
        assert cs.check_growth(field, BETA, pts) == pytest.approx(0.1 / 6, abs=1e-12)

    def test_monotonicity_radial_exact_zero(self):
        pts = sample_points(100)
        field = cs.CurvatureField("radial", c=0.2)
        assert abs(cs.check_monotonicity(field, pts)) <= 1e-12
        # pointwise as well
        for p in pts[:10]:
            assert field.eval(p) + field.grad(p) @ p == pytest.approx(0.0, abs=1e-12)

    def test_monotonicity_power_negative_cs(self):
        # H + grad H . p = -c s / |p|^(1+s) > 0 when c s < 0
        c, s = 0.1, -0.5
        field = cs.CurvatureField("power", c=c, s=s)
        pts = sample_points(30)
        margin = cs.check_monotonicity(field, pts)
        expected = min(-c * s / np.linalg.norm(p) ** (1 + s) for p in pts)
        assert margin == pytest.approx(expected, rel=1e-12)
        assert margin > 0

    def test_monotonicity_constant(self):
        pts = sample_points(30)
        assert cs.check_monotonicity(
            cs.CurvatureField("constant", h0=0.4), pts
        ) == pytest.approx(0.4)


class TestSerialization:
    def test_unknown_family(self):
        with pytest.raises(OutOfRange):
            cs.CurvatureField("hyperbolic", c=1.0)

    @pytest.mark.parametrize("family,params,named", [
        ("radial", {}, "'c'"),
        ("radial", {"c": 0.1, "a": 0.1}, "'a'"),
        ("zero", {"h0": 0.0}, "'h0'"),
        ("power", {"c": 0.1, "s": np.inf}, "'s'"),
        ("modulated", {"c": 0.1, "a": False}, "'a'"),
        ("constant", {"h0": "0.5"}, "'h0'"),
    ])
    def test_family_parameters_checked(self, family, params, named):
        with pytest.raises(OutOfRange, match=named):
            cs.CurvatureField(family, **params)

    @pytest.mark.parametrize("family", sorted(cs.fields.PARAMS))
    def test_family_takes_its_parameters(self, family):
        field = cs.CurvatureField(family, **{name: 0.1 for name in cs.fields.PARAMS[family]})
        p = np.array([0.3, 0.4, 1.0])
        assert np.isfinite(field.eval(p)) and np.all(np.isfinite(field.grad(p)))
