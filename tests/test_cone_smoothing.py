import numpy as np
import pytest

import conesurf as cs
from conesurf.cone_smoothing import (
    DELTA_STEP,
    cap_curvature_lower_bound,
    profile_mean_curvature,
)
from conesurf.errors import AxisSingularity, OutOfRange


def admissible(beta, d):
    """beta +- d in (0, pi/2) and c_{beta-d} < cot(beta+d)/2."""
    return 0 < beta - d and beta + d < np.pi / 2 and cs.c_beta(beta - d) < 0.5 / np.tan(beta + d)


class TestSelectDelta:
    def test_inequality_at_zero_delta(self):
        # c_beta < cot(beta)/2 for every beta in (0, pi/2)
        for beta in np.linspace(0.05, np.pi / 2 - 0.05, 40):
            assert cs.c_beta(beta) < 0.5 / np.tan(beta)

    def test_pi_over_4_both_sides(self):
        # delta = 0 evaluation: c_{pi/4} vs cot(pi/4)/2
        assert cs.c_beta(np.pi / 4) == pytest.approx(
            np.cos(np.pi / 4) / (2 * (1 + np.cos(np.pi / 4)))
        )
        assert cs.c_beta(np.pi / 4) < 0.5

    @pytest.mark.parametrize("beta", [0.2, np.pi / 4, np.pi / 3, 1.4])
    def test_returns_positive_and_admissible(self, beta):
        d = cs.select_delta(beta)
        assert d > 0
        assert 0 < beta - d and beta + d < np.pi / 2
        assert cs.c_beta(beta - d) < 0.5 / np.tan(beta + d)

    @pytest.mark.parametrize("beta, expected", [(5e-4, 2.5e-4), (np.pi / 2 - 5e-4, 1.220703125e-7)],
                             ids=["near_0", "near_pi_over_2"])
    def test_below_the_grid_halves_delta_step(self, beta, expected):
        # beta within DELTA_STEP of 0 or pi/2 admits no grid point, so
        # select_delta halves DELTA_STEP until delta is admissible
        d = cs.select_delta(beta)
        assert d == expected
        assert d < DELTA_STEP and np.log2(DELTA_STEP / d).is_integer()
        assert admissible(beta, d)
        assert not admissible(beta, 2.0 * d)

    @pytest.mark.parametrize("beta", [0.2, np.pi / 4, 1.4])
    def test_halved_delta_still_admissible(self, beta):
        d = cs.select_delta(beta) / 2
        assert cs.c_beta(beta - d) < 0.5 / np.tan(beta + d)


class TestMakeProfile:
    def test_t_eps_value(self):
        p = cs.make_profile(np.pi / 4, 0.0, 0.1)
        assert p.t_eps == pytest.approx(0.8 / (3 * np.sqrt(3) * np.cos(np.pi / 4)))
        assert p.t_eps == pytest.approx(0.21773242158072692)

    def test_c_eps_value(self):
        p = cs.make_profile(np.pi / 4, 0.0, 0.1)
        assert p.c_eps == pytest.approx(0.1 / np.sqrt(3))

    def test_origin_excluded(self):
        p = cs.make_profile(np.pi / 3, 0.02, 0.05)
        assert p.alpha2(0.0) == p.c_eps > 0
        for t in np.linspace(0, 3 * p.t_eps, 200):
            assert np.linalg.norm(cs.profile_point(p, t, 0.3)) > 0

    @pytest.mark.parametrize("opening,eps", [
        (np.pi / 4, 0.1), (np.pi / 3, 0.05), (0.3, 0.02),
    ])
    def test_c2_junction(self, opening, eps):
        p = cs.make_profile(opening, 0.0, eps)
        jumps = cs.junction_jumps(p)
        assert abs(jumps["value"]) <= 1e-10 * eps
        assert abs(jumps["first"]) <= 1e-10
        assert abs(jumps["second"]) <= 1e-8 / eps

    def test_c2_junction_against_symbolic(self):
        # independent check by sympy differentiation of both branches
        sympy = pytest.importorskip("sympy")
        t, e = sympy.symbols("t e", positive=True)
        opening = sympy.pi / 5
        co = sympy.cos(opening)
        a = -sympy.sqrt(3) * sympy.Rational(3, 8) ** 4 * co**4 / e**3
        b = 2 * sympy.sqrt(3) * sympy.Rational(3, 8) ** 2 * co**2 / e
        c = e / sympy.sqrt(3)
        te = sympy.Rational(8, 3) / sympy.sqrt(3) * e / co
        quart = a * t**4 + b * t**2 + c
        cone = co * t
        for order in range(3):
            diff = sympy.diff(quart - cone, t, order).subs(t, te)
            assert sympy.simplify(diff) == 0

    def test_quartic_convex_increasing_on_cap(self):
        p = cs.make_profile(np.pi / 4, 0.0, 0.1)
        ts = np.linspace(0, p.t_eps, 200)
        assert p.b_eps > 0
        assert np.all(p.alpha2_dd(ts) >= -1e-12)
        assert np.all(np.diff(p.alpha2(ts)) > 0)

    def test_out_of_range(self):
        with pytest.raises(OutOfRange):
            cs.make_profile(np.pi / 2, 0.1, 0.1)
        with pytest.raises(OutOfRange):
            cs.make_profile(np.pi / 4, 0.0, -1.0)


class TestProfilePoint:
    def test_apex(self):
        p = cs.make_profile(np.pi / 4, 0.0, 0.1)
        np.testing.assert_allclose(
            cs.profile_point(p, 0.0, 1.2), [0, 0, p.c_eps], atol=1e-15
        )

    def test_cone_branch_on_cone(self):
        p = cs.make_profile(np.pi / 4, 0.03, 0.1)
        for t in (1.5 * p.t_eps, 3.0 * p.t_eps):
            x = cs.profile_point(p, t, 0.7)
            # the cone margin x . e3 - |x| cos(beta + delta)
            margin = x[2] - np.linalg.norm(x) * np.cos(p.opening)
            assert margin == pytest.approx(0.0, abs=1e-12)

    def test_rotation_invariance(self):
        p = cs.make_profile(np.pi / 4, 0.0, 0.1)
        t = 0.7 * p.t_eps
        norms = [np.linalg.norm(cs.profile_point(p, t, th))
                 for th in np.linspace(0, 2 * np.pi, 17)]
        np.testing.assert_allclose(norms, norms[0])


class TestRevolutionMeanCurvature:
    def test_cone_branch(self):
        p = cs.make_profile(np.pi / 4, 0.02, 0.1)
        opening = p.opening
        for t in (2.0 * p.t_eps, 5.0 * p.t_eps):
            assert profile_mean_curvature(p, t) == pytest.approx(
                1.0 / np.tan(opening) / (2 * t), abs=1e-10
            )

    def test_unit_sphere(self):
        for t in (0.3, 1.0, 2.5):
            h = cs.revolution_mean_curvature(
                np.sin(t), np.cos(t), -np.sin(t), -np.sin(t), -np.cos(t)
            )
            # profile alpha1=sin t, alpha2=cos t traces the sphere with the
            # normal pointing toward the axis for decreasing alpha2
            assert abs(h) == pytest.approx(1.0, rel=1e-12)

    def test_cylinder(self):
        for R in (0.5, 2.0):
            h = cs.revolution_mean_curvature(R, 0.0, 0.0, 1.0, 0.0)
            assert h == pytest.approx(1.0 / (2 * R))

    def test_axis_singularity(self):
        with pytest.raises(AxisSingularity):
            cs.revolution_mean_curvature(0.0, 1.0, 0.0, 1.0, 0.0)

    def test_arrays_broadcast(self):
        R = np.array([0.5, 1.0, 2.0])
        h = cs.revolution_mean_curvature(R, 0.0, 0.0, 1.0, 0.0)
        np.testing.assert_allclose(h, 1.0 / (2 * R), rtol=1e-15)

    def test_axis_singularity_at_any_sample(self):
        with pytest.raises(AxisSingularity):
            cs.revolution_mean_curvature(np.array([1.0, 0.0]), 1.0, 0.0, 1.0, 0.0)
        with pytest.raises(AxisSingularity):
            cs.revolution_mean_curvature(np.array([1.0, 2.0]), np.array([1.0, 0.0]),
                                         0.0, 0.0, 0.0)


def reference_mean_curvature(profile, t):
    """The scalar formula of profile_mean_curvature, one t at a time, with
    alpha1' = sin(beta+delta) and alpha1'' = 0 written out."""
    if t <= 0.0:
        t = 1e-6 * profile.t_eps
    a1 = float(profile.alpha1(t))
    a1_d = float(np.sin(profile.opening))
    a2_d, a2_dd = float(profile.alpha2_d(t)), float(profile.alpha2_dd(t))
    speed2 = a1_d**2 + a2_d**2
    num = a1 * (a1_d * a2_dd - a2_d * 0.0) + a2_d * speed2
    return float(num / (2.0 * a1 * speed2**1.5))


def reference_lower_bound(profile, t):
    if t <= 0.0:
        t = 1e-6 * profile.t_eps
    a1 = float(profile.alpha1(t))
    a1_d = float(np.sin(profile.opening))
    a2_d = float(profile.alpha2_d(t))
    return a2_d / (2.0 * a1 * np.sqrt(a1_d**2 + a2_d**2))


PROFILES = [(np.pi / 4, 0.0, 0.1), (np.pi / 3, 0.02, 0.05), (0.3, 0.01, 0.0125)]


@pytest.mark.parametrize("beta,delta,eps", PROFILES)
class TestArrayValued:
    """One call on all samples against the scalar formulas sample by sample."""

    def test_mean_curvature(self, beta, delta, eps):
        p = cs.make_profile(beta, delta, eps)
        ts = np.linspace(0.0, 4.0 * p.t_eps, 128)
        ref = [reference_mean_curvature(p, t) for t in ts]
        np.testing.assert_allclose(profile_mean_curvature(p, ts), ref, rtol=1e-15, atol=0)
        grid = profile_mean_curvature(p, np.stack([ts, ts[::-1]]))
        assert grid.shape == (2, 128)
        np.testing.assert_array_equal(grid[1], grid[0][::-1])

    def test_lower_bound(self, beta, delta, eps):
        p = cs.make_profile(beta, delta, eps)
        ts = np.linspace(0.0, p.t_eps, 256)
        ref = [reference_lower_bound(p, t) for t in ts]
        np.testing.assert_allclose(cap_curvature_lower_bound(p, ts), ref, rtol=1e-15, atol=0)

    def test_min_and_enclosure(self, beta, delta, eps):
        p = cs.make_profile(beta, delta, eps)
        ref_min = min(reference_mean_curvature(p, t) for t in np.linspace(0.0, p.t_eps, 256))
        assert cs.min_cap_curvature(p, 256) == pytest.approx(ref_min, rel=1e-15, abs=0)
        field = cs.CurvatureField("radial", c=0.05)
        rep = cs.check_enclosure_curvature(p, field)
        ts = np.concatenate([np.linspace(0.0, p.t_eps, 256),
                             np.linspace(p.t_eps, 10.0 * p.t_eps, 256)[1:]])
        ref_margin = min(
            reference_mean_curvature(p, t)
            - float(np.max(np.abs(field.eval(cs.profile_point(
                p, max(t, 1e-6 * p.t_eps), np.linspace(0.0, 2.0 * np.pi, 8, endpoint=False))))))
            for t in ts
        )
        assert rep["margin"] == pytest.approx(ref_margin, rel=1e-15, abs=0)

    def test_junction_jumps_from_written_out_quartic(self, beta, delta, eps):
        p = cs.make_profile(beta, delta, eps)
        t, cos_o = p.t_eps, np.cos(p.opening)
        ref = {
            "value": p.a_eps * t**4 + p.b_eps * t**2 + p.c_eps - cos_o * t,
            "first": 4.0 * p.a_eps * t**3 + 2.0 * p.b_eps * t - cos_o,
            "second": 12.0 * p.a_eps * t**2 + 2.0 * p.b_eps,
        }
        jumps = cs.junction_jumps(p)
        for key, scale in (("value", t), ("first", 1.0), ("second", abs(p.b_eps))):
            assert abs(jumps[key] - ref[key]) <= 1e-15 * scale


class TestMinCapCurvature:
    def setup_method(self):
        self.beta, self.delta = np.pi / 4 - 0.05, 0.05

    def test_lower_bound_all_samples(self):
        p = cs.make_profile(self.beta, self.delta, 0.05)
        for t in np.linspace(0, p.t_eps, 256):
            assert profile_mean_curvature(p, t) >= cap_curvature_lower_bound(p, t) - 1e-12

    def test_eps_halving_ratio(self):
        mins = [cs.min_cap_curvature(cs.make_profile(self.beta, self.delta, e), 256)
                for e in (0.1, 0.05, 0.025)]
        assert mins[0] / mins[1] <= 1 / 1.8
        assert mins[1] / mins[2] <= 1 / 1.8

    def test_one_over_eps_law(self):
        eps = 0.1
        prods = []
        for _ in range(4):
            p = cs.make_profile(self.beta, self.delta, eps)
            prods.append(cs.min_cap_curvature(p, 256) * eps)
            eps /= 2
        assert min(prods) > 0.9 * max(prods)

    def test_dominates_cone_branch_at_junction(self):
        # the cap minimum is attained at the C^2 junction where it equals
        # the cone-branch value; interior samples strictly exceed it
        p = cs.make_profile(self.beta, self.delta, 0.01)
        junction = 1.0 / np.tan(p.opening) / (2 * p.t_eps)
        m = cs.min_cap_curvature(p, 256)
        assert m >= junction - 1e-9 * junction
        for t in np.linspace(0, p.t_eps, 256)[:-1]:
            assert profile_mean_curvature(p, t) > junction

    def test_min_samples_guard(self):
        p = cs.make_profile(self.beta, self.delta, 0.1)
        with pytest.raises(OutOfRange):
            cs.min_cap_curvature(p, 32)


class TestCheckEnclosureCurvature:
    def setup_method(self):
        self.beta = np.pi / 4
        self.delta = cs.select_delta(self.beta)
        self.profile = cs.make_profile(self.beta, self.delta, 0.05)

    def test_zero_field(self):
        rep = cs.check_enclosure_curvature(self.profile, cs.CurvatureField("zero"))
        assert rep["passed"]
        mins = min(
            profile_mean_curvature(self.profile, t)
            for t in np.linspace(0, 10 * self.profile.t_eps, 511)
        )
        assert rep["margin"] == pytest.approx(mins, rel=1e-6)

    def test_radial_margin_matches_direct_scan(self):
        c = cs.c_beta(self.beta - self.delta)
        t_max = 50 * self.profile.t_eps
        field = cs.CurvatureField("radial", c=c)
        rep = cs.check_enclosure_curvature(self.profile, field, t_max=t_max)
        direct = min(
            profile_mean_curvature(self.profile, t)
            - abs(field.eval(cs.profile_point(self.profile, t, 0.0)))
            for t in np.linspace(0, t_max, rep["n_samples"])
        )
        assert rep["margin"] == pytest.approx(direct, rel=1e-9, abs=1e-12)
        assert rep["passed"] == (direct > 0)

    def test_scaled_radial_passes_on_cone_branch(self):
        # on the cone branch H_S - |H| = (cot(beta+delta)/2 - c)/t > 0; near the
        # apex |p| ~ eps/sqrt(3) so the cap minimum dominates only for small c
        c = 0.3 * cs.c_beta(self.beta - self.delta)
        rep = cs.check_enclosure_curvature(
            self.profile, cs.CurvatureField("radial", c=c), t_max=50 * self.profile.t_eps
        )
        assert rep["passed"]
        assert 0.5 / np.tan(self.beta + self.delta) - c > 0

    def test_bounded_field_small_eps(self):
        field = cs.CurvatureField("constant", h0=2.0)
        small = cs.check_enclosure_curvature(
            cs.make_profile(self.beta, self.delta, 0.01), field,
            t_max=cs.make_profile(self.beta, self.delta, 0.01).t_eps,
        )
        assert small["margin"] > 0
