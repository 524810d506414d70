import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import conesurf as cs
from conesurf.boundary import FOURIER_MAX_ORDER, axis_at
from conesurf.errors import CurveLeavesCone, NotBetaConvexAt, OutOfRange, SignChange
from reference_axes import (alpha_value, gamma_hat, gamma_hat_d, reference_axis_at,
                             reference_axis_map)

BETA = np.pi / 3
E3 = np.array([0.0, 0.0, 1.0])
# (const, cos, sin) of each jet case: the orders present need not match
_rng = np.random.default_rng(5)
JET_CASES = {
    "const": (0.7, (), ()),
    "cos": (0.7, (0.1, -0.05, 0.02), ()),
    "sin": (0.7, (), (0.03, 0.04)),
    "more_sin": (0.7, (0.1,), (0.0, 0.02, 0.01)),
    "more_cos": (0.7, (0.1, 0.2, 0.3), (0.05,)),
    "max_order": (0.7, tuple(_rng.uniform(-0.05, 0.05, FOURIER_MAX_ORDER)),
                  tuple(_rng.uniform(-0.05, 0.05, FOURIER_MAX_ORDER))),
}
THETAS = {"scalar": 0.7, "array": np.linspace(-3.0, 9.0, 37)}


class TestFourierScalar:
    def test_values_and_derivative(self):
        f = cs.FourierScalar(1.0, cos_coeffs=[0.2], sin_coeffs=[0.0, 0.1])
        th = 0.7
        assert f(th) == pytest.approx(1.0 + 0.2 * np.cos(th) + 0.1 * np.sin(2 * th))
        assert f.jet(th)[1] == pytest.approx(-0.2 * np.sin(th) + 0.2 * np.cos(2 * th))

    def test_order_cap(self):
        with pytest.raises(OutOfRange):
            cs.FourierScalar(1.0, cos_coeffs=[0.0] * 9)

    @given(st.floats(-10, 10))
    @settings(max_examples=30, deadline=None)
    def test_derivative_fd(self, th):
        f = cs.FourierScalar(1.0, cos_coeffs=[0.3, 0.1], sin_coeffs=[0.2])
        h = 1e-6
        fd = (f(th + h) - f(th - h)) / (2 * h)
        assert f.jet(th)[1] == pytest.approx(fd, abs=1e-7)

    @pytest.mark.parametrize("th", THETAS.values(), ids=THETAS.keys())
    @pytest.mark.parametrize("const,cos,sin", JET_CASES.values(), ids=JET_CASES.keys())
    def test_jet(self, const, cos, sin, th):
        f = cs.FourierScalar(const, cos, sin)
        value, d = f.jet(th)
        assert np.shape(value) == np.shape(d) == np.shape(th)
        # the value is __call__'s, summed in the same order
        assert np.array_equal(value, f(th))
        assert np.array_equal(value, alpha_value(f, th))
        closed = sum(-k * a * np.sin(k * np.asarray(th)) for k, a in enumerate(cos, 1))
        closed = closed + sum(k * b * np.cos(k * np.asarray(th)) for k, b in enumerate(sin, 1))
        np.testing.assert_allclose(d, closed, rtol=1e-13, atol=1e-15)
        h = 1e-6
        np.testing.assert_allclose(d, (f(th + h) - f(th - h)) / (2 * h), atol=1e-7)


class TestSphericalBoundary:
    def test_cap_gamma_hat(self):
        ac = 0.4
        b = cs.SphericalBoundary.cap(ac)
        g = b.gamma_hat(0.0)
        np.testing.assert_allclose(
            g, [np.sin(ac), 0.0, np.cos(ac)], atol=1e-14
        )
        assert np.linalg.norm(b.gamma_hat(1.3)) == pytest.approx(1.0)

    @pytest.mark.parametrize("th", THETAS.values(), ids=THETAS.keys())
    @pytest.mark.parametrize("const,cos,sin", JET_CASES.values(), ids=JET_CASES.keys())
    def test_frame(self, const, cos, sin, th):
        b = cs.SphericalBoundary.perturbed_cap(const, cos, sin)
        g, gd = b.frame(th)
        assert g.shape == gd.shape == np.shape(th) + (3,)
        assert np.array_equal(g, b.gamma_hat(th))
        assert np.array_equal(g, gamma_hat(b, th))
        h = 1e-6
        fd = (b.gamma_hat(np.asarray(th) + h) - b.gamma_hat(np.asarray(th) - h)) / (2 * h)
        np.testing.assert_allclose(gd, fd, atol=1e-7)
        # the tangent of two separate evaluations of alpha, to the bit
        assert np.array_equal(gd, gamma_hat_d(b, th))

    def test_domain_samples_inside_cap(self):
        ac = 0.45
        b = cs.SphericalBoundary.cap(ac)
        pts = b.domain_samples(500)
        assert pts.shape == (500, 3)
        np.testing.assert_allclose(np.linalg.norm(pts, axis=1), 1.0, atol=1e-12)
        assert np.min(pts @ E3) >= np.cos(ac) - 1e-12


class TestAxisAt:
    def test_cap_axis_is_e3_when_alpha_equals_beta(self):
        # cap of opening exactly beta: the admissible axis is the cone axis
        b = cs.SphericalBoundary.cap(BETA)
        samples = np.vstack([b.domain_samples(2000), b.boundary_samples(128)[1]])
        for th in np.linspace(0, 2 * np.pi, 7):
            ax = axis_at(b, BETA, th, samples)
            np.testing.assert_allclose(ax, E3, atol=1e-9)

    def test_small_cap_axis_tilts_toward_gamma(self):
        ac = 0.3
        b = cs.SphericalBoundary.cap(ac)
        samples = np.vstack([b.domain_samples(2000), b.boundary_samples(128)[1]])
        ax = axis_at(b, BETA, 0.0, samples)
        # axis lies in the plane spanned by e3 and gamma_hat(0), tilted by beta - alpha_c
        assert ax[1] == pytest.approx(0.0, abs=1e-12)
        assert ax @ E3 == pytest.approx(np.cos(BETA - ac), abs=1e-10)
        assert ax @ b.gamma_hat(0.0) == pytest.approx(np.cos(BETA), abs=1e-10)

    def test_axis_continuity(self):
        b = cs.SphericalBoundary.perturbed_cap(0.8 * BETA, cos_coeffs=[0.05])
        amap = cs.AxisMap(b, BETA, n_boundary=128)
        gaps = np.linalg.norm(np.diff(np.vstack([amap.axes, amap.axes[:1]]), axis=0), axis=1)
        assert np.max(gaps) < 0.2

    def test_too_wide_cap_fails(self):
        b = cs.SphericalBoundary.cap(BETA + 0.1)
        samples = np.vstack([b.domain_samples(2000), b.boundary_samples(128)[1]])
        with pytest.raises(NotBetaConvexAt):
            axis_at(b, BETA, 0.2, samples)


# (beta, alpha_c, cos, sin) of each domain whose axes are pinned to the
# reference; the e2e caps are those of perfbench's e2e_radial seeds 1 and 7
# and "wide" is the widest CI domain
AXIS_DOMAINS = {
    "cap": (BETA, 0.8 * BETA, (), ()),
    "e2e_seed1": (BETA, 0.8377580409572781,
                  (0.0, 0.00023643249400513364, -0.007116807745607325),
                  (0.0, 0.009009273926518705, 0.008972988942744878)),
    "e2e_seed7": (BETA, 0.8377580409572781,
                  (0.0, 0.002501909332093339, 0.005513713804903871),
                  (0.0, 0.007944276019391511, -0.005495856200188163)),
    "wide": (1.5, 1.2, (0.0, 0.02), ()),
    "pi6_order3": (np.pi / 6, 0.8 * np.pi / 6, (0.0, 0.0, 0.005), (0.0, 0.0, 0.005)),
}


class TestAxesMatchReference:
    @pytest.mark.parametrize("n_boundary,n_domain", [(128, 1024), (256, 2048)],
                             ids=["verify", "check_domain"])
    @pytest.mark.parametrize("beta,ac,cos,sin", AXIS_DOMAINS.values(), ids=AXIS_DOMAINS.keys())
    def test_axes_and_margin(self, beta, ac, cos, sin, n_boundary, n_domain):
        b = cs.SphericalBoundary.perturbed_cap(ac, cos, sin)
        amap = cs.AxisMap(b, beta, n_boundary, n_domain)
        thetas, samples, axes, margin = reference_axis_map(b, beta, n_boundary, n_domain)
        assert np.array_equal(amap.thetas, thetas)
        assert np.array_equal(amap.axes, axes)
        assert amap.margin == margin
        # axes at parameters off the sampled grid, as the cone condition asks
        for th in np.linspace(0.1, 2 * np.pi + 0.1, 16, endpoint=False):
            assert np.array_equal(amap.axis(th), reference_axis_at(b, beta, th, samples))

    def test_not_beta_convex_raises_at_the_same_theta(self):
        beta = np.pi / 6
        b = cs.SphericalBoundary.perturbed_cap(0.8 * beta, (0.0, 0.0, 0.01), (0.0, 0.0, 0.01))
        with pytest.raises(NotBetaConvexAt) as got:
            cs.AxisMap(b, beta, 128, 1024)
        with pytest.raises(NotBetaConvexAt) as expected:
            reference_axis_map(b, beta, 128, 1024)
        assert got.value.theta == expected.value.theta
        assert str(got.value) == str(expected.value)


class TestBetaConvexity:
    @pytest.mark.parametrize("ac", [0.2, 0.5, BETA - 1e-3])
    def test_caps_within_beta_are_beta_convex(self, ac):
        flag, margin = cs.is_beta_convex(cs.SphericalBoundary.cap(ac), BETA)
        assert flag
        assert margin >= -1e-8

    @pytest.mark.parametrize("ac", [BETA + 0.05, BETA + 0.3])
    def test_caps_beyond_beta_are_not(self, ac):
        flag, _ = cs.is_beta_convex(cs.SphericalBoundary.cap(ac), BETA)
        assert not flag

    def test_perturbed_cap(self):
        b = cs.SphericalBoundary.perturbed_cap(0.8 * BETA, cos_coeffs=[0.1])
        flag, _ = cs.is_beta_convex(b, BETA)
        assert flag

    def test_axis_map_margin_is_worst_axis_slack(self):
        b = cs.SphericalBoundary.perturbed_cap(0.8 * BETA, cos_coeffs=[0.1])
        amap = cs.AxisMap(b, BETA, n_boundary=64, n_domain=512)
        samples = np.vstack([b.domain_samples(512), b.boundary_samples(64)[1]])
        worst = min(float(np.min(samples @ ax)) - np.cos(BETA) for ax in amap.axes)
        assert amap.margin == pytest.approx(worst, rel=1e-14, abs=1e-15)
        assert cs.is_beta_convex(b, BETA, n_boundary=64, n_domain=512) == (
            True, amap.margin
        )

    def test_beta_convex_implies_convex(self):
        # random beta-convex perturbed caps must pass the supporting-plane test
        rng = np.random.default_rng(12)
        n_checked = 0
        while n_checked < 12:
            ac = rng.uniform(0.3, 0.9) * BETA
            coeffs = rng.uniform(-0.05, 0.05, 2)
            b = cs.SphericalBoundary.perturbed_cap(ac, cos_coeffs=coeffs)
            flag, _ = cs.is_beta_convex(b, BETA, n_boundary=64, n_domain=512)
            if not flag:
                continue
            assert cs.is_convex(b, n_samples=64, n_domain=512)
            n_checked += 1

    def test_nonconvex_boundary_detected(self):
        b = cs.SphericalBoundary.perturbed_cap(0.5, cos_coeffs=[0.0, 0.0, 0.35])
        assert not cs.is_convex(b)

    @pytest.mark.parametrize("cos_coeffs,convex", [((), True), ((0.05,), True),
                                                   ((0.0, 0.0, 0.35), False)],
                             ids=["cap", "perturbed", "wavy"])
    @pytest.mark.parametrize("n_samples,n_domain", [(256, 1024), (64, 512)])
    def test_matches_per_theta_loop(self, cos_coeffs, convex, n_samples, n_domain):
        # the supporting-plane test one boundary sample at a time
        b = cs.SphericalBoundary.perturbed_cap(0.5, cos_coeffs=cos_coeffs)
        thetas, bpts = b.boundary_samples(n_samples)
        samples = np.vstack([b.domain_samples(n_domain), bpts])
        tol = 1e-9
        ref = True
        for th in thetas:
            side = samples @ np.cross(*b.frame(th))
            if np.any(side > tol) and np.any(side < -tol):
                ref = False
                break
        assert ref is convex
        assert cs.is_convex(b, n_samples=n_samples, n_domain=n_domain) is ref


class TestOrientation:
    def test_cap_positively_oriented(self):
        b = cs.SphericalBoundary.cap(0.8 * BETA)
        assert cs.orientation_sign(cs.AxisMap(b, BETA)) == -1

    def test_reversal_flips_sign(self):
        b = cs.SphericalBoundary.cap(0.8 * BETA)

        class Reversed(cs.SphericalBoundary):
            def gamma_hat(self, theta):
                return b.gamma_hat(-np.asarray(theta))

            def frame(self, theta):
                g, gd = b.frame(-np.asarray(theta))
                return g, -gd

        r = Reversed(b.alpha)
        amap = cs.AxisMap(r, BETA)
        # the reversed frame reaches the axes: the axis at theta is the
        # forward axis at -theta
        forward = cs.AxisMap(b, BETA)
        np.testing.assert_allclose(amap.axes, np.roll(forward.axes[::-1], 1, axis=0),
                                   atol=1e-12)
        assert cs.orientation_sign(amap) == +1

    def test_cap_determinant_value(self):
        # for a cap the determinant reduces to -sin^2(alpha_c) for e3 axis,
        # up to the tilt factor when alpha_c < beta
        ac = BETA
        b = cs.SphericalBoundary.cap(ac)
        amap = cs.AxisMap(b, BETA, n_boundary=32)
        g, gd = b.frame(amap.thetas)
        det = np.einsum("ij,ij->i", np.cross(gd, g), amap.axes)
        np.testing.assert_allclose(det, -np.sin(ac) ** 2, atol=1e-8)


class TestBuildCurve:
    def test_points_shape_and_values(self):
        b = cs.SphericalBoundary.cap(0.5)
        g = cs.FourierScalar(2.0)
        curve = cs.build_curve(b, g, BETA)
        p = curve.points(0.0)
        np.testing.assert_allclose(p, 2.0 * b.gamma_hat(0.0), atol=1e-14)
        pts = curve.points(np.linspace(0, 2 * np.pi, 64))
        assert pts.shape == (64, 3)
        np.testing.assert_allclose(np.linalg.norm(pts, axis=1), 2.0, atol=1e-12)

    def test_nonpositive_radius_rejected(self):
        b = cs.SphericalBoundary.cap(0.5)
        with pytest.raises(OutOfRange):
            cs.build_curve(b, cs.FourierScalar(0.5, cos_coeffs=[0.6]), BETA)

    def test_curve_outside_cone_rejected(self):
        b = cs.SphericalBoundary.cap(BETA + 0.2)
        with pytest.raises(CurveLeavesCone):
            cs.build_curve(b, cs.FourierScalar(1.0), BETA)
