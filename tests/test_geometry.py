import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import conesurf as cs
from conesurf.errors import DegenerateInput, OutOfRange, PointOnCurve, PoleSingularity
from conesurf.geometry import normalize


def unit_circle_loop(n=64, reverse=False):
    ang = 2.0 * np.pi * np.arange(n) / n
    loop = np.stack([np.cos(ang), np.sin(ang)], axis=1)
    return loop[::-1] if reverse else loop


class TestRadialProject:
    """Radial projection onto the unit sphere is `normalize`."""

    def test_axis_scaling(self):
        np.testing.assert_allclose(normalize([0, 0, 2]), [0, 0, 1])

    def test_345_triple(self):
        np.testing.assert_allclose(normalize([3, 4, 0]), [0.6, 0.8, 0])

    def test_idempotent_on_sphere(self):
        v = np.array([0.6, 0.0, 0.8])
        np.testing.assert_allclose(normalize(v), v)

    def test_degenerate(self):
        with pytest.raises(DegenerateInput):
            normalize([0, 0, 1e-15])

    @given(st.tuples(*[st.floats(-10, 10) for _ in range(3)]),
           st.floats(1e-3, 1e3))
    @settings(max_examples=50)
    def test_scale_invariance(self, v, lam):
        v = np.asarray(v)
        if np.linalg.norm(v) < 1e-6:
            return
        np.testing.assert_allclose(
            normalize(lam * v), normalize(v), atol=1e-9
        )


class TestConeMargin:
    def setup_method(self):
        self.cone = cs.ConeSpec([0, 0, 1], np.pi / 3)

    def test_axis_point(self):
        assert self.cone.margin([0, 0, 1]) == pytest.approx(0.5)

    def test_boundary_ray(self):
        b = np.pi / 3
        x = 2.7 * np.array([np.sin(b), 0, np.cos(b)])
        assert self.cone.margin(x) == pytest.approx(0.0, abs=1e-12)

    def test_generic_point(self):
        # (1,0,1): 1 - sqrt(2) cos(pi/3) = 1 - sqrt(2)/2
        assert self.cone.margin([1, 0, 1]) == pytest.approx(
            1.0 - np.sqrt(2.0) / 2.0
        )

    @given(st.tuples(*[st.floats(-5, 5) for _ in range(3)]),
           st.floats(1e-3, 1e3))
    @settings(max_examples=50)
    def test_positive_homogeneity(self, x, lam):
        x = np.asarray(x)
        assert self.cone.margin(lam * x) == pytest.approx(
            lam * self.cone.margin(x), rel=1e-9, abs=1e-9
        )


class TestStereographic:
    def test_north_pole(self):
        assert cs.stereographic_south([0, 0, 1]) == pytest.approx((0, 0))

    def test_equator(self):
        assert cs.stereographic_south([1, 0, 0]) == pytest.approx((1, 0))

    def test_generic(self):
        assert cs.stereographic_south([0, 0.6, 0.8]) == pytest.approx((0, 1 / 3))

    def test_pole_singularity(self):
        with pytest.raises(PoleSingularity):
            cs.stereographic_south([0, 0, -1])

    def test_array_matches_rows(self):
        rng = np.random.default_rng(0)
        p = rng.normal(size=(50, 3))
        p /= np.linalg.norm(p, axis=1)[:, None]
        p[:, 2] = np.abs(p[:, 2])
        q = cs.stereographic_south(p)
        assert q.shape == (50, 2)
        np.testing.assert_array_equal(q, [cs.stereographic_south(row) for row in p])
        assert cs.stereographic_south(np.zeros((0, 3))).shape == (0, 2)

    def test_array_pole_singularity_names_the_row(self):
        p = np.array([[0.0, 0.6, 0.8], [0.0, 0.0, -1.0], [1.0, 0.0, 0.0]])
        with pytest.raises(PoleSingularity, match="z=-1.0"):
            cs.stereographic_south(p)

    def test_bad_shapes_rejected(self):
        for bad in (np.zeros((4, 2)), np.zeros((2, 2, 3)), [[0.0, 0.0, np.nan]]):
            with pytest.raises(ValueError):
                cs.stereographic_south(bad)

    @given(st.floats(0, 2 * np.pi), st.floats(-0.9, 1.0))
    @settings(max_examples=100)
    def test_round_trip(self, theta, z):
        s = np.sqrt(max(0.0, 1.0 - z * z))
        p = np.array([s * np.cos(theta), s * np.sin(theta), z])
        q = cs.stereographic_south(p)
        np.testing.assert_allclose(cs.stereographic_south_inverse(q), p, atol=1e-12)


class TestCBeta:
    def test_pi_over_3(self):
        assert cs.c_beta(np.pi / 3) == pytest.approx(1 / 6)

    def test_limits(self):
        assert cs.c_beta(1e-8) == pytest.approx(0.25, abs=1e-8)
        assert cs.c_beta(np.pi / 2 - 1e-8) == pytest.approx(0.0, abs=1e-8)

    def test_strictly_decreasing(self):
        betas = np.linspace(0.01, np.pi / 2 - 0.01, 50)
        vals = [cs.c_beta(b) for b in betas]
        assert np.all(np.diff(vals) < 0)

    def test_out_of_range(self):
        for bad in (0.0, np.pi / 2, -0.1, 2.0):
            with pytest.raises(OutOfRange):
                cs.c_beta(bad)


class TestWindingDegree:
    def test_ccw_circle(self):
        assert cs.winding_degree(unit_circle_loop(), (0, 0)) == 1

    def test_reversed(self):
        assert cs.winding_degree(unit_circle_loop(reverse=True), (0, 0)) == -1

    def test_exterior(self):
        assert cs.winding_degree(unit_circle_loop(), (2, 0)) == 0

    def test_point_on_curve(self):
        with pytest.raises(PointOnCurve):
            cs.winding_degree(unit_circle_loop(), (1.0, 0.0))

    @given(st.integers(0, 63))
    @settings(max_examples=20)
    def test_cyclic_relabeling(self, shift):
        loop = np.roll(unit_circle_loop(), shift, axis=0)
        assert cs.winding_degree(loop, (0.1, -0.2)) == 1

    def test_nonconvex_loop(self):
        # a figure with a notch; query point inside the main lobe
        ang = 2.0 * np.pi * np.arange(256) / 256
        r = 1.0 + 0.5 * np.cos(5 * ang)
        loop = np.stack([r * np.cos(ang), r * np.sin(ang)], axis=1)
        assert cs.winding_degree(loop, (0.0, 0.0)) == 1
