import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import conesurf as cs
from conesurf.errors import OutOfRange, PointOnCurve, PoleSingularity


def unit_circle_loop(n=64, reverse=False):
    ang = 2.0 * np.pi * np.arange(n) / n
    loop = np.stack([np.cos(ang), np.sin(ang)], axis=1)
    return loop[::-1] if reverse else loop


def stereographic_south_inverse(q):
    """Inverse of stereographic_south for one point q of the plane:
    (2 q, 1 - |q|^2) / (1 + |q|^2) on S^2."""
    s = q @ q
    return np.array([2.0 * q[0], 2.0 * q[1], 1.0 - s]) / (1.0 + s)


def degree(loop, q):
    """The winding degree around one query point."""
    (deg,) = cs.winding_degree(loop, [q])
    return deg


class TestStereographic:
    def test_north_pole(self):
        np.testing.assert_allclose(cs.stereographic_south([[0, 0, 1]]), [[0, 0]])

    def test_equator(self):
        np.testing.assert_allclose(cs.stereographic_south([[1, 0, 0]]), [[1, 0]])

    def test_generic(self):
        np.testing.assert_allclose(cs.stereographic_south([[0, 0.6, 0.8]]), [[0, 1 / 3]])

    def test_pole_singularity(self):
        with pytest.raises(PoleSingularity):
            cs.stereographic_south([[0, 0, -1]])

    def test_array_matches_rows(self):
        rng = np.random.default_rng(0)
        p = rng.normal(size=(50, 3))
        p /= np.linalg.norm(p, axis=1)[:, None]
        p[:, 2] = np.abs(p[:, 2])
        q = cs.stereographic_south(p)
        assert q.shape == (50, 2)
        np.testing.assert_array_equal(q, [cs.stereographic_south(row[None])[0] for row in p])
        assert cs.stereographic_south(np.zeros((0, 3))).shape == (0, 2)

    def test_array_pole_singularity_names_the_row(self):
        p = np.array([[0.0, 0.6, 0.8], [0.0, 0.0, -1.0], [1.0, 0.0, 0.0]])
        with pytest.raises(PoleSingularity, match="z=-1.0"):
            cs.stereographic_south(p)

    def test_bad_shapes_rejected(self):
        for bad in (np.zeros(3), np.zeros((4, 2)), np.zeros((2, 2, 3)), [[0.0, 0.0, np.nan]]):
            with pytest.raises(ValueError):
                cs.stereographic_south(bad)

    @given(st.floats(0, 2 * np.pi), st.floats(-0.9, 1.0))
    @settings(max_examples=100)
    def test_round_trip(self, theta, z):
        s = np.sqrt(max(0.0, 1.0 - z * z))
        p = np.array([s * np.cos(theta), s * np.sin(theta), z])
        (q,) = cs.stereographic_south(p[None])
        np.testing.assert_allclose(stereographic_south_inverse(q), p, atol=1e-12)


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


def flower_loop(n=256):
    """A non-convex loop with five lobes around the origin."""
    ang = 2.0 * np.pi * np.arange(n) / n
    r = 1.0 + 0.5 * np.cos(5 * ang)
    return np.stack([r * np.cos(ang), r * np.sin(ang)], axis=1)


def twice_around_loop(n=128):
    """A limacon traversed once that winds twice around points of its
    inner loop."""
    ang = 2.0 * np.pi * np.arange(n) / n
    r = 0.5 + np.cos(ang)
    return np.stack([r * np.cos(ang), r * np.sin(ang)], axis=1)


class TestWindingDegree:
    def test_ccw_circle(self):
        assert degree(unit_circle_loop(), (0, 0)) == 1

    def test_reversed(self):
        assert degree(unit_circle_loop(reverse=True), (0, 0)) == -1
        queries = [[0.0, 0.0], [0.3, -0.2], [-0.5, 0.4]]
        assert cs.winding_degree(unit_circle_loop(reverse=True), queries).tolist() == [-1] * 3

    def test_exterior(self):
        assert degree(unit_circle_loop(), (2, 0)) == 0

    def test_point_on_curve(self):
        with pytest.raises(PointOnCurve):
            degree(unit_circle_loop(), (1.0, 0.0))

    @given(st.integers(0, 63))
    @settings(max_examples=20)
    def test_cyclic_relabeling(self, shift):
        loop = np.roll(unit_circle_loop(), shift, axis=0)
        assert degree(loop, (0.1, -0.2)) == 1

    def test_nonconvex_loop(self):
        # a figure with a notch; query point inside the main lobe
        assert degree(flower_loop(), (0.0, 0.0)) == 1

    @pytest.mark.parametrize("loop", [flower_loop(), twice_around_loop()],
                             ids=["nonconvex", "winds_twice"])
    def test_queries_match_rows(self, loop):
        rng = np.random.default_rng(3)
        queries = rng.uniform(-1.6, 1.6, size=(40, 2))
        degs = cs.winding_degree(loop, queries)
        assert degs.shape == (40,)
        assert degs.tolist() == [degree(loop, q) for q in queries]
        assert len(set(degs.tolist())) > 1

    def test_winds_twice(self):
        # the limacon r = 1/2 + cos(theta) crosses the x axis at 1.5, at 0.5
        # on its inner loop and at its node, the origin
        degs = cs.winding_degree(twice_around_loop(), [[0.2, 0.0], [1.0, 0.0], [3.0, 0.0]])
        assert degs.tolist() == [2, 1, 0]

    def test_one_query_on_curve(self):
        # the middle query is the midpoint of an edge, away from every vertex
        loop = unit_circle_loop()
        queries = [[0.0, 0.0], 0.5 * (loop[0] + loop[1]), [2.0, 0.5]]
        with pytest.raises(PointOnCurve):
            cs.winding_degree(loop, queries)
