import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import conesurf as cs
from conesurf.errors import OutOfRange, PointOnCurve
from conesurf.geometry import gnomonic, tangent_frame


def unit_circle_loop(n=64, reverse=False):
    ang = 2.0 * np.pi * np.arange(n) / n
    loop = np.stack([np.cos(ang), np.sin(ang)], axis=1)
    return loop[::-1] if reverse else loop


def degree(loop, q):
    """The winding degree around one query point."""
    (deg,) = cs.winding_degree(loop, [q])
    return deg


def random_unit_vectors(n, seed):
    p = np.random.default_rng(seed).normal(size=(n, 3))
    return p / np.linalg.norm(p, axis=1)[:, None]


class TestGnomonicChart:
    @pytest.mark.parametrize("v", [random_unit_vectors(50, 0),
                                   np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]])],
                             ids=["random", "poles"])
    def test_tangent_frame_is_orthonormal_and_right_handed(self, v):
        # the poles take the v ^ e1 branch
        t1, t2 = tangent_frame(v)
        frame = np.stack([t1, t2, v], axis=1)  # rows t1, t2, v per point
        np.testing.assert_allclose(frame @ frame.transpose(0, 2, 1),
                                   np.broadcast_to(np.eye(3), frame.shape), atol=1e-14)
        np.testing.assert_allclose(np.cross(t1, t2), v, atol=1e-14)

    @pytest.mark.parametrize("c", [[0.0, 0.0, 1.0], [0.6, 0.0, 0.8], [0.36, -0.48, 0.8]])
    def test_center_maps_to_origin(self, c):
        c = np.array(c)
        np.testing.assert_allclose(gnomonic(c[None], c), [[0.0, 0.0]], atol=1e-15)

    def test_great_circle_arc_maps_to_a_segment(self):
        c = np.array([0.36, -0.48, 0.8])
        p = random_unit_vectors(400, 1)
        p = np.where((p @ c)[:, None] > 0, p, -p)
        # points up to 72 degrees from c, beyond the widest boundary chart in use
        p = p[p @ c > 0.3][:200]
        a, b = p[:100], p[100:]
        mid = (a + b) / np.linalg.norm(a + b, axis=1)[:, None]
        qa, qb, qm = gnomonic(a, c), gnomonic(b, c), gnomonic(mid, c)
        # qm = qa + t (qb - qa) with t in [0, 1] and no normal offset
        d = qb - qa
        t = np.einsum("ij,ij->i", qm - qa, d) / np.einsum("ij,ij->i", d, d)
        assert np.all((t >= 0.0) & (t <= 1.0))
        off = qm - qa - t[:, None] * d
        assert np.max(np.linalg.norm(off, axis=1)) <= 1e-12


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
