import numpy as np
import pytest

import conesurf as cs
from conesurf.errors import OutOfRange


class TestConstruction:
    def test_counts_small(self):
        m = cs.build_disk_mesh(4, 8)
        assert len(m.vertices) == 1 + 4 * 8
        # one fan triangle per sector plus two per quad in the outer rings
        assert len(m.triangles) == 8 + 2 * 8 * 3
        assert len(m.boundary) == 8

    def test_minimum_resolution_enforced(self):
        with pytest.raises(OutOfRange):
            cs.build_disk_mesh(3, 8)
        with pytest.raises(OutOfRange):
            cs.build_disk_mesh(4, 7)

    def test_boundary_ring_is_ccw_unit_circle(self):
        m = cs.build_disk_mesh(6, 16)
        b = m.vertices[m.boundary]
        np.testing.assert_allclose(np.linalg.norm(b, axis=1), 1.0, atol=1e-14)
        ang = np.unwrap(np.arctan2(b[:, 1], b[:, 0]))
        assert np.all(np.diff(ang) > 0)

    def test_interior_boundary_partition(self):
        m = cs.build_disk_mesh(5, 12)
        assert len(m.interior) + len(m.boundary) == len(m.vertices)
        assert not np.any(m.is_boundary[m.interior])


class TestQuadrature:
    def test_areas_positive(self):
        m = cs.build_disk_mesh(8, 24)
        assert np.all(m.areas > 0)

    def test_polygon_area_converges(self):
        m = cs.build_disk_mesh(16, 64)
        assert m.areas.sum() == pytest.approx(np.pi, rel=1e-2)

    def test_quad_weights_sum_to_pi_exactly(self):
        for n_r, n_t in [(4, 8), (8, 24), (16, 64)]:
            m = cs.build_disk_mesh(n_r, n_t)
            assert m.quad_weights.sum() == pytest.approx(np.pi, abs=1e-13)

    def test_quad_weights_exceed_areas_only_at_boundary(self):
        m = cs.build_disk_mesh(6, 16)
        extra = m.quad_weights - m.areas
        bset = set(m.boundary.tolist())
        for t, tri in enumerate(m.triangles):
            on_b = sum(v in bset for v in tri)
            if on_b == 2:
                assert extra[t] > 0
            else:
                assert extra[t] == 0


class TestOperators:
    def test_stiffness_against_dirichlet_energy(self):
        # f = x: grad = (1,0), energy over polygon = polygon area
        m = cs.build_disk_mesh(8, 24)
        f = m.vertices[:, 0]
        assert f @ (m.stiffness @ f) == pytest.approx(m.areas.sum(), rel=1e-12)

    def test_stiffness_annihilates_constants(self):
        m = cs.build_disk_mesh(6, 16)
        ones = np.ones(len(m.vertices))
        assert np.max(np.abs(m.stiffness @ ones)) < 1e-13

    def test_mass_total(self):
        m = cs.build_disk_mesh(8, 24)
        ones = np.ones(len(m.vertices))
        assert ones @ (m.mass @ ones) == pytest.approx(m.areas.sum(), rel=1e-12)
        np.testing.assert_allclose(m.lumped_mass, np.asarray(m.mass.sum(axis=1)).ravel())

    def test_triangle_gradients_linear_exact(self):
        m = cs.build_disk_mesh(6, 16)
        f = 2.0 * m.vertices[:, 0] - 3.0 * m.vertices[:, 1] + 0.5
        g = m.triangle_gradients(f)
        np.testing.assert_allclose(g, np.tile([2.0, -3.0], (len(m.triangles), 1)), atol=1e-12)

    def test_triangle_gradients_vector_field(self):
        m = cs.build_disk_mesh(6, 16)
        F = np.stack([m.vertices[:, 0], m.vertices[:, 1], m.vertices[:, 0] + m.vertices[:, 1]], axis=1)
        g = m.triangle_gradients(F)
        assert g.shape == (len(m.triangles), 2, 3)
        np.testing.assert_allclose(g[:, 0, 0], 1.0, atol=1e-12)
        np.testing.assert_allclose(g[:, 1, 0], 0.0, atol=1e-12)
        np.testing.assert_allclose(g[:, 0, 2], 1.0, atol=1e-12)

    def test_vertex_laplacian_quadratic(self):
        # f = x^2 + y^2 has Laplacian 4; check deep interior vertices
        m = cs.build_disk_mesh(16, 48)
        f = np.sum(m.vertices**2, axis=1)
        lap = m.vertex_laplacian(f)
        r = np.linalg.norm(m.vertices, axis=1)
        deep = (r > 0.2) & (r < 0.8)
        np.testing.assert_allclose(lap[deep], 4.0, rtol=0.05)

    def test_second_derivatives_quadratic_exact(self):
        m = cs.build_disk_mesh(10, 32)
        x, y = m.vertices[:, 0], m.vertices[:, 1]
        f = 1.5 * x**2 + 0.7 * x * y - 2.0 * y**2 + x - y + 3.0
        d2 = m.second_derivatives(f)
        r = np.linalg.norm(m.vertices, axis=1)
        inner = r < 0.9
        np.testing.assert_allclose(d2[inner, 0], 3.0, atol=1e-8)
        np.testing.assert_allclose(d2[inner, 1], 0.7, atol=1e-8)
        np.testing.assert_allclose(d2[inner, 2], -4.0, atol=1e-8)

    def test_boundary_normal_derivative_radial(self):
        # f = r^2: df/dr at r=1 is 2; three-point one-sided stencil is
        # second order so quadratics in r are exact
        m = cs.build_disk_mesh(12, 32)
        f = np.sum(m.vertices**2, axis=1)
        for j in range(0, m.n_theta, 5):
            assert m.boundary_normal_derivative(f, j) == pytest.approx(2.0, abs=1e-10)

    def test_vertex_average_constant(self):
        m = cs.build_disk_mesh(6, 16)
        tri_vals = np.full(len(m.triangles), 7.0)
        np.testing.assert_allclose(m.vertex_average(tri_vals), 7.0, atol=1e-12)

    def test_adjacency_symmetric(self):
        m = cs.build_disk_mesh(5, 12)
        adj = m.adjacency()
        for v, nbrs in enumerate(adj):
            for w in nbrs:
                assert v in adj[w]


def _close(got, ref):
    """Agreement within 1e-14 relative to the reference's largest entry."""
    np.testing.assert_allclose(got, ref, rtol=0, atol=1e-14 * np.max(np.abs(ref)))


@pytest.mark.parametrize("n_r,n_theta", [(6, 12), (12, 24)])
class TestTriangleOperators:
    """The sparse operators against per-triangle gathers and scatters."""

    def test_derivative_operators(self, n_r, n_theta):
        m = cs.build_disk_mesh(n_r, n_theta)
        X = np.random.default_rng(0).normal(size=(len(m.vertices), 3))
        ref = np.einsum("tkd,tkc->tdc", m.grad_coeffs, X[m.triangles])
        _close(m.d_u @ X, ref[:, 0])
        _close(m.d_v @ X, ref[:, 1])
        _close(m.triangle_gradients(X), ref)
        _close(m.triangle_gradients(X[:, 0]), ref[:, :, 0])

    def test_load_operator(self, n_r, n_theta):
        m = cs.build_disk_mesh(n_r, n_theta)
        t = np.random.default_rng(1).normal(size=(len(m.triangles), 3))
        ref = np.zeros((len(m.vertices), 3))
        for k in range(3):
            np.add.at(ref, m.triangles[:, k], (m.areas / 3.0)[:, None] * t)
        _close(m.load_op @ t, ref)

    def test_vertex_average(self, n_r, n_theta):
        m = cs.build_disk_mesh(n_r, n_theta)
        t = np.random.default_rng(2).normal(size=(len(m.triangles), 3))
        acc = np.zeros((len(m.vertices), 3))
        wsum = np.zeros(len(m.vertices))
        for k in range(3):
            np.add.at(acc, m.triangles[:, k], m.areas[:, None] * t)
            np.add.at(wsum, m.triangles[:, k], m.areas)
        _close(m.vertex_average(t), acc / wsum[:, None])
        _close(m.vertex_average(t[:, 0]), acc[:, 0] / wsum)

    def test_centroid_operator(self, n_r, n_theta):
        m = cs.build_disk_mesh(n_r, n_theta)
        X = np.random.default_rng(3).normal(size=(len(m.vertices), 3))
        _close(m.centroid_op @ X, X[m.triangles].mean(axis=1))
