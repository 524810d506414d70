import warnings

import numpy as np
import pytest
from reference_operators import element_operators, interior_block, neighbor_pattern
from scipy import sparse
from scipy.sparse.linalg import splu

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

    @pytest.mark.parametrize("n_r,n_theta", [(4, 8), (5, 9), (7, 20), (7, 21)])
    def test_interior_is_a_prefix(self, n_r, n_theta):
        # the stability eigen-solve slices the interior block as [:n, :n]
        m = cs.build_disk_mesh(n_r, n_theta)
        nv = len(m.vertices)
        assert np.array_equal(m.interior, np.arange(len(m.interior)))
        assert np.array_equal(m.boundary, np.arange(nv - n_theta, nv))


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
        np.testing.assert_allclose(m.lumped_mass, m.mass @ ones)

    def test_weighted_mass_matches_element_loop(self):
        m = cs.build_disk_mesh(4, 8)
        w = np.random.default_rng(3).uniform(-1.0, 2.0, len(m.triangles))
        ref = np.zeros((len(m.vertices),) * 2)
        local = (np.ones((3, 3)) + np.eye(3)) / 12.0
        for t, tri in enumerate(m.triangles):
            ref[np.ix_(tri, tri)] += w[t] * m.areas[t] * local
        eye = np.eye(len(m.vertices))
        np.testing.assert_allclose(m.weighted_mass(w) @ eye, ref, rtol=0, atol=1e-15)
        np.testing.assert_array_equal(m.weighted_mass(1.0) @ eye, m.mass @ eye)

    def test_derivative_operators_linear_exact(self):
        m = cs.build_disk_mesh(6, 16)
        f = 2.0 * m.vertices[:, 0] - 3.0 * m.vertices[:, 1] + 0.5
        g = np.column_stack([m.d_u @ f, m.d_v @ f])
        np.testing.assert_allclose(g, np.tile([2.0, -3.0], (len(m.triangles), 1)), atol=1e-12)

    def test_derivative_operators_vector_field(self):
        m = cs.build_disk_mesh(6, 16)
        F = np.stack([m.vertices[:, 0], m.vertices[:, 1], m.vertices[:, 0] + m.vertices[:, 1]], axis=1)
        g_u, g_v = m.d_u @ F, m.d_v @ F
        assert g_u.shape == g_v.shape == (len(m.triangles), 3)
        np.testing.assert_allclose(g_u[:, 0], 1.0, atol=1e-12)
        np.testing.assert_allclose(g_v[:, 0], 0.0, atol=1e-12)
        np.testing.assert_allclose(g_u[:, 2], 1.0, atol=1e-12)

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


def _close(got, ref):
    """Agreement within 1e-14 relative to the reference's largest entry."""
    np.testing.assert_allclose(got, ref, rtol=0, atol=1e-14 * np.max(np.abs(ref)))


@pytest.mark.parametrize("n_r,n_theta", [(6, 12), (12, 24)])
class TestTriangleOperators:
    """The ring-block operators against per-triangle gathers and scatters."""

    def test_derivative_operators(self, n_r, n_theta):
        m = cs.build_disk_mesh(n_r, n_theta)
        X = np.random.default_rng(0).normal(size=(len(m.vertices), 3))
        ref = np.einsum("tkd,tkc->tdc", m.grad_coeffs, X[m.triangles])
        _close(m.d_u @ X, ref[:, 0])
        _close(m.d_v @ X, ref[:, 1])
        _close(m.d_u @ X[:, 0], ref[:, 0, 0])
        _close(m.d_v @ X[:, 0], ref[:, 1, 0])

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


def reference_mesh(n_r, n_theta):
    """Vertices, triangles and boundary built point by point and triangle
    by triangle."""
    verts = [np.zeros((1, 2))]
    for i in range(1, n_r + 1):
        r = i / n_r
        ang = 2.0 * np.pi * np.arange(n_theta) / n_theta
        verts.append(np.stack([r * np.cos(ang), r * np.sin(ang)], axis=1))

    def vid(i, j):
        return 1 + (i - 1) * n_theta + (j % n_theta)

    tris = [(0, vid(1, j), vid(1, j + 1)) for j in range(n_theta)]
    for i in range(1, n_r):
        for j in range(n_theta):
            tris.append((vid(i, j), vid(i + 1, j), vid(i + 1, j + 1)))
            tris.append((vid(i, j), vid(i + 1, j + 1), vid(i, j + 1)))
    boundary = np.array([vid(n_r, j) for j in range(n_theta)])
    return np.vstack(verts), np.asarray(tris, dtype=int), boundary


def reference_second_derivatives(mesh, values):
    """Per-vertex quadratic least squares, one lstsq per vertex over its
    two-ring taken from the triangle connectivity."""
    adj = [set() for _ in range(len(mesh.vertices))]
    for a, b, c in mesh.triangles:
        adj[a].update((b, c))
        adj[b].update((a, c))
        adj[c].update((a, b))
    v = np.asarray(values, dtype=float)
    out = np.zeros((len(mesh.vertices), 3) + v.shape[1:])
    for i in range(len(mesh.vertices)):
        nbrs = set(adj[i])
        for j in adj[i]:
            nbrs |= adj[j]
        nbrs.discard(i)
        idx = np.array(sorted(nbrs))
        d = mesh.vertices[idx] - mesh.vertices[i]
        A = np.column_stack([
            np.ones(len(idx)), d[:, 0], d[:, 1],
            0.5 * d[:, 0] ** 2, d[:, 0] * d[:, 1], 0.5 * d[:, 1] ** 2,
        ])
        coef, *_ = np.linalg.lstsq(A, v[idx] - v[i], rcond=None)
        out[i] = coef[3:]
    return out, adj


@pytest.mark.parametrize("n_r,n_theta", [(4, 8), (6, 12), (12, 24), (48, 96)])
def test_construction_matches_loops(n_r, n_theta):
    m = cs.build_disk_mesh(n_r, n_theta)
    verts, tris, boundary = reference_mesh(n_r, n_theta)
    np.testing.assert_array_equal(m.vertices, verts)
    np.testing.assert_array_equal(m.triangles, tris)
    np.testing.assert_array_equal(m.boundary, boundary)
    # each boundary chord's circular segment goes to its one triangle
    seg = 0.5 * (2.0 * np.pi / n_theta - np.sin(2.0 * np.pi / n_theta))
    weights = m.areas.copy()
    bset = set(boundary.tolist())
    for t, tri in enumerate(tris):
        if sum(v in bset for v in tri) == 2:
            weights[t] += seg
    np.testing.assert_array_equal(m.quad_weights, weights)


def reference_second_derivative_operator(mesh, batch=512):
    """The operator from one pseudo-inverse per vertex, batched over the
    vertices with the same two-ring size, without using the rotational
    symmetry of the mesh: row 3 i + c holds vertex i's sorted two-ring,
    then i itself."""
    nv = len(mesh.vertices)
    adj = neighbor_pattern(mesh)
    ring2 = (adj @ adj + adj).tocsr()
    ring2.setdiag(0)
    ring2.eliminate_zeros()
    ring2.sort_indices()
    sizes = np.diff(ring2.indptr)
    indptr = np.concatenate([[0], np.cumsum(np.repeat(sizes + 1, 3))])
    indices = np.empty(indptr[-1], dtype=int)
    data = np.empty(indptr[-1])
    for k in np.unique(sizes):
        same = np.nonzero(sizes == k)[0]
        for start in range(0, len(same), batch):
            center = same[start:start + batch]
            idx = ring2.indices[ring2.indptr[center][:, None] + np.arange(k)]
            d = mesh.vertices[idx] - mesh.vertices[center][:, None, :]
            du, dv = d[..., 0], d[..., 1]
            A = np.stack([np.ones_like(du), du, dv,
                          0.5 * du**2, du * dv, 0.5 * dv**2], axis=-1)
            W = np.linalg.pinv(A)[:, 3:, :]
            pos = indptr[3 * center[:, None] + np.arange(3)][:, :, None] + np.arange(k + 1)
            data[pos] = np.concatenate([W, -W.sum(axis=-1, keepdims=True)], axis=-1)
            indices[pos] = np.concatenate([idx, center[:, None]], axis=1)[:, None, :]
    return sparse.csr_matrix((data, indices, indptr), shape=(3 * nv, nv))


# n_r = 4, 5, 6 leave 0, 1 and 2 rows to the batched fit of the shared
# two-ring shape (rows 3..n_r-2)
@pytest.mark.parametrize("n_r,n_theta", [(4, 8), (5, 10), (6, 12), (12, 24), (48, 96)])
def test_second_derivative_operator_matches_per_vertex_fits(n_r, n_theta):
    m = cs.build_disk_mesh(n_r, n_theta)
    D2 = m.second_derivative_operator()
    ref = reference_second_derivative_operator(m)
    assert D2.shape == ref.shape
    F = np.random.default_rng(n_r).standard_normal((len(m.vertices), 3))
    for f in (F, F[:, 1]):
        want = ref @ f
        np.testing.assert_allclose(D2 @ f, want, rtol=0, atol=1e-13 * np.max(abs(ref) @ abs(f)))
    if n_r <= 6:
        # every entry, the zeros outside the two-rings included
        eye = np.eye(len(m.vertices))
        np.testing.assert_allclose(D2 @ eye, ref.toarray(), rtol=0,
                                   atol=1e-13 * np.max(np.abs(ref.data)))


@pytest.mark.parametrize("n_r,n_theta",
                         [(4, 8), (5, 9), (4, 13), (6, 12), (7, 20), (12, 24), (48, 96)])
def test_second_derivative_operator_matches_lstsq(n_r, n_theta):
    m = cs.build_disk_mesh(n_r, n_theta)
    x, y = m.vertices[:, 0], m.vertices[:, 1]
    F = np.stack([np.sin(2.0 * x + y), np.exp(x) * np.cos(3.0 * y), x**3 - x * y**2], axis=1)
    ref, adj = reference_second_derivatives(m, F)
    tol = 1e-11 * np.max(np.abs(ref))
    np.testing.assert_allclose(m.second_derivatives(F), ref, rtol=0, atol=tol)
    np.testing.assert_allclose(m.second_derivatives(F[:, 0]), ref[:, :, 0], rtol=0,
                               atol=1e-11 * np.max(np.abs(ref[:, :, 0])))
    # the two-rings the fits are built on, against the triangle connectivity
    for r in range(n_r + 1):
        head = m._head(r)
        want = set().union(adj[head], *(adj[v] for v in adj[head])) - {head}
        assert m._two_ring(r).tolist() == sorted(want)


def test_second_derivative_operator_is_lazy_and_cached(flat_disk_curve, monkeypatch):
    m = cs.build_disk_mesh(6, 12)
    D2 = m.second_derivative_operator()
    assert D2.shape == (3 * len(m.vertices), len(m.vertices))
    assert m.second_derivative_operator() is D2

    def refuse(self):
        raise AssertionError("solve built the second-derivative operator")

    monkeypatch.setattr(cs.DiskMesh, "second_derivative_operator", refuse)
    curve, _ = flat_disk_curve
    cs.solve(cs.build_disk_mesh(6, 12), curve, cs.CurvatureField("zero"))


def interior_stiffness(mesh):
    """K_II from the element-loop stiffness."""
    return interior_block(element_operators(mesh)["stiffness"], mesh)


def max_abs(a):
    return np.max(np.abs(a))


# A backward-stable solve leaves a normwise backward error of a modest
# multiple of the unit round-off 2.2e-16; 3.9e-15 was the largest seen up
# to (96, 192) with three right-hand sides.
BACKWARD_ERROR_BOUND = 1e-14


@pytest.mark.parametrize("n_r,n_theta", [(4, 8), (5, 9), (7, 20), (7, 21), (12, 24), (48, 96)])
@pytest.mark.parametrize("shape", [(), (3,)])
def test_interior_stiffness_solve_matches_splu(n_r, n_theta, shape):
    m = cs.build_disk_mesh(n_r, n_theta)
    K = interior_stiffness(m)
    b = np.random.default_rng(n_r * n_theta).standard_normal((len(m.interior),) + shape)
    x = m.solve_interior_stiffness(b)
    assert x.shape == b.shape
    x_lu = splu(K, permc_spec="MMD_AT_PLUS_A").solve(b)
    K_norm = np.max(abs(K).sum(axis=1))
    for y in (x, x_lu):
        assert max_abs(K @ y - b) / (K_norm * max_abs(y) + max_abs(b)) < BACKWARD_ERROR_BOUND
    # two backward-stable solves differ by at most about 2 cond(K_II) times
    # the bound, and cond(K_II) in the inf-norm is 4.2e4 at (48, 96)
    assert max_abs(x - x_lu) < 1e-9 * max_abs(x_lu)


@pytest.mark.parametrize("n_r,n_theta", [(4, 8), (5, 9), (7, 20), (12, 24), (48, 96)])
def test_interior_stiffness_modes_reproduce_the_product(n_r, n_theta):
    m = cs.build_disk_mesh(n_r, n_theta)
    dl, d, du = m.interior_stiffness_modes()
    n_modes = n_theta // 2 + 1
    assert len(d) == n_modes * n_r
    x = np.random.default_rng(0).standard_normal(len(m.interior))
    # the center, then the rfft of each interior ring, mode by mode
    v = np.zeros((n_modes, n_r), dtype=complex)
    v[0, 0] = x[0]
    v[:, 1:] = np.fft.rfft(x[1:].reshape(n_r - 1, n_theta), axis=1).T
    v = v.ravel()
    y = d * v
    y[1:] += dl * v[:-1]
    y[:-1] += du * v[1:]
    y = y.reshape(n_modes, n_r)
    Kx = np.concatenate([[y[0, 0].real], np.fft.irfft(y[:, 1:], n=n_theta, axis=0).T.ravel()])
    K = interior_stiffness(m)
    # round-off of the FFTs: at most 3.9e-15 of ||K_II|| ||x|| up to (48, 96)
    assert max_abs(Kx - K @ x) < 1e-14 * np.max(abs(K).sum(axis=1)) * max_abs(x)
    # the unit rows of the modes above 0 carry no value
    assert np.all(np.abs(y[1:, 0]) == 0)


def test_interior_stiffness_factor_is_lazy_and_cached(monkeypatch):
    m = cs.build_disk_mesh(6, 12)
    assert m._k_ii is None
    b = np.ones(len(m.interior))
    x = m.solve_interior_stiffness(b)

    def refuse(self):
        raise AssertionError("the interior stiffness was factored twice")

    monkeypatch.setattr(cs.DiskMesh, "interior_stiffness_modes", refuse)
    np.testing.assert_array_equal(m.solve_interior_stiffness(b), x)


@pytest.fixture(scope="module", params=[(4, 8), (7, 21), (12, 24), (96, 192)],
                ids=lambda s: f"{s[0]}x{s[1]}")
def mesh_and_reference(request):
    """A mesh, a per-triangle weight and the element-loop operators."""
    m = cs.build_disk_mesh(*request.param)
    w = np.random.default_rng(5).uniform(-1.0, 2.0, len(m.triangles))
    return m, w, element_operators(m, w)


@pytest.mark.parametrize("name", ["stiffness", "mass", "weighted_mass", "d_u", "d_v",
                                  "centroid_op", "load_op"])
@pytest.mark.parametrize("columns", [None, 1, 3])
def test_stencils_match_element_loops(mesh_and_reference, name, columns):
    # every ring-block operator, on 1-D and multi-column inputs, against the
    # sum over triangles of the local matrices; they differ by the round-off
    # of the sums, at most 3.0e-16 of max |ref| |x| up to (96, 192)
    m, w, ref = mesh_and_reference
    op = m.weighted_mass(w) if name == "weighted_mass" else getattr(m, name)
    want = ref[name]
    assert op.shape == want.shape
    shape = (want.shape[1],) if columns is None else (want.shape[1], columns)
    x = np.random.default_rng(len(name)).standard_normal(shape)
    got = op @ x
    assert got.shape == (want.shape[0],) + shape[1:]
    scale = abs(want) @ abs(x)
    np.testing.assert_allclose(got, want @ x, rtol=0, atol=1e-14 * np.max(scale))
    # the kernels' work arrays are kept between calls and leave no trace
    np.testing.assert_array_equal(op @ x, got)


def test_triangle_gather_stacks_the_three_gathers(mesh_and_reference):
    m, _, _ = mesh_and_reference
    X = np.random.default_rng(9).standard_normal((len(m.vertices), 3))
    stacked = (m.triangle_gather @ X).reshape(3, -1, 3)
    for part, op in zip(stacked, (m.d_u, m.d_v, m.centroid_op)):
        np.testing.assert_array_equal(part, op @ X)


def test_singular_mode_pivot_raises_at_factor_time(monkeypatch):
    # a zero pivot (the center row) and a non-finite one raise LinAlgError
    # naming the row, with no warning from the elimination
    m = cs.build_disk_mesh(6, 12)
    dl, d, du = m.interior_stiffness_modes()
    for row, bad in ((0, 0.0), (3, np.nan)):
        d_bad = d.copy()
        d_bad[row] = bad
        m._k_ii = None
        m._plans.clear()
        monkeypatch.setattr(m, "interior_stiffness_modes", lambda: (dl, d_bad, du))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(np.linalg.LinAlgError, match=f"row {row}"):
                m.solve_interior_stiffness(np.ones(len(m.interior)))
