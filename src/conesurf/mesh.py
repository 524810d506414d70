"""Polar-structured triangulation of the unit disk and P1 finite-element
operators on it.

Vertex layout: index 0 is the center; ring i (1..n_r) holds n_theta vertices
at radius i/n_r, so the outermost ring lies on the unit circle and is the
(CCW-ordered) boundary.  All triangles are positively oriented.  Vertices
and triangles are invariant under rotation by 2 pi / n_theta (vertex j of
a ring goes to vertex j + 1).  The second-derivative operator uses this to
solve one fit per ring, and the interior stiffness solve to split K_II into
one tridiagonal system per Fourier mode along the rings.
"""

import numpy as np
from scipy import sparse
from scipy.linalg.lapack import zgttrf, zgttrs

from .errors import OutOfRange

# local vertex pairs (a, b) of a triangle, in the order of assembly
_PAIRS = [(a, b) for a in range(3) for b in range(3)]


class DiskMesh:
    def __init__(self, n_r, n_theta):
        if n_r < 4 or n_theta < 8:
            raise OutOfRange("need n_r >= 4 and n_theta >= 8")
        self.n_r = int(n_r)
        self.n_theta = int(n_theta)

        ang = 2.0 * np.pi * np.arange(n_theta) / n_theta
        r = (np.arange(1, n_r + 1) / n_r)[:, None]
        rings = np.stack([r * np.cos(ang), r * np.sin(ang)], axis=-1)
        self.vertices = np.vstack([np.zeros((1, 2)), rings.reshape(-1, 2)])

        # ring i (0-based) holds vertices 1 + i n_theta + j; triangles are the
        # center fan, then per ring and angle the two halves of each quad
        j = np.arange(n_theta)
        jn = (j + 1) % n_theta
        fan = np.stack([np.zeros(n_theta, dtype=int), 1 + j, 1 + jn], axis=1)
        inner = 1 + n_theta * np.arange(n_r - 1)[:, None]
        outer = inner + n_theta
        quads = np.stack([
            np.stack([inner + j, outer + j, outer + jn], axis=-1),
            np.stack([inner + j, outer + jn, inner + jn], axis=-1),
        ], axis=2)
        self.triangles = np.vstack([fan, quads.reshape(-1, 3)])

        self.boundary = 1 + (n_r - 1) * n_theta + j
        mask = np.zeros(len(self.vertices), dtype=bool)
        mask[self.boundary] = True
        self.is_boundary = mask
        self.interior = np.nonzero(~mask)[0]

        self._setup_geometry()
        self._setup_matrices()
        self._setup_triangle_operators()
        self._d2 = None
        self._k_ii = None

    # -- geometry ---------------------------------------------------------

    def _setup_geometry(self):
        p = self.vertices[self.triangles]
        e1 = p[:, 1] - p[:, 0]
        e2 = p[:, 2] - p[:, 0]
        cross = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]
        if np.any(cross <= 0):
            raise RuntimeError("triangulation is not uniformly CCW")
        self.areas = 0.5 * cross

        # gradient coefficients: grad f|_T = sum_k f_k g_k, g_k in R^2
        g0 = np.stack([p[:, 1, 1] - p[:, 2, 1], p[:, 2, 0] - p[:, 1, 0]], axis=1)
        g1 = np.stack([p[:, 2, 1] - p[:, 0, 1], p[:, 0, 0] - p[:, 2, 0]], axis=1)
        g2 = np.stack([p[:, 0, 1] - p[:, 1, 1], p[:, 1, 0] - p[:, 0, 0]], axis=1)
        self.grad_coeffs = np.stack([g0, g1, g2], axis=1) / (2.0 * self.areas)[:, None, None]

        # quadrature weights: triangle areas, with the circular-segment area
        # beyond each boundary chord credited to its adjacent triangle so the
        # weights sum to the exact disk area pi
        self.quad_weights = self.areas.copy()
        seg = 0.5 * (2.0 * np.pi / self.n_theta - np.sin(2.0 * np.pi / self.n_theta))
        self.quad_weights[self.is_boundary[self.triangles].sum(axis=1) == 2] += seg

    def _setup_matrices(self):
        g = self.grad_coeffs
        self.stiffness = self._assemble(
            [self.areas * np.einsum("ij,ij->i", g[:, a], g[:, b]) for a, b in _PAIRS]
        )
        self.mass = self.weighted_mass(1.0)
        self.lumped_mass = np.asarray(self.mass.sum(axis=1)).ravel()

    def _assemble(self, local):
        """(nv x nv) CSR matrix summing local[k][t] into the entry of the
        vertex pair _PAIRS[k] of triangle t."""
        tris = self.triangles
        rows = np.concatenate([tris[:, a] for a, _ in _PAIRS])
        cols = np.concatenate([tris[:, b] for _, b in _PAIRS])
        nv = len(self.vertices)
        return sparse.csr_matrix((np.concatenate(local), (rows, cols)), shape=(nv, nv))

    def weighted_mass(self, tri_weight):
        """P1 mass matrix of int w phi_a phi_b for a weight w that is
        constant on each triangle (a scalar or an (nt,) array): w area / 12
        per vertex pair, doubled on the diagonal."""
        w = np.broadcast_to(tri_weight * self.areas / 12.0, len(self.triangles))
        return self._assemble([w * (2.0 if a == b else 1.0) for a, b in _PAIRS])

    def _setup_triangle_operators(self):
        """Sparse gather and scatter between vertices and triangles:
        d_u, d_v and centroid_op (nt x nv) map vertex values to per-triangle
        derivatives and centroid values, and triangle_gather (3 nt x nv)
        stacks the three for one product; load_op (nv x nt) spreads
        per-triangle values to the triangle's vertices with weight area/3,
        the P1 load vector of a piecewise-constant density."""
        nv, nt = len(self.vertices), len(self.triangles)
        indptr = np.arange(0, 3 * nt + 1, 3)
        cols = self.triangles.ravel()

        def gather(data):
            return sparse.csr_matrix((data, cols, indptr), shape=(nt, nv))

        self.d_u = gather(self.grad_coeffs[:, :, 0].ravel())
        self.d_v = gather(self.grad_coeffs[:, :, 1].ravel())
        self.centroid_op = gather(np.full(3 * nt, 1.0 / 3.0))
        self.triangle_gather = sparse.vstack([self.d_u, self.d_v, self.centroid_op],
                                             format="csr")
        self.load_op = gather(np.repeat(self.areas / 3.0, 3)).T.tocsr()

    # -- derivative helpers ----------------------------------------------

    def vertex_average(self, tri_values):
        """Area-weighted average of per-triangle values onto vertices.  The
        weights are load_op's row sums, which are the lumped mass."""
        tri_values = np.asarray(tri_values, dtype=float)
        w = self.lumped_mass.reshape((-1,) + (1,) * (tri_values.ndim - 1))
        return (self.load_op @ tri_values) / w

    def _neighbor_pattern(self):
        """Vertex adjacency from the triangle edges: a symmetric CSR
        pattern with sorted indices and an empty diagonal."""
        nv = len(self.vertices)
        a = self.triangles.T.ravel()
        b = self.triangles[:, [1, 2, 0]].T.ravel()
        pattern = sparse.csr_matrix(
            (np.ones(2 * len(a)), (np.concatenate([a, b]), np.concatenate([b, a]))),
            shape=(nv, nv),
        )
        pattern.sum_duplicates()
        return pattern

    def second_derivative_operator(self):
        """Sparse (3 nv x nv) operator D2 with (D2 @ f)[3 i + c] the c-th of
        (f_uu, f_uv, f_vv) at vertex i, by local quadratic least squares
        over the two-ring neighborhood.  Built on first use and cached.

        The neighborhood comes from the triangle connectivity (the stiffness
        matrix can hold exact zeros).  The polar layout is invariant under
        rotation by 2 pi / n_theta, so vertex j of a ring has the two-ring of
        the ring's vertex 0 rotated by phi_j = 2 pi j / n_theta, with ring
        indices shifted by j.  One fit per ring gives H_loc = (f_uu, f_uv,
        f_vv) in the frame of vertex 0, and vertex j's rows are those of
        R(phi_j) H_loc R(phi_j)^T.  The rows are written straight into CSR
        arrays."""
        if self._d2 is None:
            n_r, n_theta = self.n_r, self.n_theta
            nv = len(self.vertices)
            heads = np.concatenate([[0], 1 + n_theta * np.arange(n_r)])
            copies = np.concatenate([[1], np.full(n_r, n_theta)])
            adj = self._neighbor_pattern()
            near = adj[heads]
            # each head's two-ring and the head itself (it neighbors a neighbor)
            ring2 = near @ adj + near
            ring2.sort_indices()
            # row 3 i + c holds vertex i's two-ring, then i itself
            indptr = np.zeros(3 * nv + 1, dtype=np.int32)
            np.cumsum(np.repeat(np.diff(ring2.indptr), 3 * copies), out=indptr[1:])
            indices = np.empty(indptr[-1], dtype=np.int32)
            data = np.empty(indptr[-1])

            ang = 2.0 * np.pi * np.arange(n_theta) / n_theta
            c, s = np.cos(ang), np.sin(ang)
            rot = np.stack([  # (n_theta, 3, 3): (uu, uv, vv) of H_loc -> of H
                np.stack([c * c, -2.0 * c * s, s * s], axis=-1),
                np.stack([c * s, c * c - s * s, -c * s], axis=-1),
                np.stack([s * s, 2.0 * c * s, c * c], axis=-1),
            ], axis=1)
            for r, (head, n) in enumerate(zip(heads, copies)):
                idx = ring2.indices[ring2.indptr[r]:ring2.indptr[r + 1]]
                idx = idx[idx != head]
                d = self.vertices[idx] - self.vertices[head]
                du, dv = d[:, 0], d[:, 1]
                A = np.stack([np.ones_like(du), du, dv,
                              0.5 * du**2, du * dv, 0.5 * dv**2], axis=-1)
                W = np.linalg.pinv(A)[3:]  # (3, k)
                W = np.concatenate([W, -W.sum(axis=1, keepdims=True)], axis=1)
                cols = np.append(idx, head)
                # ring and angle of each column, shifted by j for vertex j of
                # the ring; the center (ring 0) stays put
                ring, angle = np.divmod(cols - 1, n_theta)
                shift = np.arange(n)[:, None]
                moved = np.where(cols == 0, 0, 1 + ring * n_theta + (angle + shift) % n_theta)
                block = slice(indptr[3 * head], indptr[3 * (head + n)])
                data[block] = (rot[:n] @ W).ravel()
                indices[block] = np.repeat(moved, 3, axis=0).ravel()
            self._d2 = sparse.csr_matrix((data, indices, indptr), shape=(3 * nv, nv))
        return self._d2

    def second_derivatives(self, values):
        """Per-vertex (f_uu, f_uv, f_vv) of a vertex field, see
        second_derivative_operator.  Rows for boundary vertices use
        one-sided neighborhoods and are less accurate.

        values: (nv,) or (nv, m); returns (nv, 3) or (nv, 3, m).
        """
        v = np.asarray(values, dtype=float)
        return (self.second_derivative_operator() @ v).reshape((-1, 3) + v.shape[1:])

    def boundary_normal_derivative(self, values, j):
        """One-sided second-order radial derivative d/d nu at boundary
        vertex j of the outer ring, along the mesh radial line."""
        h = 1.0 / self.n_r
        n_theta = self.n_theta
        vb = values[self.boundary[j]]
        v1 = values[1 + (self.n_r - 2) * n_theta + (j % n_theta)]
        v2 = values[1 + (self.n_r - 3) * n_theta + (j % n_theta)]
        return (3.0 * vb - 4.0 * v1 + v2) / (2.0 * h)

    # -- interior stiffness solve -------------------------------------------

    def interior_stiffness_modes(self):
        """The interior stiffness K_II in Fourier modes along the rings: the
        diagonals (dl, d, du) of one complex tridiagonal matrix that stacks
        n_theta // 2 + 1 mode systems of n_r rows each (row 0, then rings
        1..n_r-1).

        The interior vertices are the center and rings 1..n_r-1.  By the
        rotation invariance, vertex j of ring a couples to vertex j + s of
        ring b in {a-1, a, a+1} with the coefficient c_ab[s] of the
        stiffness row of the ring's vertex 0, so the rfft of the ring values
        is multiplied mode by mode by m_ab(k) = conj(rfft(c_ab))[k].  The
        center couples only to mode 0: row 0 of mode 0 is the center's row
        and ring 1 sees it with weight n_theta K[ring 1, 0].  Row 0 of every
        other mode is a unit row decoupled from the rest."""
        n_r, n_theta = self.n_r, self.n_theta
        K = self.stiffness
        heads = 1 + n_theta * np.arange(n_r - 1)  # vertex 0 of rings 1..n_r-1
        rows = K[heads].tocoo()
        ring, s = np.divmod(rows.col - 1, n_theta)  # 0-based ring, angle shift
        keep = (rows.col > 0) & (ring < n_r - 1)
        # c[a - 1, b - a + 1] holds c_ab for ring a and b = a-1, a, a+1
        c = np.zeros((n_r - 1, 3, n_theta))
        c[rows.row[keep], (ring - rows.row + 1)[keep], s[keep]] = rows.data[keep]

        # (lower, diagonal, upper) coefficient of every row of every mode
        modes = np.zeros((n_theta // 2 + 1, n_r, 3), dtype=complex)
        modes[:, 1:] = np.conj(np.fft.rfft(c, axis=-1)).transpose(2, 0, 1)
        modes[0, 0, 1:] = K[0, 0], K[0, heads[0]]
        modes[0, 1, 0] = n_theta * K[heads[0], 0]
        modes[1:, 0, 1] = 1.0
        lower, diagonal, upper = modes.reshape(-1, 3).T
        return lower[1:], diagonal, upper[:-1]

    def solve_interior_stiffness(self, b):
        """x with K_II x = b, for b of shape (n_interior,) or (n_interior, k)
        in the order of `interior`.  The stacked tridiagonal matrix of
        `interior_stiffness_modes` is factored (zgttrf, partial pivoting) on
        first use and cached; a solve is an rfft along the rings, one zgttrs
        with k right-hand sides and an irfft back."""
        if self._k_ii is None:
            *factors, info = zgttrf(*self.interior_stiffness_modes())
            if info:
                raise np.linalg.LinAlgError("interior stiffness is singular")
            self._k_ii = factors
        n_r, n_theta = self.n_r, self.n_theta
        b = np.asarray(b, dtype=float)
        cols = b.reshape(len(b), -1)
        k = cols.shape[1]
        # column-major (rows, k) right-hand sides, as zgttrs works in place
        rhs = np.zeros((k, n_theta // 2 + 1, n_r), dtype=complex)
        rhs[:, 0, 0] = cols[0]
        rhs[:, :, 1:] = np.fft.rfft(cols[1:].reshape(n_r - 1, n_theta, k), axis=1).T
        y, _ = zgttrs(*self._k_ii, rhs.reshape(k, -1).T, overwrite_b=True)
        y = y.T.reshape(rhs.shape)
        x = np.empty_like(cols)
        x[0] = y[:, 0, 0].real
        x[1:] = np.fft.irfft(y[:, :, 1:], n=n_theta, axis=1).T.reshape(-1, k)
        return x.reshape(b.shape)


def build_disk_mesh(n_r, n_theta):
    return DiskMesh(n_r, n_theta)
