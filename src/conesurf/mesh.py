"""Polar-structured triangulation of the unit disk and P1 finite-element
operators on it.

Vertex layout: index 0 is the center; ring i (1..n_r) holds n_theta vertices
at radius i/n_r, so the outermost ring lies on the unit circle and is the
(CCW-ordered) boundary.  All triangles are positively oriented.
"""

import numpy as np
from scipy import sparse

from .errors import OutOfRange


class DiskMesh:
    def __init__(self, n_r, n_theta):
        if n_r < 4 or n_theta < 8:
            raise OutOfRange("need n_r >= 4 and n_theta >= 8")
        self.n_r = int(n_r)
        self.n_theta = int(n_theta)

        verts = [np.zeros(2)]
        for i in range(1, n_r + 1):
            r = i / n_r
            ang = 2.0 * np.pi * np.arange(n_theta) / n_theta
            ring = np.stack([r * np.cos(ang), r * np.sin(ang)], axis=1)
            verts.append(ring)
        self.vertices = np.vstack([verts[0][None, :], *verts[1:]])

        def vid(i, j):
            return 1 + (i - 1) * n_theta + (j % n_theta)

        tris = []
        for j in range(n_theta):
            tris.append((0, vid(1, j), vid(1, j + 1)))
        for i in range(1, n_r):
            for j in range(n_theta):
                tris.append((vid(i, j), vid(i + 1, j), vid(i + 1, j + 1)))
                tris.append((vid(i, j), vid(i + 1, j + 1), vid(i, j + 1)))
        self.triangles = np.asarray(tris, dtype=int)

        self.boundary = np.array([vid(n_r, j) for j in range(n_theta)], dtype=int)
        mask = np.zeros(len(self.vertices), dtype=bool)
        mask[self.boundary] = True
        self.is_boundary = mask
        self.interior = np.nonzero(~mask)[0]

        self._setup_geometry()
        self._setup_matrices()
        self._setup_triangle_operators()
        self._adjacency = None

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
        bset = set(self.boundary.tolist())
        for t, tri in enumerate(self.triangles):
            if sum(v in bset for v in tri) == 2:
                self.quad_weights[t] += seg

        self.centroids = p.mean(axis=1)

    def _setup_matrices(self):
        nv = len(self.vertices)
        tris = self.triangles
        rows, cols, k_vals, m_vals = [], [], [], []
        for a in range(3):
            for b in range(3):
                rows.append(tris[:, a])
                cols.append(tris[:, b])
                gg = np.einsum("ij,ij->i", self.grad_coeffs[:, a], self.grad_coeffs[:, b])
                k_vals.append(self.areas * gg)
                m_vals.append(self.areas / 12.0 * (2.0 if a == b else 1.0))
        rows = np.concatenate(rows)
        cols = np.concatenate(cols)
        self.stiffness = sparse.csr_matrix(
            (np.concatenate(k_vals), (rows, cols)), shape=(nv, nv)
        )
        m_vals = [np.broadcast_to(v, tris.shape[0]) for v in m_vals]
        self.mass = sparse.csr_matrix(
            (np.concatenate(m_vals), (rows, cols)), shape=(nv, nv)
        )
        self.lumped_mass = np.asarray(self.mass.sum(axis=1)).ravel()

    def _setup_triangle_operators(self):
        """Sparse gather and scatter between vertices and triangles:
        d_u, d_v and centroid_op (nt x nv) map vertex values to per-triangle
        derivatives and centroid values; load_op (nv x nt) spreads
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
        self.load_op = gather(np.repeat(self.areas / 3.0, 3)).T.tocsr()

    # -- derivative helpers ----------------------------------------------

    def triangle_gradients(self, values):
        """Per-triangle (d/du, d/dv) of a vertex field.

        values: (nv,) or (nv, m); returns (nt, 2) or (nt, 2, m).
        """
        v = np.asarray(values, dtype=float)
        return np.stack([self.d_u @ v, self.d_v @ v], axis=1)

    def vertex_average(self, tri_values):
        """Area-weighted average of per-triangle values onto vertices.  The
        weights are load_op's row sums, which are the lumped mass."""
        tri_values = np.asarray(tri_values, dtype=float)
        w = self.lumped_mass.reshape((-1,) + (1,) * (tri_values.ndim - 1))
        return (self.load_op @ tri_values) / w

    def vertex_laplacian(self, values):
        """Discrete Laplacian -(K f) / lumped mass; valid at interior rows."""
        v = np.asarray(values, dtype=float)
        kv = self.stiffness @ v
        if v.ndim == 1:
            return -kv / self.lumped_mass
        return -kv / self.lumped_mass[:, None]

    def adjacency(self):
        if self._adjacency is None:
            adj = [set() for _ in range(len(self.vertices))]
            for tri in self.triangles:
                a, b, c = tri
                adj[a].update((b, c))
                adj[b].update((a, c))
                adj[c].update((a, b))
            self._adjacency = [np.array(sorted(s)) for s in adj]
        return self._adjacency

    def second_derivatives(self, values):
        """Per-vertex (f_uu, f_uv, f_vv) by local quadratic least squares
        over the two-ring neighborhood.  Rows for boundary vertices use
        one-sided neighborhoods and are less accurate."""
        v = np.asarray(values, dtype=float)
        scalar = v.ndim == 1
        if scalar:
            v = v[:, None]
        adj = self.adjacency()
        nv = len(self.vertices)
        out = np.zeros((nv, 3, v.shape[1]))
        for i in range(nv):
            nbrs = set(adj[i])
            for j in list(nbrs):
                nbrs.update(adj[j])
            nbrs.discard(i)
            idx = np.array(sorted(nbrs))
            d = self.vertices[idx] - self.vertices[i]
            A = np.column_stack([
                np.ones(len(idx)), d[:, 0], d[:, 1],
                0.5 * d[:, 0] ** 2, d[:, 0] * d[:, 1], 0.5 * d[:, 1] ** 2,
            ])
            rhs = v[idx] - v[i]
            coef, *_ = np.linalg.lstsq(A, rhs, rcond=None)
            out[i, 0] = coef[3]
            out[i, 1] = coef[4]
            out[i, 2] = coef[5]
        if scalar:
            return out[:, :, 0]
        return out

    def boundary_normal_derivative(self, values, j):
        """One-sided second-order radial derivative d/d nu at boundary
        vertex j of the outer ring, along the mesh radial line."""
        h = 1.0 / self.n_r
        n_theta = self.n_theta
        vb = values[self.boundary[j]]
        v1 = values[1 + (self.n_r - 2) * n_theta + (j % n_theta)]
        v2 = values[1 + (self.n_r - 3) * n_theta + (j % n_theta)]
        return (3.0 * vb - 4.0 * v1 + v2) / (2.0 * h)


def build_disk_mesh(n_r, n_theta):
    return DiskMesh(n_r, n_theta)
