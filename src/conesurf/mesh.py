"""Polar-structured triangulation of the unit disk and P1 finite-element
operators on it, applied as per-ring stencils.

Vertex layout: index 0 is the center; ring i (1..n_r) holds n_theta vertices
at radius i/n_r, so the outermost ring lies on the unit circle and is the
(CCW-ordered) boundary.  The interior vertices (center and rings 1..n_r-1)
are therefore the prefix 0 .. n-1 and the boundary ring is the last n_theta
vertices, so the interior block of an operator is its leading n rows and
columns.  All triangles are positively oriented.

Polar block.  An (nv, k) vertex array is the center plus the (n_r, n_theta,
k) block of its rings, a view of its rows 1..nv-1; the kernels hold it
coordinate-major, (k, rows, columns).  Row r of the block is ring r, and
row 0 is the center repeated along the ring.  Quad (r, j), r = 0 .. n_r - 1,
spans rows r and r + 1 and columns j and j + 1 (mod n_theta); its two
triangles have the corners _SLOTS of _CORNERS, relative to (r, j).  On row
0 the first is fan triangle j and the second is empty.  The mesh is
invariant under rotation by 2 pi / n_theta (vertex j of a ring goes to
vertex j + 1), so the Fourier-mode systems of the interior stiffness solve
and the second-derivative fits take one set of coefficients per row, from
column 0.  The 7-point stiffness stencil keeps one coefficient per vertex
and offset, summed from the vertex's triangles, and the derivative
coefficients, which turn with the column, are kept per triangle.

Every operator is a `LinearMap`, applied with `@` to (n,) or (n, k)
arrays: d_u, d_v, centroid_op and triangle_gather gather vertex values
into per-triangle values, load_op scatters per-triangle values back,
stiffness is the 7-point stencil, weighted_mass is built from the centroid
gather and the load scatter, and the second-derivative operator combines
the per-row fits with a per-column rotation.  The kernels keep their work
arrays with the mesh, so one mesh's operators must not be applied from two
threads at once.  The interior stiffness K_II is solved by a DFT along the
rings and a batched Thomas solve of one tridiagonal system per Fourier
mode, factored once per mesh.
"""

import numpy as np

from .errors import OutOfRange

# (row, column) of the corners of quad (r, j), relative to (r, j), and the
# corners of its two triangles in the vertex order of `triangles`
_CORNERS = ((0, 0), (1, 0), (1, 1), (0, 1))
_SLOTS = ((0, 1, 2), (0, 2, 3))
# (row, column) offsets of the 7-point stencil: a vertex and its neighbors
_STENCIL = ((0, 0), (0, 1), (0, -1), (1, 0), (-1, 0), (1, 1), (-1, -1))
# (row, column) offsets of a ring vertex's two-ring away from the center
# and the boundary: the sums of two neighbor offsets, other than (0, 0)
_TWO_RING = np.array(sorted({(a + c, b + d) for a, b in _STENCIL for c, d in _STENCIL} - {(0, 0)}))


class LinearMap:
    """A linear map of the given shape, applied with `@` to an (n,) or
    (n, k) array; `apply` maps (n, k) arrays to (m, k) arrays."""

    def __init__(self, shape, apply):
        self.shape = shape
        self._apply = apply

    def __matmul__(self, x):
        x = np.asarray(x, dtype=float)
        return self._apply(x.reshape(len(x), -1)).reshape((-1,) + x.shape[1:])


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
        self._setup_operators()
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

    # -- operators --------------------------------------------------------

    def _setup_operators(self):
        nv, nt = len(self.vertices), len(self.triangles)
        # per-triangle linear forms of the vertex values of its three
        # corners: d/du, d/dv and the centroid value
        self._forms = np.empty((3, 3, nt))
        self._forms[:2] = self.grad_coeffs.transpose(2, 1, 0)
        self._forms[2] = 1.0 / 3.0
        self._load_weights = self.areas / 3.0
        self._plans = {}  # (kernel, columns) -> work arrays and views

        self.d_u = self._gather_map(0, 1)
        self.d_v = self._gather_map(1, 2)
        self.centroid_op = self._gather_map(2, 3)
        self.triangle_gather = self._gather_map(0, 3)
        self.load_op = LinearMap((nv, nt), self._scatter)
        self.lumped_mass = self.load_op @ np.ones(nt)

        # 7-point stiffness stencil: _stencil[s, r, j] couples vertex j of
        # row r to its neighbor at offset _STENCIL[s], summed over the local
        # stiffness A g_a . g_b of the triangles at the vertex (on row 0,
        # column j holds the center's share from fan triangle j)
        n_r, n_theta = self.n_r, self.n_theta
        gu, gv = self._forms[:2, :, None], self._forms[:2, None]
        local = (gu[0] * gv[0] + gu[1] * gv[1]) * self.areas  # (3, 3, nt)
        quads = np.zeros((3, 3, n_r, n_theta, 2))  # quad row, column, half
        quads[:, :, 0, :, 0] = local[:, :, :n_theta]
        quads[:, :, 1:] = local[:, :, n_theta:].reshape(3, 3, n_r - 1, n_theta, 2)
        stencil = np.zeros((len(_STENCIL), n_r + 1, n_theta + 1))  # column n_theta wraps
        for h, slots in enumerate(_SLOTS):
            for a, ca in enumerate(slots):
                for b, cb in enumerate(slots):
                    (ra, ja), (rb, jb) = _CORNERS[ca], _CORNERS[cb]
                    s = _STENCIL.index((rb - ra, jb - ja))
                    stencil[s, ra:ra + n_r, ja:ja + n_theta] += quads[a, b, :, :, h]
        stencil[:, :, 0] += stencil[:, :, n_theta]
        self._stencil = stencil[:, :, :n_theta].copy()
        self.stiffness = LinearMap((nv, nv), self._stiffness_product)
        self.mass = self.weighted_mass(1.0)

    def _gather_map(self, start, stop):
        nt, nv = len(self.triangles), len(self.vertices)
        return LinearMap(((stop - start) * nt, nv),
                         lambda x: self._gather(x, start, stop))

    def _plan(self, make, k):
        """Work arrays and their views for a kernel on k columns: made by
        make(k) on first use and kept for the mesh's lifetime."""
        key = (make.__name__, k)
        if key not in self._plans:
            self._plans[key] = make(k)
        return self._plans[key]

    def _block_plan(self, k, pad, top=0, bottom=0):
        """A coordinate-major polar block P (k, top + n_r + 1 + bottom,
        n_theta + pad[0] + pad[1]), zero outside the block, and fill(x),
        which writes x (nv, k) into it: row `top` holds the center, the
        rings follow, and each ring row is padded by pad[0] and pad[1]
        wrapped columns before and after."""
        n_r, n_theta = self.n_r, self.n_theta
        before, after = pad
        P = np.zeros((k, top + n_r + 1 + bottom, before + n_theta + after))
        center = P[:, top]
        rings = P[:, top + 1:top + 1 + n_r]
        wraps = [(rings[:, :, :before], rings[:, :, n_theta:n_theta + before]),
                 (rings[:, :, before + n_theta:], rings[:, :, before:before + after])]
        wraps = [(dst, src) for dst, src in wraps if dst.size]

        def fill(x):
            xt = x.T
            np.copyto(center, xt[:, :1])
            np.copyto(rings[:, :, before:before + n_theta], xt[:, 1:].reshape(k, n_r, n_theta))
            for dst, src in wraps:
                np.copyto(dst, src)
            return P

        return P, fill

    def _plan_gather(self, k):
        """The polar block with column n_theta wrapping to 0, and the slot
        arrays: slot s of triangle t holds the value of its s-th vertex."""
        n_r, n_theta, nt = self.n_r, self.n_theta, len(self.triangles)
        B, fill = self._block_plan(k, (0, 1))
        slots = np.empty((3, k, nt))
        fan = slots[:, :, :n_theta]
        quads = slots[:, :, n_theta:].reshape(3, k, n_r - 1, n_theta, 2)
        copies = [(fan[0], B[:, 0, :-1]), (fan[1], B[:, 1, :-1]), (fan[2], B[:, 1, 1:]),
                  (quads[0], B[:, 1:-1, :-1, None]), (quads[1, ..., 0], B[:, 2:, :-1]),
                  (quads[1, ..., 1], B[:, 2:, 1:]), (quads[2, ..., 0], B[:, 2:, 1:]),
                  (quads[2, ..., 1], B[:, 1:-1, 1:])]
        return fill, slots, copies

    def _gather(self, x, start, stop):
        """Forms start..stop-1 of every triangle, (m nt, k): the values of
        each triangle's three corners are copied out of the polar block into
        slot arrays in triangle order, then combined by one product.  The
        result is the transpose of a coordinate-major array."""
        k, nt = x.shape[1], len(self.triangles)
        fill, slots, copies = self._plan(self._plan_gather, k)
        fill(x)
        for dst, src in copies:
            np.copyto(dst, src)
        out = np.empty((k, stop - start, nt))
        np.einsum("ost,sct->cot", self._forms[start:stop], slots, out=out)
        return out.reshape(k, -1).T

    def _plan_scatter(self, k):
        """The weighted triangle values and two ring accumulators: U for
        the corners in a quad's own column (0 and 1) and V for those in the
        next column (2 and 3), so that vertex j of a ring is U[j] + V[j - 1]."""
        n_r, n_theta, nt = self.n_r, self.n_theta, len(self.triangles)
        tw = np.empty((k, nt))
        quads = tw[:, n_theta:].reshape(k, n_r - 1, n_theta, 2)
        U = np.empty((k, n_r, n_theta))
        V = np.empty((k, n_r, n_theta))
        return tw, tw[:, :n_theta], quads[..., 0], quads[..., 1], U, V

    def _scatter(self, t):
        """Per-vertex sums of area/3 times the values t (nt, k) of the
        triangles at the vertex, by quad corner, coordinate-major."""
        n_r, n_theta, k = self.n_r, self.n_theta, t.shape[1]
        tw, fan, h0, h1, U, V = self._plan(self._plan_scatter, k)
        np.multiply(t.T, self._load_weights, out=tw)
        both = np.add(h0, h1, out=U[:, :-1])  # corner 0 gets both triangles
        np.copyto(V[:, 1:], both)             # and so does corner 2
        np.copyto(V[:, 0], fan)               # fan corner 2
        V[:, :-1] += h1                       # corner 3
        np.copyto(U[:, -1], h0[:, -1])        # corner 1
        U[:, 1:-1] += h0[:, :-1]
        U[:, 0] += fan                        # fan corner 1
        out = np.empty((k, len(self.vertices)))
        rings = out[:, 1:].reshape(k, n_r, n_theta)
        np.add(U[:, :, 1:], V[:, :, :-1], out=rings[:, :, 1:])
        np.add(U[:, :, :1], V[:, :, -1:], out=rings[:, :, :1])
        np.sum(fan, axis=1, out=out[:, 0])    # fan corner 0, the center
        return out.T

    def _plan_stiffness(self, k):
        """The polar block with a zero row beyond each end and one wrapped
        column on each side, and the stencil's terms: the coefficients of
        an offset and the block shifted by that offset."""
        n_r, n_theta = self.n_r, self.n_theta
        P, fill = self._block_plan(k, (1, 1), top=1, bottom=1)
        rows = n_r + 1
        terms = [(self._stencil[s], P[:, 1 + dr:1 + dr + rows, 1 + dj:1 + dj + n_theta])
                 for s, (dr, dj) in enumerate(_STENCIL)]
        return fill, terms, np.empty((k, rows, n_theta)), np.empty((k, rows, n_theta))

    def _stiffness_product(self, x):
        k = x.shape[1]
        fill, terms, y, tmp = self._plan(self._plan_stiffness, k)
        fill(x)
        (c, term), *rest = terms
        np.multiply(c, term, out=y)
        for c, term in rest:
            y += np.multiply(c, term, out=tmp)
        out = np.empty((k, len(self.vertices)))
        np.sum(y[:, 0], axis=1, out=out[:, 0])
        out[:, 1:] = y[:, 1:].reshape(k, -1)
        return out.T

    def weighted_mass(self, tri_weight):
        """P1 mass matrix of int w phi_a phi_b for a weight w that is
        constant on each triangle (a scalar or an (nt,) array): w area / 12
        per vertex pair, doubled on the diagonal.  Applied as the load
        scatter of 3/4 w times the centroid value, which gives w area / 12
        per pair, plus the diagonal w area / 12 per triangle at a vertex,
        the load scatter of w / 4."""
        nt, nv = len(self.triangles), len(self.vertices)
        w = np.broadcast_to(np.asarray(tri_weight, dtype=float), (nt,))
        diagonal = self.load_op @ (0.25 * w)
        centroid = 0.75 * w[:, None]

        def apply(x):
            return self._scatter(centroid * self._gather(x, 2, 3)) + diagonal[:, None] * x

        return LinearMap((nv, nv), apply)

    # -- derivative helpers ----------------------------------------------

    def vertex_average(self, tri_values):
        """Area-weighted average of per-triangle values onto vertices.  The
        weights are load_op's row sums, which are the lumped mass."""
        tri_values = np.asarray(tri_values, dtype=float)
        w = self.lumped_mass.reshape((-1,) + (1,) * (tri_values.ndim - 1))
        return (self.load_op @ tri_values) / w

    def _two_ring(self, r):
        """Sorted vertices other than vertex 0 of row r that are at most
        two triangle edges from it, by index arithmetic on the polar
        layout: the center's two-ring is rings 1 and 2; a ring vertex's is
        the offsets _TWO_RING that stay on the disk, row 0 being the
        center, plus all of ring 1 from ring 1 through the center."""
        n_theta = self.n_theta
        if r == 0:
            return np.arange(1, 1 + 2 * n_theta)
        rows = r + _TWO_RING[:, 0]
        ok = (rows >= 0) & (rows <= self.n_r)
        rows = rows[ok]
        idx = np.where(rows == 0, 0, 1 + (rows - 1) * n_theta + _TWO_RING[ok, 1] % n_theta)
        if r == 1:
            idx = np.concatenate([idx, 1 + np.arange(n_theta)])
        idx = np.unique(idx)
        return idx[idx != self._head(r)]

    def _head(self, r):
        """Vertex 0 of row r of the polar block."""
        return 0 if r == 0 else 1 + (r - 1) * self.n_theta

    def second_derivative_operator(self):
        """(3 nv x nv) operator D2 with (D2 @ f)[3 i + c] the c-th of
        (f_uu, f_uv, f_vv) at vertex i, by local quadratic least squares
        over the two-ring neighborhood.  Built on first use and cached.

        The polar layout is invariant under rotation by 2 pi / n_theta, so
        vertex j of a row has the two-ring of the row's vertex 0 rotated by
        phi_j = 2 pi j / n_theta, with columns shifted by j.  One fit per
        row gives H_loc = (f_uu, f_uv, f_vv) in the frame of vertex 0, and
        vertex j's values are R(phi_j) H_loc R(phi_j)^T.  The fit weights
        are the rows 3..5 of the pseudo-inverse of the quadratic design
        matrix of the two-ring (see _two_ring).  Rows 3..n_r-2 have the
        same two-ring shape, the 18 offsets _TWO_RING, so their two-rings
        are row 3's shifted by whole rings and their design matrices are
        stacked and inverted by one batched pinv; rows 0, 1, 2, n_r-1 and
        n_r, whose two-rings meet the center or the boundary, are fitted
        one by one.  Rows 2..n_r keep their fit weights as a 5 x 5 window
        of (row, column) offsets around the vertex; the center and ring 1,
        whose two-rings span whole rings, keep theirs as index lists."""
        if self._d2 is None:
            n_r, n_theta = self.n_r, self.n_theta
            nv = len(self.vertices)

            def fit(heads, idx):
                """Fit weights (m, 3, k + 1) of the heads (m,) over their
                two-rings idx (m, k), then the head itself."""
                d = self.vertices[idx] - self.vertices[heads][:, None]
                du, dv = d[..., 0], d[..., 1]
                A = np.stack([np.ones_like(du), du, dv,
                              0.5 * du**2, du * dv, 0.5 * dv**2], axis=-1)
                W = np.linalg.pinv(A)[:, 3:]
                return np.concatenate([W, -W.sum(axis=-1, keepdims=True)], axis=-1)

            def offsets(r, cols):
                """Window (row, column) indices of the vertices cols around
                vertex 0 of row r >= 2; row 0 of the block is the center."""
                row, col = np.divmod(cols - 1, n_theta)
                return (np.where(cols == 0, 0, row + 1) - r + 2,
                        np.where(cols == 0, 0, (col + 2) % n_theta - 2) + 2)

            window = np.zeros((n_r - 1, 3, 5, 5))
            # rows 3..n_r-2: row 3's two-ring shifted by whole rings
            shared = np.arange(3, n_r - 1)
            cols = np.append(self._two_ring(3), self._head(3))
            moved = cols + (shared - 3)[:, None] * n_theta
            W = fit(moved[:, -1], moved[:, :-1])
            a, b = offsets(3, cols)
            window[(shared - 2)[:, None], :, a, b] = W.transpose(0, 2, 1)
            lists = []
            for r in (0, 1, 2, n_r - 1, n_r):
                cols = np.append(self._two_ring(r), self._head(r))
                W = fit(cols[-1:], cols[None, :-1])[0]
                if r < 2:
                    lists.append((W, cols))
                else:
                    a, b = offsets(r, cols)
                    window[r - 2, :, a, b] = W.T

            ang = 2.0 * np.pi * np.arange(n_theta) / n_theta
            c, s = np.cos(ang), np.sin(ang)
            rot = np.stack([  # (n_theta, 3, 3): (uu, uv, vv) of H_loc -> of H
                np.stack([c * c, -2.0 * c * s, s * s], axis=-1),
                np.stack([c * s, c * c - s * s, -c * s], axis=-1),
                np.stack([s * s, 2.0 * c * s, c * c], axis=-1),
            ], axis=1)
            (W0, cols0), (W1, cols1) = lists
            # ring 1's columns for each of its vertices: the center stays put
            ring, angle = np.divmod(cols1 - 1, n_theta)
            moved1 = np.where(cols1 == 0, 0,
                              1 + ring * n_theta + (angle + np.arange(n_theta)[:, None]) % n_theta)
            offsets = [(a, b) for a in range(5) for b in range(5)
                       if np.any(window[:, :, a, b])]

            def apply(x):
                k = x.shape[1]
                P = self._plan(self._plan_d2, k)(x)
                local = np.zeros((n_r, 3, k, n_theta))  # H_loc of rows 1..n_r
                local[0] = np.einsum("ce,jek->ckj", W1, x[moved1])
                for a, b in offsets:
                    local[1:] += (window[:, :, a, b, None, None]
                                  * P[:, a:a + n_r - 1, b:b + n_theta].transpose(1, 0, 2)[:, None])
                out = np.empty((k, nv, 3))
                out[:, 0] = (W0 @ x[cols0]).T
                rings = out[:, 1:].reshape(k, n_r, n_theta, 3)
                for c in range(3):
                    h = rot[:, c, 0] * local[:, 0]
                    h += rot[:, c, 1] * local[:, 1]
                    h += rot[:, c, 2] * local[:, 2]
                    rings[..., c] = h.transpose(1, 0, 2)
                return out.reshape(k, -1).T

            self._d2 = LinearMap((3 * nv, nv), apply)
        return self._d2

    def _plan_d2(self, k):
        """The polar block with two zero rows below and two wrapped columns
        on each side: the 5 x 5 windows of rows 2..n_r."""
        return self._block_plan(k, (2, 2), bottom=2)[1]

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
        rotation invariance, vertex j of ring r couples to vertex j + dj of
        ring r + dr with the stencil coefficient of the ring's vertex 0 at
        offset (dr, dj), so the rfft of the ring values is multiplied mode
        by mode by the sum of those coefficients times exp(i omega_m dj),
        omega_m = 2 pi m / n_theta.  The center couples only to mode 0: row
        0 of mode 0 is the center's row and ring 1 sees the center with
        weight n_theta.  Row 0 of every other mode is a unit row decoupled
        from the rest."""
        n_r, n_theta = self.n_r, self.n_theta
        phase = np.exp(2j * np.pi * np.arange(n_theta // 2 + 1) / n_theta)[:, None]
        by = dict(zip(_STENCIL, self._stencil[:, 1:n_r, 0]))  # vertex 0 of rings 1..n_r-1
        modes = np.zeros((n_theta // 2 + 1, n_r, 3), dtype=complex)
        modes[:, 1:, 0] = by[-1, 0] + by[-1, -1] / phase
        modes[:, 1:, 1] = by[0, 0] + by[0, 1] * phase + by[0, -1] / phase
        modes[:, 1:, 2] = by[1, 0] + by[1, 1] * phase
        modes[:, -1, 2] = 0.0  # ring n_r is the boundary
        # the center's row, and its coupling to vertex 0 of ring 1 through
        # fan triangles 0 and n_theta - 1
        center = dict(zip(_STENCIL, self._stencil[:, 0]))
        modes[0, 0, 1:] = center[0, 0].sum(), center[1, 0][0] + center[1, 1][-1]
        modes[0, 1, 0] *= n_theta
        modes[1:, 1, 0] = 0.0
        modes[1:, 0, 1] = 1.0
        lower, diagonal, upper = modes.reshape(-1, 3).T
        return lower[1:], diagonal, upper[:-1]

    def _factor_interior_stiffness(self):
        """Thomas factors of the mode systems, batched over the modes, and
        the coefficients of their two sweeps by recursive doubling.

        Row r of a mode system is eliminated by l_r = dl_r / u_(r-1), with
        pivot u_r = d_r - l_r du_(r-1).  The mode systems are Hermitian
        positive definite up to the scaling of the center row, so
        elimination without pivoting is stable; a zero or non-finite pivot
        raises LinAlgError.  The forward sweep y_r = b_r - l_r y_(r-1) and
        the backward sweep x_r = y_r / u_r - (du_r / u_r) x_(r+1) are
        first-order recurrences, each evaluated in ceil(log2 n_r) steps: the
        step of shift s adds the value s rows back (ahead), times the
        product of the s coefficients in between.  Returns (forward, 1/u,
        backward): 1/u is (n_r, n_modes) and the sweeps are lists of shifts
        s with the coefficients of rows s..n_r-1 (forward) or 0..n_r-1-s
        (backward)."""
        n_r, n_modes = self.n_r, self.n_theta // 2 + 1
        dl, d, du = self.interior_stiffness_modes()
        lower = np.concatenate([[0.0], dl]).reshape(n_modes, n_r).T
        upper = np.concatenate([du, [0.0]]).reshape(n_modes, n_r).T
        diag = d.reshape(n_modes, n_r).T
        ell = np.zeros((n_r, n_modes), dtype=complex)
        pivot = np.empty((n_r, n_modes), dtype=complex)
        pivot[0] = diag[0]
        # a bad pivot makes every later one non-finite, so one check after
        # the sweep finds the first
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            for r in range(1, n_r):
                ell[r] = lower[r] / pivot[r - 1]
                pivot[r] = diag[r] - ell[r] * upper[r - 1]
        bad = ~(np.isfinite(pivot) & (pivot != 0)).all(axis=1)
        if bad.any():
            raise np.linalg.LinAlgError(f"interior stiffness has a zero or non-finite "
                                        f"pivot in row {np.argmax(bad)} of a Fourier mode")
        inv = 1.0 / pivot

        def doubling(c, ahead):
            steps, s = [], 1
            while s < n_r:
                if ahead:
                    steps.append((s, c[:-s].copy()))
                    c = np.concatenate([c[:-s] * c[s:], c[-s:]])
                else:
                    steps.append((s, c[s:].copy()))
                    c = np.concatenate([c[:s], c[s:] * c[:-s]])
                s *= 2
            return steps

        return doubling(-ell, False), inv, doubling(-upper * inv, True)

    def _plan_solve(self, k):
        """The mode values (k, n_r, n_modes), a work array of their shape,
        and the sweeps' steps as (coefficients, target rows, source rows,
        work rows)."""
        if self._k_ii is None:
            self._k_ii = self._factor_interior_stiffness()
        forward, inv, backward = self._k_ii
        y = np.zeros((k, self.n_r, self.n_theta // 2 + 1), dtype=complex)
        tmp = np.empty_like(y)
        return (y, inv,
                [(c, y[:, s:], y[:, :-s], tmp[:, s:]) for s, c in forward],
                [(c, y[:, :-s], y[:, s:], tmp[:, :-s]) for s, c in backward])

    def solve_interior_stiffness(self, b):
        """x with K_II x = b, for b of shape (n_interior,) or (n_interior, k)
        in the order of `interior`.  The mode systems of
        `interior_stiffness_modes` are factored on first use and cached; a
        solve is an rfft along the rings, the forward and backward sweeps
        batched over all modes and columns, and an irfft back."""
        n_r, n_theta = self.n_r, self.n_theta
        b = np.asarray(b, dtype=float)
        bt = b.reshape(len(b), -1).T
        k = len(bt)
        y, inv, forward, backward = self._plan(self._plan_solve, k)
        y[:, 0] = 0.0
        y[:, 0, 0] = bt[:, 0]
        y[:, 1:] = np.fft.rfft(bt[:, 1:].reshape(k, n_r - 1, n_theta), axis=-1)
        for c, rows, source, tmp in forward:
            rows += np.multiply(c, source, out=tmp)
        y *= inv
        for c, rows, source, tmp in backward:
            rows += np.multiply(c, source, out=tmp)
        x = np.empty((k, len(b)))
        x[:, 0] = y[:, 0, 0].real
        x[:, 1:] = np.fft.irfft(y[:, 1:], n=n_theta, axis=-1).reshape(k, -1)
        return x.T.reshape(b.shape)


def build_disk_mesh(n_r, n_theta):
    return DiskMesh(n_r, n_theta)
