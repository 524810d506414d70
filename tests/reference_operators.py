"""Element-loop references for the mesh operators, assembled as scipy
sparse matrices triangle by triangle from the mesh's vertices and
triangles, independently of the stencils in conesurf.mesh."""

import numpy as np
from scipy import sparse


def element_operators(mesh, tri_weight=None):
    """CSR matrices of the mesh's operators from per-triangle local
    matrices, summed by scipy over the triangles: stiffness and mass
    (nv x nv), the mass weighted by tri_weight (one value per triangle,
    default 1), d_u, d_v and centroid_op (nt x nv) and load_op (nv x nt,
    area/3 per triangle vertex)."""
    nv, nt = len(mesh.vertices), len(mesh.triangles)
    w = np.ones(nt) if tri_weight is None else np.asarray(tri_weight, dtype=float)
    tri = mesh.triangles
    (x0, y0), (x1, y1), (x2, y2) = mesh.vertices[tri].transpose(1, 2, 0)
    area = 0.5 * ((x1 - x0) * (y2 - y0) - (x2 - x0) * (y1 - y0))
    # (nt, 3 vertices, 2): gradient of each P1 basis function
    g = np.stack([np.stack([y1 - y2, x2 - x1], axis=-1),
                  np.stack([y2 - y0, x0 - x2], axis=-1),
                  np.stack([y0 - y1, x1 - x0], axis=-1)], axis=1) / (2.0 * area)[:, None, None]
    local_stiffness = area[:, None, None] * np.einsum("tad,tbd->tab", g, g)
    local_mass = (area / 12.0)[:, None, None] * (np.ones((3, 3)) + np.eye(3))
    rows = np.repeat(tri, 3, axis=1).ravel()
    cols = np.tile(tri, 3).ravel()

    def square(local):
        return sparse.csr_matrix((local.ravel(), (rows, cols)), shape=(nv, nv))

    def gather(data):
        return sparse.csr_matrix((data.ravel(), (np.repeat(np.arange(nt), 3), tri.ravel())),
                                 shape=(nt, nv))

    return {
        "stiffness": square(local_stiffness),
        "mass": square(local_mass),
        "weighted_mass": square(w[:, None, None] * local_mass),
        "d_u": gather(g[:, :, 0]),
        "d_v": gather(g[:, :, 1]),
        "centroid_op": gather(np.full((nt, 3), 1.0 / 3.0)),
        "load_op": gather(np.repeat(area / 3.0, 3)).T.tocsr(),
    }


def neighbor_pattern(mesh):
    """Vertex adjacency from the triangle edges: a symmetric CSR pattern
    with sorted indices and an empty diagonal."""
    nv = len(mesh.vertices)
    a = mesh.triangles.T.ravel()
    b = mesh.triangles[:, [1, 2, 0]].T.ravel()
    pattern = sparse.csr_matrix(
        (np.ones(2 * len(a)), (np.concatenate([a, b]), np.concatenate([b, a]))),
        shape=(nv, nv),
    )
    pattern.sum_duplicates()
    return pattern


def interior_block(matrix, mesh):
    """The interior rows and columns of a CSR matrix, as CSC."""
    return matrix.tocsc()[np.ix_(mesh.interior, mesh.interior)]
