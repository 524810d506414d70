"""Elementary spherical primitives: stereographic projection, winding
degree, the growth constant c_beta.

Conventions: points are numpy arrays with the coordinates on the last axis,
(n, 3) in space and (n, 2) in the plane, and each function returns an array
with one row per point; angles are radians.
"""

import numpy as np

from .errors import OutOfRange, PointOnCurve, PoleSingularity

SOUTH_POLE_EPS = 1e-10
MIN_WINDING_DISTANCE = 1e-9  # closest a winding_degree query may be to the loop


def stereographic_south(p):
    """Stereographic projection from the south pole: points (n, 3) ->
    (p_x, p_y)/(1 + p_z), an (n, 2) array.  Raises PoleSingularity when a
    point is too close to the south pole."""
    p = np.asarray(p, dtype=float)
    if p.ndim != 2 or p.shape[1] != 3 or not np.all(np.isfinite(p)):
        raise ValueError(f"expected finite points of shape (n, 3), got shape {p.shape}")
    near = p[:, 2] <= -1.0 + SOUTH_POLE_EPS
    if np.any(near):
        raise PoleSingularity(
            f"point too close to the south pole: z={p[np.argmax(near), 2]}"
        )
    return p[:, :2] / (1.0 + p[:, 2:])


def c_beta(beta):
    """cos(beta) / (2 (1 + cos(beta))), the radial growth bound for a cone
    of half-angle beta.  Strictly decreasing on (0, pi/2)."""
    if not (0.0 < beta < np.pi / 2):
        raise OutOfRange(f"beta {beta} not in (0, pi/2)")
    cb = np.cos(beta)
    return float(cb / (2.0 * (1.0 + cb)))


def winding_degree(loop, queries):
    """Winding numbers of a closed planar polyline around query points.

    `loop` is an (n, 2) array of vertices (closure edge loop[-1] -> loop[0]
    implied) and `queries` an (m, 2) array; returns the (m,) integer degrees.
    Uses atan2 angle accumulation, which is robust for the non-convex loops
    produced by projected meshes.  Raises PointOnCurve when any query lies
    within MIN_WINDING_DISTANCE of the loop.
    """
    pts = np.asarray(loop, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2 or len(pts) < 3:
        raise ValueError("loop must be an (n, 2) array with n >= 3")
    q = np.asarray(queries, dtype=float)
    if q.ndim != 2 or q.shape[1] != 2:
        raise ValueError(f"queries must be an (m, 2) array, got shape {q.shape}")

    d = pts - q[:, None, :]  # (m, n, 2): loop vertices relative to each query
    # distance from each query to every closed segment
    a = d
    b = np.roll(d, -1, axis=1)
    ab = b - a
    denom = np.einsum("mij,mij->mi", ab, ab)
    t = np.zeros(denom.shape)
    nz = denom > 0
    t[nz] = np.clip(-np.einsum("mij,mij->mi", a, ab)[nz] / denom[nz], 0.0, 1.0)
    closest = a + t[..., None] * ab
    if np.min(np.linalg.norm(closest, axis=2)) < MIN_WINDING_DISTANCE:
        raise PointOnCurve(f"query point within {MIN_WINDING_DISTANCE} of the loop")

    ang = np.arctan2(d[..., 1], d[..., 0])
    dang = np.roll(ang, -1, axis=1) - ang
    dang = (dang + np.pi) % (2.0 * np.pi) - np.pi
    return np.rint(dang.sum(axis=1) / (2.0 * np.pi)).astype(int)
