"""Elementary spherical primitives: tangent frames and the gnomonic chart,
winding degree, the growth constant c_beta.

Conventions: points are numpy arrays with the coordinates on the last axis,
(n, 3) in space and (n, 2) in the plane, and each function returns an array
with one row per point; angles are radians.
"""

import numpy as np

from .errors import OutOfRange, PointOnCurve

MIN_WINDING_DISTANCE = 1e-9  # closest a winding_degree query may be to the loop


def tangent_frame(v):
    """Orthonormal tangent frames (t1, t2), each (n, 3), at the unit vectors
    v (n, 3): t1 is v ^ e3 normalized, or v ^ e1 where |v ^ e3| < 1e-8, and
    t2 = v ^ t1, so that t1 ^ t2 = v."""
    t1 = np.cross(v, [0.0, 0.0, 1.0])
    polar = np.linalg.norm(t1, axis=1) < 1e-8
    t1[polar] = np.cross(v[polar], [1.0, 0.0, 0.0])
    t1 /= np.linalg.norm(t1, axis=1)[:, None]
    return t1, np.cross(v, t1)


def gnomonic(p, c):
    """Gnomonic chart about the unit vector c: the points p (n, 3) with
    p . c > 0 go to the (n, 2) coordinates (p . t1, p . t2) / (p . c) in
    c's tangent frame.  Great-circle arcs map to straight segments."""
    (t1,), (t2,) = tangent_frame(c[None])
    return np.stack([p @ t1, p @ t2], axis=1) / (p @ c)[:, None]


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
