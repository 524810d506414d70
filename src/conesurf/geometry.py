"""Elementary 3D and spherical primitives: cones, projections, winding degree.

Conventions: points are numpy arrays of shape (3,) (or (n, 3) where noted),
angles are radians.  A cone is described by a unit axis and a half-angle in
(0, pi/2); a point x is inside when x . axis - |x| cos(half_angle) > 0.
"""

import numpy as np

from .errors import DegenerateInput, OutOfRange, PointOnCurve, PoleSingularity

NORMALIZE_EPS = 1e-14
SOUTH_POLE_EPS = 1e-10
MIN_WINDING_DISTANCE = 1e-9  # closest a winding_degree query may be to the loop


def as_vec3(x):
    v = np.asarray(x, dtype=float)
    if v.shape != (3,):
        raise ValueError(f"expected a 3-vector, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValueError("vector has non-finite components")
    return v


def normalize(x):
    """Unit vector x/|x|; raises DegenerateInput when |x| < 1e-14."""
    v = as_vec3(x)
    n = np.linalg.norm(v)
    if n < NORMALIZE_EPS:
        raise DegenerateInput(f"cannot normalize vector of norm {n:.3e}")
    return v / n


class ConeSpec:
    """Open circular cone: axis (unit vector) and half-angle in (0, pi/2)."""

    def __init__(self, axis, half_angle):
        axis = as_vec3(axis)
        if abs(np.linalg.norm(axis) - 1.0) > 1e-12:
            axis = normalize(axis)
        if not (0.0 < half_angle < np.pi / 2):
            raise OutOfRange(f"half_angle {half_angle} not in (0, pi/2)")
        self.axis = axis
        self.half_angle = float(half_angle)
        self._cos = np.cos(self.half_angle)

    def margin(self, x):
        """x . axis - |x| cos(half_angle); positive iff x is interior."""
        x = np.asarray(x, dtype=float)
        if x.ndim == 1:
            return float(x @ self.axis - np.linalg.norm(x) * self._cos)
        return x @ self.axis - np.linalg.norm(x, axis=-1) * self._cos

    def __repr__(self):
        return f"ConeSpec(axis={self.axis}, half_angle={self.half_angle})"


def stereographic_south(p):
    """Stereographic projection from the south pole: p -> (p_x, p_y)/(1 + p_z).

    A point (3,) gives an (x, y) tuple; points (n, 3) give an (n, 2) array.
    Raises PoleSingularity when a point is too close to the south pole."""
    p = np.asarray(p, dtype=float)
    pts = as_vec3(p)[None, :] if p.ndim == 1 else p
    if pts.ndim != 2 or pts.shape[1] != 3 or not np.all(np.isfinite(pts)):
        raise ValueError(f"expected finite points of shape (n, 3), got shape {p.shape}")
    near = pts[:, 2] <= -1.0 + SOUTH_POLE_EPS
    if np.any(near):
        raise PoleSingularity(
            f"point too close to the south pole: z={pts[np.argmax(near), 2]}"
        )
    q = pts[:, :2] / (1.0 + pts[:, 2:])
    return q if p.ndim == 2 else (q[0, 0], q[0, 1])


def stereographic_south_inverse(q):
    """Inverse of stereographic_south, mapping the plane back to S^2."""
    x, y = float(q[0]), float(q[1])
    s = x * x + y * y
    return np.array([2.0 * x, 2.0 * y, 1.0 - s]) / (1.0 + s)


def c_beta(beta):
    """cos(beta) / (2 (1 + cos(beta))), the radial growth bound for a cone
    of half-angle beta.  Strictly decreasing on (0, pi/2)."""
    if not (0.0 < beta < np.pi / 2):
        raise OutOfRange(f"beta {beta} not in (0, pi/2)")
    cb = np.cos(beta)
    return float(cb / (2.0 * (1.0 + cb)))


def winding_degree(loop, q):
    """Winding number of a closed planar polyline around q.

    `loop` is an (n, 2) array of vertices (closure edge loop[-1] -> loop[0]
    implied).  Uses atan2 angle accumulation, which is robust for the
    non-convex loops produced by projected meshes.
    """
    pts = np.asarray(loop, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2 or len(pts) < 3:
        raise ValueError("loop must be an (n, 2) array with n >= 3")
    q = np.asarray(q, dtype=float)

    d = pts - q
    # distance from q to every closed segment
    a = d
    b = np.roll(d, -1, axis=0)
    ab = b - a
    denom = np.einsum("ij,ij->i", ab, ab)
    t = np.zeros(len(pts))
    nz = denom > 0
    t[nz] = np.clip(-np.einsum("ij,ij->i", a[nz], ab[nz]) / denom[nz], 0.0, 1.0)
    closest = a + t[:, None] * ab
    if np.min(np.linalg.norm(closest, axis=1)) < MIN_WINDING_DISTANCE:
        raise PointOnCurve(f"query point within {MIN_WINDING_DISTANCE} of the loop")

    ang = np.arctan2(d[:, 1], d[:, 0])
    dang = np.diff(np.concatenate([ang, ang[:1]]))
    dang = (dang + np.pi) % (2.0 * np.pi) - np.pi
    return int(round(dang.sum() / (2.0 * np.pi)))
