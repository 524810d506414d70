"""Spherical boundary curves, the beta-convexity machinery, and radial-graph
Jordan curves.

A spherical boundary is a closed regular curve gamma_hat(theta) on S^2,
built as a (possibly Fourier-perturbed) colatitude profile alpha(theta)
around the north pole:

    gamma_hat(theta) = (sin a cos theta, sin a sin theta, cos a),
    a = alpha(theta).

The enclosed domain Omega is the star-shaped region of colatitude < alpha.

Every per-theta caller that needs the tangent as well as the point reads
`SphericalBoundary.frame`, which returns (gamma_hat, gamma_hat') from one
`FourierScalar.jet` of alpha, i.e. (alpha, alpha') from one cos k theta and
sin k theta per order.  `gamma_hat` keeps a value-only path; both build the
point with the same formula, so frame's gamma_hat equals it bit for bit.
"""

import numpy as np

from .errors import CurveLeavesCone, NotBetaConvexAt, OutOfRange, SignChange

FOURIER_MAX_ORDER = 8
# An axis is admissible when every containment sample lies within AXIS_TOL
# (in cosine) of its closed cone; is_convex allows CONVEX_TOL on each side
# of a plane.  build_curve checks the cone at CURVE_SAMPLES points.
AXIS_TOL = 1e-8
CONVEX_TOL = 1e-9
CURVE_SAMPLES = 512


class FourierScalar:
    """Scalar 2pi-periodic function c0 + sum_k (a_k cos k t + b_k sin k t)."""

    def __init__(self, const, cos_coeffs=(), sin_coeffs=()):
        if len(cos_coeffs) > FOURIER_MAX_ORDER or len(sin_coeffs) > FOURIER_MAX_ORDER:
            raise OutOfRange(f"Fourier order capped at {FOURIER_MAX_ORDER}")
        self.const = float(const)
        self.cos_coeffs = np.asarray(cos_coeffs, dtype=float)
        self.sin_coeffs = np.asarray(sin_coeffs, dtype=float)
        # f' = sum_k k b_k cos k t - sum_k k a_k sin k t
        self._dcos = np.arange(1, len(self.sin_coeffs) + 1) * self.sin_coeffs
        self._dsin = -np.arange(1, len(self.cos_coeffs) + 1) * self.cos_coeffs

    def __call__(self, theta):
        theta = np.asarray(theta, dtype=float)
        cosines = (np.cos(k * theta) for k in range(1, len(self.cos_coeffs) + 1))
        sines = (np.sin(k * theta) for k in range(1, len(self.sin_coeffs) + 1))
        return self._value(theta, cosines, sines)

    def jet(self, theta):
        """(f, f') at theta, from one cos k theta and sin k theta per order;
        f equals self(theta) bit for bit."""
        theta = _scalar_or_array(theta)
        cosines, sines = [], []
        for k in range(1, max(len(self.cos_coeffs), len(self.sin_coeffs)) + 1):
            cosines.append(np.cos(k * theta))
            sines.append(np.sin(k * theta))
        d = _accumulate(_accumulate(np.zeros_like(theta), self._dsin, sines), self._dcos, cosines)
        return self._value(theta, cosines, sines), d

    def _value(self, theta, cosines, sines):
        """The series summed in a fixed order: const, cos terms, sin terms."""
        out = _accumulate(np.full_like(theta, self.const), self.cos_coeffs, cosines)
        return _accumulate(out, self.sin_coeffs, sines)


def _accumulate(out, coeffs, terms):
    """out + sum of coeffs[i] * terms[i], added one term at a time."""
    for c, t in zip(coeffs, terms):
        out = out + c * t
    return out


def _scalar_or_array(theta):
    """theta as a float array, or as a numpy float when it is a scalar:
    arithmetic on a 0-d array costs several times more."""
    return np.asarray(theta, dtype=float)[()]


def _stack3(x, y, z):
    """The three components on a new last axis; np.array for scalars,
    where np.stack costs more than the rest of a per-theta frame."""
    return np.stack([x, y, z], axis=-1) if np.ndim(x) else np.array([x, y, z])


def _sphere_point(sa, ca, ct, st):
    """(sin a cos theta, sin a sin theta, cos a) from the sines and cosines."""
    return _stack3(sa * ct, sa * st, ca)


class SphericalBoundary:
    """Closed curve on S^2 given by a colatitude profile around e3."""

    def __init__(self, alpha):
        self.alpha = alpha
        a = alpha(np.linspace(0.0, 2.0 * np.pi, 512, endpoint=False))
        if np.any(a <= 0.0) or np.any(a >= np.pi / 2):
            raise OutOfRange("colatitude profile must stay in (0, pi/2)")

    @classmethod
    def cap(cls, alpha_c):
        return cls(FourierScalar(alpha_c))

    @classmethod
    def perturbed_cap(cls, alpha_c, cos_coeffs=(), sin_coeffs=()):
        return cls(FourierScalar(alpha_c, cos_coeffs, sin_coeffs))

    def gamma_hat(self, theta):
        theta = np.asarray(theta, dtype=float)
        a = self.alpha(theta)
        return _sphere_point(np.sin(a), np.cos(a), np.cos(theta), np.sin(theta))

    def frame(self, theta):
        """(gamma_hat, gamma_hat') at theta from one jet of alpha."""
        theta = _scalar_or_array(theta)
        a, ad = self.alpha.jet(theta)
        sa, ca = np.sin(a), np.cos(a)
        ct, st = np.cos(theta), np.sin(theta)
        gd = _stack3(ad * ca * ct - sa * st, ad * ca * st + sa * ct, -ad * sa)
        return _sphere_point(sa, ca, ct, st), gd

    def domain_samples(self, n, seed=7, margin=0.0):
        """n seeded points of the closed domain Omega (star-shaped
        sampling), kept `margin` of the colatitude away from its edge."""
        rng = np.random.default_rng(seed)
        theta = rng.uniform(0.0, 2.0 * np.pi, n)
        # denser toward the boundary
        frac = np.sqrt(rng.uniform(0.0, 1.0, n)) * (1.0 - margin)
        a = frac * self.alpha(theta)
        return _sphere_point(np.sin(a), np.cos(a), np.cos(theta), np.sin(theta))

    def boundary_samples(self, n):
        theta = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)
        return theta, self.gamma_hat(theta)


def axis_at(boundary, beta, theta, containment_samples):
    """Unique beta-cone axis at gamma_hat(theta).

    The two geometric candidates cos(b) ghat +- sin(b) (ghat ^ ghat')/|ghat'|
    are the intersection of the cone through ghat, the plane orthogonal to
    ghat', and S^2; the admissible one must contain all the given domain
    samples in its closed cone, up to AXIS_TOL.  The cross product and its
    norm are written out: the same arithmetic as np.cross and
    np.linalg.norm on 3-vectors, without their per-call overhead.
    """
    g, gd = boundary.frame(theta)
    (g0, g1, g2), (d0, d1, d2) = g, gd
    n = np.array([g1 * d2 - g2 * d1, g2 * d0 - g0 * d2, g0 * d1 - g1 * d0])
    nn = np.sqrt(n @ n)
    if nn < 1e-14:
        raise NotBetaConvexAt(theta, "degenerate tangent at theta")
    n = n / nn
    cb, sb = np.cos(beta), np.sin(beta)
    cg, sn = cb * g, sb * n
    best = None
    for cand in (cg + sn, cg - sn):
        worst = float((containment_samples @ cand).min()) - cb
        if worst >= -AXIS_TOL and (best is None or worst > best[1]):
            best = (cand, worst)
    if best is None:
        raise NotBetaConvexAt(theta)
    return best[0]


class AxisMap:
    """Sampled map theta -> cone axis along a beta-convex boundary; raises
    NotBetaConvexAt at the first sample without an admissible axis.
    `margin` is the worst containment slack over the sampled axes."""

    def __init__(self, boundary, beta, n_boundary=256, n_domain=2048):
        self.boundary = boundary
        self.beta = beta
        thetas, bpts = boundary.boundary_samples(n_boundary)
        samples = np.vstack([boundary.domain_samples(n_domain), bpts])
        self.thetas = thetas
        self.axes = np.array([axis_at(boundary, beta, th, samples) for th in thetas])
        self.margin = float(np.min(samples @ self.axes.T)) - np.cos(beta)
        self._samples = samples

    def axis(self, theta):
        """Axis at an arbitrary theta (recomputed, not interpolated)."""
        return axis_at(self.boundary, self.beta, theta, self._samples)


def is_beta_convex(boundary, beta, n_boundary=256, n_domain=2048):
    """(flag, margin): flag true iff an admissible axis exists at every
    boundary sample; margin is the worst containment slack observed."""
    try:
        axis_map = AxisMap(boundary, beta, n_boundary, n_domain)
    except NotBetaConvexAt:
        return False, float("-inf")
    return True, axis_map.margin


def is_convex(boundary, n_samples=256, n_domain=1024):
    """True iff at every boundary sample the plane spanned by gamma_hat and
    its tangent leaves all domain samples weakly on one side."""
    thetas, bpts = boundary.boundary_samples(n_samples)
    samples = np.vstack([boundary.domain_samples(n_domain), bpts])
    side = samples @ np.cross(bpts, boundary.frame(thetas)[1]).T
    return not np.any(np.any(side > CONVEX_TOL, axis=0) & np.any(side < -CONVEX_TOL, axis=0))


def orientation_sign(axis_map):
    """-1 when Det[gamma_hat', gamma_hat, axis] < 0 at all the map's
    samples (positively oriented), +1 when > 0 at all; SignChange
    otherwise."""
    g, gd = axis_map.boundary.frame(axis_map.thetas)
    det = np.einsum("ij,ij->i", np.cross(gd, g), axis_map.axes)
    if np.all(det < 0.0):
        return -1
    if np.all(det > 0.0):
        return +1
    raise SignChange("orientation determinant is not of constant sign")


class RadialGraphCurve:
    """Jordan curve Gamma(theta) = g(theta) gamma_hat(theta) over a
    spherical boundary; build_curve validates it against the cone."""

    def __init__(self, boundary, g):
        self.boundary = boundary
        self.g = g

    def points(self, thetas):
        thetas = np.asarray(thetas, dtype=float)
        gv = np.asarray(self.g(thetas), dtype=float)
        return gv[..., None] * self.boundary.gamma_hat(thetas)


def build_curve(boundary, g, beta):
    """Validated radial-graph curve; raises CurveLeavesCone when some
    Gamma(theta) falls outside the closed cone of half-angle beta."""
    curve = RadialGraphCurve(boundary, g)
    thetas = np.linspace(0.0, 2.0 * np.pi, CURVE_SAMPLES, endpoint=False)
    gv = np.asarray(g(thetas), dtype=float)
    if np.any(gv <= 0.0):
        raise OutOfRange("radial factor g must be strictly positive")
    pts = curve.points(thetas)
    margins = pts[:, 2] - np.linalg.norm(pts, axis=1) * np.cos(beta)
    if np.min(margins) < -1e-10:
        raise CurveLeavesCone(
            f"curve leaves the cone: worst margin {np.min(margins):.3e}"
        )
    return curve
