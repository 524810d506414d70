"""Spherical boundary curves, the beta-convexity machinery, and radial-graph
Jordan curves.

A spherical boundary is a closed regular curve gamma_hat(theta) on S^2,
built as a (possibly Fourier-perturbed) colatitude profile alpha(theta)
around the north pole:

    gamma_hat(theta) = (sin a cos theta, sin a sin theta, cos a),
    a = alpha(theta).

The enclosed domain Omega is the star-shaped region of colatitude < alpha.
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

    def __call__(self, theta):
        theta = np.asarray(theta, dtype=float)
        out = np.full_like(theta, self.const)
        for k, a in enumerate(self.cos_coeffs, start=1):
            out = out + a * np.cos(k * theta)
        for k, b in enumerate(self.sin_coeffs, start=1):
            out = out + b * np.sin(k * theta)
        return out

    def deriv(self, theta):
        theta = np.asarray(theta, dtype=float)
        out = np.zeros_like(theta)
        for k, a in enumerate(self.cos_coeffs, start=1):
            out = out - a * k * np.sin(k * theta)
        for k, b in enumerate(self.sin_coeffs, start=1):
            out = out + b * k * np.cos(k * theta)
        return out


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
        sa, ca = np.sin(a), np.cos(a)
        return np.stack([sa * np.cos(theta), sa * np.sin(theta), ca], axis=-1)

    def gamma_hat_d(self, theta):
        theta = np.asarray(theta, dtype=float)
        a = self.alpha(theta)
        ad = self.alpha.deriv(theta)
        sa, ca = np.sin(a), np.cos(a)
        st, ct = np.sin(theta), np.cos(theta)
        du = ad * ca * ct - sa * st
        dv = ad * ca * st + sa * ct
        dw = -ad * sa
        return np.stack([du, dv, dw], axis=-1)

    def domain_samples(self, n, seed=7, margin=0.0):
        """n seeded points of the closed domain Omega (star-shaped
        sampling), kept `margin` of the colatitude away from its edge."""
        rng = np.random.default_rng(seed)
        theta = rng.uniform(0.0, 2.0 * np.pi, n)
        # denser toward the boundary
        frac = np.sqrt(rng.uniform(0.0, 1.0, n)) * (1.0 - margin)
        a = frac * self.alpha(theta)
        sa, ca = np.sin(a), np.cos(a)
        return np.stack([sa * np.cos(theta), sa * np.sin(theta), ca], axis=-1)

    def boundary_samples(self, n):
        theta = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)
        return theta, self.gamma_hat(theta)


def axis_at(boundary, beta, theta, containment_samples):
    """Unique beta-cone axis at gamma_hat(theta).

    The two geometric candidates cos(b) ghat +- sin(b) (ghat ^ ghat')/|ghat'|
    are the intersection of the cone through ghat, the plane orthogonal to
    ghat', and S^2; the admissible one must contain all the given domain
    samples in its closed cone, up to AXIS_TOL.
    """
    g = boundary.gamma_hat(theta)
    gd = boundary.gamma_hat_d(theta)
    n = np.cross(g, gd)
    nn = np.linalg.norm(n)
    if nn < 1e-14:
        raise NotBetaConvexAt(theta, "degenerate tangent at theta")
    n = n / nn
    cb, sb = np.cos(beta), np.sin(beta)
    best = None
    for cand in (cb * g + sb * n, cb * g - sb * n):
        worst = float(np.min(containment_samples @ cand)) - cb
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
    side = samples @ np.cross(bpts, boundary.gamma_hat_d(thetas)).T
    return not np.any(np.any(side > CONVEX_TOL, axis=0) & np.any(side < -CONVEX_TOL, axis=0))


def orientation_sign(axis_map):
    """-1 when Det[gamma_hat', gamma_hat, axis] < 0 at all the map's
    samples (positively oriented), +1 when > 0 at all; SignChange
    otherwise."""
    thetas = axis_map.thetas
    g = axis_map.boundary.gamma_hat(thetas)
    gd = axis_map.boundary.gamma_hat_d(thetas)
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
