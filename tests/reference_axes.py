"""The per-theta cone axis computed the long way, as a reference for
conesurf.boundary: alpha and alpha' in two separate series sums, gamma_hat
and its tangent from two separate evaluations of alpha, np.cross and
np.linalg.norm.  Only the seeded interior samples come from the boundary
object.  The axis map must match it bit for bit."""

import numpy as np

from conesurf.boundary import AXIS_TOL
from conesurf.errors import NotBetaConvexAt


def alpha_value(alpha, theta):
    """alpha(theta) summed term by term: the constant, the cos terms, then
    the sin terms."""
    theta = np.asarray(theta, dtype=float)
    out = np.full_like(theta, alpha.const)
    for k, a in enumerate(alpha.cos_coeffs, start=1):
        out = out + a * np.cos(k * theta)
    for k, b in enumerate(alpha.sin_coeffs, start=1):
        out = out + b * np.sin(k * theta)
    return out


def alpha_deriv(alpha, theta):
    """alpha'(theta) summed term by term: the cos coefficients, then the sin
    coefficients."""
    theta = np.asarray(theta, dtype=float)
    out = np.zeros_like(theta)
    for k, a in enumerate(alpha.cos_coeffs, start=1):
        out = out - a * k * np.sin(k * theta)
    for k, b in enumerate(alpha.sin_coeffs, start=1):
        out = out + b * k * np.cos(k * theta)
    return out


def gamma_hat(boundary, theta):
    theta = np.asarray(theta, dtype=float)
    a = alpha_value(boundary.alpha, theta)
    sa, ca = np.sin(a), np.cos(a)
    return np.stack([sa * np.cos(theta), sa * np.sin(theta), ca], axis=-1)


def gamma_hat_d(boundary, theta):
    """d gamma_hat / d theta from alpha and alpha', each evaluated anew."""
    theta = np.asarray(theta, dtype=float)
    a = alpha_value(boundary.alpha, theta)
    ad = alpha_deriv(boundary.alpha, theta)
    sa, ca = np.sin(a), np.cos(a)
    st, ct = np.sin(theta), np.cos(theta)
    du = ad * ca * ct - sa * st
    dv = ad * ca * st + sa * ct
    dw = -ad * sa
    return np.stack([du, dv, dw], axis=-1)


def reference_axis_at(boundary, beta, theta, containment_samples):
    """The admissible one of cos(b) ghat +- sin(b) (ghat ^ ghat')/|ghat ^ ghat'|
    whose closed cone holds every containment sample up to AXIS_TOL."""
    g = gamma_hat(boundary, theta)
    gd = gamma_hat_d(boundary, theta)
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


def reference_axis_map(boundary, beta, n_boundary, n_domain):
    """(thetas, containment samples, axes, margin) of AxisMap's sampling."""
    thetas = np.linspace(0.0, 2.0 * np.pi, n_boundary, endpoint=False)
    samples = np.vstack([boundary.domain_samples(n_domain), gamma_hat(boundary, thetas)])
    axes = np.array([reference_axis_at(boundary, beta, th, samples) for th in thetas])
    margin = float(np.min(samples @ axes.T)) - np.cos(beta)
    return thetas, samples, axes, margin
