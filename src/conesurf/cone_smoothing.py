"""Smoothed cone of revolution and its mean-curvature inequalities.

The boundary cone of half-angle beta+delta is rounded near the vertex by
replacing the height profile with a quartic on [0, t_eps], chosen so the
resulting surface of revolution is C^2, misses the origin, and has inward
mean curvature dominating the prescribed field.

The profile and curvature functions take an array of samples of t and
return an array of its shape.
"""

from dataclasses import dataclass

import numpy as np

from .errors import AxisSingularity, OutOfRange
from .geometry import c_beta

SQRT3 = np.sqrt(3.0)
DELTA_STEP = 1e-3  # select_delta's grid of delta
ENCLOSURE_SAMPLES = 256  # check_enclosure_curvature's samples of t on the cap


def select_delta(beta):
    """Largest multiple delta > 0 of DELTA_STEP with beta +- delta in
    (0, pi/2) and c_{beta-delta} < cot(beta+delta)/2 strictly.

    The admissible set is an interval [0, delta*), so a descending scan from
    the geometric cap finds the largest admissible grid point; existence at
    delta -> 0+ is guaranteed since c_beta < cot(beta)/2 for every beta.
    """
    if not (0.0 < beta < np.pi / 2):
        raise OutOfRange(f"beta {beta} not in (0, pi/2)")
    margin = 1e-9
    delta_cap = min(beta, np.pi / 2 - beta) - margin
    k = int(np.floor(delta_cap / DELTA_STEP))
    while k >= 1:
        d = k * DELTA_STEP
        if c_beta(beta - d) < 0.5 / np.tan(beta + d):
            return d
        k -= 1
    # always admissible for small enough delta; fall below the grid
    d = DELTA_STEP / 2.0
    while d > 1e-15:
        if d < delta_cap and c_beta(beta - d) < 0.5 / np.tan(beta + d):
            return d
        d /= 2.0
    raise OutOfRange(f"no admissible delta found for beta={beta}")


@dataclass(frozen=True)
class SmoothedConeProfile:
    """Generating curve (alpha1(t), alpha2(t)) of the smoothed cone."""

    beta: float
    delta: float
    eps: float
    t_eps: float
    a_eps: float
    b_eps: float
    c_eps: float

    @property
    def opening(self):
        return self.beta + self.delta

    def alpha1(self, t):
        return np.sin(self.opening) * np.asarray(t, dtype=float)

    def alpha2(self, t):
        t = np.asarray(t, dtype=float)
        quart = self.a_eps * t**4 + self.b_eps * t**2 + self.c_eps
        cone = np.cos(self.opening) * t
        return np.where(t <= self.t_eps, quart, cone)

    def alpha2_d(self, t):
        t = np.asarray(t, dtype=float)
        quart = 4.0 * self.a_eps * t**3 + 2.0 * self.b_eps * t
        cone = np.full_like(t, np.cos(self.opening))
        return np.where(t <= self.t_eps, quart, cone)

    def alpha2_dd(self, t):
        t = np.asarray(t, dtype=float)
        quart = 12.0 * self.a_eps * t**2 + 2.0 * self.b_eps
        return np.where(t <= self.t_eps, quart, np.zeros_like(t))


def make_profile(beta, delta, eps):
    """Profile with the quartic coefficients of the smoothed cone.

    t_eps = (8 / (3 sqrt 3)) eps / cos(beta+delta)
    a = -sqrt(3) (3/8)^4 cos^4(beta+delta) / eps^3
    b =  2 sqrt(3) (3/8)^2 cos^2(beta+delta) / eps
    c =  eps / sqrt(3)
    """
    opening = beta + delta
    if not (0.0 < opening < np.pi / 2):
        raise OutOfRange(f"beta+delta {opening} not in (0, pi/2)")
    if eps <= 0.0:
        raise OutOfRange(f"eps must be positive, got {eps}")
    cos_o = np.cos(opening)
    t_eps = (8.0 / (3.0 * SQRT3)) * eps / cos_o
    a_eps = -SQRT3 * (3.0 / 8.0) ** 4 * cos_o**4 / eps**3
    b_eps = 2.0 * SQRT3 * (3.0 / 8.0) ** 2 * cos_o**2 / eps
    c_eps = eps / SQRT3
    return SmoothedConeProfile(
        beta=float(beta), delta=float(delta), eps=float(eps),
        t_eps=float(t_eps), a_eps=float(a_eps), b_eps=float(b_eps),
        c_eps=float(c_eps),
    )


def profile_point(profile, t, theta):
    """Point (alpha1 cos(theta), alpha1 sin(theta), alpha2) on the surface;
    t and theta broadcast, and the coordinates are the last axis."""
    a1 = profile.alpha1(t)
    a2 = profile.alpha2(t)
    return np.stack(
        np.broadcast_arrays(a1 * np.cos(theta), a1 * np.sin(theta), a2), axis=-1
    )


def _off_axis(profile, t):
    """t with each t <= 0 moved to 1e-6 * t_eps: the closed formulas are
    0/0 on the axis, so the value there is taken one-sided."""
    t = np.asarray(t, dtype=float)
    return np.where(t <= 0.0, 1e-6 * profile.t_eps, t)


def revolution_mean_curvature(a1, a1_d, a1_dd, a2_d, a2_dd):
    """Inward mean curvature of a surface of revolution from its generating
    curve data (arrays that broadcast):

        [a1 (a1' a2'' - a2' a1'') + a2' ((a1')^2 + (a2')^2)]
        / (2 a1 ((a1')^2 + (a2')^2)^(3/2))
    """
    if np.any(a1 <= 0.0):
        raise AxisSingularity(f"alpha1 = {np.min(a1)} <= 0 (axis of revolution)")
    speed2 = a1_d**2 + a2_d**2
    if np.any(speed2 <= 0.0):
        raise AxisSingularity("generating curve has zero speed")
    num = a1 * (a1_d * a2_dd - a2_d * a1_dd) + a2_d * speed2
    return num / (2.0 * a1 * speed2**1.5)


def profile_mean_curvature(profile, t):
    """Mean curvature of the smoothed cone at parameters t >= 0; alpha1 is
    linear, so alpha1' = sin(beta+delta) and alpha1'' = 0."""
    t = _off_axis(profile, t)
    return revolution_mean_curvature(
        profile.alpha1(t), np.sin(profile.opening), 0.0,
        profile.alpha2_d(t), profile.alpha2_dd(t),
    )


def cap_curvature_lower_bound(profile, t):
    """Lower bound a2' / (2 a1 sqrt((a1')^2 + (a2')^2)) valid on [0, t_eps],
    obtained by dropping the (positive there) a1 a1' a2'' term."""
    t = _off_axis(profile, t)
    a2_d = profile.alpha2_d(t)
    return a2_d / (2.0 * profile.alpha1(t) * np.sqrt(np.sin(profile.opening)**2 + a2_d**2))


def min_cap_curvature(profile, n_samples=256):
    """Minimum mean curvature over the rounded cap t in [0, t_eps]."""
    if n_samples < 64:
        raise OutOfRange("n_samples must be >= 64")
    ts = np.linspace(0.0, profile.t_eps, n_samples)
    return float(np.min(profile_mean_curvature(profile, ts)))


def check_enclosure_curvature(profile, field, t_max=None):
    """Margin min over samples of H_S(t) - |H(point(t, theta))|.

    Positive margin certifies the barrier inequality on the sampled set.
    ENCLOSURE_SAMPLES samples cover the cap [0, t_eps] and as many the cone
    branch up to t_max (default 10 * t_eps), at 8 azimuths.
    """
    if t_max is None:
        t_max = 10.0 * profile.t_eps
    ts = np.concatenate([
        np.linspace(0.0, profile.t_eps, ENCLOSURE_SAMPLES),
        np.linspace(profile.t_eps, t_max, ENCLOSURE_SAMPLES)[1:],
    ])
    thetas = np.linspace(0.0, 2.0 * np.pi, 8, endpoint=False)
    hs = profile_mean_curvature(profile, ts)
    pts = profile_point(profile, _off_axis(profile, ts)[:, None], thetas)
    margins = hs[:, None] - np.abs(field.eval(pts))
    i, j = np.unravel_index(np.argmin(margins), margins.shape)
    margin = float(margins[i, j])
    return {
        "margin": margin,
        "argmin_t": float(ts[i]),
        "argmin_theta": float(thetas[j]),
        "passed": bool(margin > 0.0),
        "n_samples": ENCLOSURE_SAMPLES,
    }


def junction_jumps(profile):
    """Signed jumps of alpha2 and its first two derivatives across t_eps.

    All three should vanish (C^2 junction); the quartic's second derivative
    itself vanishes at t_eps.
    """
    t = profile.t_eps
    cos_o = np.cos(profile.opening)
    return {
        "value": float(profile.alpha2(t) - cos_o * t),
        "first": float(profile.alpha2_d(t) - cos_o),
        "second": float(profile.alpha2_dd(t)),
    }
