"""Prescribed mean curvature fields, their vector potential, and the
radial growth / monotonicity checks.

Builtin families (all defined on R^3 minus the origin, so no cone
extension step is needed), each homogeneous of degree -k,
H(t p) = t^(-k) H(p) for t > 0:

    zero                H = 0                           k = 0
    constant(h0)        H = h0                          k = 0 (solver tests only)
    radial(c)           H = c / |p|                     k = 1
    power(c, s)         H = c / |p|^(1+s)               k = 1 + s
    modulated(c, a)     H = (c + a (p.e3/|p|)) / |p|    k = 1

`CurvatureField.eval` and `.grad` take points with the coordinates on the
last axis: points (n, 3) give (n,) values and (n, 3) gradients.  Every
family is linear in its strength parameters (h0, c, a), so a scaled field
is again a `CurvatureField`.  By homogeneity the vector potential is
Q(p) = H(p) p / (3 - k), finite only for k < 3, so a power field needs
s < 2.  A field takes exactly its family's parameters (see
`PARAMS`), each a finite real number.
"""

import numbers
import sys

import numpy as np

from .errors import OutOfRange
from .geometry import c_beta

_E3 = np.array([0.0, 0.0, 1.0])
_STRENGTHS = ("h0", "c", "a")


def is_real(value):
    """True for a finite real number; bools are not numbers here, and the
    comparison also rejects NaN and ints beyond the float range."""
    return (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and -sys.float_info.max <= value <= sys.float_info.max)


class CurvatureField:
    """Mean curvature field H with closed-form gradient."""

    def __init__(self, family, /, **params):
        if not isinstance(family, str) or family not in PARAMS:
            raise OutOfRange(f"unknown field family {family!r}")
        for name in params:
            if name not in PARAMS[family]:
                raise OutOfRange(f"{family} field has no parameter {name!r}")
        for name in PARAMS[family]:
            value = params.get(name)
            if not is_real(value):
                raise OutOfRange(f"{family} field parameter {name!r} must be a finite"
                                 f" real number, got {value!r}")
        self.family = family
        self.params = dict(params)
        if _homogeneity(self) >= 3.0:
            raise OutOfRange(f"{family} field parameter 's' = {params['s']!r} >= 2:"
                             " its potential Q diverges")

    def eval(self, p):
        """H at points (..., 3) -> (...,)."""
        p = np.asarray(p, dtype=float)
        r = np.linalg.norm(p, axis=-1)
        f = self.family
        if f == "zero":
            h = np.zeros(r.shape)
        elif f == "constant":
            h = np.full(r.shape, float(self.params["h0"]))
        elif f == "radial":
            h = self.params["c"] / r
        elif f == "power":
            c, s = self.params["c"], self.params["s"]
            h = c / r ** (1.0 + s)
        else:
            c, a = self.params["c"], self.params["a"]
            h = (c + a * (p[..., 2] / r)) / r
        return h

    def grad(self, p):
        """grad H at points (..., 3) -> (..., 3)."""
        p = np.asarray(p, dtype=float)
        r = np.linalg.norm(p, axis=-1, keepdims=True)
        f = self.family
        if f in ("zero", "constant"):
            return np.zeros(p.shape)
        if f == "radial":
            return -self.params["c"] * p / r**3
        if f == "power":
            c, s = self.params["c"], self.params["s"]
            return -c * (1.0 + s) * p / r ** (3.0 + s)
        c, a = self.params["c"], self.params["a"]
        # H = c/r + a z / r^2
        return -c * p / r**3 + a * (_E3 / r**2 - 2.0 * p[..., 2:] * p / r**4)

    def scaled(self, factor):
        """Field factor * H, used for solver continuation."""
        params = {
            k: factor * v if k in _STRENGTHS else v for k, v in self.params.items()
        }
        return CurvatureField(self.family, **params)

    def __repr__(self):
        return f"CurvatureField({self.family!r}, {self.params})"


# the parameters of each family
PARAMS = {
    "zero": (),
    "constant": ("h0",),
    "radial": ("c",),
    "power": ("c", "s"),
    "modulated": ("c", "a"),
}


def _homogeneity(field):
    """k with H(t p) = t^(-k) H(p) for t > 0."""
    if field.family in ("zero", "constant"):
        return 0.0
    if field.family == "power":
        return 1.0 + field.params["s"]
    return 1.0


def build_potential_Q(field, p):
    """Vector potential Q(p) = (int_0^1 H(t p) t^2 dt) p, so div Q = H.

    For a field homogeneous of degree -k the integral is H(p) / (3 - k),
    finite since a field has k < 3.  Takes points (..., 3) like `field.eval`.
    """
    p = np.asarray(p, dtype=float)
    if np.any(np.linalg.norm(p, axis=-1) <= 0.0):
        raise OutOfRange("Q is undefined at the origin")
    return (field.eval(p) / (3.0 - _homogeneity(field)))[..., None] * p


def check_growth(field, beta, samples):
    """min over samples of c_beta - |H(p)| |p|; nonnegative iff the radial
    growth bound holds on the sampled set."""
    p = np.asarray(samples, dtype=float).reshape(-1, 3)
    slack = c_beta(beta) - np.abs(field.eval(p)) * np.linalg.norm(p, axis=1)
    return float(np.min(slack, initial=np.inf))


def check_monotonicity(field, samples):
    """min over samples of H(p) + grad H(p) . p, the derivative at lambda=1
    of lambda -> lambda H(lambda p)."""
    p = np.asarray(samples, dtype=float).reshape(-1, 3)
    d = field.eval(p) + np.einsum("ij,ij->i", field.grad(p), p)
    return float(np.min(d, initial=np.inf))

