"""Exception types shared across the package."""


class ConesurfError(Exception):
    """Base class for all errors raised by this package."""


class PoleSingularity(ConesurfError):
    """Stereographic projection evaluated too close to the south pole."""


class OutOfRange(ConesurfError):
    """A scalar parameter is outside its admissible interval."""


class PointOnCurve(ConesurfError):
    """Winding-number query point lies on (or too close to) the loop."""


class NotBetaConvexAt(ConesurfError):
    """No admissible cone axis exists at the given boundary parameter."""

    def __init__(self, theta, message=None):
        self.theta = theta
        super().__init__(message or f"no admissible cone axis at theta={theta:.6g}")


class SignChange(ConesurfError):
    """Orientation determinant changed sign along the boundary."""


class CurveLeavesCone(ConesurfError):
    """Some point of the boundary curve lies outside the closed cone."""


class AxisSingularity(ConesurfError):
    """Mean-curvature formula evaluated on the axis of revolution."""


class NoConvergence(ConesurfError):
    """Iterative solver stalled or hit the iteration cap before meeting
    tolerances.  `iterations` counts every iteration of the solve; `level`
    is the continuation level that failed and `contraction` the estimated
    ratio of its successive updates, when known."""

    def __init__(self, iterations, residual, level=None, contraction=None):
        self.iterations = iterations
        self.residual = residual
        self.level = level
        self.contraction = contraction
        where = "" if level is None else f" at continuation level {level}"
        if contraction is not None:
            where += f", contraction {contraction:.4g}"
        super().__init__(
            f"no convergence after {iterations} iterations{where}"
            f" (residual {residual:.3e})"
        )


class FieldOutOfDomain(ConesurfError):
    """A solver iterate left the domain of the curvature field."""


class OriginHit(ConesurfError):
    """The surface passes through (or too close to) the origin."""


class InconsistentDegree(ConesurfError):
    """Winding degrees disagree between probe points."""


class NotInjectiveAt(ConesurfError):
    """A spherical grid point is covered by more than one triangle."""

    def __init__(self, point, count):
        self.point = point
        self.count = count
        super().__init__(f"grid point {point} covered by {count} triangles")


class Uncovered(ConesurfError):
    """A spherical grid point is covered by no triangle."""

    def __init__(self, point):
        self.point = point
        super().__init__(f"grid point {point} not covered by any triangle")


class EigensolverFailure(ConesurfError):
    """The stability eigen-solve failed to converge."""


class FloatingPointFailure(ConesurfError):
    """A numpy overflow, invalid value or division by zero."""


class ConfigInvalid(ConesurfError):
    """The run configuration failed schema or range validation."""


class IoError(ConesurfError):
    """File input/output failed."""

    def __init__(self, path, message=None):
        self.path = str(path)
        super().__init__(message or f"i/o failure at {self.path}")
