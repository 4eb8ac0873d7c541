"""Exception types raised by the horoflow modules."""


class HoroflowError(Exception):
    """Base class for all domain errors raised by this package."""


class DegeneratePoints(HoroflowError, ValueError):
    """Boundary points coincide where distinct points are required."""


class NoIntersection(HoroflowError):
    """The two geodesics do not cross in the open half-plane."""


class EllipticElement(HoroflowError):
    """An elliptic element was passed where only hyperbolic/parabolic ones make sense."""


class BallTooLarge(HoroflowError):
    """Word-ball enumeration exceeded the configured element cap."""


class CoefficientOverflow(HoroflowError, ValueError):
    """Word-ball coefficients or their dedup keys left the finite float range,
    or a row's determinant drifted from 1 past its word length's tolerance."""


class InvalidGenerator(HoroflowError, ValueError):
    """A generator matrix is not admissible (bad determinant, or the identity)."""


class NegativeTime(HoroflowError, ValueError):
    """A ray was asked for a point at negative time."""


class NoSequenceFound(HoroflowError):
    """No qualifying bounded escaping sequence exists in the enumerated ball.

    Carries ``found``, the number of elements that did qualify.
    """

    def __init__(self, message, found=0):
        super().__init__(message)
        self.found = found


class EmptyBall(HoroflowError):
    """An operation needing group elements received an empty word ball."""


class ParseError(HoroflowError, ValueError):
    """A group-spec JSON document is malformed or violates the schema."""


class InvalidPoint(HoroflowError, ValueError):
    """A point coordinate is not a number."""
