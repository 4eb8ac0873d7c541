"""Upper half-plane geometry: points, Moebius maps, distances, cross-ratios.

Points live in the open upper half-plane H = {z : Im z > 0}; the boundary is
the extended real line R u {inf}. Isometries are real 2x2 matrices of unit
determinant acting as z -> (az+b)/(cz+d), with M and -M identified (the sign
is canonicalized so the first coefficient of (a, b, c, d) larger than a small
threshold in magnitude is positive).

Boundary points are handled projectively: a finite x is the ray (x : 1) and
infinity is (1 : 0), so cross-ratios and harmonic conjugates need no special
casing beyond the projective "difference" D((p1:p2), (q1:q2)) = p1*q2 - q1*p2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DegeneratePoints, InvalidPoint, NoIntersection

DET_TOL = 1e-12       # relative determinant tolerance for Moebius values
SIGN_TOL = 1e-12      # magnitude threshold for the sign canonicalization
GEOM_TOL = 1e-9       # default tolerance for geometric comparisons


@dataclass(frozen=True)
class PointH:
    """A point of the open upper half-plane."""

    re: float
    im: float

    def __post_init__(self):
        if not self.im > 0.0:
            raise ValueError(f"point must have im > 0, got im={self.im}")

    @property
    def z(self) -> complex:
        return complex(self.re, self.im)


POINT_I = PointH(0.0, 1.0)


@dataclass(frozen=True)
class BoundaryPoint:
    """A point of the boundary circle R u {inf}; value None encodes inf."""

    value: float | None = None

    @property
    def is_infinity(self) -> bool:
        return self.value is None

    @property
    def proj(self) -> tuple[float, float]:
        """Projective coordinates (p1, p2) with x = p1/p2."""
        if self.value is None:
            return (1.0, 0.0)
        return (self.value, 1.0)

    def __repr__(self):
        return "BoundaryPoint(inf)" if self.value is None else f"BoundaryPoint({self.value!r})"


INFINITY = BoundaryPoint(None)


def bp(x) -> BoundaryPoint:
    """Coerce a float, 'inf', or BoundaryPoint into a BoundaryPoint."""
    if isinstance(x, BoundaryPoint):
        return x
    if x is None or x == math.inf or x == -math.inf or x == "inf":
        return INFINITY
    v = float(x)
    if math.isnan(v):
        raise InvalidPoint("a boundary point must be a real number or inf, got nan")
    return BoundaryPoint(v)


@dataclass(frozen=True)
class Mobius:
    """Unit-determinant real Moebius transformation, sign-canonicalized.

    The constructor insists on finite entries and det = ad - bc = 1 within
    DET_TOL (relative to the size of the products); use :meth:`normalized` to
    rescale a positive-determinant matrix first.
    """

    a: float
    b: float
    c: float
    d: float

    def __post_init__(self):
        a, b, c, d = float(self.a), float(self.b), float(self.c), float(self.d)
        det = a * d - b * c
        scale = max(1.0, abs(a * d), abs(b * c))
        # an infinite or NaN entry makes det infinite or NaN
        if not (math.isfinite(det) and abs(det - 1.0) <= DET_TOL * scale):
            raise ValueError(f"matrix ({a}, {b}, {c}, {d}) has det {det}, not 1")
        self._store(a, b, c, d)

    def _store(self, a: float, b: float, c: float, d: float) -> None:
        for x in (a, b, c, d):
            if abs(x) > SIGN_TOL:
                if x < 0.0:
                    a, b, c, d = -a, -b, -c, -d
                break
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "d", d)

    @classmethod
    def _admitted(cls, a: float, b: float, c: float, d: float) -> "Mobius":
        """A Mobius from entries whose determinant has already been checked,
        sign-canonicalized without a second check: a word-ball row, admitted
        with a tolerance that grows with its word length, or an inverse."""
        m = object.__new__(cls)
        m._store(float(a), float(b), float(c), float(d))
        return m

    @classmethod
    def identity(cls) -> "Mobius":
        return cls(1.0, 0.0, 0.0, 1.0)

    @classmethod
    def normalized(cls, a, b, c, d) -> "Mobius":
        """Rescale (a, b, c, d) with det > 0 to unit determinant."""
        det = a * d - b * c
        if det <= 0.0:
            raise ValueError(f"matrix must have positive determinant, got {det}")
        r = math.sqrt(det)
        return cls(a / r, b / r, c / r, d / r)

    @classmethod
    def from_matrix(cls, m) -> "Mobius":
        (a, b), (c, d) = m
        return cls(float(a), float(b), float(c), float(d))

    @property
    def trace(self) -> float:
        return self.a + self.d

    def __matmul__(self, other: "Mobius") -> "Mobius":
        # The product of unit-det factors has det 1 exactly; rescaling by the
        # float det would inject noise (it cancels to 0 for huge entries).
        a = self.a * other.a + self.b * other.c
        b = self.a * other.b + self.b * other.d
        c = self.c * other.a + self.d * other.c
        d = self.c * other.b + self.d * other.d
        return Mobius(a, b, c, d)

    def inverse(self) -> "Mobius":
        # the same products, so the same determinant as self
        return Mobius._admitted(self.d, -self.b, -self.c, self.a)

    def is_identity(self, tol: float = GEOM_TOL) -> bool:
        return (
            abs(self.a - 1.0) <= tol
            and abs(self.b) <= tol
            and abs(self.c) <= tol
            and abs(self.d - 1.0) <= tol
        )


@dataclass(frozen=True)
class Geodesic:
    """Unoriented complete geodesic recorded by its two boundary endpoints."""

    neg: BoundaryPoint
    pos: BoundaryPoint

    def __post_init__(self):
        object.__setattr__(self, "neg", bp(self.neg))
        object.__setattr__(self, "pos", bp(self.pos))
        if self.neg == self.pos:
            raise DegeneratePoints(f"geodesic endpoints must differ, got {self.neg} twice")


@dataclass(frozen=True)
class Horocycle:
    """Horocycle about ``base``: the level set {z : B_base(i, z) = level}."""

    base: BoundaryPoint
    level: float

    @classmethod
    def through(cls, base: BoundaryPoint, p: PointH) -> "Horocycle":
        return cls(bp(base), busemann(base, POINT_I, p))

    def contains(self, p: PointH, tol: float = GEOM_TOL) -> bool:
        return abs(busemann(self.base, POINT_I, p) - self.level) <= tol


# ---------------------------------------------------------------------------
# actions


def apply(m: Mobius, z: PointH) -> PointH:
    """Apply the Moebius map to an interior point."""
    w = (m.a * z.z + m.b) / (m.c * z.z + m.d)
    return PointH(w.real, w.imag)


def apply_boundary(m: Mobius, x: BoundaryPoint) -> BoundaryPoint:
    """Apply the Moebius map to a boundary point, projectively.

    A finite x with c*x + d == 0 maps to infinity; infinity maps to a/c when
    c != 0 and stays at infinity otherwise.
    """
    x = bp(x)
    if x.is_infinity:
        if m.c == 0.0:
            return INFINITY
        return BoundaryPoint(m.a / m.c)
    den = m.c * x.value + m.d
    if den == 0.0:
        return INFINITY
    return BoundaryPoint((m.a * x.value + m.b) / den)


# ---------------------------------------------------------------------------
# metric


def dist(z: PointH, w: PointH) -> float:
    """Hyperbolic distance 2*argsinh(|z - w| / (2*sqrt(Im z * Im w)))."""
    return 2.0 * math.asinh(abs(z.z - w.z) / (2.0 * math.sqrt(z.im * w.im)))


# ---------------------------------------------------------------------------
# cross-ratio and friends


def _pdiff(p: BoundaryPoint, q: BoundaryPoint) -> float:
    """Projective difference: reduces to p - q for finite points."""
    p1, p2 = p.proj
    q1, q2 = q.proj
    return p1 * q2 - q1 * p2


def cross_ratio(a, b, c, d) -> float:
    """Cross-ratio [a; b; c; d] = (a-c)(b-d) / ((a-d)(b-c)) on the boundary.

    Arguments must be four pairwise distinct boundary points; each factor
    containing infinity cancels projectively, e.g. [a; b; c; inf] = (a-c)/(b-c).
    """
    a, b, c, d = bp(a), bp(b), bp(c), bp(d)
    pts = (a, b, c, d)
    for i in range(4):
        for j in range(i + 1, 4):
            if pts[i] == pts[j]:
                raise DegeneratePoints(f"cross-ratio needs distinct points, got {pts[i]} twice")
    return (_pdiff(a, c) * _pdiff(b, d)) / (_pdiff(a, d) * _pdiff(b, c))


def angle_between(g1: Geodesic, g2: Geodesic) -> float:
    """Intersection angle in [0, pi] of two crossing geodesics.

    The endpoints are relabeled so the boundary cyclic order is
    (a; c; b; d), after which cos(angle) = 2*[a; c; d; b] - 1.

    Raises NoIntersection when the geodesics are identical or do not cross in
    the open half-plane, DegeneratePoints when they share exactly one endpoint.
    """
    a, b = g1.neg, g1.pos
    c, d = g2.neg, g2.pos
    if {a, b} == {c, d}:
        raise NoIntersection("identical geodesics do not meet in a single point")
    shared = {a, b} & {c, d}
    if shared:
        raise DegeneratePoints(f"geodesics share the endpoint {shared.pop()}")
    # The pairs {a,b} and {c,d} separate each other on the circle iff the
    # geodesics cross in the open half-plane.
    if cross_ratio(a, b, c, d) >= 0.0:
        raise NoIntersection("geodesics do not cross in the open half-plane")
    # (a; c; b) runs the boundary's way round (up the line, then through inf)
    # when an even number of the differences a - c, c - b, b - a is negative
    if sum(_pdiff(p, q) < 0.0 for p, q in ((a, c), (c, b), (b, a))) % 2:
        c, d = d, c  # realize cyclic order (a; c; b; d)
    x = cross_ratio(a, c, d, b)
    return math.acos(min(1.0, max(-1.0, 2.0 * x - 1.0)))


def harmonic_conjugate(y, x, z) -> BoundaryPoint:
    """The point beta with [y; x; beta; z] = -1, solved projectively.

    The geodesic (beta, z) is orthogonal to the geodesic (y, x).
    """
    y, x, z = bp(y), bp(x), bp(z)
    if y == x or y == z or x == z:
        raise DegeneratePoints("harmonic conjugate needs three distinct points")
    k1 = _pdiff(x, z)
    k2 = _pdiff(y, z)
    y1, y2 = y.proj
    x1, x2 = x.proj
    u = y1 * k1 + x1 * k2
    v = y2 * k1 + x2 * k2
    if v == 0.0:
        return INFINITY
    return BoundaryPoint(u / v)


# ---------------------------------------------------------------------------
# Busemann cocycle


def _log_height(xi: BoundaryPoint, p: PointH) -> float:
    if xi.is_infinity:
        return math.log(p.im)
    dx = p.re - xi.value
    return math.log(p.im) - math.log(dx * dx + p.im * p.im)


def height(xi, p: PointH) -> float:
    """Horospherical height of p about xi: Im p for xi = inf, else Im p / |p - xi|^2."""
    return math.exp(_log_height(bp(xi), p))


def busemann(xi, z: PointH, w: PointH) -> float:
    """Busemann cocycle B_xi(z, w) = ln(height_xi(w) / height_xi(z)).

    Additive in the middle point and invariant under simultaneous Moebius
    action on all three arguments.
    """
    xi = bp(xi)
    return _log_height(xi, w) - _log_height(xi, z)
