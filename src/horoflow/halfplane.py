"""Upper half-plane geometry: points, Moebius maps, frames, distances, cross-ratios.

Points live in the open upper half-plane H = {z : Im z > 0}; the boundary is
the extended real line R u {inf}. Isometries are real 2x2 matrices of unit
determinant acting as z -> (az+b)/(cz+d), with M and -M identified (the sign
is canonicalized so the first coefficient of (a, b, c, d) larger than a small
threshold in magnitude is positive). A unit tangent vector is recorded as its
frame: the map carrying the reference vector (at i, pointing up) to it.

Boundary points are handled projectively: a finite x is the ray (x : 1) and
infinity is (1 : 0), so cross-ratios and harmonic conjugates need no special
casing beyond the projective "difference" D((p1:p2), (q1:q2)) = p1*q2 - q1*p2.
``_check_real`` and ``_check_int`` are the input rules every module shares.
"""

from __future__ import annotations

import inspect
import math
import operator
from dataclasses import MISSING, FrozenInstanceError, dataclass, fields

import numpy as np

from .errors import DegeneratePoints, InvalidPoint, NoIntersection

DET_TOL = 1e-12       # relative determinant tolerance for Moebius values
SIGN_TOL = 1e-12      # magnitude threshold for the sign canonicalization
GEOM_TOL = 1e-9       # default tolerance for geometric comparisons
MAX_SAMPLES = 2_000_000  # longest sample grid of a profile, an orbit table or a verify run
_TINY = float(np.finfo(float).tiny)  # the least normal float


def _check_real(name: str, value, least: float = -math.inf, strict: bool = False) -> float:
    """``value`` as a float: an int, a float or a NumPy scalar but a bool,
    finite and at least ``least`` (above it when ``strict``); ValueError
    otherwise."""
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    try:
        x = float(value)
    except OverflowError:  # an int past the float range
        x = math.inf
    if not (math.isfinite(x) and (x > least if strict else x >= least)):
        bound = "" if least == -math.inf else f" and {'>' if strict else '>='} {least:g}"
        raise ValueError(f"{name} must be finite{bound}, got {value!r}")
    return x


def _check_int(name: str, value, least: int) -> int:
    """``value`` as a plain int: what operator.index takes (an int or a NumPy
    integer) but a bool, at least ``least``; ValueError otherwise."""
    try:
        n = operator.index(None if isinstance(value, bool) else value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None
    if n < least:
        raise ValueError(f"{name} must be at least {least}, got {n}")
    return n


def _record(cls=None, /, *, eq: bool = True):
    """``@dataclass(frozen=True)`` (``eq=False`` passes on) with methods that
    every record shares. ``dataclass`` keeps the field metadata (``fields``,
    ``replace``) but writes and ``exec``s no code: its six methods a class
    cost about 0.5 ms of each import. The closures below act as they would;
    a wrong call raises the TypeError of ``__init__.__signature__``. Setting
    or deleting any attribute raises FrozenInstanceError, on a record or a subclass."""
    if cls is None:
        return lambda cls: _record(cls, eq=eq)
    cls = dataclass(cls, init=False, repr=False, eq=False)
    own = fields(cls)
    init = [f for f in own if f.init]
    names = tuple(f.name for f in init)
    fill = tuple(f.default for f in init)  # MISSING where a field has no default
    P = inspect.Parameter
    sig = inspect.Signature([P("self", P.POSITIONAL_OR_KEYWORD)] + [
        P(f.name, P.POSITIONAL_OR_KEYWORD, annotation=f.type,
          default=P.empty if f.default is MISSING else f.default) for f in init])
    post_init = getattr(cls, "__post_init__", None)
    shown = [f.name for f in own if f.repr]
    compared = [f.name for f in own if f.compare]
    key = operator.attrgetter(*compared)  # a tuple, but for one name
    if len(compared) == 1:
        key = lambda self, get=key: (get(self),)

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != len(names):
            n, rest = len(args), dict(kwargs)
            values = (*args, *map(rest.pop, names[n:], fill[n:]))
            if rest or len(values) != len(names) or any(v is MISSING for v in values):
                sig.bind(self, *args, **kwargs)  # raises the TypeError of such a call
            args = values
        self.__dict__.update(zip(names, args))
        if post_init is not None:
            post_init(self)

    def __repr__(self):
        body = ", ".join(f"{n}={getattr(self, n)!r}" for n in shown)
        return f"{self.__class__.__qualname__}({body})"

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return key(self) == key(other)
        return NotImplemented

    def __hash__(self):
        return hash(key(self))

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    __init__.__signature__ = sig
    methods = [__init__, __setattr__, __delattr__] + [__eq__, __hash__] * eq
    for fn in methods + [__repr__] * ("__repr__" not in cls.__dict__):
        fn.__qualname__ = f"{cls.__qualname__}.{fn.__name__}"
        setattr(cls, fn.__name__, fn)
    return cls


@_record
class PointH:
    """A point of the open upper half-plane."""

    re: float
    im: float

    def __post_init__(self):
        re, im = _check_real("re", self.re), _check_real("im", self.im)
        if not im > 0.0:
            raise ValueError(f"point must have im > 0, got im={self.im}")
        object.__setattr__(self, "re", re)
        object.__setattr__(self, "im", im)

    @property
    def z(self) -> complex:
        return complex(self.re, self.im)


POINT_I = PointH(0.0, 1.0)


@_record
class BoundaryPoint:
    """A point of the boundary circle R u {inf}; value None (stored for +-inf) is inf."""

    value: float | None = None

    def __post_init__(self):
        if self.value is not None and not math.isfinite(self.value):
            if math.isnan(self.value):
                raise InvalidPoint("a boundary point must be a real number or inf, got nan")
            object.__setattr__(self, "value", None)

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
    """Coerce a real number, inf, 'inf', None or a BoundaryPoint into a
    BoundaryPoint; anything else (a bool, another string, NaN) is an
    InvalidPoint."""
    if isinstance(x, BoundaryPoint):
        return x
    if x is None or x == math.inf or x == -math.inf or x == "inf":
        return INFINITY
    try:
        return BoundaryPoint(_check_real("a boundary point", x))
    except ValueError:
        raise InvalidPoint(f"a boundary point must be a real number or inf, got {x!r}") from None


@_record
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
        a, b, c, d = map(_check_real, "abcd", (self.a, self.b, self.c, self.d))
        det = a * d - b * c
        scale = max(1.0, abs(a * d), abs(b * c))
        # finite entries may still overflow their products to inf or NaN
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
        a, b, c, d = map(_check_real, "abcd", (a, b, c, d))
        det = a * d - b * c
        if det <= 0.0:
            raise ValueError(f"matrix must have positive determinant, got {det}")
        r = math.sqrt(det)
        return cls(a / r, b / r, c / r, d / r)

    @classmethod
    def from_matrix(cls, m) -> "Mobius":
        try:
            (a, b), (c, d) = m
        except (TypeError, ValueError):
            raise ValueError(f"expected a matrix ((a, b), (c, d)), got {m!r}") from None
        return cls(a, b, c, d)

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
        return _near_identity(self.a, self.b, self.c, self.d, tol)


_IDENTITY = Mobius.identity()  # one shared value: each construction checks its det


def _near_identity(a, b, c, d, tol: float):
    # with & rather than and: arrays of rows give a mask, floats a bool
    return (abs(a - 1.0) <= tol) & (abs(b) <= tol) & (abs(c) <= tol) & (abs(d - 1.0) <= tol)


@_record
class Geodesic:
    """Unoriented complete geodesic recorded by its two boundary endpoints."""

    neg: BoundaryPoint
    pos: BoundaryPoint

    def __post_init__(self):
        object.__setattr__(self, "neg", bp(self.neg))
        object.__setattr__(self, "pos", bp(self.pos))
        if self.neg == self.pos:
            raise DegeneratePoints(f"geodesic endpoints must differ, got {self.neg} twice")


@_record
class Horocycle:
    """Horocycle about ``base``: the level set {z : B_base(i, z) = level}."""

    base: BoundaryPoint
    level: float

    def __post_init__(self):
        object.__setattr__(self, "base", bp(self.base))
        object.__setattr__(self, "level", _check_real("level", self.level))

    @classmethod
    def through(cls, base: BoundaryPoint, p: PointH) -> "Horocycle":
        return cls(base, busemann(base, POINT_I, p))

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


@_record
class UnitTangent:
    """Unit tangent vector, stored as the frame mapping the reference vector to it."""

    frame: Mobius

    def __post_init__(self):
        if not isinstance(self.frame, Mobius):
            raise ValueError(f"a frame must be a Mobius value, got {self.frame!r}")

    def base_point(self) -> PointH:
        return apply(self.frame, POINT_I)

    def forward_endpoint(self) -> BoundaryPoint:
        return apply_boundary(self.frame, INFINITY)

    def transform(self, m: Mobius) -> "UnitTangent":
        return UnitTangent(m @ self.frame)


BASE_TANGENT = UnitTangent(_IDENTITY)


# ---------------------------------------------------------------------------
# metric


def dist(z: PointH, w: PointH) -> float:
    """Hyperbolic distance 2*argsinh(|z - w| / (2*sqrt(Im z * Im w)))."""
    h = z.im * w.im  # past the normal range it has lost digits or its value
    root = math.sqrt(h) if _TINY <= h < math.inf else math.sqrt(z.im) * math.sqrt(w.im)
    try:
        x = abs(z.z - w.z) / (2.0 * root)
    except OverflowError:  # the modulus of a finite difference overflows
        x = math.inf
    if not x < math.inf:  # inf or inf/inf: the quarters, exact at that size, do not overflow
        q = math.hypot(0.25 * z.re - 0.25 * w.re, 0.25 * z.im - 0.25 * w.im)
        x = q / root * 2.0
        if x == math.inf:  # there asinh(x) = ln(2x) to the last bit
            return 2.0 * (math.log(q) - math.log(root) + math.log(4.0))
    return 2.0 * math.asinh(x)


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
    (m1, e1), (m2, e2), (m3, e3), (m4, e4) = (
        _frexp_pdiff(p, q) for p, q in ((a, c), (b, d), (a, d), (b, c)))
    # mantissas lie in [0.5, 1), so only the exponent can leave the float
    # range: the ratio then becomes +-inf or 0.0
    r = (m1 * m2) / (m3 * m4)
    try:
        return math.ldexp(r, e1 + e2 - e3 - e4)
    except OverflowError:
        return math.copysign(math.inf, r)


def _frexp_pdiff(p: BoundaryPoint, q: BoundaryPoint) -> tuple[float, int]:
    # only two finite points can differ past the float range; their halves,
    # exact at that size, cannot
    diff = _pdiff(p, q)
    if math.isinf(diff):
        m, e = math.frexp(0.5 * p.proj[0] - 0.5 * q.proj[0])
        return m, e + 1
    return math.frexp(diff)


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
    # geodesics cross in the open half-plane, iff [a; b; c; d] < 0: an odd
    # number of its four differences is negative (each sign is exact).
    if sum(_pdiff(p, q) < 0.0 for p, q in ((a, c), (b, d), (a, d), (b, c))) % 2 == 0:
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
    sq = dx * dx + p.im * p.im  # past the normal range it has lost digits or its value
    if _TINY <= sq < math.inf:
        log_sq = math.log(sq)
    elif (r := math.hypot(dx, p.im)) < math.inf:
        log_sq = 2.0 * math.log(r)
    else:  # dx or |p - xi| overflows: the quarters, exact at that size, do not
        r = math.hypot(0.25 * p.re - 0.25 * xi.value, 0.25 * p.im)
        log_sq = 2.0 * (math.log(r) + math.log(4.0))
    return math.log(p.im) - log_sq


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
