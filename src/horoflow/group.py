"""Finitely generated Fuchsian groups: word balls, classification, presets.

A group is given by its generators (unit-determinant Moebius values); elements
are enumerated breadth-first as reduced words up to a maximum word length,
deduplicated up to sign on a rounding grid, in a deterministic order (word
length first, then lexicographic word).
"""

from __future__ import annotations

import enum
import functools
import math
import operator
from collections.abc import Sequence
from dataclasses import dataclass, replace

import numpy as np

from .errors import BallTooLarge, CoefficientOverflow, EllipticElement, InvalidGenerator
from .halfplane import (DET_TOL, INFINITY, SIGN_TOL, BoundaryPoint, Mobius, _check_real,
                        _near_identity)

DEDUP_TOL = 1e-9      # rounding grid for element deduplication
CLASS_TOL = 1e-9      # tolerance on |trace| - 2 for the isometry trichotomy
ENUM_CAP = 2_000_000  # hard cap on enumerated elements


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


def _invalid(check, *args):
    """``check(*args)``, its ValueError raised as InvalidGenerator."""
    try:
        return check(*args)
    except ValueError as exc:
        raise InvalidGenerator(str(exc)) from None


class IsometryClass(enum.Enum):
    HYPERBOLIC = "hyperbolic"
    PARABOLIC = "parabolic"
    ELLIPTIC = "elliptic"
    IDENTITY = "identity"


@dataclass(frozen=True)
class GroupElement:
    """A group element: its Moebius value and a shortest witnessing word.

    ``word`` is a tuple of signed 1-based generator indices (+k for the k-th
    generator, -k for its inverse); it is None only for synthetic elements
    injected into diagnostics, never for enumerated ones.
    """

    mobius: Mobius
    word: tuple[int, ...] | None = None


@dataclass(frozen=True)
class GroupSpec:
    """Generators plus enumeration parameters."""

    generators: tuple[Mobius, ...]
    max_word_length: int = 10
    dedup_tol: float = DEDUP_TOL

    def __post_init__(self):
        gens = tuple(self.generators)
        object.__setattr__(self, "generators", gens)
        if not gens:
            raise InvalidGenerator("a group spec needs at least one generator")
        # checked before the identity test, which every generator passes on an infinite grid
        tol = _invalid(_check_real, "dedup_tol", self.dedup_tol, 0.0, True)
        for g in gens:
            if not isinstance(g, Mobius):
                raise InvalidGenerator(f"generator {g!r} is not a Mobius value")
            if g.is_identity(tol):
                raise InvalidGenerator("the identity is not an admissible generator")
        object.__setattr__(self, "dedup_tol", tol)
        object.__setattr__(self, "max_word_length",
                           _invalid(_check_int, "max_word_length", self.max_word_length, 1))


@np.errstate(over="ignore", invalid="ignore")  # overflow is checked below
def dedup_keys(coeffs: np.ndarray, tol: float) -> np.ndarray:
    """The cell of each column (a, b, c, d) on the dedup grid of spacing ``tol``,
    as a (4, n) array of its floats' uint64 bits; elements merge when cells match.

    Raises CoefficientOverflow when an entry or its cell is not finite, since
    such columns would merge with each other.
    """
    cells = np.divide(coeffs, tol)
    np.rint(cells, out=cells)
    cells += 0.0  # turns -0.0 into 0.0
    if not np.isfinite(cells).all():
        raise CoefficientOverflow(f"a word-ball coefficient overflows the dedup grid "
                                  f"of spacing {tol:g}; use a smaller depth")
    return cells.view(np.uint64)


def _cell_hash(cells: np.ndarray) -> np.ndarray:
    # a uint64 per cell of dedup_keys, xor-shift-multiply word by word in order
    mix = np.uint64(0x9E3779B97F4A7C15)
    h = cells[0] * mix
    for w in cells[1:]:
        h ^= h >> 29
        h ^= w
        h *= mix
    return h ^ (h >> 32)


def _check_det(p: np.ndarray, length: int) -> None:
    # The Mobius determinant check per column, its tolerance scaled by the
    # word length: each of the ``length`` rounded products may add its drift.
    a, b, c, d = p
    det = a * d - b * c
    scale = np.maximum(1.0, np.maximum(np.abs(a * d), np.abs(b * c)))
    bad = ~(np.abs(det - 1.0) <= (DET_TOL * length) * scale)
    if bad.any():
        i = int(bad.argmax())
        raise ValueError(f"matrix {tuple(p[:, i].tolist())} has det {float(det[i])}, not 1")


def _first_new(coef: np.ndarray, hashes: np.ndarray, n: int, m: int, tol: float) -> np.ndarray:
    # The candidates in buffer rows n..n+m-1 (as offsets from n) whose cell
    # no lower row has: rows sorted by hash, ties compared on cells, and runs
    # holding distinct cells sorted by (hash, cell), so exact for any hash.
    order = np.argsort(hashes[:n + m])
    tie = hashes[order[1:]] == hashes[order[:-1]]
    if not tie.any():
        return np.arange(m)
    rows = order[np.r_[tie, False] | np.r_[False, tie]]  # grouped by hash
    keys = [hashes[rows], *dedup_keys(coef[:, rows], tol)]
    split = np.any([k[1:] != k[:-1] for k in keys], axis=0)
    if (split & (keys[0][1:] == keys[0][:-1])).any():
        o = np.lexsort(keys[::-1])
        rows, split = rows[o], np.any([k[o][1:] != k[o][:-1] for k in keys], axis=0)
    first = np.minimum.reduceat(rows, np.flatnonzero(np.r_[True, split]))
    keep = np.ones(n + m, dtype=bool)
    keep[rows] = False
    keep[first] = True
    return np.flatnonzero(keep[n:])


@dataclass(frozen=True, eq=False)
class Ball(Sequence):
    """A word ball as read-only arrays, one row per non-identity element,
    and the read-only sequence of those elements: ``ball[i]`` builds row i's
    GroupElement, a slice a tuple of them.

    Row i has coefficients (a[i], b[i], c[i], d[i]) (float64) and the word of
    row parent[i] (the empty word for -1) followed by letter[i], a signed
    1-based generator index (+k for the k-th generator, -k for its inverse).
    ``word_lengths``, ``parent`` and ``letter`` are int32: a ball holds at most
    ENUM_CAP rows. Rows run by word length, then lexicographically by word
    with +1 < -1 < +2 < -2 < ... Of elements equal up to sign on the dedup
    grid only the first is kept.
    """

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    d: np.ndarray
    word_lengths: np.ndarray
    parent: np.ndarray
    letter: np.ndarray

    def __post_init__(self):
        for arr in vars(self).values():
            arr.flags.writeable = False

    def __len__(self) -> int:
        return self.a.size

    def word(self, i: int) -> tuple[int, ...]:
        w = []
        while i >= 0:
            w.append(int(self.letter[i]))
            i = int(self.parent[i])
        return tuple(reversed(w))

    def __getitem__(self, i):
        i = range(len(self))[i]  # an index in [0, len) or a range; IndexError outside
        if isinstance(i, range):
            return tuple(map(self.__getitem__, i))
        # the row's own coefficients: _check_det admitted them for its word length
        m = Mobius._admitted(self.a[i], self.b[i], self.c[i], self.d[i])
        return GroupElement(m, self.word(i))

    @functools.cached_property
    def isometry_rows(self) -> tuple[np.ndarray, np.ndarray]:
        """Row indices (parabolic, elliptic), as classify_isometry sorts
        them: the trace picks the few candidates, then the identity test.
        Computed once per ball, as read-only arrays."""
        t = np.abs(self.a + self.d)
        parabolic = np.abs(t - 2.0) <= CLASS_TOL
        rows = np.nonzero(parabolic | ~(t > 2.0))[0]
        rows = rows[~_near_identity(self.a[rows], self.b[rows], self.c[rows], self.d[rows],
                                    CLASS_TOL)]
        out = rows[parabolic[rows]], rows[~parabolic[rows]]
        for arr in out:
            arr.flags.writeable = False
        return out

    @functools.cached_property
    def inf_heights(self) -> np.ndarray:
        """height_inf(g(i)) per row, the floats of orbit_height(self,
        INFINITY). Computed once per ball, as a read-only array."""
        h = orbit_height(self, INFINITY)
        h.flags.writeable = False
        return h

    @functools.cached_property
    def inf_order(self) -> np.ndarray:
        """Row indices in stable ascending order of inf_heights, so that a
        height band at infinity is a slice found by searchsorted. Computed
        once per ball, as a read-only array."""
        # a stable argsort of the floats is a timsort; the default one and a
        # sort of int64 keys (tie run, row) give the same order in half the time
        h = self.inf_heights
        n = h.size
        order = np.argsort(h)
        keys = h[order]
        ties = keys[1:] != keys[:-1]
        keys = keys.view(np.int64)  # the sorted heights' buffer takes the keys
        keys[:1] = 0
        np.cumsum(ties, out=keys[1:])
        keys *= n
        keys += order
        keys.sort()
        keys %= n
        keys.flags.writeable = False
        return keys


@np.errstate(over="ignore", invalid="ignore")  # dedup_keys checks overflow
def _build_ball(spec: GroupSpec, depth: int, max_elements: int) -> Ball:
    # Breadth-first, level by level, in slices of frontier rows: each row
    # times every letter but the one undoing its last letter, in row-major
    # order, so that rows come out in word order. Buffer row 0 is the identity;
    # a slice's products go after the kept rows, and its new ones move down.
    gens = [m for g in spec.generators for m in (g, g.inverse())]
    ga, gb, gc, gd = _coefficients(gens)
    codes = np.array([s * (k + 1) for k in range(len(spec.generators)) for s in (1, -1)],
                     dtype=np.int32)
    nc, tol = codes.size, spec.dedup_tol
    step = max(1, max_elements // nc)  # products per slice <= max_elements
    # rows for the reduced words of length <= depth or the cap and one slice
    words = nc * depth if nc == 2 else nc * ((nc - 1) ** min(depth, 64) - 1) // (nc - 2)
    cap = 1 + min(words, max_elements + step * nc)
    coef, hashes = np.empty((4, cap)), np.empty(cap, dtype=np.uint64)
    parent, letter = np.empty(cap, dtype=np.int32), np.zeros(cap, dtype=np.int32)
    prod = np.empty((2, min(step, cap) * nc))  # a product term, before and after the mask
    coef[:, 0] = (1.0, 0.0, 0.0, 1.0)
    hashes[0] = _cell_hash(dedup_keys(coef[:, :1], tol))[0]
    n, bounds = 1, [0, 1]  # word length k fills buffer rows bounds[k]..bounds[k + 1]
    for length in range(1, depth + 1):
        start, stop = bounds[-2:]
        for s in range(start, stop, step):
            e = min(s + step, stop)
            a, b, c, d = coef[:, s:e, None]
            mask = (codes != -letter[s:e, None]).ravel()
            flat = np.flatnonzero(mask)
            m = flat.size
            p = coef[:, n:n + m]
            term, kept = prod[0, :mask.size].reshape(e - s, nc), prod[1, :m]
            for out, x, gx, y, gy in zip(p, (a, a, c, c), (ga, gb, ga, gb),
                                         (b, b, d, d), (gc, gd, gc, gd)):
                np.compress(mask, np.multiply(x, gx, out=term), out=out)
                out += np.compress(mask, np.multiply(y, gy, out=term), out=kept)
            lead = np.zeros(m)  # the Mobius sign rule: the first entry above SIGN_TOL is > 0
            for x in p[::-1]:
                np.copyto(lead, x, where=np.abs(x) > SIGN_TOL)
            np.negative(p, out=p, where=lead < 0.0)
            hashes[n:n + m] = _cell_hash(dedup_keys(p, tol))
            _check_det(p, length)
            new = _first_new(coef, hashes, n, m, tol)
            if new.size < m:
                for x in (*p, hashes[n:n + m]):
                    x[:new.size] = x[new]
                flat = flat[new]
            parent[n:n + new.size] = flat // nc + (s - 1)  # buffer row s is ball row s - 1
            letter[n:n + new.size] = codes[flat % nc]
            n += new.size
            if n - 1 > max_elements:
                raise BallTooLarge(f"word ball exceeds the cap of {max_elements} elements")
        if n == stop:
            break
        bounds.append(n)
    lengths = np.repeat(np.arange(len(bounds) - 1, dtype=np.int32), np.diff(bounds))[1:]
    return Ball(*coef[:, 1:n].copy(), lengths, parent[1:n].copy(), letter[1:n].copy())


@functools.lru_cache(maxsize=64)
def _cached_ball(spec: GroupSpec, depth: int) -> Ball:
    return _build_ball(spec, depth, ENUM_CAP)


def _check_depth(spec: GroupSpec, depth: int | None) -> int:
    # max_word_length is the default depth, not a cap: ENUM_CAP bounds the ball
    return spec.max_word_length if depth is None else _check_int("depth", depth, 0)


def ball_arrays(spec: GroupSpec, depth: int | None = None) -> Ball:
    """The ball of word length <= depth (default: the spec's), memoized per
    (spec, depth) and shared between callers. Raises BallTooLarge past
    ENUM_CAP elements."""
    return _cached_ball(spec, _check_depth(spec, depth))


def enumerate_ball(spec: GroupSpec, depth: int | None = None) -> Ball:
    """The same memoized :class:`Ball` as :func:`ball_arrays`, read as the
    sequence of its elements: no element is built until one is indexed."""
    return _cached_ball(spec, _check_depth(spec, depth))


def orbit_height(g, xi: BoundaryPoint):
    """height_xi(g(i)) = 1/((a - xi c)^2 + (b - xi d)^2), which is 1/(c^2 + d^2)
    at infinity, for one Mobius g or per row of a Ball (or of any a, b, c, d
    arrays).

    Unlike Im g(i) after a complex division, the closed form has no ad - bc
    to cancel. xi is split into a 26-bit head and a tail (Dekker), so that
    head * c is exact for entries below 2^27, as in integer groups, and
    a - xi c keeps its digits where it cancels.
    """
    # A square past the float range is inf, and its height 1/inf = 0 is
    # right. So is 0 where both halves of xi's split overflow against one
    # entry and inf - inf leaves NaN: then |xi c| or |xi d| is past 2^26
    # times the float range, and the height is below 1e-600. A sum of
    # squares that underflows to 0 gives a height past the float range: inf.
    if isinstance(g, Mobius):
        try:
            h = _orbit_height(g, xi)
        except ZeroDivisionError:
            return math.inf
        return 0.0 if math.isnan(h) else h
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        h = _orbit_height(g, xi)
    return np.fmax(h, 0.0, out=h)


def _orbit_height(g, xi: BoundaryPoint):
    # updated in place when g is a Ball (a float just rebinds): the same
    # operations in the same order, so the same bits, with fewer temporaries
    if xi.is_infinity:
        u = g.c * g.c
        u += g.d * g.d
        return 1.0 / u
    head, tail = _split(xi.value)
    u, _ = _minus_xi(g.a, g.c, head, tail)
    v, _ = _minus_xi(g.b, g.d, head, tail)
    u *= u
    v *= v
    u += v
    return 1.0 / u


def _minus_xi(x, y, head: float, tail: float):
    # x - xi y as (x - head y) - tail y, for xi = head + tail as _split gives
    # it, per entry of arrays or for floats; also the array that held
    # -tail y, free for reuse. y * -h is -(h y) exactly and x + -z is x - z,
    # so these are the bits of the subtractions; but past the two products
    # every pass writes one of its inputs, the kind NumPy runs fastest.
    u = y * -head
    u += x
    w = y * -tail
    u += w
    return u, w


def _split(x: float) -> tuple[float, float]:
    # x as a 26-bit head plus a tail (Dekker): head * c is exact for
    # entries below 2^27. Past |x| ~ 1.3e300 the split overflows; there x c
    # overflows anyway.
    t = 134217729.0 * x
    head = t - (t - x) if math.isfinite(t) else x
    return head, x - head


def _boundary_images(a, b, c, d, x: BoundaryPoint):
    """g(x) for every row (a, b, c, d), as apply_boundary forms it: the
    values, and a mask of the rows that send x to infinity."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        if x.is_infinity:
            return a / c, c == 0.0
        den = c * x.value + d
        return (a * x.value + b) / den, den == 0.0


def _unwrap(g) -> Mobius:
    return g.mobius if isinstance(g, GroupElement) else g


def _coefficients(elements) -> np.ndarray:
    """The (4, n) array of rows (a, b, c, d) of GroupElements or Mobius values."""
    return np.reshape([(m.a, m.b, m.c, m.d) for m in map(_unwrap, elements)], (-1, 4)).T


def classify_isometry(g) -> IsometryClass:
    """Trichotomy by |trace|: > 2 hyperbolic, = 2 parabolic, < 2 elliptic.

    The identity (and anything within CLASS_TOL of it after sign
    canonicalization) is reported separately as IDENTITY.
    """
    m = _unwrap(g)
    if m.is_identity(CLASS_TOL):
        return IsometryClass.IDENTITY
    t = abs(m.trace)
    if abs(t - 2.0) <= CLASS_TOL:
        return IsometryClass.PARABOLIC
    if t > 2.0:
        return IsometryClass.HYPERBOLIC
    return IsometryClass.ELLIPTIC


def fixed_points(g) -> tuple[BoundaryPoint, BoundaryPoint]:
    """Boundary fixed points of a hyperbolic or parabolic element.

    For c != 0 these are the roots (a - d +/- sqrt(tr^2 - 4)) / (2c), returned
    with the + root first; a parabolic yields a double point. For c = 0 the
    points are b/(d - a) and infinity (a double point at infinity for
    translations). Elliptic input raises EllipticElement.
    """
    m = _unwrap(g)
    cls = classify_isometry(m)
    if cls is IsometryClass.ELLIPTIC:
        raise EllipticElement(f"element with trace {m.trace} has no boundary fixed points")
    if cls is IsometryClass.IDENTITY:
        raise ValueError("the identity fixes every boundary point")
    a, b, c, d = m.a, m.b, m.c, m.d
    if c == 0.0:
        if cls is IsometryClass.PARABOLIC:
            return (INFINITY, INFINITY)
        return (BoundaryPoint(b / (d - a)), INFINITY)
    if cls is IsometryClass.PARABOLIC:
        p = BoundaryPoint((a - d) / (2.0 * c))
        return (p, p)
    tr = a + d
    s = math.sqrt(max(tr * tr - 4.0, 0.0))
    diff = a - d
    # Evaluate the benign root directly and recover the other from the root
    # product -b/c, avoiding cancellation when |a - d| ~ sqrt(tr^2 - 4).
    if diff >= 0.0:
        x = (diff + s) / (2.0 * c)
        y = -b / (c * x) if x != 0.0 else (diff - s) / (2.0 * c)
    else:
        y = (diff - s) / (2.0 * c)
        x = -b / (c * y) if y != 0.0 else (diff + s) / (2.0 * c)
    return (BoundaryPoint(_polish_root(a, b, c, d, x)),
            BoundaryPoint(_polish_root(a, b, c, d, y)))


def _polish_root(a: float, b: float, c: float, d: float, x: float) -> float:
    # Newton steps on q(x) = c x^2 + (d - a) x - b. Large word coefficients
    # make the closed-form roots lose up to half their digits; two steps
    # push |g(x) - x| back down to evaluation noise.
    for _ in range(2):
        q = c * x * x + (d - a) * x - b
        dq = 2.0 * c * x + (d - a)
        if dq == 0.0 or not math.isfinite(q):
            return x
        step = q / dq
        if not math.isfinite(step):
            return x
        x -= step
    return x


def check_elliptic_free(spec: GroupSpec, depth: int | None = None) -> list[GroupElement]:
    """Elliptic elements found in the word ball; empty means none detected."""
    ball = ball_arrays(spec, depth)
    return [ball[i] for i in ball.isometry_rows[1].tolist()]


def conjugate_spec(spec: GroupSpec, h: Mobius) -> GroupSpec:
    """The same group presented with every generator conjugated by h."""
    hinv = h.inverse()
    return replace(spec, generators=tuple(h @ g @ hinv for g in spec.generators))


# ---------------------------------------------------------------------------
# preset families


def _param(name: str, value, least: float = -math.inf, strict: bool = False) -> float:
    # a preset's real parameter, checked as _check_real does
    return _invalid(_check_real, name, value, least, strict)


def cyclic_parabolic(shift: float = 1.0, **spec_kwargs) -> GroupSpec:
    """Cyclic group of the translation z -> z + shift."""
    shift = _param("shift", shift)
    if shift == 0.0:
        raise InvalidGenerator("shift must be nonzero")
    return GroupSpec((Mobius(1.0, shift, 0.0, 1.0),), **spec_kwargs)


def cyclic_hyperbolic(factor: float = 4.0, **spec_kwargs) -> GroupSpec:
    """Cyclic group of the dilation z -> factor * z (factor > 0, != 1)."""
    factor = _param("factor", factor, 0.0, strict=True)
    if factor == 1.0:
        raise InvalidGenerator("the dilation factor must be != 1")
    r = math.sqrt(factor)
    return GroupSpec((Mobius(r, 0.0, 0.0, 1.0 / r),), **spec_kwargs)


def _pairing(c1: tuple[float, float], c2: tuple[float, float]) -> Mobius:
    """Hyperbolic map sending the exterior of circle c1 onto the interior of c2.

    Circles are (center, radius) on the real line; the isometric circle of the
    result is c1 and that of its inverse is c2.
    """
    (x1, r1), (x2, r2) = c1, c2
    return Mobius.normalized(-x2, x1 * x2 + r1 * r2, -1.0, x1)


def _circles_disjoint(circles) -> bool:
    for i in range(len(circles)):
        for j in range(i + 1, len(circles)):
            (xi, ri), (xj, rj) = circles[i], circles[j]
            if abs(xi - xj) <= ri + rj:
                return False
    return True


def schottky_pair(circles=((-3.0, 0.9), (-1.0, 0.9), (1.0, 0.9), (3.0, 0.9)),
                  **spec_kwargs) -> GroupSpec:
    """Free two-generator Schottky group from four disjoint circles.

    The first generator pairs circles[0] with circles[1], the second pairs
    circles[2] with circles[3]. Disjointness of the circles is the ping-pong
    condition guaranteeing a free, discrete, elliptic-free group.
    """
    try:
        circles = tuple((x, r) for x, r in circles)
    except (TypeError, ValueError):
        raise InvalidGenerator(f"need (center, radius) circles, got {circles!r}") from None
    if len(circles) != 4:
        raise InvalidGenerator(f"need exactly 4 circles, got {len(circles)}")
    circles = tuple((_param("circle center", x), _param("circle radius", r, 0.0, strict=True))
                    for x, r in circles)
    if not _circles_disjoint(circles):
        raise InvalidGenerator("the four circles must have disjoint closures")
    g1 = _invalid(_pairing, circles[0], circles[1])
    g2 = _invalid(_pairing, circles[2], circles[3])
    return GroupSpec((g1, g2), **spec_kwargs)


def hyperbolic_element(neg: float, pos: float, length: float) -> Mobius:
    """Hyperbolic map with axis (neg, pos) and translation length ``length``."""
    length = _param("translation length", length, 0.0, strict=True)
    u, v = _param("neg", neg), _param("pos", pos)
    if not v > u:
        raise InvalidGenerator("axis endpoints must satisfy neg < pos")
    try:
        s = math.exp(length / 2.0)
    except OverflowError:
        s = math.inf
    if not 1.0 < s < math.inf:  # a finite hyperbolic, not the identity
        raise InvalidGenerator(f"translation length {length} puts e^(length/2) at {s}, "
                               "outside (1, inf)")
    return _invalid(Mobius.normalized, v * s - u / s, u * v * (1.0 / s - s),
                    s - 1.0 / s, v / s - u * s)


def isometric_circle(g) -> tuple[float, float]:
    """(center, radius) of {z : |cz + d| = 1}; needs c != 0."""
    m = _unwrap(g)
    if m.c == 0.0:
        raise ValueError("isometric circle undefined for c = 0")
    return (-m.d / m.c, 1.0 / abs(m.c))


def truncated_flute(lengths=(2.0, 2.5, 3.0), spacing: float = 2.0,
                    **spec_kwargs) -> GroupSpec:
    """Finite stage of a flute-like surface: one hyperbolic gluing per length.

    The k-th generator has axis (k*spacing, k*spacing + 1) and translation
    length lengths[k]. This is a truncation: the infinite-stage surfaces the
    construction mimics are not reachable at finite rank, so conclusions drawn
    from these presets are desk-scale surrogates only. The prescribed lengths
    must be long enough that all isometric circles are disjoint (the ping-pong
    condition); otherwise InvalidGenerator is raised.

    The default max_word_length is 6 rather than 10: free balls of rank r
    grow like (2r)(2r-1)^(k-1), and three or more generators overflow the
    enumeration cap well before depth 10.
    """
    try:
        lengths = tuple(lengths)
    except TypeError:
        raise InvalidGenerator(f"lengths must be a sequence, got {lengths!r}") from None
    spacing = _param("spacing", spacing)
    if not lengths:
        raise InvalidGenerator("need at least one translation length")
    gens = []
    circles = []
    for k, length in enumerate(lengths):
        u = k * spacing
        g = hyperbolic_element(u, u + 1.0, length)
        gens.append(g)
        circles.append(isometric_circle(g))
        circles.append(isometric_circle(g.inverse()))
    if not _circles_disjoint(circles):
        raise InvalidGenerator(
            "translation lengths too short for disjoint isometric circles at this spacing")
    spec_kwargs.setdefault("max_word_length", 6)
    return GroupSpec(tuple(gens), **spec_kwargs)
