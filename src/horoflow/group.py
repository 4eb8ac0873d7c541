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
from dataclasses import dataclass, replace

import numpy as np

from .errors import BallTooLarge, CoefficientOverflow, EllipticElement, InvalidGenerator
from .halfplane import DET_TOL, INFINITY, SIGN_TOL, BoundaryPoint, Mobius

DEDUP_TOL = 1e-9      # rounding grid for element deduplication
CLASS_TOL = 1e-9      # tolerance on |trace| - 2 for the isometry trichotomy
ENUM_CAP = 2_000_000  # hard cap on enumerated elements


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
        if not 0.0 < self.dedup_tol < math.inf:
            raise InvalidGenerator(f"dedup_tol must be positive and finite, got {self.dedup_tol}")
        for g in gens:
            if not isinstance(g, Mobius):
                raise InvalidGenerator(f"generator {g!r} is not a Mobius value")
            if g.is_identity(self.dedup_tol):
                raise InvalidGenerator("the identity is not an admissible generator")
        if not (isinstance(self.max_word_length, int) and not isinstance(self.max_word_length, bool)
                and self.max_word_length >= 1):
            raise InvalidGenerator(f"max_word_length must be a positive integer, got {self.max_word_length}")


@np.errstate(over="ignore", invalid="ignore")  # overflow is checked below
def dedup_keys(coeffs: np.ndarray, tol: float) -> np.ndarray:
    """One 32-byte key per column (a, b, c, d) of ``coeffs``: its cell on the
    dedup grid of spacing ``tol``. Elements merge exactly when keys are equal.

    Raises CoefficientOverflow when an entry or its cell is not finite, since
    such columns would merge with each other.
    """
    keys = np.round(coeffs.T / tol) + 0.0  # + 0.0 turns -0.0 into 0.0
    if not np.isfinite(keys).all():
        raise CoefficientOverflow(f"a word-ball coefficient overflows the dedup grid "
                                  f"of spacing {tol:g}; use a smaller depth")
    return np.ascontiguousarray(keys).view(np.dtype((np.void, 32))).ravel()


def _canonical_signs(p: np.ndarray) -> np.ndarray:
    # The Mobius sign rule per column: the first entry above SIGN_TOL is positive.
    big = np.abs(p) > SIGN_TOL
    lead = np.where(big, p, 0.0)[big.argmax(axis=0), np.arange(p.shape[1])]
    return np.where(lead < 0.0, -p, p)


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


@dataclass(frozen=True, eq=False)
class Ball:
    """A word ball as read-only arrays, one row per non-identity element.

    Row i has coefficients (a[i], b[i], c[i], d[i]) and the word of row
    parent[i] (the empty word for -1) followed by letter[i], a signed 1-based
    generator index (+k for the k-th generator, -k for its inverse). Rows run
    by word length, then lexicographically by word with +1 < -1 < +2 < -2 < ...
    Of elements equal up to sign on the dedup grid only the first is kept.
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

    def element(self, i: int) -> GroupElement:
        # the row's own coefficients: _check_det admitted them for its word length
        m = Mobius._admitted(self.a[i], self.b[i], self.c[i], self.d[i])
        return GroupElement(m, self.word(i))

    def elements(self) -> tuple[GroupElement, ...]:
        words: list[tuple[int, ...]] = []
        for p, l in zip(self.parent.tolist(), self.letter.tolist()):
            words.append((words[p] if p >= 0 else ()) + (l,))
        return tuple(GroupElement(Mobius._admitted(a, b, c, d), w) for a, b, c, d, w in zip(
            self.a.tolist(), self.b.tolist(), self.c.tolist(), self.d.tolist(), words))

    @functools.cached_property
    def isometry_rows(self) -> tuple[np.ndarray, np.ndarray]:
        """Row indices (parabolic, elliptic), as classify_isometry sorts
        them: the trace picks the few candidates, then the identity test.
        Computed once per ball, as read-only arrays."""
        t = np.abs(self.a + self.d)
        parabolic = np.abs(t - 2.0) <= CLASS_TOL
        rows = np.nonzero(parabolic | ~(t > 2.0))[0]
        a, b, c, d = self.a[rows], self.b[rows], self.c[rows], self.d[rows]
        rows = rows[~((np.abs(a - 1.0) <= CLASS_TOL) & (np.abs(b) <= CLASS_TOL)
                      & (np.abs(c) <= CLASS_TOL) & (np.abs(d - 1.0) <= CLASS_TOL))]
        out = rows[parabolic[rows]], rows[~parabolic[rows]]
        for arr in out:
            arr.flags.writeable = False
        return out


@np.errstate(over="ignore", invalid="ignore")  # dedup_keys checks overflow
def _build_ball(spec: GroupSpec, depth: int, max_elements: int) -> Ball:
    # Breadth-first, level by level, in slices of frontier rows: each row
    # times every letter but the one undoing its last letter, in row-major
    # order, so that rows come out in word order.
    gens = [m for g in spec.generators for m in (g, g.inverse())]
    ga, gb, gc, gd = np.array([(g.a, g.b, g.c, g.d) for g in gens]).T
    codes = np.array([s * (k + 1) for k in range(len(spec.generators)) for s in (1, -1)])
    step = max(1, max_elements // codes.size)  # products per slice <= max_elements
    identity = np.array([[1.0], [0.0], [0.0], [1.0]])
    seen = dedup_keys(identity, spec.dedup_tol)
    front = (identity, np.full(1, -1), np.zeros(1, dtype=int))  # coefficients, rows, letters
    levels = [(np.empty((4, 0)), np.empty(0, dtype=int), np.empty(0, dtype=int))]  # length 0
    total = 0
    for length in range(1, depth + 1):
        coeffs, rows, last = front
        level = []
        for s in range(0, rows.size, step):
            sl = slice(s, s + step)
            a, b, c, d = coeffs[:, sl, None]
            mask = codes != -last[sl, None]
            p = np.stack([a * ga + b * gc, a * gb + b * gd,
                          c * ga + d * gc, c * gb + d * gd])[:, mask]
            p = _canonical_signs(p)
            keys = dedup_keys(p, spec.dedup_tol)
            _check_det(p, length)
            offset = seen.size
            seen, first = np.unique(np.concatenate([seen, keys]), return_index=True)
            new = np.sort(first[first >= offset]) - offset
            parent = np.broadcast_to(rows[sl, None], mask.shape)[mask]
            letter = np.broadcast_to(codes, mask.shape)[mask]
            level.append((p[:, new], parent[new], letter[new]))
            total += new.size
            if total > max_elements:
                raise BallTooLarge(f"word ball exceeds the cap of {max_elements} elements")
        if not level:
            break
        levels.append(tuple(np.concatenate(x, axis=-1) for x in zip(*level)))
        front = (levels[-1][0], np.arange(total - levels[-1][2].size, total), levels[-1][2])
    coeffs, parent, letter = (np.concatenate(x, axis=-1) for x in zip(*levels))
    lengths = np.repeat(np.arange(len(levels)), [lv[2].size for lv in levels])
    return Ball(*coeffs, lengths, parent, letter)


@functools.lru_cache(maxsize=64)
def _cached_ball(spec: GroupSpec, depth: int) -> Ball:
    return _build_ball(spec, depth, ENUM_CAP)


def _check_depth(spec: GroupSpec, depth: int | None) -> int:
    if depth is None:
        depth = spec.max_word_length
    if depth < 0:
        raise ValueError(f"depth must be >= 0, got {depth}")
    return depth


def ball_arrays(spec: GroupSpec, depth: int | None = None) -> Ball:
    """The ball of word length <= depth (default: the spec's), memoized per
    (spec, depth) and shared between callers. Raises BallTooLarge past
    ENUM_CAP elements."""
    return _cached_ball(spec, _check_depth(spec, depth))


def enumerate_ball(spec: GroupSpec, depth: int | None = None) -> tuple[GroupElement, ...]:
    """The ball's elements as GroupElements, in :class:`Ball` order. Raises
    BallTooLarge past ENUM_CAP elements.

    Builds one Python object per element on every call; code that scans a
    ball uses :func:`ball_arrays` and builds only the elements it reports.
    """
    return _cached_ball(spec, _check_depth(spec, depth)).elements()


def orbit_height(g, xi: BoundaryPoint):
    """height_xi(g(i)) = 1/((a - xi c)^2 + (b - xi d)^2), which is 1/(c^2 + d^2)
    at infinity, for one Mobius g or per row of a Ball (or of any a, b, c, d
    arrays).

    Unlike Im g(i) after a complex division, the closed form has no ad - bc
    to cancel. xi is split into a 26-bit head and a tail (Dekker), so that
    head * c is exact for entries below 2^27, as in integer groups, and
    a - xi c keeps its digits where it cancels.
    """
    if isinstance(g, Mobius):
        return _orbit_height(g, xi)
    # a square past the float range is inf, and its height 1/inf = 0 is right
    with np.errstate(over="ignore"):
        return _orbit_height(g, xi)


def _orbit_height(g, xi: BoundaryPoint):
    if xi.is_infinity:
        u = g.c * g.c
        u += g.d * g.d
        return 1.0 / u
    t = 134217729.0 * xi.value
    # past |xi| ~ 1.3e300 the split overflows; there xi c overflows anyway
    head = t - (t - xi.value) if math.isfinite(t) else xi.value
    tail = xi.value - head
    # updated in place when g is a Ball (a float just rebinds): the same
    # operations in the same order, so the same bits, with fewer temporaries
    u = g.a - head * g.c
    u -= tail * g.c
    v = g.b - head * g.d
    v -= tail * g.d
    u *= u
    v *= v
    u += v
    return 1.0 / u


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
    return [ball.element(i) for i in ball.isometry_rows[1].tolist()]


def conjugate_spec(spec: GroupSpec, h: Mobius) -> GroupSpec:
    """The same group presented with every generator conjugated by h."""
    hinv = h.inverse()
    return replace(spec, generators=tuple(h @ g @ hinv for g in spec.generators))


# ---------------------------------------------------------------------------
# preset families


def cyclic_parabolic(shift: float = 1.0, **spec_kwargs) -> GroupSpec:
    """Cyclic group of the translation z -> z + shift."""
    if shift == 0.0:
        raise InvalidGenerator("shift must be nonzero")
    return GroupSpec((Mobius(1.0, float(shift), 0.0, 1.0),), **spec_kwargs)


def cyclic_hyperbolic(factor: float = 4.0, **spec_kwargs) -> GroupSpec:
    """Cyclic group of the dilation z -> factor * z (factor > 0, != 1)."""
    if not (factor > 0.0 and factor != 1.0):
        raise InvalidGenerator(f"dilation factor must be positive and != 1, got {factor}")
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
    circles = tuple((float(x), float(r)) for x, r in circles)
    if len(circles) != 4:
        raise InvalidGenerator(f"need exactly 4 circles, got {len(circles)}")
    for x, r in circles:
        if not r > 0.0:
            raise InvalidGenerator(f"circle radius must be positive, got {r}")
    if not _circles_disjoint(circles):
        raise InvalidGenerator("the four circles must have disjoint closures")
    g1 = _pairing(circles[0], circles[1])
    g2 = _pairing(circles[2], circles[3])
    return GroupSpec((g1, g2), **spec_kwargs)


def hyperbolic_element(neg: float, pos: float, length: float) -> Mobius:
    """Hyperbolic map with axis (neg, pos) and translation length ``length``."""
    if not length > 0.0:
        raise InvalidGenerator(f"translation length must be positive, got {length}")
    if not pos > neg:
        raise InvalidGenerator("axis endpoints must satisfy neg < pos")
    s = math.exp(length / 2.0)
    u, v = float(neg), float(pos)
    return Mobius.normalized(v * s - u / s, u * v * (1.0 / s - s),
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
    lengths = tuple(float(l) for l in lengths)
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
