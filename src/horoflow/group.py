"""Finitely generated Fuchsian groups: word balls, classification, presets.

A group is given by its generators (unit-determinant Moebius values); elements
are enumerated breadth-first as reduced words up to a maximum word length, in
a deterministic order (word length first, then lexicographic word).

A spec whose generators pass the ping-pong test (the isometric disks of its
letters have pairwise disjoint interiors; see ``_ping_pong_disks``) carries
that certificate: its distinct reduced words are distinct elements, so its
ball is every reduced word and nothing is deduplicated. Every other spec has
its products deduplicated up to sign on a rounding grid, first one kept.
"""

from __future__ import annotations

import enum
import functools
import math
from collections.abc import Sequence
from dataclasses import field

import numpy as np

from .errors import BallTooLarge, CoefficientOverflow, EllipticElement, InvalidGenerator
from .halfplane import (DET_TOL, INFINITY, SIGN_TOL, BoundaryPoint, Mobius, _check_int,
                        _check_real, _near_identity, _record)

DEDUP_TOL = 1e-9      # rounding grid for element deduplication
CLASS_TOL = 1e-9      # tolerance on |trace| - 2 for the isometry trichotomy
ENUM_CAP = 2_000_000  # hard cap on enumerated elements
_SEED_ROWS = 512      # rows of least displacement floor, for the injectivity kernel
_ULP = float(np.finfo(float).eps)


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


@_record
class GroupElement:
    """A group element: its Moebius value and a shortest witnessing word.

    ``word`` is a tuple of signed 1-based generator indices (+k for the k-th
    generator, -k for its inverse); it is None only for synthetic elements
    injected into diagnostics, never for enumerated ones.
    """

    mobius: Mobius
    word: tuple[int, ...] | None = None


@_record
class GroupSpec:
    """Generators plus enumeration parameters.

    ``certificate`` is derived from the generators at construction: the
    ping-pong disks of ``_ping_pong_disks``, or None. It takes no part in
    equality, hashing or the repr, since the generators determine it.
    """

    generators: tuple[Mobius, ...]
    max_word_length: int = 10
    certificate: tuple[tuple[float, float], ...] | None = field(
        init=False, repr=False, compare=False)

    def __post_init__(self):
        gens = tuple(self.generators)
        object.__setattr__(self, "generators", gens)
        if not gens:
            raise InvalidGenerator("a group spec needs at least one generator")
        for g in gens:
            if not isinstance(g, Mobius):
                raise InvalidGenerator(f"generator {g!r} is not a Mobius value")
            if g.is_identity(DEDUP_TOL):
                raise InvalidGenerator("the identity is not an admissible generator")
        object.__setattr__(self, "max_word_length",
                           _invalid(_check_int, "max_word_length", self.max_word_length, 1))
        object.__setattr__(self, "certificate", _ping_pong_disks(gens))


def _ping_pong_disks(gens) -> tuple[tuple[float, float], ...] | None:
    """The ping-pong certificate of the generators, or None when they fail it.

    Each letter (the generators and their inverses, in the ball's letter
    order +1, -1, +2, -2, ...) gets a closed disk. A letter g with c != 0
    gets its isometric disk |cz + d| <= sqrt(ad - bc); g maps the outside
    of it onto the inside of its inverse's. At most one generator may have
    c = 0, and it must be a translation z -> z + t. It gets the two
    half-planes bounding a strip of width |t| that holds every other disk,
    its own one first (Re z <= x for t > 0). The generators pass when all
    these disks have pairwise disjoint interiors; tangencies are allowed.
    Then by the ping-pong lemma the group is free on them, and distinct
    reduced words are distinct elements (Beardon, *The Geometry of Discrete
    Groups*, GTM 91, ch. 5; Mumford, Series and Wright, *Indra's Pearls*,
    ch. 4). This admits schottky_pair, truncated_flute, cyclic_parabolic
    and Gamma(2) on z -> z + 2 and z -> z/(2z + 1), whose disks touch at 0
    and +-1. It refuses elliptic generators (their two disks overlap),
    dilations and PSL(2,Z).

    The decision is exact: each entry is an integer over one power of two
    (float.as_integer_ratio), and every comparison is one of integers.
    A disk is returned as the interval (lo, hi) that it spans on the real
    line, in floats: center -+ radius of isometric_circle for a circle;
    lo = -inf or hi = inf for a half-plane, the strip centred on the span
    of the circles.

    The walk of limits.classify_boundary_point (see limits._walkable) reads
    each disk as its letter's isometric disk, or the strip's half-plane for
    the translation. A certificate built from other circles, such as those a
    schottky_pair generator pairs when their radii differ, must prove the
    walk's lemma again.
    """
    ratios = [x.as_integer_ratio() for g in gens for x in (g.a, g.b, g.c, g.d)]
    unit = max(q for _, q in ratios)  # a power of two
    ints = [p * (unit // q) for p, q in ratios]
    circles, shift = [], None  # (p, k, e): centre p/k with k > 0, radius sqrt(e)/k
    for i in range(len(gens)):
        a, b, c, d = ints[4 * i:4 * i + 4]
        if c == 0:
            if shift is not None or a != d:  # a second translation, or a dilation
                return None
            shift = i
        else:
            s = 1 if c > 0 else -1
            circles += [(-d * s, c * s, a * d - b * c), (a * s, c * s, a * d - b * c)]
    # r1 + r2 <= |x1 - x2|, times k1 k2
    if not all(_roots_at_most(e1 * k2 * k2, e2 * k1 * k1, abs(p1 * k2 - p2 * k1))
               for i, (p1, k1, e1) in enumerate(circles) for p2, k2, e2 in circles[i + 1:]):
        return None
    disks = [(x - r, x + r) for g in gens if g.c != 0.0
             for x, r in (isometric_circle(g), isometric_circle(g.inverse()))]
    if shift is None:
        return tuple(disks)
    a, b = ints[4 * shift:4 * shift + 2]  # t = b/a, with a > 0 by the sign rule
    # (x2 + r2) - (x1 - r1) <= |t|, times k1 k2 a
    if not all(_roots_at_most(e1 * (k2 * a) ** 2, e2 * (k1 * a) ** 2,
                              abs(b) * k1 * k2 - a * (p2 * k1 - p1 * k2))
               for p1, k1, e1 in circles for p2, k2, e2 in circles):
        return None
    t = abs(gens[shift].b / gens[shift].a)
    edge = (min((lo for lo, _ in disks), default=-t / 2.0)
            + max((hi for _, hi in disks), default=t / 2.0) - t) / 2.0
    pair = [(-math.inf, edge), (edge + t, math.inf)]
    disks[2 * shift:2 * shift] = pair if b > 0 else pair[::-1]
    return tuple(disks)


def _roots_at_most(u: int, v: int, w: int) -> bool:
    # sqrt(u) + sqrt(v) <= w, exactly, for integers u, v >= 0:
    # w >= 0 and u + v + 2 sqrt(uv) <= w^2
    rest = w * w - u - v
    return w >= 0 and rest >= 0 and 4 * u * v <= rest * rest


@np.errstate(over="ignore", invalid="ignore")  # overflow is checked below
def dedup_keys(coeffs: np.ndarray) -> np.ndarray:
    """The cell of each column (a, b, c, d) on the dedup grid of spacing DEDUP_TOL,
    as a (4, n) array of its floats' uint64 bits; elements merge when cells match.

    Raises CoefficientOverflow when an entry or its cell is not finite, since
    such columns would merge with each other.
    """
    cells = np.divide(coeffs, DEDUP_TOL)
    np.rint(cells, out=cells)
    cells += 0.0  # turns -0.0 into 0.0
    if not np.isfinite(cells).all():
        raise CoefficientOverflow(f"a word-ball coefficient overflows the dedup grid "
                                  f"of spacing {DEDUP_TOL:g}; use a smaller depth")
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


def _canonical_sign(p: np.ndarray) -> None:
    # The Mobius sign rule on the columns (a, b, c, d) of p, in place: a
    # column whose first entry above SIGN_TOL in magnitude is negative is
    # negated, as Mobius._admitted does to one row. The sign of a decides
    # all but the rare columns with |a| <= SIGN_TOL (or NaN), which take the
    # full rule over b, c and d; then p *= sign, since x * -1.0 is -x bit
    # for bit and x * 1.0 is x.
    a = p[0]
    sign = np.abs(a)
    rare = np.flatnonzero(~(sign > SIGN_TOL))
    np.copysign(1.0, a, out=sign)
    if rare.size:
        lead = np.zeros(rare.size)
        for x in p[:0:-1, rare]:
            np.copyto(lead, x, where=np.abs(x) > SIGN_TOL)
        sign[rare] = np.where(lead < 0.0, -1.0, 1.0)
    p *= sign


def _check_det(p: np.ndarray, length: int) -> None:
    # The Mobius determinant check per column, its tolerance scaled by the
    # word length: each of the ``length`` rounded products may add its drift.
    # |det - 1| <= DET_TOL length max(1, |ad|, |bc|), in place over the two
    # products and det; a column off it raises CoefficientOverflow.
    a, b, c, d = p
    ad = a * d
    bc = b * c
    det = np.subtract(ad, bc)
    np.abs(ad, out=ad)
    np.abs(bc, out=bc)
    np.maximum(ad, bc, out=ad)
    np.maximum(ad, 1.0, out=ad)
    ad *= DET_TOL * length
    det -= 1.0
    np.abs(det, out=det)
    ok = det <= ad
    if not ok.all():
        i = int(ok.argmin())  # det was overwritten: its float again, for the message
        raise CoefficientOverflow(f"matrix {tuple(p[:, i].tolist())} has det "
                                  f"{float(a[i] * d[i] - b[i] * c[i])}, not 1, "
                                  f"at word length {length}")


def _row_keys(h: np.ndarray, start: int, bits: np.uint64) -> None:
    # hashes h of buffer rows start, start + 1, ... made their sort keys in
    # place: the row number in the low ``bits`` bits, the hash above them
    h &= ~((np.uint64(1) << bits) - np.uint64(1))
    h |= np.arange(start, start + h.size, dtype=np.uint64)


def _first_new(coef: np.ndarray, keys: np.ndarray, n: int, m: int,
               bits: np.uint64) -> np.ndarray:
    # The candidates in buffer rows n..n+m-1 (as offsets from n) whose cell
    # no lower row has. One value sort of the rows' keys (_row_keys) groups
    # them by hash prefix, each run in ascending rows: its first row is the
    # one kept. Ties are compared on cells, and runs holding distinct cells
    # sorted stably by (prefix, cell), so exact for any hash.
    key = np.sort(keys[:n + m])
    prefix = key >> bits
    tie = prefix[1:] == prefix[:-1]
    if not tie.any():
        return np.arange(m)
    at = np.flatnonzero(np.r_[tie, False] | np.r_[False, tie])
    rows = (key[at] & ((np.uint64(1) << bits) - np.uint64(1))).astype(np.intp)
    cmp = [prefix[at], *dedup_keys(coef[:, rows])]
    split = np.any([k[1:] != k[:-1] for k in cmp], axis=0)
    if (split & (cmp[0][1:] == cmp[0][:-1])).any():
        o = np.lexsort(cmp[::-1])
        rows, split = rows[o], np.any([k[o][1:] != k[o][:-1] for k in cmp], axis=0)
    keep = np.ones(m, dtype=bool)
    keep[rows[1:][~split] - n] = False  # a later row of one cell; kept rows lead theirs
    return np.flatnonzero(keep)


@_record(eq=False)
class Ball(Sequence):
    """A word ball as read-only arrays, one row per non-identity element,
    and the read-only sequence of those elements: ``ball[i]`` builds row i's
    GroupElement, a slice a tuple of them.

    Row i has coefficients (a[i], b[i], c[i], d[i]) (float64; a, b, c, d
    are the rows of one (4, n) array, so that a gather takes all four at
    once) and the word of
    row parent[i] (the empty word for -1) followed by letter[i], a signed
    1-based generator index (+k for the k-th generator, -k for its inverse).
    ``word_lengths``, ``parent`` and ``letter`` are int32: a ball holds at most
    ENUM_CAP rows. Rows run by word length, then lexicographically by word
    with +1 < -1 < +2 < -2 < ... On a spec with a ping-pong certificate
    every reduced word is a row, each a distinct element; on any other, of
    elements equal up to sign on the DEDUP_TOL grid only the first is kept.
    """

    _coef: np.ndarray = field(repr=False)
    word_lengths: np.ndarray
    parent: np.ndarray
    letter: np.ndarray
    _level_starts: np.ndarray = field(repr=False)  # first row of each length, then len
    a: np.ndarray = field(init=False)
    b: np.ndarray = field(init=False)
    c: np.ndarray = field(init=False)
    d: np.ndarray = field(init=False)

    def __post_init__(self):
        for arr in (self._coef, self.word_lengths, self.parent, self.letter, self._level_starts):
            arr.flags.writeable = False
        for name, row in zip("abcd", self._coef):
            object.__setattr__(self, name, row)

    def __len__(self) -> int:
        return self.a.size

    def word(self, i: int) -> tuple[int, ...]:
        i = range(len(self))[i]  # as in __getitem__: from the end when negative
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
        """height_inf(g(i)) per row, the floats of orbit_height(self._coef,
        INFINITY). Computed once per ball, as a read-only array."""
        h = orbit_height(self._coef, INFINITY)
        h.flags.writeable = False
        return h

    @functools.cached_property
    @np.errstate(over="ignore", invalid="ignore")  # an overflow or NaN keeps its row
    def displacement_floor(self) -> tuple[np.ndarray, ...]:
        """(floor, seeds, seed_coef, least_c, least_floor): per row g, a
        lower bound on 2 sinh(dist(z, g z)/2) over every z in H; the
        _SEED_ROWS rows (all of them on a smaller ball) where it is least,
        ties going to the lower row and NaN last, in row order, and their
        coefficients as one contiguous (4, seeds) copy; and per word
        length, the least |c| and the least floor over the rows of that
        length and every longer one. Computed once per ball, as read-only
        arrays.

        For h = F^-1 g F and any z = F(i s), 4 sinh^2(dist(z, g z)/2) =
        (c_h s + b_h/s)^2 + e_h^2 >= e_h^2 + 4 c_h b_h = tr^2 - 4 det
        = (d - a)^2 + 4 b c, a conjugation invariant that needs no det = 1.
        Its float carries at most a few ulps of (d - a)^2 + 4 |b c|, so 16
        of them come off it before the square root. A row whose terms
        overflow reads NaN.
        """
        a, b, c, d = self._coef
        # in place, so that what the ball keeps is allocated before its
        # temporaries and does not sit in the heap above the space they free
        low = d - a
        low *= low
        bc = b * c
        bc *= 4.0
        slack = np.abs(bc)
        slack += low
        slack *= 16.0 * _ULP
        low += bc
        low -= slack
        np.maximum(low, 0.0, out=low)
        np.sqrt(low, out=low)
        if low.size <= _SEED_ROWS:
            seeds = np.arange(low.size)
        else:  # the cut by a partition, then a stable sort of the rows at or below it
            near = np.flatnonzero(~(low > np.partition(low, _SEED_ROWS - 1)[_SEED_ROWS - 1]))
            seeds = np.sort(near[np.argsort(low[near], kind="stable")[:_SEED_ROWS]])
        starts, abs_c = self._level_starts[:-1], np.abs(c)
        # a NaN floor propagates to the minima of its length and every shorter one
        least = [np.minimum.accumulate(np.minimum.reduceat(x, starts)[::-1])[::-1]
                 for x in (abs_c, low)]
        out = (low, seeds, self._coef.take(seeds, axis=1), *least)
        for arr in out:
            arr.flags.writeable = False
        return out


@np.errstate(over="ignore", invalid="ignore")  # overflow is checked below
def _build_ball(spec: GroupSpec, depth: int, max_elements: int) -> Ball:
    # Breadth-first, level by level, in slices of frontier rows: each row
    # times every letter but the one undoing its last letter, in row-major
    # order, so that rows come out in word order. Buffer row 0 is the identity;
    # a slice's products go after the kept rows, and its new ones move down.
    # Only a spec without a ping-pong certificate is deduplicated: under one,
    # every product is a new element and is kept as it comes.
    dedup = spec.certificate is None
    gens = [m for g in spec.generators for m in (g, g.inverse())]
    ga, gb, gc, gd = _coefficients(gens)
    r = len(spec.generators)
    codes = np.array([s * (k + 1) for k in range(r) for s in (1, -1)], dtype=np.int32)
    nc = codes.size
    # the letters that may follow each letter (row code + r), in code order
    follow = np.zeros((2 * r + 1, nc - 1), dtype=np.intp)
    for x in codes:
        follow[x + r] = [j for j in range(nc) if codes[j] != -x]
    step = max(1, max_elements // nc)  # products per slice <= max_elements
    # rows for the reduced words of length <= depth or the cap and one slice
    words = nc * depth if nc == 2 else nc * ((nc - 1) ** min(depth, 64) - 1) // (nc - 2)
    cap = 1 + min(words, max_elements + step * nc)
    coef, keys = np.empty((4, cap)), np.empty(cap if dedup else 0, dtype=np.uint64)
    parent, letter = np.empty(cap, dtype=np.int32), np.zeros(cap, dtype=np.int32)
    buf = np.empty((2, min(step, cap) * nc))  # letter entries, then product terms
    bits = np.uint64(cap.bit_length())  # every buffer row number fits in a key's low bits
    coef[:, 0] = (1.0, 0.0, 0.0, 1.0)
    if dedup:
        keys[:1] = _cell_hash(dedup_keys(coef[:, :1]))
        _row_keys(keys[:1], 0, bits)
    n, bounds = 1, [0, 1]  # word length k fills buffer rows bounds[k]..bounds[k + 1]
    for length in range(1, depth + 1):
        start, stop = bounds[-2:]
        for s in range(start, stop, step):
            e = min(s + step, stop)
            # the letters of each row, one row of them per frontier row: every
            # letter after the identity, else those following its last letter
            lets = np.arange(nc)[None, :] if length == 1 else follow[letter[s:e] + r]
            m = lets.size
            p = coef[:, n:n + m]
            gx, gy = (x[:m].reshape(lets.shape) for x in buf)
            a, b, c, d = coef[:, s:e, None]
            for k, (g1, g2) in enumerate(((ga, gc), (gb, gd))):  # column k of each letter
                # (a, c) g1 + (b, d) g2 into rows k and k + 2 of p (views: rows
                # of p are contiguous), gx then gy reused for the second terms;
                # the letters are valid indices, and mode "clip" takes them
                # straight into out, where "raise" would buffer a copy
                top, bottom = p[k].reshape(lets.shape), p[k + 2].reshape(lets.shape)
                np.take(g1, lets, out=gx, mode="clip")
                np.multiply(a, gx, out=top)
                np.multiply(c, gx, out=bottom)
                np.take(g2, lets, out=gy, mode="clip")
                top += np.multiply(b, gy, out=gx)
                bottom += np.multiply(d, gy, out=gy)
            _canonical_sign(p)
            if dedup:
                keys[n:n + m] = _cell_hash(dedup_keys(p))
                _row_keys(keys[n:n + m], n, bits)
            elif not np.isfinite(p).all():
                raise CoefficientOverflow("a word-ball coefficient leaves the float range; "
                                          "use a smaller depth")
            _check_det(p, length)
            # buffer row s is ball row s - 1
            rows = np.repeat(np.arange(s - 1, e - 1, dtype=np.int32), lets.shape[1])
            lets = lets.ravel()
            if dedup:
                new = _first_new(coef, keys, n, m, bits)
                if new.size < m:
                    for x in (*p, keys[n:n + m]):
                        x[:new.size] = x[new]
                    _row_keys(keys[n:n + new.size], n, bits)
                    rows, lets = rows[new], lets[new]
            parent[n:n + rows.size] = rows
            letter[n:n + rows.size] = codes[lets]
            n += rows.size
            if n - 1 > max_elements:
                raise BallTooLarge(f"word ball exceeds the cap of {max_elements} elements")
        if n == stop:
            break
        bounds.append(n)
    lengths = np.repeat(np.arange(len(bounds) - 1, dtype=np.int32), np.diff(bounds))[1:]
    starts = np.array(bounds[1:], dtype=np.intp) - 1  # buffer row k is ball row k - 1
    if n < cap:  # rows the ball does not keep: copy out the kept ones
        return Ball(coef[:, 1:n].copy(), lengths, parent[1:n].copy(), letter[1:n].copy(), starts)
    # every row kept: the four coefficient rows move down over the identity's
    # column in place (each copy is 1-D and runs toward lower addresses, so
    # NumPy copies it without a temporary), leaving one C-contiguous (4, n - 1)
    # array: np.take(axis=1) copies a strided array whole before it gathers
    flat = coef.reshape(-1)
    for k in range(4):
        flat[k * (n - 1):(k + 1) * (n - 1)] = flat[k * n + 1:(k + 1) * n]
    return Ball(flat[:4 * (n - 1)].reshape(4, n - 1), lengths, parent[1:], letter[1:], starts)


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


def orbit_height(rows, xi: BoundaryPoint) -> np.ndarray:
    """height_xi(g(i)) = 1/((a - xi c)^2 + (b - xi d)^2), which is 1/(c^2 + d^2)
    at infinity, per coefficient row (a, b, c, d): ``rows`` is a (4, n)
    array, such as a Ball's ``_coef``, or the four arrays a, b, c, d.

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
    a, b, c, d = rows
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        if xi.is_infinity:
            u = c * c
            u += d * d
        else:
            head, tail = _split(xi.value)
            u, _ = _minus_xi(a, c, head, tail)
            v, _ = _minus_xi(b, d, head, tail)
            u *= u
            v *= v
            u += v
        h = 1.0 / u
    return np.fmax(h, 0.0, out=h)


def _minus_xi(x, y, head: float, tail: float):
    # x - xi y as (x - head y) - tail y, for xi = head + tail as _split gives
    # it, per entry of arrays; also the array that held -tail y, free for
    # reuse. y * -h is -(h y) exactly and x + -z is x - z, so these are the
    # bits of the subtractions; but past the two products every pass writes
    # one of its inputs, the kind NumPy runs fastest.
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
    if tr * tr < math.inf:
        s = math.sqrt(max(tr * tr - 4.0, 0.0))
    else:  # tr^2 overflows, |tr| - 2 and |tr| + 2 do not
        s = math.sqrt(abs(tr) - 2.0) * math.sqrt(abs(tr) + 2.0)
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
    # push |g(x) - x| back down to evaluation noise. A step past the float
    # range lands on +-inf, the point at infinity, as the root it aims at.
    for _ in range(2):
        q = c * x * x + (d - a) * x - b
        dq = 2.0 * c * x + (d - a)
        if dq == 0.0 or not math.isfinite(q):
            return x
        x -= q / dq
    return x


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

    Circles are (center, radius) on the real line. The isometric circles of
    the result and of its inverse are centred at x1 and x2, both of radius
    sqrt(r1 r2): they are c1 and c2 only when r1 = r2.
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
    must be long enough for the spec's ping-pong certificate (isometric disks
    with disjoint interiors); otherwise InvalidGenerator is raised.

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
    gens = tuple(hyperbolic_element(k * spacing, k * spacing + 1.0, length)
                 for k, length in enumerate(lengths))
    spec_kwargs.setdefault("max_word_length", 6)
    spec = GroupSpec(gens, **spec_kwargs)
    if spec.certificate is None:
        raise InvalidGenerator(
            "translation lengths too short for disjoint isometric circles at this spacing")
    return spec
