"""Recurrence-versus-non-minimality diagnostics for horocycle orbits.

The pipeline mirrors a limiting argument at finite depth: hunt the word ball
for a sequence of elements whose orbit points i -> g_n(i) keep heights inside
a fixed band while escaping in modulus, then watch two numeric streams formed
from that sequence: the boundary images g_n^{-1}(inf), which must escape to
infinity, and the Busemann values B_inf(g_n(i), i) = ln(c_n^2 + d_n^2), which
must settle. A settled value near 0 is evidence the horocycle orbit returns
to itself (recurrence); a settled value t away from 0 is evidence the time-t
geodesic translate lies in the orbit closure, which rules out minimality of
the complement. Everything is finite-depth evidence, never proof, and the
verdict tags say so.

A report depends on a vector u only through its forward endpoint xi:
every vector aimed at xi is u h_s g_t, and g_-t h_s g_t = h_{s e^-t}, so
its horocycle orbit is a geodesic-flow translate of u's. The pipeline reads
the group's own ball through h = [[0, -1], [1, -xi]], which sends xi to
infinity: a closed form (``_conjugate``) turns each row (a, b, c, d) of g
into the row of h g h^-1, and the settle tests run at infinity. A sequence
records the xi of its rows' frame, and is read for vectors aimed there only.
"""

from __future__ import annotations

import math
from functools import cached_property

import numpy as np

from .errors import NoSequenceFound
from .group import (GroupElement, GroupSpec, _boundary_images, _canonical_sign, _check_depth,
                    _coefficients, _minus_xi, _split, ball_arrays, dedup_keys, orbit_height)
from .halfplane import (_IDENTITY, BASE_TANGENT, INFINITY, BoundaryPoint, Mobius, UnitTangent,
                        _check_int, _check_real, _record, bp)

EPS = 1e-6          # default convergence tolerance for the settle rules
WINDOW = 5          # trailing terms that must sit below eps to settle
MIN_SEQ_LEN = 8     # shortest usable escaping sequence
ALPHA_DEPTH = 2     # word length of the alphas scanned for candidate times

RECURRENCE = "recurrence-evidence"
NON_MINIMALITY = "non-minimality-evidence"
INCONCLUSIVE = "inconclusive"


@_record(eq=False)
class SequenceCandidate:
    """A bounded escaping sequence drawn from (or injected into) a group.

    ``rows`` holds its unit-determinant coefficient rows (a, b, c, d) as a
    read-only, C-contiguous (4, n) array: a copy of the rows given, signed
    by Mobius's rule. ``words`` holds their ball words, None when injected.
    ``point`` (anything ``bp`` takes) is the xi whose frame h g h^-1 the rows
    are in (see the module docstring); at xi = inf, the group's own rows. At
    a finite xi the rows, words and elements belong to h Gamma h^-1, each word
    spelling its element over the conjugated generators h s h^-1, and they
    are read at infinity, never at xi.
    Heights, endpoint images and coefficients are array reads of the rows;
    ``elements`` builds their GroupElements. ``heights_nonconstant`` flags
    constant-height sequences (e.g. pure translation chains), admitted
    though some of the classical criteria want non-constant heights.
    """

    rows: np.ndarray
    words: tuple[tuple[int, ...], ...] | None
    height_band: tuple[float, float]
    point: BoundaryPoint = INFINITY

    def __post_init__(self):
        m, M = _check_band(self.height_band)
        rows = np.array(self.rows, dtype=float, order="C", ndmin=2)
        n = rows.shape[1]
        words = None if self.words is None else tuple(map(tuple, self.words))
        if rows.shape != (4, n) or words is not None and len(words) != n:
            raise ValueError(f"rows must be a (4, n) array with n words or None, got {rows.shape}")
        _canonical_sign(rows)
        rows.flags.writeable = False
        self.__dict__.update(rows=rows, words=words, height_band=(m, M), point=bp(self.point))
        if not n:
            raise ValueError("sequence is empty")
        slack = 1e-12 * max(1.0, M)
        h = np.array(self.heights)
        out = h[~((m - slack <= h) & (h <= M + slack))]
        if out.size:
            raise ValueError(f"height {out[0]} falls outside the band ({m}, {M})")
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            moduli = _modulus_sq(*rows)
        if not (moduli[1:] > moduli[:-1]).all():
            raise ValueError("moduli |g(i)| must strictly increase")
        if words is not None and not (np.diff([len(w) for w in words]) > 0).all():
            raise ValueError("word lengths must strictly increase")

    def __len__(self):
        return self.rows.shape[1]

    @cached_property
    def elements(self) -> tuple[GroupElement, ...]:
        words = self.words or (None,) * len(self)
        return tuple(map(GroupElement, map(Mobius._admitted, *self.rows.tolist()), words))

    @cached_property
    def heights(self) -> tuple[float, ...]:
        """height_inf(g_n(i)), the same floats as the ball's height pass."""
        return tuple(orbit_height(self.rows, INFINITY).tolist())

    @cached_property
    def endpoint_images(self) -> tuple[BoundaryPoint, ...]:
        values, at_inf = _boundary_images(*self.rows, INFINITY)
        return tuple(INFINITY if x else BoundaryPoint(v) for v, x in zip(values.tolist(), at_inf))

    @cached_property
    def coefficients(self) -> tuple[tuple[float, float, float, float], ...]:
        return tuple(map(tuple, self.rows.T.tolist()))

    @cached_property
    def heights_nonconstant(self) -> bool:
        return len(set(self.heights)) > 1


@_record
class ConvergenceVerdict:
    """Outcome of a two-stream settle test.

    ``residuals`` is the elementwise max of the two streams' residuals (the
    endpoint residual against its target, and the consecutive differences of
    the Busemann values); ``values`` keeps the Busemann stream itself;
    ``unsettled`` names the streams ("endpoint", "Busemann") that missed eps
    over the trailing window. The limit is reported only when both streams
    settled.
    """

    converged: bool
    limit: float | None
    residuals: tuple[float, ...]
    values: tuple[float, ...] | None = None
    unsettled: tuple[str, ...] = ()


@_record
class CoefficientAsymptotics:
    """Report on the coefficient streams of an escaping sequence, its rows:
    whether |a_n| diverges and c_n tends to 0, and the least c_n^2 + d_n^2,
    at least 1/M as every height is in the band.
    """

    a_diverging: bool
    c_limit_zero: bool
    min_cd_norm: float


@_record
class DichotomyVerdict:
    """A verdict tag and the settled Busemann value t behind it, if any."""

    kind: str
    t: float | None = None


@_record
class DiagnosticsReport:
    """run_dichotomy's sequence (None if none was found) and its reports, the
    candidate times, the verdict, and a note saying why it is inconclusive."""

    sequence: SequenceCandidate | None
    coefficients: CoefficientAsymptotics | None
    busemann_limit: ConvergenceVerdict
    candidate_times: tuple[float, ...]
    verdict: DichotomyVerdict
    note: str | None = None


# ---------------------------------------------------------------------------
# sequence search


def _check_band(band) -> tuple[float, float]:
    """The height band (m, M) as floats: a pair of real numbers with
    0 < m < M, else ValueError."""
    try:
        m, M = band
    except (TypeError, ValueError):
        raise ValueError(f"a height band is a pair (m, M), got {band!r}") from None
    m, M = _check_real("a height band bound", m), _check_real("a height band bound", M)
    if not 0.0 < m < M:
        raise ValueError(f"height band needs 0 < m < M, got ({m}, {M})")
    return m, M


def _modulus_sq(a, b, c, d):
    # |g(i)|^2 = (a^2 + b^2) / (c^2 + d^2): one rounding of the quotient, so
    # equal moduli stay equal on integer groups
    return (a * a + b * b) / (c * c + d * d)


def _longest_escaping_chain(moduli: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Longest chain of rows strictly increasing in both modulus and word
    length, for moduli sorted ascending; the earliest such chain in row order.

    One array pass per chain length k finds the rows that start a chain of
    length at least k + 1: those with a longer word among the rows of strictly
    larger modulus that start a chain of length k. The chain is then read
    off in one step per element, each taking the first row that fits.
    """
    n = moduli.size
    if n == 0:
        return np.empty(0, dtype=int)
    # the first row of strictly larger modulus; n when there is none
    after = np.searchsorted(moduli, moduli, side="right")
    # starts[k][i]: a chain of k + 1 rows starts at row i
    starts = [np.ones(n, dtype=bool)]
    # reach[j] = the longest word among the rows of starts[k] at or after
    # row j; -1 past the end, and where no such row is left
    reach = np.full(n + 1, -1, dtype=lengths.dtype)
    while True:
        np.maximum.accumulate(np.where(starts[-1], lengths, -1)[::-1], out=reach[n - 1::-1])
        alive = reach[after] > lengths
        if not alive.any():
            break
        starts.append(alive)
    # a row that fits after the last one starts no longer chain than is left
    chain = [int(np.argmax(starts.pop()))]
    while starts:
        last = chain[-1]
        s = after[last]
        fits = starts.pop()[s:] & (lengths[s:] > lengths[last])
        chain.append(s + int(np.argmax(fits)))
    return np.array(chain)


def _conjugate_lower(a, b, c, d, x: float):
    # (-c, d) of h g h^-1 per row (a, b, c, d), for h = [[0, -1], [1, -x]]:
    # with u = a - x c, (b + x (u - d), u). u is orbit_height's a - x c.
    # Every pass but the two that allocate writes one of its inputs, the
    # kind NumPy runs fastest.
    u, w = _minus_xi(a, c, *_split(x))
    np.negative(d, out=w)
    w += u
    w *= x
    w += b
    return w, u


def _conjugate(a, b, c, d, xi: BoundaryPoint):
    """The rows of h g h^-1 for h = [[0, -1], [1, -xi]], which sends xi to
    infinity, from the rows (a, b, c, d) of g: g's own rows at xi = inf,
    where h is the identity, and with u = a - xi c,
    (c xi + d, -c, -(b + xi (u - d)), u) at a finite xi. 0.0 - y stands for
    -y, so that a zero entry reads +0.0: with -y, a report at xi = 0 would
    print -0.0 where the ball of the conjugated generators gives 0.0."""
    if xi.is_infinity:
        return a, b, c, d
    with np.errstate(over="ignore", invalid="ignore"):
        w, u = _conjugate_lower(a, b, c, d, xi.value)
        return c * xi.value + d, 0.0 - c, 0.0 - w, u


def find_bounded_escaping_sequence(spec: GroupSpec, band: tuple[float, float],
                                   depth: int | None = None,
                                   min_len: int = MIN_SEQ_LEN, *,
                                   xi: BoundaryPoint | float = INFINITY) -> SequenceCandidate:
    """Search the word ball for a height-banded sequence escaping in modulus.

    Elements with height_inf(g(i)) inside [m, M] are taken in increasing
    |g(i)| order (ties by word length, then lexicographic word), thinned to
    the longest subsequence with strictly increasing modulus and word length,
    and stripped of a leading constant-height run when later heights vary.
    Raises NoSequenceFound (carrying the achieved count) below ``min_len``.

    At a finite boundary point ``xi`` (anything ``bp`` takes) the elements
    are the conjugates h g h^-1 of the ball's rows by h = [[0, -1], [1, -xi]],
    with the ball's words: the group seen from a vector aimed at xi, read
    at infinity through h. Their heights height_inf(h g h^-1(i)) are those
    of the orbit of h^-1(i) = xi + i about xi. Those heights are the only
    pass over the whole ball; moduli are formed for the in-band rows only,
    and the candidate holds the chain's rows and words, and xi as its point.
    """
    m, M = _check_band(band)
    min_len = _check_int("min_len", min_len, 1)
    depth = _check_depth(spec, depth)
    xi = bp(xi)
    ball = ball_arrays(spec, depth)
    if xi.is_infinity:
        heights = ball.inf_heights
    else:
        # the heights 1/(c^2 + d^2) of the conjugated rows, in place; a row
        # past the float range reads 0, inf or NaN, none of them in the band
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            w, heights = _conjugate_lower(ball.a, ball.b, ball.c, ball.d, xi.value)
            w *= w
            heights *= heights
            heights += w
            np.divide(1.0, heights, out=heights)
    rows = np.flatnonzero((heights >= m) & (heights <= M))
    heights = heights[rows]
    coeffs = _conjugate(ball.a[rows], ball.b[rows], ball.c[rows], ball.d[rows], xi)
    with np.errstate(over="ignore"):  # a modulus past the float range reads inf
        moduli = _modulus_sq(*coeffs)
    # ball rows already run in word order, so a stable sort breaks modulus ties
    order = np.argsort(moduli, kind="stable")
    picks = order[_longest_escaping_chain(moduli[order], ball.word_lengths[rows[order]])].tolist()
    hs = heights[picks].tolist()
    if len(set(hs)) > 1:
        while len(hs) >= 2 and hs[0] == hs[1]:
            picks.pop(0)
            hs.pop(0)
    chain = rows[picks].tolist()
    if len(chain) < min_len:
        raise NoSequenceFound(
            f"only {len(chain)} qualifying elements (need {min_len}) in the depth-{depth} ball",
            found=len(chain))
    # at infinity these are the ball's own rows, those of the elements ball[i]
    return SequenceCandidate([x[picks] for x in coeffs], tuple(map(ball.word, chain)), (m, M), xi)


def synthetic_candidate(matrices, band: tuple[float, float]) -> SequenceCandidate:
    """Wrap explicit Moebius values as an injected sequence (words unknown)."""
    ms = [m if isinstance(m, Mobius) else Mobius.from_matrix(m) for m in matrices]
    return SequenceCandidate(_coefficients(ms), None, band)


# ---------------------------------------------------------------------------
# coefficient asymptotics


def _check_settle(eps: float, window: int) -> None:
    """Raise ValueError unless eps is finite and positive and window an integer >= 1."""
    _check_real("eps", eps, 0.0, strict=True)
    _check_int("window", window, 1)


def check_coefficient_asymptotics(seq: SequenceCandidate, eps: float = EPS,
                                  window: int = WINDOW) -> CoefficientAsymptotics:
    """Coefficient-stream evidence: |a_n| divergence over the trailing
    window, c_n -> 0 within eps, and the least c_n^2 + d_n^2."""
    _check_settle(eps, window)
    a, _, c, d = seq.rows
    a_div = len(seq) > 1 and bool((np.diff(np.abs(a[-window - 1:])) > 0).all())
    c_zero = len(seq) >= window and bool(np.all(np.abs(c[-window:]) < eps))
    return CoefficientAsymptotics(a_div, c_zero, float((c * c + d * d).min()))


# ---------------------------------------------------------------------------
# convergence tests


def _log_inverse_heights(a, b, c, d, xi: BoundaryPoint) -> np.ndarray:
    """ln height_xi(g^{-1}(i)) for every row (a, b, c, d), with math.log per
    value, so that one row gives the floats of the scalar formula. A height
    that reads 0 (past the float range) has log -inf."""
    heights = orbit_height((d, -b, -c, a), xi)
    return np.array([math.log(h) if h > 0.0 else -math.inf for h in heights.tolist()])


def _settle(xi: BoundaryPoint, rows, a, b, c, d, eps: float, window: int):
    """The settle test of the sequence g_n, given as its (4, n) coefficient
    rows, against every alpha row (a, b, c, d), in one array pass, at xi: a
    forward endpoint, all that a report reads of its vector (see the module
    docstring). The sequence rows must be non-empty and pairwise distinct:
    the caller checks.

    Per alpha row it returns the Busemann values B_xi(g_n^{-1} i, alpha^{-1} i);
    the elementwise max of the two residual streams, the endpoint stream
    (g_n(xi) against alpha(xi); convergence to infinity is measured by
    1/|p|) and the consecutive differences of the Busemann values (inf for
    the first term); and whether each stream sat below eps over the trailing
    ``window`` terms, as two rows: endpoint, then Busemann.
    """
    images, at_inf = _boundary_images(*rows, xi)
    images = np.where(at_inf, np.inf, images)
    log_heights = _log_inverse_heights(*rows, xi)
    targets, target_inf = _boundary_images(a, b, c, d, xi)
    streams = np.empty((2, len(targets), len(images)))
    # an image at infinity is inf: 0 from a target there, inf from any other;
    # an infinite log height gives inf or NaN values, which never settle
    with np.errstate(divide="ignore", invalid="ignore"):
        # B_xi(z, w) = ln height_xi(w) - ln height_xi(z)
        values = _log_inverse_heights(a, b, c, d, xi)[:, None] - log_heights
        streams[0] = np.where(target_inf[:, None], 1.0 / np.abs(images),
                              np.abs(images - targets[:, None]))
        streams[1, :, 1:] = np.abs(values[:, 1:] - values[:, :-1])
    streams[1, :, 0] = np.inf
    settled = (streams[:, :, -window:] < eps).all(axis=2) & (values.shape[1] >= window)
    return values, streams.max(axis=0), settled


def test_return_time(u: UnitTangent, alpha, seq, eps: float = EPS,
                     window: int = WINDOW) -> ConvergenceVerdict:
    """Settle test for a candidate return time against the witness alpha.

    Stream one: boundary images g_n(u(inf)) against the target alpha(u(inf)).
    Stream two: Busemann values B_{u(inf)}(g_n^{-1} i, alpha^{-1} i), whose
    settled value is the candidate time. Converged means both streams sit
    below eps over the trailing window. ``seq`` is a SequenceCandidate at
    infinity, a (4, n) array of coefficient rows, or GroupElements or Mobius
    values; a SequenceCandidate at a finite point holds conjugates: ValueError.
    """
    _check_settle(eps, window)
    if isinstance(seq, SequenceCandidate) and not seq.point.is_infinity:
        raise ValueError(f"a sequence at {seq.point} holds conjugates, not group elements")
    rows = seq.rows if isinstance(seq, SequenceCandidate) else seq
    rows = rows if isinstance(rows, np.ndarray) else _coefficients(rows)
    if not rows.size:
        raise ValueError("sequence is empty")
    if len(set(zip(*dedup_keys(rows).tolist()))) != rows.shape[1]:
        raise ValueError("sequence elements must be pairwise distinct")
    values, residuals, settled = _settle(u.forward_endpoint(), rows, *_coefficients([alpha]),
                                         eps, window)
    unsettled = tuple(name for name, ok in zip(("endpoint", "Busemann"), settled[:, 0])
                      if not ok)
    values = tuple(values[0].tolist())
    return ConvergenceVerdict(
        converged=not unsettled,
        limit=None if unsettled else values[-1],
        residuals=tuple(residuals[0].tolist()),
        values=values,
        unsettled=unsettled,
    )


def test_recurrence(u: UnitTangent, seq, eps: float = EPS,
                    window: int = WINDOW) -> ConvergenceVerdict:
    """Return-time test with alpha = identity; recurrence evidence needs the
    settled value to be 0 within eps on top of convergence."""
    return test_return_time(u, _IDENTITY, seq, eps, window)


# library functions, not tests, for pytest modules that import them
test_return_time.__test__ = False
test_recurrence.__test__ = False


# ---------------------------------------------------------------------------
# pipeline


def run_dichotomy(spec: GroupSpec, u: UnitTangent = BASE_TANGENT,
                  band: tuple[float, float] = (0.5, 2.0), eps: float = EPS,
                  *, depth: int | None = None, window: int = WINDOW,
                  min_len: int = MIN_SEQ_LEN,
                  candidate: SequenceCandidate | None = None) -> DiagnosticsReport:
    """Full diagnostic run from a unit tangent vector.

    The run reads u only through its forward endpoint xi, whose vectors
    share one orbit up to the geodesic flow (see the module docstring), and
    the group through h = [[0, -1], [1, -xi]]: the sequence search and the
    candidate-time scan take the conjugates h g h^-1 of the rows of the
    spec's own balls in closed form, and both settle tests run at infinity.
    The verdict follows the settled Busemann value of the inverted sequence:
    near 0 -> recurrence-evidence, a settled t away from 0 ->
    non-minimality-evidence(t), anything unsettled -> inconclusive.
    ``candidate`` injects a prebuilt sequence in place of the ball search;
    it is read at its own point, which must be xi, else ValueError.
    """
    _check_settle(eps, window)
    band = _check_band(band)
    xi = u.forward_endpoint()
    if candidate is not None and candidate.point != xi:
        raise ValueError(f"a candidate is read at its own point: its rows are at "
                         f"{candidate.point}, the vector aims at {xi}")
    if candidate is not None:
        seq = candidate
    else:
        try:
            seq = find_bounded_escaping_sequence(spec, band, depth=depth,
                                                 min_len=min_len, xi=xi)
        except NoSequenceFound as exc:
            return DiagnosticsReport(
                sequence=None, coefficients=None,
                busemann_limit=ConvergenceVerdict(False, None, ()),
                candidate_times=(),
                verdict=DichotomyVerdict(INCONCLUSIVE),
                note=f"no qualifying sequence: {exc}",
            )
    coeffs = check_coefficient_asymptotics(seq, eps=eps, window=window)
    # the inverses' rows (d, -b, -c, a), signed as Mobius.inverse signs them
    inv = np.array([seq.rows[3], -seq.rows[1], -seq.rows[2], seq.rows[0]])
    _canonical_sign(inv)
    main = test_recurrence(BASE_TANGENT, inv, eps=eps, window=window)
    note = None
    if main.converged:
        verdict = DichotomyVerdict(RECURRENCE if abs(main.limit) < eps else NON_MINIMALITY,
                                   main.limit)
    else:
        verdict = DichotomyVerdict(INCONCLUSIVE)
        streams = " and ".join(main.unsettled)
        note = (f"the {streams} stream{'s' if len(main.unsettled) > 1 else ''} of the "
                f"{len(seq)}-term sequence did not stay below eps={eps:g} "
                f"over the trailing {window} terms")
    # candidate times: the settled values at least eps from 0 over the alpha
    # ball; test_recurrence has checked inv
    ab = ball_arrays(spec, ALPHA_DEPTH)
    alphas = _conjugate(ab.a, ab.b, ab.c, ab.d, xi)
    values, _, settled = _settle(INFINITY, inv, *alphas, eps, window)
    limits = values[settled.all(axis=0), -1]
    times = sorted(limits[np.abs(limits) >= eps].tolist())
    deduped = []
    for t in times:
        if not deduped or t - deduped[-1] > eps:
            deduped.append(t)
    return DiagnosticsReport(
        sequence=seq, coefficients=coeffs, busemann_limit=main,
        candidate_times=tuple(deduped), verdict=verdict, note=note,
    )
