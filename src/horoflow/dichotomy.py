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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from types import SimpleNamespace

import numpy as np

from .errors import NoSequenceFound
from .flows import BASE_TANGENT, UnitTangent
from .group import (DEDUP_TOL, GroupElement, GroupSpec, _boundary_images, _unwrap,
                    ball_arrays, conjugate_spec, dedup_keys, orbit_height)
from .halfplane import INFINITY, BoundaryPoint, Mobius, PointH, apply, apply_boundary, dist

EPS = 1e-6          # default convergence tolerance for the settle rules
WINDOW = 5          # trailing terms that must sit below eps to settle
MIN_SEQ_LEN = 8     # shortest usable escaping sequence
ALPHA_DEPTH = 2     # word length of the alphas scanned for candidate times

RECURRENCE = "recurrence-evidence"
NON_MINIMALITY = "non-minimality-evidence"
INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class SequenceCandidate:
    """A bounded escaping sequence drawn from (or injected into) a group.

    The elements are the whole sequence; its heights, endpoint images and
    coefficients are read off them. ``heights_nonconstant`` records whether
    the height list actually varies; constant-height sequences (e.g. pure
    translation chains) are admitted but flagged, since some of the classical
    criteria want non-constant heights.
    """

    elements: tuple[GroupElement, ...]
    height_band: tuple[float, float]

    def __post_init__(self):
        m, M = self.height_band
        if not (0.0 < m < M):
            raise ValueError(f"height band needs 0 < m < M, got ({m}, {M})")
        slack = 1e-12 * max(1.0, M)
        for h in self.heights:
            if not (m - slack <= h <= M + slack):
                raise ValueError(f"height {h} falls outside the band ({m}, {M})")
        moduli = [_modulus_sq(a, b, c, d) for a, b, c, d in self.coefficients]
        for r0, r1 in zip(moduli, moduli[1:]):
            if not r1 > r0:
                raise ValueError("moduli |g(i)| must strictly increase")
        words = [e.word for e in self.elements]
        if all(w is not None for w in words):
            for w0, w1 in zip(words, words[1:]):
                if not len(w1) > len(w0):
                    raise ValueError("word lengths must strictly increase")

    def __len__(self):
        return len(self.elements)

    @cached_property
    def heights(self) -> tuple[float, ...]:
        """height_inf(g_n(i)), the same floats as the ball's height pass."""
        return tuple(orbit_height(e.mobius, INFINITY) for e in self.elements)

    @cached_property
    def endpoint_images(self) -> tuple[BoundaryPoint, ...]:
        return tuple(apply_boundary(e.mobius, INFINITY) for e in self.elements)

    @cached_property
    def coefficients(self) -> tuple[tuple[float, float, float, float], ...]:
        return tuple((e.mobius.a, e.mobius.b, e.mobius.c, e.mobius.d) for e in self.elements)

    @cached_property
    def heights_nonconstant(self) -> bool:
        return len(set(self.heights)) > 1


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class CoefficientAsymptotics:
    """Report on the coefficient behavior of an escaping sequence.

    Includes the displacement probe: distances from i*e^{t_n} to its image at
    t_n = ln|b_n|, which the coefficient identity predicts to be
    2*argsinh(sqrt(b^2 c^2 + d^2 + a^2 - 1)/2).
    """

    a_abs: tuple[float, ...]
    c_values: tuple[float, ...]
    d_values: tuple[float, ...]
    a_diverging: bool
    c_limit_zero: bool
    d_limit: float
    min_cd_norm: float
    cd_bound_ok: bool
    probe_max_residual: float
    probe_diverging: bool


@dataclass(frozen=True)
class DichotomyVerdict:
    kind: str
    t: float | None = None


@dataclass(frozen=True)
class DiagnosticsReport:
    sequence: SequenceCandidate | None
    coefficients: CoefficientAsymptotics | None
    busemann_limit: ConvergenceVerdict
    candidate_times: tuple[float, ...]
    verdict: DichotomyVerdict
    note: str | None = None


# ---------------------------------------------------------------------------
# sequence search


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


def find_bounded_escaping_sequence(spec: GroupSpec, band: tuple[float, float],
                                   depth: int | None = None,
                                   min_len: int = MIN_SEQ_LEN) -> SequenceCandidate:
    """Search the word ball for a height-banded sequence escaping in modulus.

    Elements with height_inf(g(i)) inside [m, M] are taken in increasing
    |g(i)| order (ties by word length, then lexicographic word), thinned to
    the longest subsequence with strictly increasing modulus and word length,
    and stripped of a leading constant-height run when later heights vary.
    Raises NoSequenceFound (carrying the achieved count) below ``min_len``.
    """
    m, M = band
    if not (0.0 < m < M):
        raise ValueError(f"height band needs 0 < m < M, got ({m}, {M})")
    if min_len < 1:
        raise ValueError(f"min_len must be at least 1, got {min_len}")
    ball = ball_arrays(spec, depth)
    heights = orbit_height(ball, INFINITY)
    rows = np.nonzero((heights >= m) & (heights <= M))[0]
    moduli = _modulus_sq(ball.a[rows], ball.b[rows], ball.c[rows], ball.d[rows])
    # ball rows already run in word order, so a stable sort breaks modulus ties
    order = np.argsort(moduli, kind="stable")
    rows = rows[order]
    chain = rows[_longest_escaping_chain(moduli[order], ball.word_lengths[rows])].tolist()
    hs = [float(heights[i]) for i in chain]
    if len(set(hs)) > 1:
        while len(hs) >= 2 and hs[0] == hs[1]:
            chain.pop(0)
            hs.pop(0)
    if len(chain) < min_len:
        raise NoSequenceFound(
            f"only {len(chain)} qualifying elements (need {min_len}) "
            f"in the depth-{depth if depth is not None else spec.max_word_length} ball",
            found=len(chain))
    return SequenceCandidate(tuple(ball.element(i) for i in chain), (float(m), float(M)))


def synthetic_candidate(matrices, band: tuple[float, float]) -> SequenceCandidate:
    """Wrap explicit Moebius values as an injected sequence (words unknown)."""
    ms = [m if isinstance(m, Mobius) else Mobius.from_matrix(m) for m in matrices]
    return SequenceCandidate(tuple(GroupElement(m, None) for m in ms),
                             (float(band[0]), float(band[1])))


# ---------------------------------------------------------------------------
# coefficient asymptotics


def _check_settle(eps: float, window: int) -> None:
    """Raise ValueError unless eps is finite and positive and window is at least 1."""
    if not (math.isfinite(eps) and eps > 0.0):
        raise ValueError(f"eps must be finite and positive, got {eps}")
    if window < 1:
        raise ValueError(f"window must be at least 1, got {window}")


def _strictly_increasing_tail(values, window: int) -> bool:
    steps = min(window, len(values) - 1)
    if steps < 1:
        return False
    return all(values[-j] > values[-j - 1] for j in range(1, steps + 1))


def check_coefficient_asymptotics(seq: SequenceCandidate, eps: float = EPS,
                                  window: int = WINDOW) -> CoefficientAsymptotics:
    """Coefficient-stream evidence: |a_n| divergence, c_n -> 0, the bound
    c_n^2 + d_n^2 >= 1/M, and the ln|b_n| displacement probe."""
    _check_settle(eps, window)
    coeffs = np.array(seq.coefficients, dtype=float)
    a, b, c, d = coeffs[:, 0], coeffs[:, 1], coeffs[:, 2], coeffs[:, 3]
    n = len(seq.elements)
    a_abs = np.abs(a)
    a_div = _strictly_increasing_tail(a_abs, window)
    c_zero = n >= window and bool(np.all(np.abs(c[-window:]) < eps))
    cd = c * c + d * d
    M = seq.height_band[1]
    bound = 1.0 / M
    min_cd = float(cd.min())
    cd_ok = min_cd >= bound - 1e-12 * max(1.0, bound)

    measured = np.full(n, np.nan)
    expected = np.full(n, np.nan)
    for k in range(n):
        if b[k] == 0.0:
            continue
        z = PointH(0.0, abs(b[k]))
        measured[k] = dist(z, apply(seq.elements[k].mobius, z))
        rad = max(b[k] * b[k] * c[k] * c[k] + d[k] * d[k] + a[k] * a[k] - 1.0, 0.0)
        expected[k] = 2.0 * math.asinh(math.sqrt(rad) / 2.0)
    valid = ~np.isnan(measured)
    resid = float(np.max(np.abs(measured[valid] - expected[valid]))) if valid.any() else math.nan
    probe_div = _strictly_increasing_tail(measured[valid], window) if valid.any() else False

    return CoefficientAsymptotics(
        a_abs=tuple(a_abs), c_values=tuple(c), d_values=tuple(d),
        a_diverging=a_div, c_limit_zero=c_zero, d_limit=float(d[-1]),
        min_cd_norm=min_cd, cd_bound_ok=bool(cd_ok),
        probe_max_residual=resid, probe_diverging=probe_div,
    )


# ---------------------------------------------------------------------------
# convergence tests


def _log_inverse_heights(a, b, c, d, xi: BoundaryPoint) -> np.ndarray:
    """ln height_xi(g^{-1}(i)) for every row (a, b, c, d), with math.log per
    value, so that one row gives the floats of the scalar formula."""
    heights = orbit_height(SimpleNamespace(a=d, b=-b, c=-c, d=a), xi)
    return np.array([math.log(h) for h in heights.tolist()])


def _sequence_orbit(u: UnitTangent, seq):
    """The part of the settle test that does not depend on alpha: u(inf),
    the boundary images g_n(u(inf)) (inf for an image at infinity) and the
    log heights of g_n^{-1}(i) about u(inf)."""
    ms = [_unwrap(e) for e in (seq.elements if isinstance(seq, SequenceCandidate) else seq)]
    if not ms:
        raise ValueError("sequence is empty")
    coeffs = np.array([(m.a, m.b, m.c, m.d) for m in ms]).T
    if len(set(dedup_keys(coeffs, DEDUP_TOL).tolist())) != len(ms):
        raise ValueError("sequence elements must be pairwise distinct")
    u_inf = u.forward_endpoint()
    images, at_inf = _boundary_images(*coeffs, u_inf)
    return u_inf, np.where(at_inf, np.inf, images), _log_inverse_heights(*coeffs, u_inf)


def _settle(orbit, a, b, c, d, eps: float, window: int):
    """The settle test of the sequence orbit against every alpha row
    (a, b, c, d), in one array pass.

    Per row it returns the Busemann values B_{u(inf)}(g_n^{-1} i, alpha^{-1} i);
    the elementwise max of the two residual streams, the endpoint stream
    (g_n(u(inf)) against alpha(u(inf)); convergence to infinity is measured
    by 1/|p|) and the consecutive differences of the Busemann values (inf for
    the first term); and whether each stream sat below eps over the trailing
    ``window`` terms, as two rows: endpoint, then Busemann.
    """
    u_inf, images, log_heights = orbit
    targets, target_inf = _boundary_images(a, b, c, d, u_inf)
    # B_xi(z, w) = ln height_xi(w) - ln height_xi(z)
    values = _log_inverse_heights(a, b, c, d, u_inf)[:, None] - log_heights
    streams = np.empty((2, *values.shape))
    # an image at infinity is inf: 0 from a target there, inf from any other
    with np.errstate(divide="ignore", invalid="ignore"):
        streams[0] = np.where(target_inf[:, None], 1.0 / np.abs(images),
                              np.abs(images - targets[:, None]))
    streams[1, :, 0] = np.inf
    streams[1, :, 1:] = np.abs(values[:, 1:] - values[:, :-1])
    settled = (streams[:, :, -window:] < eps).all(axis=2) & (values.shape[1] >= window)
    return values, streams.max(axis=0), settled


def test_return_time(u: UnitTangent, alpha, seq, eps: float = EPS,
                     window: int = WINDOW) -> ConvergenceVerdict:
    """Settle test for a candidate return time against the witness alpha.

    Stream one: boundary images g_n(u(inf)) against the target alpha(u(inf)).
    Stream two: Busemann values B_{u(inf)}(g_n^{-1} i, alpha^{-1} i), whose
    settled value is the candidate time. Converged means both streams sit
    below eps over the trailing window.
    """
    _check_settle(eps, window)
    am = _unwrap(alpha)
    values, residuals, settled = _settle(_sequence_orbit(u, seq),
                                         *np.array([[am.a], [am.b], [am.c], [am.d]]),
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
    return test_return_time(u, Mobius.identity(), seq, eps, window)


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

    The vector's forward endpoint is moved to infinity by conjugating the
    group if needed. The verdict follows the settled Busemann value of the
    inverted sequence: near 0 -> recurrence-evidence, a settled t away from
    0 -> non-minimality-evidence(t), anything unsettled -> inconclusive.
    ``candidate`` injects a prebuilt sequence in place of the ball search.
    """
    _check_settle(eps, window)
    u_inf = u.forward_endpoint()
    if not u_inf.is_infinity:
        if candidate is not None:
            raise ValueError("injected candidates require a vector aimed at infinity")
        h = Mobius(0.0, -1.0, 1.0, -u_inf.value)
        spec = conjugate_spec(spec, h)
        u = u.transform(h)
    if candidate is not None:
        seq = candidate
    else:
        try:
            seq = find_bounded_escaping_sequence(spec, band, depth=depth,
                                                 min_len=min_len)
        except NoSequenceFound as exc:
            return DiagnosticsReport(
                sequence=None, coefficients=None,
                busemann_limit=ConvergenceVerdict(False, None, ()),
                candidate_times=(),
                verdict=DichotomyVerdict(INCONCLUSIVE),
                note=f"no qualifying sequence: {exc}",
            )
    coeffs = check_coefficient_asymptotics(seq, eps=eps, window=window)
    inv = tuple(e.mobius.inverse() for e in seq.elements)
    main = test_recurrence(u, inv, eps=eps, window=window)
    note = None
    if main.converged:
        if abs(main.limit) < eps:
            verdict = DichotomyVerdict(RECURRENCE, main.limit)
        else:
            verdict = DichotomyVerdict(NON_MINIMALITY, main.limit)
    else:
        verdict = DichotomyVerdict(INCONCLUSIVE)
        streams = " and ".join(main.unsettled)
        note = (f"the {streams} stream{'s' if len(main.unsettled) > 1 else ''} of the "
                f"{len(inv)}-term sequence did not stay below eps={eps:g} "
                f"over the trailing {window} terms")
    # candidate times: the settled values at least eps from 0 over the alpha ball
    ab = ball_arrays(spec, min(ALPHA_DEPTH, spec.max_word_length))
    values, _, settled = _settle(_sequence_orbit(u, inv), ab.a, ab.b, ab.c, ab.d, eps, window)
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
