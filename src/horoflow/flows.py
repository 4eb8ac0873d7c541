"""Geodesic and horocycle flows on unit tangent vectors, and injectivity profiles.

Flows act on a vector's frame (``halfplane.UnitTangent``) by right
multiplication, so they commute with the group acting on the left.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import EmptyBall, NegativeTime
from .group import _ULP, GroupSpec, ball_arrays
from .halfplane import (_TINY, BASE_TANGENT, MAX_SAMPLES, Mobius, PointH, UnitTangent,
                        _check_real, _record, apply)

TAIL_FRACTION = 0.25  # share of trailing samples feeding the liminf estimate

_CELLS = 1 << 16  # rows x samples per kernel call, so its temporaries stay bounded
_BLOCK = 8        # fewest samples sharing one pruning threshold
_HUGE = float(np.finfo(float).max)


def sample_count(span: float, step: float) -> int:
    """Points of the inclusive grid 0, step, 2 step, ... up to ``span``.

    Raises ValueError, before anything is allocated, unless the span is
    finite and >= 0, the step finite and > 0, and the count at most
    MAX_SAMPLES.
    """
    x = _check_real("span", span, 0.0) / _check_real("step", step, 0.0, strict=True) + 1e-9
    if not x < MAX_SAMPLES:
        raise ValueError(f"a span of {span} at step {step} needs more than "
                         f"{MAX_SAMPLES} samples")
    return int(math.floor(x)) + 1


def _exp(t):
    """e^t, by math.exp for a time and np.exp for an array of times.

    Raises ValueError unless every value is a normal positive float, so that
    e^t and e^-t are both finite and positive: t in about [-708.39, 709.78].
    """
    try:
        with np.errstate(over="ignore"):  # checked below
            e = np.exp(t) if isinstance(t, np.ndarray) else math.exp(t)
    except OverflowError:
        e = math.inf
    ok = (e >= _TINY) & (e <= _HUGE)
    if not np.all(ok):
        x = np.ravel(t)[np.argmin(ok)]
        raise ValueError(f"exp({x:g}) is past the float range")
    return e


def geodesic_flow(u: UnitTangent, t: float) -> UnitTangent:
    """Flow for time t along the geodesic the vector points along."""
    e = _exp(_check_real("t", t) / 2.0)
    return UnitTangent(u.frame @ Mobius(e, 0.0, 0.0, 1.0 / e))


def horocycle_flow(u: UnitTangent, s: float) -> UnitTangent:
    """Flow for time s along the horocycle the vector is perpendicular to."""
    return UnitTangent(u.frame @ Mobius(1.0, _check_real("s", s), 0.0, 1.0))


def ray_point(u: UnitTangent, t: float) -> PointH:
    """Point at time t >= 0 along the forward geodesic ray of u."""
    if _check_real("t", t) < 0.0:
        raise NegativeTime(f"ray time must be >= 0, got {t}")
    return apply(u.frame, PointH(0.0, _exp(t)))


def orbit_points(u: UnitTangent, kind: str, times: np.ndarray) -> np.ndarray:
    """Base points of the flowed vector at each time, as a complex array."""
    m = u.frame
    if kind == "geodesic":
        z = 1j * _exp(np.asarray(times, dtype=float))
    elif kind == "horocycle":
        t = np.asarray(times, dtype=float)
        finite = np.isfinite(t)
        if not finite.all():
            raise ValueError(f"horocycle time {np.ravel(t)[np.argmin(finite)]:g} is not finite")
        z = t + 1j
    else:
        raise ValueError(f"unknown flow kind {kind!r}")
    return (m.a * z + m.b) / (m.c * z + m.d)


@_record
class RayProfile:
    """Sampled injectivity-radius estimates along a geodesic ray.

    Estimates are computed against a finite word ball, so they only ever
    OVER-estimate the true injectivity radius: deepening the ball can lower
    them, never raise them.
    """

    times: np.ndarray
    inj_estimates: np.ndarray
    liminf_estimate: float


def _ray_terms(coef: np.ndarray, frame: Mobius):
    """Per column g = (a, b, c, d) of ``coef`` (a ball's (4, n) coefficients,
    or a gathered copy), (c_h, b_h, e_h = d_h - a_h) of h = adj(frame) g
    frame. On the ray z = frame(i s), 4 sinh^2(dist(z, g z)/2) =
    (c_h s + b_h/s)^2 + e_h^2 exactly (Beardon, GTM 91); the kernel,
    ``_floor`` and ``_block_floor`` read these only."""
    p, q, r, s = frame.a, frame.b, frame.c, frame.d
    a, b, c, d = coef
    dma = d - a
    ch = (p * p) * c - (r * r) * b + (p * r) * dma
    bh = (s * s) * b - (q * q) * c - (q * s) * dma
    eh = (p * s + q * r) * dma + (2.0 * p * q) * c - (2.0 * r * s) * b
    return ch, bh, eh


@np.errstate(over="ignore")  # an overflowed square is redone below
def _min_2sinh(s: np.ndarray, ch, bh, eh) -> np.ndarray:
    """Min over the rows of sqrt((c_h s + b_h/s)^2 + e_h^2), which is
    2 sinh(dist(z, g z)/2) at z = frame(i s), per sample s. A sample whose
    least square overflows, or underflows below the normal range, is redone
    with hypot."""
    x = ch[:, None] * s + bh[:, None] / s
    e = eh[:, None]
    sq = (x * x + e * e).min(axis=0)
    m = np.sqrt(sq)
    lost = np.isinf(sq) | (sq < _TINY)
    if lost.any():
        m[lost] = np.hypot(x[:, lost], e).min(axis=0)
    return m


def _floor(ch, bh, eh) -> np.ndarray:
    """Per row, the least of the kernel over s > 0, less 4 ulps for its
    rounding near s = sqrt(b_h/c_h). As e_h^2 + 4 c_h b_h = tr^2 - 4, it
    covers the translation length."""
    return np.sqrt(eh * eh + np.maximum(4.0 * ch * bh, 0.0)) * (1.0 - 4.0 * _ULP)


def _block_floor(abs_ch, abs_bh, s0: float, s1: float) -> np.ndarray:
    """Per row, a bound on the kernel over s0 <= s <= s1: |c_h s + b_h/s| is
    at least |c_h| s - |b_h|/s, which increases, and |b_h|/s - |c_h| s, which
    decreases. Rounding is monotone, so the rounded kernel keeps to it."""
    return np.maximum(abs_ch * s0 - abs_bh / s0, abs_bh / s1 - abs_ch * s1)


def _c_bound(s: np.ndarray, top: np.ndarray, frame: Mobius) -> np.ndarray:
    """Per sample s, (T + sqrt(T^2 + 8)) / (2 Y) for T = ``top``, where
    Y = s / (r^2 s^2 + w^2) is the height of z = frame(i s) and frame =
    [[p, q], [r, w]]: a row whose |c| is above it has a kernel above T.

    For a row g = (a, b, c, d) of det delta <= 2 and x = |c z + d| >= |c| Y,
    the kernel is |c z^2 + (d - a) z - b| / Y = x |z - g z| / Y and
    Im g z = delta Y / x^2, so it is at least x - delta / x >= x - 2 / x,
    which increases with x and passes T once x > (T + sqrt(T^2 + 8)) / 2
    (Beardon, GTM 91). A row with c = 0 is never above the bound.
    ``_check_det`` admits a row of word length L with |delta - 1| <=
    DET_TOL L max(1, |ad|, |bc|), below 1 while L max(|ad|, |bc|) < 1e12;
    the presets' rows drift by at most 3.5e-7 (flute d6, row 3780). The
    bound's few roundings, of positive terms, move it by a few ulps: where
    T is large the kernel's factor 2 covers them, and where it is small
    the margin (2 - delta) / x, about 1 / sqrt(2) for delta near 1, does.
    """
    half_inv_y = (0.5 * (frame.c * frame.c)) * s + (0.5 * (frame.d * frame.d)) / s
    return (top + np.sqrt(top * top + 8.0)) * half_inv_y


def _blocks(n: int, rows: int):
    """Slices of n samples: about _CELLS cells over ``rows`` rows, at least _BLOCK samples."""
    w = max(_BLOCK, _CELLS // max(rows, 1))
    return (slice(k, k + w) for k in range(0, n, w))


@np.errstate(over="ignore", invalid="ignore")  # a NaN or inf U reads inf
def _seed_bound(s: np.ndarray, ch, bh, eh) -> np.ndarray:
    """Per sample, a bound U on the kernel's minimum over the seed rows,
    evaluating no row. A block runs from every _BLOCK-th sample of a chunk
    (``_blocks`` over the seeds) to the next, or to the chunk's last
    sample. On a block s0 <= s <= s1, |c_h s + b_h/s| is largest at an end:
    if its terms share a sign it is convex, and its rounding is within a
    few relative ulps; if not, it is monotone, and so is its rounding. So
    U, the least over the seeds of the larger kernel at the block's ends,
    is at least the minimum at every sample of the block. A block whose
    least square is below the normal range, where the rounding of squares
    is no longer relative, has its U redone with hypot, as ``_min_2sinh``
    redoes a lost sample. A U that is NaN or inf, or itself below the
    normal range, reads inf.
    """
    bound = np.empty_like(s)
    for blk in _blocks(s.size, ch.size):
        sb = s[blk]
        # (ends, seeds), the seeds the inner axis: block k is ends k and k + 1
        x = np.append(sb[::_BLOCK], sb[-1])[:, None]
        xe = ch * x + bh / x
        end = np.square(xe)
        sq = (np.maximum(end[:-1], end[1:]) + eh * eh).min(axis=1)
        u = np.sqrt(sq)
        if (lost := sq < _TINY).any():
            u[lost] = np.hypot(np.maximum(abs(xe[:-1][lost]), abs(xe[1:][lost])), eh).min(axis=1)
        u[~((u >= _TINY) & (u < np.inf))] = np.inf
        bound[blk] = np.repeat(u, _BLOCK)[:sb.size]
    return bound


@np.errstate(over="ignore", invalid="ignore")  # a NaN bound keeps its row
def _min_displacements(s: np.ndarray, ball, frame: Mobius) -> np.ndarray:
    """Min over the ball of dist(z, g z), per sample z = frame(i s) of the ray,
    s increasing.

    Each sample's threshold T is 2U, U the ``_seed_bound`` of the seed rows
    of ``Ball.displacement_floor``. Two frame-free tests prune rows before
    any is gathered, reading only the word lengths before the first whose
    least floor or |c| (over it and every longer one) fails them: a floor
    above the largest T, and a |c| above the largest ``_c_bound``. The rows
    left get their ray terms, and stay if their ``_floor`` too is at most
    the largest T. One loop over blocks of samples (``_blocks``) evaluates
    the rows whose ``_block_floor`` too is at most the block's largest T,
    there also at most 2 (r m + r - 1/r) for the minimum m at the block
    before's last sample s0 and r = s1/s0 at the block's last s1: along the
    ray dist(z, g z) moves by at most 2 |d log s|, and 2 sinh(x + log r) <=
    2 r sinh x + r - 1/r. The factor 2 leaves room for a det up to 2, for
    the rounding of the ray terms and for squares that underflow.

    U is at least the minimum at every sample of its block, so a row whose
    bound is above 2U is never the minimum there, and the min, an exact
    selection, is the full scan's bit for bit. Every block keeps a row: the
    seed that attains U at one of its samples has floors at most its kernel
    there, so at most U; where the bound of the block before is lower, the
    row that attains the minimum passes. No call's temporaries grow with
    the samples.
    """
    floor, _, seed_coef, least_c, least_floor = ball.displacement_floor
    bound = _seed_bound(s, *_ray_terms(seed_coef, frame))
    c_max = _c_bound(s, 2.0 * bound, frame)
    # below the normal range, its rounding is no longer relative
    c_max = c_max.max() if c_max.min() >= _TINY else np.inf
    top = 2.0 * bound.max()
    # the rows of the first length whose least floor or |c| is above its
    # bound, and of every longer one, are pruned as a whole; a NaN floor is
    # not above top, so it keeps its row and its length
    k = np.count_nonzero(~((least_floor > top) | (least_c > c_max)))
    n = ball._level_starts[k]
    far = floor[:n] > top
    if c_max < np.inf:  # else no |c| is above it
        c = ball.c[:n]
        far |= c > c_max
        far |= c < -c_max
    ch, bh, eh = _ray_terms(ball._coef.take(np.flatnonzero(~far), axis=1), frame)
    low = _floor(ch, bh, eh)
    rows = np.flatnonzero(~(low > top))
    low, ch, bh, eh = low[rows], ch[rows], bh[rows], eh[rows]
    abs_ch, abs_bh = np.abs(ch), np.abs(bh)
    best = np.empty_like(s)
    s0, m0 = s[0], np.inf  # the block before's last sample and minimum
    for blk in _blocks(s.size, rows.size):
        sb = s[blk]
        s1 = sb[-1]
        # the bound from the block before, r - 1/r as (s1 - s0)(s1 + s0)/(s0 s1)
        top = 2.0 * min(bound[blk].max(), m0 * (s1 / s0) + (s1 - s0) / s0 * ((s1 + s0) / s1))
        near = np.flatnonzero(~(low > top))
        keep = near[~(_block_floor(abs_ch[near], abs_bh[near], sb[0], s1) > top)]
        best[blk] = _min_2sinh(sb, ch[keep], bh[keep], eh[keep])
        s0, m0 = s1, best[blk][-1]
    # asinh is increasing, so it is taken once per sample, after the min
    return 2.0 * np.arcsinh(0.5 * best)


def injectivity_profile(spec: GroupSpec, u: UnitTangent = BASE_TANGENT,
                        t_max: float = 10.0, step: float = 0.1,
                        depth: int | None = None) -> RayProfile:
    """Injectivity-radius estimates along the forward ray of u.

    At each sample time t the estimate is half the minimal displacement
    dist(x_t, g(x_t)) over the non-identity word ball; the liminf estimate is
    the minimum over the trailing TAIL_FRACTION of the samples. A frame
    with an entry whose square is past the float range raises ValueError.
    """
    n = sample_count(t_max, step)
    if not all(x * x < math.inf for x in (u.frame.a, u.frame.b, u.frame.c, u.frame.d)):
        raise ValueError(f"frame {u.frame} has an entry whose square is past the float range")
    ball = ball_arrays(spec, depth)
    if len(ball) == 0:
        raise EmptyBall("injectivity profile needs a non-empty word ball")
    times = step * np.arange(n)
    inj = 0.5 * _min_displacements(_exp(times), ball, u.frame)
    tail = max(1, int(math.ceil(TAIL_FRACTION * n)))
    return RayProfile(times=times, inj_estimates=inj,
                      liminf_estimate=float(inj[-tail:].min()))
