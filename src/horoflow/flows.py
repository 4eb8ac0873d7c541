"""Geodesic and horocycle flows on unit tangent vectors, and injectivity profiles.

A unit tangent vector is recorded as a frame: the Moebius map carrying the
reference vector (based at i, pointing straight up) to it. Flows act by right
multiplication of the frame, so they commute with the group acting on the left.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import EmptyBall, NegativeTime
from .group import GroupSpec, ball_arrays
from .halfplane import INFINITY, POINT_I, BoundaryPoint, Mobius, PointH, apply, apply_boundary

TAIL_FRACTION = 0.25  # share of trailing samples feeding the liminf estimate

_CHUNK_ROWS = 512  # rows per kernel slice; its temporaries stay in cache
_SEED_ROWS = 512   # rows evaluated at every sample to bound its minimum
_BLOCK = 8         # samples sharing one pruning threshold
_ULP = float(np.finfo(float).eps)
MAX_SAMPLES = 2_000_000  # longest sample grid of a profile or an orbit table


def sample_count(span: float, step: float) -> int:
    """Points of the inclusive grid 0, step, 2 step, ... up to ``span``.

    Raises ValueError, before anything is allocated, when the count is not
    finite or exceeds MAX_SAMPLES.
    """
    x = span / step + 1e-9
    if not x < MAX_SAMPLES:
        raise ValueError(f"a span of {span} at step {step} needs more than "
                         f"{MAX_SAMPLES} samples")
    return int(math.floor(x)) + 1


@dataclass(frozen=True)
class UnitTangent:
    """Unit tangent vector, stored as the frame mapping the reference vector to it."""

    frame: Mobius

    def base_point(self) -> PointH:
        return apply(self.frame, POINT_I)

    def forward_endpoint(self) -> BoundaryPoint:
        return apply_boundary(self.frame, INFINITY)

    def transform(self, m: Mobius) -> "UnitTangent":
        return UnitTangent(m @ self.frame)


BASE_TANGENT = UnitTangent(Mobius.identity())


def geodesic_flow(u: UnitTangent, t: float) -> UnitTangent:
    """Flow for time t along the geodesic the vector points along."""
    e = math.exp(t / 2.0)
    return UnitTangent(u.frame @ Mobius(e, 0.0, 0.0, 1.0 / e))


def horocycle_flow(u: UnitTangent, s: float) -> UnitTangent:
    """Flow for time s along the horocycle the vector is perpendicular to."""
    return UnitTangent(u.frame @ Mobius(1.0, float(s), 0.0, 1.0))


def ray_point(u: UnitTangent, t: float) -> PointH:
    """Point at time t >= 0 along the forward geodesic ray of u."""
    if t < 0.0:
        raise NegativeTime(f"ray time must be >= 0, got {t}")
    return apply(u.frame, PointH(0.0, math.exp(t)))


def orbit_points(u: UnitTangent, kind: str, times: np.ndarray) -> np.ndarray:
    """Base points of the flowed vector at each time, as a complex array."""
    m = u.frame
    if kind == "geodesic":
        z = 1j * np.exp(np.asarray(times, dtype=float))
    elif kind == "horocycle":
        z = np.asarray(times, dtype=float) + 1j
    else:
        raise ValueError(f"unknown flow kind {kind!r}")
    return (m.a * z + m.b) / (m.c * z + m.d)


@dataclass(frozen=True)
class RayProfile:
    """Sampled injectivity-radius estimates along a geodesic ray.

    Estimates are computed against a finite word ball, so they only ever
    OVER-estimate the true injectivity radius: deepening the ball can lower
    them, never raise them.
    """

    times: np.ndarray
    inj_estimates: np.ndarray
    liminf_estimate: float


@np.errstate(over="ignore")  # an overflowed square is redone below
def _min_sinh(z: np.ndarray, a, b, c, d) -> np.ndarray:
    """Min over the given elements of |c z^2 + (d - a) z - b| / (2 Im z), which
    is sinh(dist(z, g z) / 2) for det g = 1, per sample z."""
    w = z / (2.0 * z.imag)
    wz = w * z
    dma = (d - a)[:, None]
    xr = c[:, None] * wz.real + dma * w.real - b[:, None] * (0.5 / z.imag)
    xi = c[:, None] * wz.imag + dma * w.imag
    x = np.sqrt((xr * xr + xi * xi).min(axis=0))
    over = np.isinf(x)
    if over.any():
        x[over] = np.hypot(xr[:, over], xi[:, over]).min(axis=0)
    return x


@np.errstate(over="ignore", divide="ignore", invalid="ignore")  # an infinite reach voids the bounds
def _ray_bounds(z: np.ndarray, ball, frame: Mobius):
    """Per row g, the terms of a bound that ``_min_sinh`` of g alone stays
    above along the ray z = frame(i s): ``(low, ch, bh, err, reach)``.

    With h = adj(frame) g frame, 4 sinh^2(dist(z, g z)/2) = (c_h s + b_h/s)^2 +
    (d_h - a_h)^2 on the ray, and no point is moved less than the translation
    length l, where 2 sinh(l/2) = sqrt(tr^2 - 4) (Beardon, GTM 91). ``low``
    bounds every sample from these last two terms; ``_block_bound`` adds the
    first, from ch = |c_h| and bh = |b_h|, over a block of samples. The
    kernel's terms are at most max|g| (1 + |z|)^2 / Im z in size; err * reach
    covers their rounding and that of z and of d_h - a_h, err * s that of
    c_h s and b_h / s.
    """
    p, q, r, s = frame.a, frame.b, frame.c, frame.d
    a, b, c, d = ball.a, ball.b, ball.c, ball.d
    dh_ah = (d - a) * (p * s + q * r) + (2.0 * p * q) * c - (2.0 * r * s) * b
    ch = np.abs((p * p) * c - (r * r) * b + (p * r) * (d - a))
    bh = np.abs((s * s) * b - (q * q) * c + (q * s) * (a - d))
    tr = a + d
    low = 0.5 * np.maximum(np.abs(dh_ah), np.sqrt(np.maximum(tr * tr - 4.0, 0.0)))
    size = np.maximum(np.maximum(np.abs(a), np.abs(b)), np.maximum(np.abs(c), np.abs(d)))
    err = (8.0 * _ULP * (p * p + q * q + r * r + s * s)) * size
    reach = float(((1.0 + np.abs(z)) ** 2 / z.imag).max())
    return low - err * reach, ch, bh, err, reach


@np.errstate(over="ignore", invalid="ignore")  # a NaN bound keeps its row
def _block_bound(ch, bh, err, reach: float, s0: float, s1: float) -> np.ndarray:
    """Per row, half the least of |c_h s + b_h/s| over s0 <= s <= s1, less
    its slack: a bound that ``_min_sinh`` of the row stays above there."""
    e = np.maximum(ch * s0 - bh / s0, bh / s1 - ch * s1)
    return 0.5 * e - err * (reach + 2.0 * (s1 + 1.0 / s0))


def _min_displacements(z: np.ndarray, s: np.ndarray, ball, frame: Mobius) -> np.ndarray:
    """Min over the ball of dist(z, g z), per sample z = frame(i s) of the ray,
    s increasing.

    The rows with the smallest bounds ``low`` give each sample an upper bound
    on its minimum. Every other row is evaluated only on the blocks of
    samples where both its bounds, ``low`` and ``_block_bound``, are at most
    twice the block's largest upper bound; the factor leaves room for
    relative errors in the bounds, such as the drift of det g from 1 in deep
    words. A pruned row is larger than a kept one, so the min, an exact
    selection, is that of the full scan bit for bit.
    """
    a, b, c, d = ball.a, ball.b, ball.c, ball.d
    low, ch, bh, err, reach = _ray_bounds(z, ball, frame)
    seed = np.argpartition(low, _SEED_ROWS)[:_SEED_ROWS] if low.size > _SEED_ROWS else slice(None)
    best = _min_sinh(z, a[seed], b[seed], c[seed], d[seed])
    rest = np.ones(low.size, dtype=bool)
    rest[seed] = False
    # not (low > bound) keeps the rows whose bound is NaN
    rows = np.nonzero(rest & ~(low > 2.0 * best.max()))[0]
    low, ch, bh, err = low[rows], ch[rows], bh[rows], err[rows]
    for k in range(0, z.size, _BLOCK):
        blk = slice(k, k + _BLOCK)
        top = 2.0 * best[blk].max()
        near = np.nonzero(~(low > top))[0]
        bound = _block_bound(ch[near], bh[near], err[near], reach, s[k], s[blk][-1])
        keep = rows[near[~(bound > top)]]
        for i in range(0, keep.size, _CHUNK_ROWS):
            sl = keep[i:i + _CHUNK_ROWS]
            best[blk] = np.minimum(best[blk], _min_sinh(z[blk], a[sl], b[sl], c[sl], d[sl]))
    # asinh is increasing, so it is taken once per sample, after the min
    return 2.0 * np.arcsinh(best)


def injectivity_profile(spec: GroupSpec, u: UnitTangent = BASE_TANGENT,
                        t_max: float = 10.0, step: float = 0.1,
                        depth: int | None = None,
                        tail_fraction: float = TAIL_FRACTION) -> RayProfile:
    """Injectivity-radius estimates along the forward ray of u.

    At each sample time t the estimate is half the minimal displacement
    dist(x_t, g(x_t)) over the non-identity word ball; the liminf estimate is
    the minimum over the trailing ``tail_fraction`` of the samples.
    """
    if not (t_max >= 0.0 and step > 0.0):
        raise ValueError(f"need t_max >= 0 and step > 0, got {t_max}, {step}")
    ball = ball_arrays(spec, depth)
    if len(ball) == 0:
        raise EmptyBall("injectivity profile needs a non-empty word ball")
    n = sample_count(t_max, step)
    times = step * np.arange(n)
    m = u.frame
    z0 = 1j * np.exp(times)
    z = (m.a * z0 + m.b) / (m.c * z0 + m.d)
    inj = 0.5 * _min_displacements(z, z0.imag, ball, m)
    tail = max(1, int(math.ceil(tail_fraction * n)))
    return RayProfile(times=times, inj_estimates=inj,
                      liminf_estimate=float(inj[-tail:].min()))
