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


def _min_displacements(z: np.ndarray, ball) -> np.ndarray:
    # asinh is increasing, so it is taken once per sample, after the min
    a, b, c, d = ball.a, ball.b, ball.c, ball.d
    chunks = [(i, min(i + _CHUNK_ROWS, a.size)) for i in range(0, a.size, _CHUNK_ROWS)]
    parts = [_min_sinh(z, a[i:j], b[i:j], c[i:j], d[i:j]) for i, j in chunks]
    return 2.0 * np.arcsinh(np.minimum.reduce(parts))


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
    inj = 0.5 * _min_displacements(z, ball)
    tail = max(1, int(math.ceil(tail_fraction * n)))
    return RayProfile(times=times, inj_estimates=inj,
                      liminf_estimate=float(inj[-tail:].min()))
