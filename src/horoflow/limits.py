"""Finite-depth evidence about how a boundary point sits relative to an orbit.

True limit-point taxonomy is an asymptotic notion; a finite word ball can only
supply evidence. Except for an exact parabolic witness, every verdict tag here
carries an "-evidence" suffix to make that explicit, and verdicts can move as
the depth grows.

The operational tests mirror three classical criteria: heights along the orbit
that keep growing witness horocyclic approach; bounded heights accumulating at
a positive level argue against discreteness of the approach; a parabolic
element fixing the point settles the matter exactly.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .group import GroupElement, GroupSpec, ball_arrays, isometry_rows, orbit_height
from .halfplane import GEOM_TOL, BoundaryPoint, Mobius, bp

UNBOUNDED_FACTOR = 10.0  # growth factor over the depth-1 sup for the unbounded call
UNBOUNDED_RUN = 3        # consecutive strictly-increasing depth steps required
ACCUM_COUNT = 5          # distinct height values forming a cluster
ACCUM_WINDOW = 1e-3      # cluster width, relative to the cluster level
ACCUM_FLOOR = 1e-3       # clusters must sit at least this far above 0


class LimitVerdict(enum.Enum):
    HOROCYCLIC_EVIDENCE = "horocyclic-evidence"
    DISCRETE_EVIDENCE = "discrete-evidence"
    PARABOLIC = "parabolic"
    IRREGULAR_EVIDENCE = "irregular-evidence"
    INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class LimitPointEvidence:
    point: BoundaryPoint
    depth: int
    sup_height: float
    height_accumulation: float | None
    parabolic_witness: GroupElement | None
    verdict: LimitVerdict


def orbit_heights(spec: GroupSpec, xi, depth: int | None = None) -> np.ndarray:
    """Orbit heights height_xi(g(i)) over the depth ball, descending.

    The orbit point i itself (the identity) is included.
    """
    xi = bp(xi)
    if depth is None:
        depth = spec.max_word_length
    if depth > spec.max_word_length:
        raise ValueError(f"depth {depth} exceeds the spec's max_word_length {spec.max_word_length}")
    h = np.append(orbit_height(ball_arrays(spec, depth), xi),
                  orbit_height(Mobius.identity(), xi))
    h.sort()
    return h[::-1]


def _find_cluster(heights: np.ndarray) -> float | None:
    """Mean of the first cluster of ACCUM_COUNT distinct values whose spread
    is within ACCUM_WINDOW relative to their level, all at least ACCUM_FLOOR.

    The window is relative because orbit heights decay geometrically toward
    0 at every scale: an absolute window always finds spurious clusters just
    above any floor, and a relative one is also invariant under the global
    rescaling that moving the base point of the height function causes.
    """
    vals = np.unique(heights[heights >= ACCUM_FLOOR])
    if vals.size < ACCUM_COUNT:
        return None
    for i in range(vals.size - ACCUM_COUNT + 1):
        window = vals[i:i + ACCUM_COUNT]
        level = float(window.mean())
        if window[-1] - window[0] <= ACCUM_WINDOW * level:
            return level
    return None


def classify_boundary_point(spec: GroupSpec, xi, depth: int | None = None,
                            tol: float = GEOM_TOL) -> LimitPointEvidence:
    """Finite-depth classification of a boundary point, in fixed test order.

    1. exact parabolic witness (a parabolic ball element fixing the point);
    2. unbounded-height growth (sup strictly rising over the last
       UNBOUNDED_RUN depth steps and past UNBOUNDED_FACTOR times the depth-1
       sup) -> horocyclic-evidence;
    3. bounded heights with a cluster at a positive level -> irregular-evidence;
    4. bounded heights without one -> discrete-evidence;
    otherwise inconclusive (depth too shallow to judge growth, or growth that
    has not yet cleared the factor).
    """
    xi = bp(xi)
    if depth is None:
        depth = spec.max_word_length
    if not (1 <= depth <= spec.max_word_length):
        raise ValueError(
            f"depth must lie in [1, {spec.max_word_length}], got {depth}")
    ball = ball_arrays(spec, depth)
    h0 = orbit_height(Mobius.identity(), xi)
    heights = orbit_height(ball, xi)

    # sups by word length, from the identity's height on: ball rows run by
    # word length, and a length with no rows (a finite group's ball ends
    # before depth) keeps the running sup
    starts = np.searchsorted(ball.word_lengths, np.arange(1, depth + 2))
    full = starts[:-1] < starts[1:]
    sups = np.full(depth + 1, -np.inf)
    sups[0] = h0
    sups[1:][full] = np.maximum.reduceat(heights, starts[:-1][full])
    sup_by_depth = np.maximum.accumulate(sups)[1:].tolist()
    sup_height = sup_by_depth[-1]

    # the first parabolic element fixing xi
    rows, _ = isometry_rows(ball)
    a, b, c, d = ball.a[rows], ball.b[rows], ball.c[rows], ball.d[rows]
    if xi.is_infinity:
        fixed = c == 0.0
    else:
        x = xi.value
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            den = c * x + d
            fixed = (den != 0.0) & (np.abs((a * x + b) / den - x) <= tol)
    if fixed.any():
        return LimitPointEvidence(xi, depth, sup_height, None,
                                  ball.element(int(rows[fixed.argmax()])),
                                  LimitVerdict.PARABOLIC)

    if depth >= UNBOUNDED_RUN + 1:
        rising = all(sup_by_depth[-j] > sup_by_depth[-j - 1]
                     for j in range(1, UNBOUNDED_RUN + 1))
        if rising:
            if sup_by_depth[-1] >= UNBOUNDED_FACTOR * sup_by_depth[0]:
                return LimitPointEvidence(xi, depth, sup_height, None, None,
                                          LimitVerdict.HOROCYCLIC_EVIDENCE)
            return LimitPointEvidence(xi, depth, sup_height, None, None,
                                      LimitVerdict.INCONCLUSIVE)
        # no height reaches the floor when the sup does not; otherwise only
        # the few that do are joined to the identity's
        cluster = None if sup_height < ACCUM_FLOOR else _find_cluster(
            np.append(h0, heights[heights >= ACCUM_FLOOR]))
        if cluster is not None:
            return LimitPointEvidence(xi, depth, sup_height, cluster, None,
                                      LimitVerdict.IRREGULAR_EVIDENCE)
        return LimitPointEvidence(xi, depth, sup_height, None, None,
                                  LimitVerdict.DISCRETE_EVIDENCE)
    return LimitPointEvidence(xi, depth, sup_height, None, None,
                              LimitVerdict.INCONCLUSIVE)
