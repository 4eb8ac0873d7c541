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
from dataclasses import dataclass

import numpy as np

from .group import (GroupElement, GroupSpec, _boundary_images, _check_depth, _check_real,
                    ball_arrays, orbit_height)
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
    vals = np.sort(heights[heights >= ACCUM_FLOOR])
    if vals.size:  # its distinct values; np.unique would import numpy.ma
        vals = vals[np.r_[True, vals[1:] != vals[:-1]]]
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
    has not yet cleared the factor). An element fixes xi when |g(xi) - xi|
    <= tol; tol must be finite and non-negative.
    """
    xi = bp(xi)
    depth = _check_depth(spec, depth)
    if depth < 1:
        raise ValueError(f"depth must be at least 1, got {depth}")
    tol = _check_real("tol", tol, 0.0)
    ball = ball_arrays(spec, depth)
    h0 = orbit_height(Mobius.identity(), xi)
    heights = ball.inf_heights if xi.is_infinity else orbit_height(ball, xi)

    # sups[k]: the sup over word lengths <= k, from the identity's height on.
    # Ball rows run by word length, and every length up to the longest word
    # has rows; past it (a finite group's ball ends before depth) the sup
    # stays put, so nothing here grows with the depth itself
    lengths = ball.word_lengths
    top = int(lengths[-1]) if lengths.size else 0
    sups = np.empty(top + 1)
    sups[0] = h0
    starts = np.searchsorted(lengths, np.arange(1, top + 1, dtype=lengths.dtype))
    sups[1:] = np.maximum.reduceat(heights, starts)
    sups = np.maximum.accumulate(sups).tolist()
    sup_height = sups[-1]

    # the first parabolic element fixing xi; one with c = 0 is z -> z + b,
    # which fixes only infinity, though xi + b rounds to xi at a huge xi
    verdict, cluster, witness = LimitVerdict.INCONCLUSIVE, None, None
    rows = ball.isometry_rows[0]
    a, b, c, d = ball.a[rows], ball.b[rows], ball.c[rows], ball.d[rows]
    images, at_inf = _boundary_images(a, b, c, d, xi)
    if xi.is_infinity:
        fixed = at_inf
    else:
        with np.errstate(over="ignore"):  # an image near the float range minus xi
            fixed = (c != 0.0) & (np.abs(images - xi.value) <= tol)
    if fixed.any():
        verdict = LimitVerdict.PARABOLIC
        witness = ball[rows[fixed.argmax()]]
    elif depth >= UNBOUNDED_RUN + 1:
        # a sup that stops at a length below depth does not rise at its end
        if top == depth and all(sups[-j] > sups[-j - 1] for j in range(1, UNBOUNDED_RUN + 1)):
            if sup_height >= UNBOUNDED_FACTOR * sups[1]:
                verdict = LimitVerdict.HOROCYCLIC_EVIDENCE
        else:
            # no height reaches the floor when the sup does not; otherwise
            # only the few that do are joined to the identity's
            if sup_height >= ACCUM_FLOOR:
                cluster = _find_cluster(np.append(h0, heights[heights >= ACCUM_FLOOR]))
            verdict = (LimitVerdict.DISCRETE_EVIDENCE if cluster is None
                       else LimitVerdict.IRREGULAR_EVIDENCE)
    return LimitPointEvidence(xi, depth, sup_height, cluster, witness, verdict)
