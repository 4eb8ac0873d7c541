"""Finite-depth evidence about how a boundary point sits relative to an orbit.

True limit-point taxonomy is an asymptotic notion; a finite word ball can only
supply evidence. Except for an exact parabolic witness, every verdict tag here
carries an "-evidence" suffix to make that explicit, and verdicts can move as
the depth grows.

The operational tests mirror two classical criteria: heights along the orbit
that keep growing witness horocyclic approach, and a parabolic element fixing
the point settles the matter exactly. Bounded heights read discrete-evidence.

No spec reads irregular-evidence. A GroupSpec has finitely many generators,
so a discrete one is geometrically finite (Katok, *Fuchsian Groups*, 4.6):
each of its limit points is conical or parabolic, and no horocycle orbit is
irregular (Dal'Bo, *Geodesic and Horocyclic Trajectories*, 2011). A
non-discrete one has no quotient surface at all. Irregular points exist only
on infinitely generated groups, such as the Z-covers of a finite-type surface.
"""

from __future__ import annotations

import enum

import numpy as np

from .group import (GroupElement, GroupSpec, _boundary_images, _check_depth, _minus_xi, _split,
                    ball_arrays, orbit_height)
from .halfplane import GEOM_TOL, BoundaryPoint, _check_real, _record, bp

UNBOUNDED_FACTOR = 10.0  # growth factor over the depth-1 sup for the unbounded call
UNBOUNDED_RUN = 3        # consecutive strictly-increasing depth steps required


class LimitVerdict(enum.Enum):
    HOROCYCLIC_EVIDENCE = "horocyclic-evidence"
    DISCRETE_EVIDENCE = "discrete-evidence"
    PARABOLIC = "parabolic"
    IRREGULAR_EVIDENCE = "irregular-evidence"
    INCONCLUSIVE = "inconclusive"


@_record
class LimitPointEvidence:
    """The orbit heights' sup at ``point`` over the depth ball, a parabolic
    element fixing it, and the verdict they give.

    ``height_accumulation`` is always None: every spec is finitely
    generated, so no limit point of a discrete one is irregular and no
    accumulation level is read (see the module docstring). The field and
    IRREGULAR_EVIDENCE stay for a witness on an infinitely generated
    cover."""

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
    ball = ball_arrays(spec, depth)
    # at infinity the ball's cache; np.append copies it, so it is never written
    h = np.append(ball.inf_heights if xi.is_infinity else orbit_height(ball._coef, xi),
                  1.0 if xi.is_infinity else 1.0 / (1.0 + xi.value * xi.value))
    h.sort()
    return h[::-1]


def _read(x, head, tail):
    # the heights of the columns (a, b, c, d) of x, by orbit_height's
    # operations on the (a, b) and (c, d) pairs at once, so the same bits;
    # and |c|, q = (a - xi c)^2 - 1 and c, so that 2 B_w < S reads
    # |c| < q S / 2
    p, _ = _minus_xi(x[:2], x[2:], head, tail)
    p *= p
    h = p[0] + p[1]
    np.divide(1.0, h, out=h)
    np.fmax(h, 0.0, out=h)
    q, c = p[0], x[2]
    q -= 1.0
    return h, np.abs(c), q, c


@np.errstate(divide="ignore", over="ignore", invalid="ignore")
def _walk(ball, xi: BoundaryPoint, s: float) -> np.ndarray:
    """The sup of the heights at a finite xi over each word length of a
    certified ball, read down the word tree from the running sup s.

    Row w = (a, b, c, d) with c != 0 bounds every height of its subtree by
    B_w = |c| / ((a - xi c)^2 - 1) when (a - xi c)^2 > 1 (the lemma of
    classify_boundary_point). The walk reads the rows of length 1, then,
    a length at a time, the children of every row it keeps: a row is kept
    unless 2 B_w < S, S the sup of the heights read so far. A row skipped
    has its whole subtree below S / 2, so no length's sup that could raise
    the running one is missed, and the running sups are those of a pass
    over every row, to the bit. A length none of whose rows is read has
    sup -inf.
    """
    # every reduced word is a row, by length and then by word, so row r has
    # the children r n + fan, fan = n + 1, ..., 2n, n = 2 (generators) - 1
    starts = ball._level_starts
    top, n = starts.size - 1, int(starts[1]) - 1
    fan = np.arange(n + 1, 2 * n + 1)
    coef, (head, tail) = ball._coef, _split(xi.value)
    sups = np.full(top, -np.inf)
    rows = np.arange(n + 1)
    h, lhs, q, c = _read(coef[:, :n + 1], head, tail)
    for k in range(top):
        sups[k] = m = h.max()
        s = max(s, m)
        if k + 1 == top:
            break
        # keep the rows with 2 B_w >= S; a NaN, q <= 0 and c = 0 keep their row
        skip = lhs < q * (0.5 * s)
        np.logical_and(skip, c, out=skip)
        rows = rows[~skip]
        if not rows.size:
            break
        rows = ((rows * n)[:, None] + fan).ravel()
        h, lhs, q, c = _read(coef.take(rows, axis=1), head, tail)
    return sups


def _fixing_row(ball, xi: BoundaryPoint, tol: float) -> int | None:
    # the first parabolic row fixing xi, or None; one with c = 0 is
    # z -> z + b, which fixes only infinity, though xi + b rounds to xi at
    # a huge xi
    rows = ball.isometry_rows[0]
    if not rows.size:
        return None
    a, b, c, d = ball.a[rows], ball.b[rows], ball.c[rows], ball.d[rows]
    images, at_inf = _boundary_images(a, b, c, d, xi)
    if xi.is_infinity:
        fixed = at_inf
    else:
        with np.errstate(over="ignore"):  # an image near the float range minus xi
            fixed = (c != 0.0) & (np.abs(images - xi.value) <= tol)
    return int(rows[fixed.argmax()]) if fixed.any() else None


def _walkable(spec: GroupSpec) -> bool:
    # the lemma's hypotheses (below): a certificate, so that the ball holds
    # every reduced word, whose disks all leave i outside. A disk spanning
    # (lo, hi) does when 1 + lo hi >= 0 (|i - x|^2 - r^2, centre x, radius
    # r), a half-plane when lo hi is +inf or, i on its edge, NaN
    cert = spec.certificate
    return cert is not None and not any(lo * hi < -1.0 for lo, hi in cert)


def classify_boundary_point(spec: GroupSpec, xi, depth: int | None = None,
                            tol: float = GEOM_TOL) -> LimitPointEvidence:
    """Finite-depth classification of a boundary point, in fixed test order.

    1. exact parabolic witness (a parabolic ball element fixing the point);
    2. unbounded-height growth (sup strictly rising over the last
       UNBOUNDED_RUN depth steps and past UNBOUNDED_FACTOR times the depth-1
       sup) -> horocyclic-evidence;
    3. bounded heights -> discrete-evidence;
    otherwise inconclusive (depth too shallow to judge growth, or growth that
    has not yet cleared the factor). An element fixes xi when |g(xi) - xi|
    <= tol; tol must be finite and non-negative.

    No test reads irregular-evidence, and height_accumulation is None. The
    spec is finitely generated, so if it is discrete it is geometrically
    finite (Katok, *Fuchsian Groups*, 4.6; Beardon, *The Geometry of
    Discrete Groups*, ch. 10): each of its limit points is conical or
    parabolic, and none is irregular (Dal'Bo, *Geodesic and Horocyclic
    Trajectories*, 2011). If it is not discrete it has no quotient surface,
    and no verdict holds there. The rule needs no certificate.

    The tests need only the sup of the heights at each length. On a spec
    with a certificate (group._ping_pong_disks), at a finite xi, when the
    certificate's disks all leave i outside their interiors, they come
    from a walk down the word tree (_walk) that reads only the subtrees
    that can still raise the sup, with the same result to the bit as a
    pass over every row. The certificate picks how the sups are read, not
    the verdict rule. The walk rests on
    a lemma: for a row w = (a, b, c, d) with c != 0, w(i) and the orbit
    point w v(i) of every descendant lie in the closed disk
    |z - a/c| <= sqrt(ad - bc)/|c|, the isometric disk I(w^-1). Proof
    sketch, with l the last letter of w and D(l) its certificate disk:

    * by ping-pong, v(i) lies outside the interior of D(l): each letter m
      maps the outside of the interior of D(m) into D(m^-1), and the first
      letter m of v is not l^-1, so v(i) lies in D(m^-1), whose interior
      misses that of D(l) (v(i) = i for the empty v);
    * by induction on the length, I(w) is in D(l): for w = u l, outside the
      interior of D(l) |l'| <= 1 and l(z) lies in D(l^-1), outside the
      interior of D(last letter of u), which holds I(u), so
      |w'(z)| = |u'(l(z))| |l'(z)| <= 1. It holds as well when l is the
      translation of Gamma(2), whose D is a half-plane and |l'| = 1.

    So z = v(i) has |cz + d| >= sqrt(det), det = ad - bc, and
    |w(z) - a/c| = det / (|c| |cz + d|) <= sqrt(det)/|c|. The height at xi
    peaks on that disk at r / (delta^2 - r^2), delta = |a/c - xi| and r its
    radius, so every height in the subtree is at most
    B_w = |c| sqrt(det) / ((a - xi c)^2 - det) when (a - xi c)^2 > det. The
    rows are group elements, det = 1 (the rounded ad - bc of a deep row
    carries the rounding of ad and bc, so the walk takes 1), and a - xi c
    is formed with orbit_height's split of xi. The walk reads a row's
    children unless 2 B_w < S, S the sup so far; the factor 2 covers the
    rows' rounding. At infinity (which reads Ball.inf_heights), on a spec
    without a certificate (PSL(2,Z) and other groups with relations) and
    where i lies inside a certificate disk, every row's height is computed.
    """
    xi = bp(xi)
    depth = _check_depth(spec, depth)
    if depth < 1:
        raise ValueError(f"depth must be at least 1, got {depth}")
    tol = _check_real("tol", tol, 0.0)
    ball = ball_arrays(spec, depth)
    # height_xi(i), orbit_height's floats for the row (1, 0, 0, 1): its
    # products by 0 and 1 are exact, and xi's split sums back to xi
    h0 = 1.0 if xi.is_infinity else 1.0 / (1.0 + xi.value * xi.value)
    fixing = _fixing_row(ball, xi, tol)

    # sups[k]: the sup over word lengths <= k, from the identity's height on.
    # Ball rows run by word length, and every length up to the longest word
    # has rows; past it (a finite group's ball ends before depth) the sup
    # stays put, so nothing here grows with the depth itself
    starts = ball._level_starts
    if xi.is_infinity or not _walkable(spec):
        heights = ball.inf_heights if xi.is_infinity else orbit_height(ball._coef, xi)
        level_sups = np.maximum.reduceat(heights, starts[:-1])
    else:
        level_sups = _walk(ball, xi, h0)
    top = starts.size - 1
    sups = np.maximum.accumulate(np.concatenate(([h0], level_sups))).tolist()
    sup_height = sups[-1]

    verdict, witness = LimitVerdict.INCONCLUSIVE, None
    if fixing is not None:
        verdict = LimitVerdict.PARABOLIC
        witness = ball[fixing]
    elif depth >= UNBOUNDED_RUN + 1:
        # a sup that stops at a length below depth does not rise at its end
        if top == depth and all(sups[-j] > sups[-j - 1] for j in range(1, UNBOUNDED_RUN + 1)):
            if sup_height >= UNBOUNDED_FACTOR * sups[1]:
                verdict = LimitVerdict.HOROCYCLIC_EVIDENCE
        else:
            verdict = LimitVerdict.DISCRETE_EVIDENCE
    return LimitPointEvidence(xi, depth, sup_height, None, witness, verdict)
