"""Orbit heights and finite-depth limit-point classification."""

import dataclasses
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import horoflow as hf
from horoflow.group import Ball, ball_arrays, orbit_height
from horoflow.halfplane import GEOM_TOL
from horoflow.limits import (UNBOUNDED_FACTOR, UNBOUNDED_RUN, LimitPointEvidence,
                             LimitVerdict, _find_cluster)


def test_orbit_heights_translation_orbit(parabolic_spec):
    # Translations fix every height at infinity; identity is included.
    h = hf.orbit_heights(parabolic_spec, hf.INFINITY, depth=3)
    assert h.shape == (7,)
    assert np.all(h == 1.0)


def test_orbit_heights_dilation_orbit(hyperbolic_spec):
    h = hf.orbit_heights(hyperbolic_spec, hf.INFINITY, depth=3)
    assert list(h) == [64.0, 16.0, 4.0, 1.0, 0.25, 0.0625, 0.015625]


def test_orbit_heights_sorted_descending(schottky_spec):
    h = hf.orbit_heights(schottky_spec, hf.bp(0.25), depth=4)
    assert np.all(np.diff(h) <= 0.0)
    assert np.all(h > 0.0)


def test_far_points_raise_no_warning(schottky_spec):
    # Past |xi| ~ 1e154 the squares overflow to inf, whose height 1/inf = 0
    # is right; neither the heights nor the fixed-point test may warn.
    gamma2 = hf.GroupSpec((hf.Mobius(1, 2, 0, 1), hf.Mobius(1, 0, 2, 1)), max_word_length=6)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        h = hf.orbit_heights(schottky_spec, hf.bp(1e300), depth=4)
        for x in (1e300, -1e300, 1.7e308):
            for spec in (schottky_spec, gamma2):
                ev = hf.classify_boundary_point(spec, hf.bp(x), depth=4)
                assert ev.sup_height == 0.0
    assert h.size == len(ball_arrays(schottky_spec, 4)) + 1
    assert np.all(h == 0.0)


def test_orbit_heights_conjugation_scales_uniformly(hyperbolic_spec):
    # Moving the base point rescales all heights by one derivative factor.
    h = hf.Mobius(1.0, 0.5, 0.0, 1.0) @ hf.Mobius(2.0, 0.0, 0.0, 0.5)
    conj = hf.conjugate_spec(hyperbolic_spec, h)
    h1 = hf.orbit_heights(hyperbolic_spec, hf.INFINITY, depth=6)
    h2 = hf.orbit_heights(conj, hf.apply_boundary(h, hf.INFINITY), depth=6)
    assert np.allclose(h2 / h2[0], h1 / h1[0], rtol=1e-9)


@pytest.mark.parametrize("xi", [hf.INFINITY, hf.bp(0.0)])
def test_orbit_heights_match_exact_composition(flute_spec, xi):
    # Compose the float generators exactly and compare height_xi(g(i)) =
    # det / ((a - xi c)^2 + (b - xi d)^2) on a sample of the depth-6 ball.
    letters = {}
    for k, g in enumerate(flute_spec.generators):
        for sign, m in ((1, g), (-1, g.inverse())):
            letters[sign * (k + 1)] = [Fraction(v) for v in (m.a, m.b, m.c, m.d)]
    ball = ball_arrays(flute_spec, 6)
    heights = orbit_height(ball, xi)
    rows = np.random.default_rng(6).choice(len(ball), 300, replace=False)
    for i in rows.tolist() + [len(ball) - 1]:
        a, b, c, d = Fraction(1), Fraction(0), Fraction(0), Fraction(1)
        for letter in ball.word(i):
            p, q, r, s = letters[letter]
            a, b, c, d = a * p + b * r, a * q + b * s, c * p + d * r, c * q + d * s
        if xi.is_infinity:
            exact = (a * d - b * c) / (c * c + d * d)
        else:
            x = Fraction(xi.value)
            exact = (a * d - b * c) / ((a - x * c) ** 2 + (b - x * d) ** 2)
        assert abs(Fraction(float(heights[i])) - exact) <= Fraction(1, 10 ** 12) * exact


@pytest.mark.parametrize("x", [2 ** 0.5 - 1, (5 ** 0.5 - 1) / 2])
def test_orbit_heights_keep_digits_near_an_irrational(x):
    # On Gamma(2) the highest orbit points sit close to x, where a - x c
    # cancels; the integer entries make the exact heights computable.
    gamma2 = hf.GroupSpec((hf.Mobius(1, 2, 0, 1), hf.Mobius(1, 0, 2, 1)))
    ball = ball_arrays(gamma2)
    heights = orbit_height(ball, hf.bp(x))
    X = Fraction(x)
    for i in np.argsort(heights)[-20:].tolist():
        a, b, c, d = (Fraction(float(v[i])) for v in (ball.a, ball.b, ball.c, ball.d))
        exact = 1 / ((a - X * c) ** 2 + (b - X * d) ** 2)
        assert abs(Fraction(float(heights[i])) - exact) <= Fraction(1, 10 ** 14) * exact


# ---------------------------------------------------------------------------
# classification


def test_parabolic_point_has_exact_witness(parabolic_spec):
    ev = hf.classify_boundary_point(parabolic_spec, hf.INFINITY)
    assert ev.verdict is LimitVerdict.PARABOLIC
    w = ev.parabolic_witness
    assert w.word == (1,)
    assert abs(w.mobius.trace) == 2.0
    assert hf.apply_boundary(w.mobius, hf.INFINITY).is_infinity
    assert ev.sup_height == 1.0
    assert ev.height_accumulation is None


def test_dilation_fixed_points_split(hyperbolic_spec):
    up = hf.classify_boundary_point(hyperbolic_spec, hf.INFINITY, depth=10)
    assert up.verdict is LimitVerdict.HOROCYCLIC_EVIDENCE
    assert up.sup_height == 4.0**10
    assert up.parabolic_witness is None
    out = hf.classify_boundary_point(hyperbolic_spec, hf.bp(1.0), depth=10)
    assert out.verdict is LimitVerdict.DISCRETE_EVIDENCE
    assert out.sup_height <= 0.5


def test_shallow_depth_is_inconclusive(hyperbolic_spec):
    ev = hf.classify_boundary_point(hyperbolic_spec, hf.INFINITY, depth=3)
    assert ev.verdict is LimitVerdict.INCONCLUSIVE


def test_verdict_survives_group_motion(hyperbolic_spec, schottky_spec):
    # The taxonomy is a property of the orbit, so g(xi) must agree with xi.
    for xi in (hf.bp(1.0), hf.bp(-2.0), hf.INFINITY):
        base = hf.classify_boundary_point(hyperbolic_spec, xi, depth=10).verdict
        for e in hf.enumerate_ball(hyperbolic_spec, 2):
            moved = hf.apply_boundary(e.mobius, xi)
            assert (
                hf.classify_boundary_point(hyperbolic_spec, moved, depth=10).verdict
                is base
            )
    g1, g2 = schottky_spec.generators
    xi = hf.fixed_points(g2)[1]
    base = hf.classify_boundary_point(schottky_spec, xi, depth=8).verdict
    for m in (g1, g2.inverse(), g1 @ g2):
        moved = hf.apply_boundary(m, xi)
        assert hf.classify_boundary_point(schottky_spec, moved, depth=8).verdict is base


def test_irregular_evidence_positive_control():
    """Six nearby same-axis dilations level off in sup while the heights
    cluster: the irregular branch must fire rather than round to a verdict."""
    gens = tuple(hf.hyperbolic_element(-1.0, 1.0, 1.0 + j * 1e-4) for j in range(6))
    spec = hf.GroupSpec(gens, max_word_length=5)
    ev = hf.classify_boundary_point(spec, hf.INFINITY)
    assert ev.verdict is LimitVerdict.IRREGULAR_EVIDENCE
    assert ev.height_accumulation == pytest.approx(0.013444, rel=1e-3)
    assert ev.sup_height == pytest.approx(1.0, rel=1e-9)


def _preset_probe_points(spec):
    pts = [hf.INFINITY, hf.bp(0.0), hf.bp(1.0), hf.bp(-1.0), hf.bp(0.5)]
    for g in spec.generators:
        if hf.classify_isometry(g) is hf.IsometryClass.HYPERBOLIC:
            pts.extend(hf.fixed_points(g))
    return pts


def test_geometrically_finite_presets_never_irregular(
    parabolic_spec, hyperbolic_spec, schottky_spec, flute_spec
):
    cases = [
        (parabolic_spec, 10),
        (hyperbolic_spec, 10),
        (schottky_spec, 8),
        (flute_spec, 6),
    ]
    for spec, depth in cases:
        for xi in _preset_probe_points(spec):
            ev = hf.classify_boundary_point(spec, xi, depth=depth)
            assert ev.verdict is not LimitVerdict.IRREGULAR_EVIDENCE, (spec, xi)


def test_classification_depth_guard(parabolic_spec):
    with pytest.raises(ValueError):
        hf.classify_boundary_point(parabolic_spec, hf.INFINITY, depth=-1)


def test_classification_needs_a_depth_of_at_least_one(parabolic_spec):
    with pytest.raises(ValueError, match="depth must be at least 1, got 0"):
        hf.classify_boundary_point(parabolic_spec, hf.INFINITY, depth=0)


def test_nan_point_is_rejected(parabolic_spec):
    with pytest.raises(hf.InvalidPoint):
        hf.classify_boundary_point(parabolic_spec, float("nan"))
    assert issubclass(hf.InvalidPoint, hf.HoroflowError)
    assert issubclass(hf.InvalidPoint, ValueError)


def test_parabolic_witness_is_the_first_in_word_order():
    # Gamma(2) has cusps at inf, 0 and 1.
    gamma2 = hf.GroupSpec((hf.Mobius(1, 2, 0, 1), hf.Mobius(1, 0, 2, 1)), max_word_length=4)
    ball = hf.enumerate_ball(gamma2)
    for x in (hf.INFINITY, hf.bp(0.0), hf.bp(1.0)):
        fixing = [e for e in ball
                  if hf.classify_isometry(e) is hf.IsometryClass.PARABOLIC
                  and hf.apply_boundary(e.mobius, x) == x]
        ev = hf.classify_boundary_point(gamma2, x)
        assert ev.verdict is LimitVerdict.PARABOLIC
        assert ev.parabolic_witness == fixing[0]


_GAMMA2 = hf.GroupSpec((hf.Mobius(1, 2, 0, 1), hf.Mobius(1, 0, 2, 1)), max_word_length=8)
_PSL2Z = hf.GroupSpec((hf.Mobius(0, -1, 1, 0), hf.Mobius(1, 1, 0, 1)), max_word_length=12)
_CUSP = hf.cyclic_parabolic(1.0, max_word_length=6)


@pytest.mark.parametrize("spec, x", [
    (_CUSP, 1e16), (_CUSP, 1e300), (_CUSP, -1e300), (_GAMMA2, 2.0 ** 60),
    (_GAMMA2, 1e300), (_GAMMA2, -1e300), (_PSL2Z, 1e300), (_PSL2Z, -1e300)],
    ids=["cusp-1e16", "cusp-1e300", "cusp--1e300", "gamma2-2^60", "gamma2-1e300",
         "gamma2--1e300", "psl2z-1e300", "psl2z--1e300"])
def test_translations_witness_no_finite_point(spec, x):
    # z -> z + b fixes only infinity, though x + b rounds to x at these x
    assert any(e.mobius.c == 0.0 and hf.classify_isometry(e) is hf.IsometryClass.PARABOLIC
               for e in hf.enumerate_ball(spec))
    ev = hf.classify_boundary_point(spec, x)
    assert ev.verdict is not LimitVerdict.PARABOLIC
    assert ev.parabolic_witness is None


def test_witnesses_at_finite_points_move_infinity():
    points = sorted({p / q for q in range(1, 7) for p in range(-3 * q, 3 * q + 1)}
                    | {2.0 ** 53, 2.0 ** 60, 1e16, 1e300, -1e300, 0.37})
    witnesses = 0
    for spec in (_CUSP, _GAMMA2, _PSL2Z):
        for x in points:
            w = hf.classify_boundary_point(spec, x).parabolic_witness
            if w is not None:
                witnesses += 1
                assert w.mobius.c != 0.0
                assert hf.apply_boundary(w.mobius, hf.bp(x)).value == pytest.approx(x, abs=GEOM_TOL)
    assert witnesses > 50


@pytest.mark.parametrize("tol", [math.nan, -1.0, math.inf])
def test_classify_rejects_a_bad_tol(tol):
    with pytest.raises(ValueError, match="tol"):
        hf.classify_boundary_point(_GAMMA2, 0.5, tol=tol)


# ---------------------------------------------------------------------------
# equivalence with the straightforward classifier


def _reference_orbit_height(g, xi):
    if xi.is_infinity:
        return 1.0 / (g.c * g.c + g.d * g.d)
    t = 134217729.0 * xi.value
    head = t - (t - xi.value)
    tail = xi.value - head
    u = (g.a - head * g.c) - tail * g.c
    v = (g.b - head * g.d) - tail * g.d
    return 1.0 / (u * u + v * v)


def _reference_classify(spec, xi, depth):
    """classify_boundary_point as a plain scan: the identity's height joined
    to the ball's, a running maximum read at each length's end, and the
    isometry rows computed afresh."""
    xi = hf.bp(xi)
    ball = ball_arrays(spec, depth)
    heights = np.append(_reference_orbit_height(hf.Mobius.identity(), xi),
                        _reference_orbit_height(ball, xi))
    sup_height = float(heights.max())
    rows, _ = Ball.isometry_rows.func(ball)
    a, b, c, d = ball.a[rows], ball.b[rows], ball.c[rows], ball.d[rows]
    if xi.is_infinity:
        fixed = c == 0.0
    else:
        x = xi.value
        den = c * x + d
        with np.errstate(divide="ignore", invalid="ignore"):
            fixed = (c != 0.0) & (den != 0.0) & (np.abs((a * x + b) / den - x) <= GEOM_TOL)
    if fixed.any():
        return LimitPointEvidence(xi, depth, sup_height, None,
                                  ball[int(rows[fixed.argmax()])],
                                  LimitVerdict.PARABOLIC)
    ends = np.searchsorted(ball.word_lengths, np.arange(1, depth + 1), side="right")
    sup_by_depth = np.maximum.accumulate(heights)[ends].tolist()
    if depth >= UNBOUNDED_RUN + 1:
        if all(sup_by_depth[-j] > sup_by_depth[-j - 1] for j in range(1, UNBOUNDED_RUN + 1)):
            verdict = (LimitVerdict.HOROCYCLIC_EVIDENCE
                       if sup_by_depth[-1] >= UNBOUNDED_FACTOR * sup_by_depth[0]
                       else LimitVerdict.INCONCLUSIVE)
            return LimitPointEvidence(xi, depth, sup_height, None, None, verdict)
        cluster = _find_cluster(heights)
        if cluster is not None:
            return LimitPointEvidence(xi, depth, sup_height, cluster, None,
                                      LimitVerdict.IRREGULAR_EVIDENCE)
        return LimitPointEvidence(xi, depth, sup_height, None, None,
                                  LimitVerdict.DISCRETE_EVIDENCE)
    return LimitPointEvidence(xi, depth, sup_height, None, None, LimitVerdict.INCONCLUSIVE)


def _bits(ev):
    # every field, floats by their bits
    def f(x):
        return None if x is None else float(x).hex()
    w = ev.parabolic_witness
    m = None if w is None else (w.word, *(f(v) for v in (w.mobius.a, w.mobius.b,
                                                         w.mobius.c, w.mobius.d)))
    return (ev.point, ev.depth, f(ev.sup_height), f(ev.height_accumulation), m, ev.verdict)


_EQUIVALENCE_BALLS = {
    "schottky": (hf.schottky_pair(), 6),
    "flute": (hf.truncated_flute(), 4),
    "gamma2": (hf.GroupSpec((hf.Mobius(1, 2, 0, 1), hf.Mobius(1, 0, 2, 1))), 8),
}


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(name=st.sampled_from(sorted(_EQUIVALENCE_BALLS)),
       x=st.one_of(st.just(math.inf), st.floats(-8.0, 8.0)),
       depth=st.integers(1, 8))
@example(name="gamma2", x=1.0, depth=8)
@example(name="gamma2", x=math.inf, depth=5)
@example(name="schottky", x=math.inf, depth=6)
def test_classify_equals_reference(name, x, depth):
    spec, max_depth = _EQUIVALENCE_BALLS[name]
    depth = min(depth, max_depth)
    got = hf.classify_boundary_point(spec, x, depth=depth)
    want = _reference_classify(spec, x, depth)
    assert _bits(got) == _bits(want)


def test_classify_equals_reference_when_the_ball_ends_early(hyperbolic_spec):
    # an elliptic of order 3: the ball is {g, g^-1}, rows only at length 1;
    # the positive control of the irregular branch and a dilation cover the
    # cluster and rising-sup branches
    order3 = hf.GroupSpec((hf.Mobius(0.5, math.sqrt(0.75), -math.sqrt(0.75), 0.5),),
                          max_word_length=8)
    assert ball_arrays(order3).word_lengths.tolist() == [1, 1]
    control = hf.GroupSpec(
        tuple(hf.hyperbolic_element(-1.0, 1.0, 1.0 + j * 1e-4) for j in range(6)),
        max_word_length=5)
    cases = [(order3, 8), (control, 5), (hyperbolic_spec, 10)]
    verdicts = set()
    for spec, max_depth in cases:
        for x in (math.inf, 0.0, 1.0, -0.5, 2.75):
            for depth in range(1, max_depth + 1):
                got = hf.classify_boundary_point(spec, x, depth=depth)
                assert _bits(got) == _bits(_reference_classify(spec, x, depth))
                verdicts.add(got.verdict)
    assert verdicts >= {LimitVerdict.DISCRETE_EVIDENCE, LimitVerdict.IRREGULAR_EVIDENCE,
                        LimitVerdict.HOROCYCLIC_EVIDENCE, LimitVerdict.INCONCLUSIVE}


@pytest.mark.parametrize("xi", [hf.INFINITY, hf.bp(0.3), hf.bp(-2.7)])
def test_orbit_height_of_a_ball_is_its_rows_heights(schottky_spec, xi):
    ball = ball_arrays(schottky_spec, 6)
    heights = orbit_height(ball, xi)
    assert np.array_equal(heights, _reference_orbit_height(ball, xi))
    rows = np.random.default_rng(3).choice(len(ball), 50, replace=False)
    for i in rows.tolist() + [0, len(ball) - 1]:
        one = orbit_height(ball[i].mobius, xi)
        assert isinstance(one, float)
        assert one.hex() == float(heights[i]).hex()


@pytest.mark.parametrize("spec", [_GAMMA2, _PSL2Z, _CUSP], ids=["gamma2", "psl2z", "cusp"])
@pytest.mark.parametrize("x", [0.3, math.e - 2, math.inf])
def test_a_depth_past_max_word_length_reads_the_deeper_spec(spec, x):
    # max_word_length is the default depth, not a cap
    depth = spec.max_word_length
    shallow = dataclasses.replace(spec, max_word_length=depth - 2)
    assert (_bits(hf.classify_boundary_point(shallow, x, depth=depth))
            == _bits(hf.classify_boundary_point(spec, x, depth=depth)))
    assert (hf.orbit_heights(shallow, x, depth=depth).tobytes()
            == hf.orbit_heights(spec, x, depth=depth).tobytes())


def test_a_height_whose_sum_of_squares_underflows_is_inf():
    # c^2 + d^2 = 1e-340 underflows to 0, on the scalar and the array path
    g = hf.Mobius(0, -1e170, 1e-170, 0)
    assert orbit_height(g, hf.INFINITY) == math.inf
    spec = hf.GroupSpec((g, hf.Mobius(1, 2, 0, 1)), max_word_length=3)
    assert math.inf in hf.orbit_heights(spec, hf.INFINITY).tolist()
    assert hf.classify_boundary_point(spec, hf.INFINITY).sup_height == math.inf


@pytest.mark.parametrize("x", [1e200, -1e200])
def test_heights_where_the_split_overflows_read_zero(x):
    # both halves of x's split overflow against c = 1e150: a - x c is
    # inf - inf, though the height is below 1e-600
    huge = hf.Mobius(1, 0, 1e150, 1)
    spec = hf.GroupSpec((hf.Mobius(1, 0, 1e-8, 1), huge), max_word_length=2)
    assert orbit_height(huge, hf.bp(x)) == 0.0
    heights = hf.orbit_heights(spec, x)
    assert not np.isnan(heights).any()
    assert hf.classify_boundary_point(spec, x).sup_height == 0.0


_ORDER3 = hf.GroupSpec((hf.Mobius(0.5, math.sqrt(0.75), -math.sqrt(0.75), 0.5),))


@pytest.mark.parametrize("spec, depth", [
    (_GAMMA2, 10), (_PSL2Z, 20), (_ORDER3, 8), (hf.cyclic_hyperbolic(1e100), 4),
], ids=["gamma2", "psl2z", "order3", "inf-and-0"])
def test_orbit_heights_at_infinity_equal_the_joined_sort(spec, depth):
    # PSL(2,Z) ties the identity's height 1 (S and T), the order-3 ball ends
    # before its depth, and the far dilation reads heights inf and 0
    ball = ball_arrays(spec, depth)
    joined = np.append(orbit_height(ball, hf.INFINITY), 1.0)
    joined.sort()
    got = hf.orbit_heights(spec, hf.INFINITY, depth)
    assert got.tobytes() == joined[::-1].tobytes()
    assert got.flags.writeable
    got[:] = -1.0  # the caller's own array
    assert hf.orbit_heights(spec, hf.INFINITY, depth).tobytes() == joined[::-1].tobytes()


@pytest.mark.parametrize("depth", [2 ** 31 - 1, 2 ** 31 + 5, 2 ** 63])
def test_a_depth_past_int32_reads_the_ball_it_ends_at(depth):
    # the order-3 ball ends at length 1: any deeper depth reads the same
    # rows, and nothing here is sized by the depth itself
    for x in (math.inf, 0.0, 0.3):
        want = hf.classify_boundary_point(_ORDER3, x, depth=8)
        got = hf.classify_boundary_point(_ORDER3, x, depth=depth)
        assert got.depth == depth
        assert _bits(dataclasses.replace(got, depth=8)) == _bits(want)
        assert (hf.orbit_heights(_ORDER3, x, depth).tobytes()
                == hf.orbit_heights(_ORDER3, x, 8).tobytes())
    with pytest.raises(hf.NoSequenceFound) as exc:
        hf.find_bounded_escaping_sequence(_ORDER3, (0.1, 10.0), depth)
    assert exc.value.found == 1
