"""Word-ball enumeration, element classification, fixed points, presets."""

import gc
import math
import weakref

import numpy as np
import pytest

import horoflow as hf
from horoflow.group import Ball, ball_arrays
from horoflow.halfplane import DET_TOL


def _rotation(theta):
    return hf.Mobius(math.cos(theta), math.sin(theta), -math.sin(theta), math.cos(theta))


# ---------------------------------------------------------------------------
# GroupSpec validation


def test_spec_rejects_identity_generator():
    with pytest.raises(hf.InvalidGenerator):
        hf.GroupSpec((hf.Mobius.identity(),))


def test_spec_rejects_bad_word_length():
    with pytest.raises(hf.InvalidGenerator):
        hf.GroupSpec((hf.Mobius(1, 1, 0, 1),), max_word_length=0)
    with pytest.raises(hf.InvalidGenerator):
        hf.GroupSpec((hf.Mobius(1, 1, 0, 1),), max_word_length=True)


def test_elliptic_generator_is_constructible_but_flagged():
    # Construction stays permissive; the dedicated scan reports the offenders.
    spec = hf.GroupSpec((_rotation(0.4),), max_word_length=3)
    words = [e.word for e in hf.check_elliptic_free(spec)]
    assert (1,) in words
    assert hf.check_elliptic_free(hf.schottky_pair(), depth=4) == []


# ---------------------------------------------------------------------------
# ball enumeration


def test_cyclic_ball_is_powers(parabolic_spec):
    ball = hf.enumerate_ball(parabolic_spec, 3)
    assert [e.word for e in ball] == [
        (1,), (-1,), (1, 1), (-1, -1), (1, 1, 1), (-1, -1, -1),
    ]
    shifts = sorted(e.mobius.b for e in ball)
    assert shifts == [-3.0, -2.0, -1.0, 1.0, 2.0, 3.0]


def test_free_rank_two_ball_counts(schottky_spec):
    assert len(hf.enumerate_ball(schottky_spec, 1)) == 4
    assert len(hf.enumerate_ball(schottky_spec, 2)) == 16
    assert len(hf.enumerate_ball(schottky_spec, 3)) == 52


def test_ball_order_is_deterministic(schottky_spec):
    words = [e.word for e in hf.enumerate_ball(schottky_spec, 2)]
    assert words[:4] == [(1,), (-1,), (2,), (-2,)]
    assert words[4:7] == [(1, 1), (1, 2), (1, -2)]
    assert words == [e.word for e in hf.enumerate_ball(schottky_spec, 2)]


def test_identity_never_in_ball(parabolic_spec):
    assert all(not e.mobius.is_identity() for e in hf.enumerate_ball(parabolic_spec, 4))


def test_duplicate_generators_are_merged():
    g = hf.Mobius(1.0, 1.0, 0.0, 1.0)
    dup = hf.GroupSpec((g, g), max_word_length=2)
    assert [e.word for e in hf.enumerate_ball(dup)] == [(1,), (-1,), (1, 1), (-1, -1)]


def test_ball_too_large():
    spec = hf.schottky_pair(max_word_length=20)
    with pytest.raises(hf.BallTooLarge):
        hf.group._build_ball(spec, spec.max_word_length, 100)


M = hf.Mobius
GAMMA2 = hf.GroupSpec((M(1, 2, 0, 1), M(1, 0, 2, 1)))
PSL2Z = hf.GroupSpec((M(0, -1, 1, 0), M(1, 1, 0, 1)), max_word_length=20)
DUPLICATE = hf.GroupSpec((M(1, 1, 0, 1), M(1, 1, 0, 1)))


def _scalar_ball(spec, depth):
    """Reference: breadth-first over reduced words, one Mobius product each,
    deduplicated on Python-int grid cells, first witness kept."""
    letters = []
    for k, g in enumerate(spec.generators):
        letters += [(k + 1, g), (-(k + 1), g.inverse())]

    def cell(m):
        return tuple(round(x / spec.dedup_tol) for x in (m.a, m.b, m.c, m.d))

    seen = {cell(hf.Mobius.identity())}
    ball, frontier = [], [((), hf.Mobius.identity())]
    for _ in range(depth):
        level = []
        for word, m in frontier:
            for letter, g in letters:
                if word and letter == -word[-1]:
                    continue
                m2 = m @ g
                if cell(m2) not in seen:
                    seen.add(cell(m2))
                    level.append((word + (letter,), m2))
        ball += level
        frontier = level
    return ball


def _word_sort_key(word):
    # length first, then lexicographic with +1 < -1 < +2 < -2 < ...
    return (len(word), [2 * (abs(l) - 1) + (l < 0) for l in word])


@pytest.mark.parametrize("spec, depth", [
    (hf.schottky_pair(), 6), (hf.truncated_flute(), 4), (GAMMA2, 6), (PSL2Z, 12),
    (DUPLICATE, 6),
], ids=["schottky", "flute", "gamma2", "psl2z", "duplicate"])
def test_ball_matches_scalar_breadth_first(spec, depth):
    ref = _scalar_ball(spec, depth)
    ball = ball_arrays(spec, depth)
    want = np.array([(m.a, m.b, m.c, m.d) for _, m in ref]).T
    got = np.stack([ball.a, ball.b, ball.c, ball.d])
    assert np.array_equal(got.view(np.int64), want.view(np.int64))
    words = [ball.word(i) for i in range(len(ball))]
    assert words == [w for w, _ in ref]
    assert words == sorted(words, key=_word_sort_key)
    assert list(ball.word_lengths) == [len(w) for w in words]
    assert [e.word for e in hf.enumerate_ball(spec, depth)] == words
    e = ball.element(len(ball) - 1)
    assert e.word == words[-1] and e.mobius == ref[-1][1]


def test_determinant_drift_is_allowed_per_letter():
    # PSL(2,Z) in non-integer coordinates: 20 rounded products drift det by
    # 2.6e-12, past DET_TOL, on exact products of valid generators.
    h = M(math.sqrt(3.0), 0.0, 0.0, 1.0 / math.sqrt(3.0)) @ M(1.0, 0.37, 0.0, 1.0)
    spec = hf.conjugate_spec(PSL2Z, h)
    ball = ball_arrays(spec, 20)
    assert len(ball) == len(ball_arrays(PSL2Z, 20))
    drift = np.abs(ball.a * ball.d - ball.b * ball.c - 1.0)
    assert drift.max() > DET_TOL
    # the elements are the rows, bit for bit, without a second check at DET_TOL
    elements = hf.enumerate_ball(spec, 20)
    assert len(elements) == len(ball)
    for name in "abcd":
        got = np.array([getattr(e.mobius, name) for e in elements])
        assert np.array_equal(got.view(np.int64), getattr(ball, name).view(np.int64))
    worst = int(drift.argmax())
    assert ball.element(worst).mobius.inverse().inverse() == ball.element(worst).mobius


def test_ball_too_large_counts_deduped_elements():
    # PSL(2,Z) merges about half of its candidate products; the cap counts
    # the kept elements only.
    n = len(ball_arrays(PSL2Z, 12))
    assert len(hf.group._build_ball(PSL2Z, 12, n)) == n
    with pytest.raises(hf.BallTooLarge):
        hf.group._build_ball(PSL2Z, 12, n - 1)


def test_elliptic_scan_matches_scalar_classification():
    # PSL(2,Z) has the elliptic S (order 2) and ST (order 3)
    ball = hf.enumerate_ball(PSL2Z, 6)
    want = [e for e in ball if hf.classify_isometry(e) is hf.IsometryClass.ELLIPTIC]
    assert hf.check_elliptic_free(PSL2Z, 6) == want
    assert (1,) in [e.word for e in want]


def test_isometry_rows_are_memoized_and_read_only():
    ball = ball_arrays(PSL2Z, 6)
    par, ell = ball.isometry_rows
    assert par.size and ell.size
    again = ball.isometry_rows
    assert again[0] is par and again[1] is ell
    for arr in (par, ell):
        with pytest.raises(ValueError):
            arr[0] = 0
    fresh = Ball.isometry_rows.func(ball)
    assert fresh[0] is not par
    for got, want in zip((par, ell), fresh):
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)
    elements = hf.enumerate_ball(PSL2Z, 6)
    assert [elements[i] for i in par.tolist()] == [
        e for e in elements if hf.classify_isometry(e) is hf.IsometryClass.PARABOLIC]
    # 2 - tr = 2 - 2 cos(k 1e-3) lies in (1e-9, 1e-5] for k <= 3: elliptic
    # at the default tolerance
    spec = hf.GroupSpec((_rotation(1e-3),), max_word_length=3)
    assert len(hf.check_elliptic_free(spec)) == 6


def test_a_ball_dies_with_its_memo_entry():
    # the isometry rows live on the ball, so a classify keeps no ball alive
    spec = hf.conjugate_spec(hf.schottky_pair(max_word_length=4), hf.Mobius(1.0, 0.25, 0.0, 1.0))
    hf.classify_boundary_point(spec, 0.37)
    ref = weakref.ref(ball_arrays(spec))
    assert "isometry_rows" in vars(ref())
    hf.group._cached_ball.cache_clear()
    gc.collect()
    assert ref() is None


def test_overflowing_coefficients_raise_domain_error():
    # (1e30)^10 = 1e300 is finite, but its dedup cell 1e309 is not.
    with pytest.raises(hf.CoefficientOverflow):
        hf.enumerate_ball(hf.cyclic_hyperbolic(1e60), 10)
    assert issubclass(hf.CoefficientOverflow, ValueError)


def test_depth_validation(parabolic_spec):
    assert hf.enumerate_ball(parabolic_spec, 0) == ()
    with pytest.raises(ValueError):
        hf.enumerate_ball(parabolic_spec, -1)


def test_ball_arrays_cached_and_read_only(schottky_spec):
    arrs = ball_arrays(schottky_spec, 3)
    assert arrs is ball_arrays(schottky_spec, 3)
    assert arrs.a.shape == (52,)
    assert arrs.word_lengths.max() == 3
    for arr in (arrs.a, arrs.word_lengths, arrs.parent, arrs.letter):
        with pytest.raises(ValueError):
            arr[0] = 9


# ---------------------------------------------------------------------------
# trichotomy and fixed points


def test_classify_isometry_trichotomy():
    assert hf.classify_isometry(hf.Mobius(1, 1, 0, 1)) is hf.IsometryClass.PARABOLIC
    assert hf.classify_isometry(hf.Mobius(2, 0, 0, 0.5)) is hf.IsometryClass.HYPERBOLIC
    assert hf.classify_isometry(_rotation(0.4)) is hf.IsometryClass.ELLIPTIC
    assert hf.classify_isometry(hf.Mobius.identity()) is hf.IsometryClass.IDENTITY


def test_fixed_points_golden_ratio():
    p, q = hf.fixed_points(hf.Mobius(2.0, 1.0, 1.0, 1.0))
    assert p.value == pytest.approx((1.0 + math.sqrt(5.0)) / 2.0, abs=1e-12)
    assert q.value == pytest.approx((1.0 - math.sqrt(5.0)) / 2.0, abs=1e-12)


def test_fixed_points_degenerate_bottom_row():
    assert all(p.is_infinity for p in hf.fixed_points(hf.Mobius(1, 1, 0, 1)))
    p, q = hf.fixed_points(hf.Mobius(2.0, 1.0, 0.0, 0.5))
    assert p.value == pytest.approx(-2.0 / 3.0, abs=1e-15)
    assert q.is_infinity


def test_fixed_points_elliptic_raises():
    with pytest.raises(hf.EllipticElement):
        hf.fixed_points(_rotation(0.7))


def _contracting_residual(m, p):
    """|g(p) - p| evaluated for whichever of g, g^-1 contracts at p."""
    for g in (m, m.inverse()):
        q = hf.apply_boundary(g, p)
        if q.is_infinity or p.is_infinity:
            r = 0.0 if q.is_infinity and p.is_infinity else math.inf
        else:
            r = abs(q.value - p.value)
        yield r


def test_fixed_points_accepted_by_their_elements(schottky_spec):
    for e in hf.enumerate_ball(schottky_spec, 4):
        for p in hf.fixed_points(e):
            assert min(_contracting_residual(e.mobius, p)) < 1e-8


def test_fixed_points_unwraps_group_elements(hyperbolic_spec):
    e = hf.enumerate_ball(hyperbolic_spec, 1)[0]
    assert hf.fixed_points(e) == hf.fixed_points(e.mobius)


# ---------------------------------------------------------------------------
# presets


def test_cyclic_presets_reproduce_matrices():
    (g,) = hf.cyclic_parabolic().generators
    assert (g.a, g.b, g.c, g.d) == (1.0, 1.0, 0.0, 1.0)
    (g,) = hf.cyclic_hyperbolic().generators
    assert (g.a, g.b, g.c, g.d) == (2.0, 0.0, 0.0, 0.5)
    (g,) = hf.cyclic_parabolic(shift=2.5).generators
    assert g.b == 2.5


def test_hyperbolic_element_axis_and_length():
    g = hf.hyperbolic_element(-1.0, 1.0, 1.5)
    p, q = hf.fixed_points(g)
    assert sorted([p.value, q.value]) == pytest.approx([-1.0, 1.0], abs=1e-12)
    assert abs(g.trace) == pytest.approx(2.0 * math.cosh(0.75), abs=1e-12)
    z = hf.PointH(-1.0 + 2e-3, 1e-3)
    moved = hf.apply(g, z)
    assert abs(moved.re - 1.0) + moved.im < abs(z.re - 1.0) + z.im  # pulled toward +1


def test_schottky_pairing_circles(schottky_spec):
    g1, g2 = schottky_spec.generators
    c, r = hf.isometric_circle(g1)
    assert (c, r) == pytest.approx((-3.0, 0.9), abs=1e-12)
    c, r = hf.isometric_circle(g1.inverse())
    assert (c, r) == pytest.approx((-1.0, 0.9), abs=1e-12)
    c, r = hf.isometric_circle(g2)
    assert (c, r) == pytest.approx((1.0, 0.9), abs=1e-12)
    for g in (g1, g2):
        assert hf.classify_isometry(g) is hf.IsometryClass.HYPERBOLIC


def test_schottky_rejects_overlapping_circles():
    with pytest.raises(hf.InvalidGenerator):
        hf.schottky_pair(circles=((-1.0, 0.9), (0.0, 0.9), (2.0, 0.5), (4.0, 0.5)))


def test_isometric_circle_undefined_for_affine_maps():
    with pytest.raises(ValueError):
        hf.isometric_circle(hf.Mobius(1.0, 1.0, 0.0, 1.0))


def test_truncated_flute_defaults():
    spec = hf.truncated_flute()
    assert len(spec.generators) == 3
    assert spec.max_word_length == 6
    for g, length in zip(spec.generators, (2.0, 2.5, 3.0)):
        assert abs(g.trace) == pytest.approx(2.0 * math.cosh(length / 2.0), abs=1e-12)
        assert hf.classify_isometry(g) is hf.IsometryClass.HYPERBOLIC


def test_conjugate_spec_moves_the_whole_ball(schottky_spec, rng):
    h = hf.Mobius(1.0, 0.7, 0.0, 1.0) @ hf.Mobius(2.0, 0.0, 0.0, 0.5)
    conj = hf.conjugate_spec(schottky_spec, h)
    ball = hf.enumerate_ball(schottky_spec, 2)
    cball = hf.enumerate_ball(conj, 2)
    assert [e.word for e in cball] == [e.word for e in ball]
    hi = h.inverse()
    for e, ce in zip(ball, cball):
        want = h @ e.mobius @ hi
        got = ce.mobius
        assert max(abs(got.a - want.a), abs(got.b - want.b),
                   abs(got.c - want.c), abs(got.d - want.d)) < 1e-9
