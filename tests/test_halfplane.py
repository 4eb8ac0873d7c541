"""Point/matrix primitives, distance, Busemann, cross-ratio and angle identities."""

import math
from fractions import Fraction

import numpy as np
import pytest

import horoflow as hf

GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0


# ---------------------------------------------------------------------------
# points and boundary points


def test_point_requires_positive_imaginary_part():
    with pytest.raises(ValueError):
        hf.PointH(0.0, -1.0)
    with pytest.raises(ValueError):
        hf.PointH(2.0, 0.0)


@pytest.mark.parametrize("re, im, name", [("1", 2.0, "re"), (True, 2.0, "re"),
                                          (math.nan, 1.0, "re"), (-math.inf, 1.0, "re"),
                                          (0.0, "2", "im"), (0.0, math.inf, "im")])
def test_point_coordinates_are_finite_real_numbers(re, im, name):
    with pytest.raises(ValueError, match=f"^{name} must be (a real number|finite), got "):
        hf.PointH(re, im)


def test_point_stores_floats():
    p = hf.PointH(np.float64(0.5), 2)
    assert type(p.re) is float and type(p.im) is float
    assert p == hf.PointH(0.5, 2.0)


def test_boundary_point_coercion():
    assert hf.bp(1.5).value == 1.5
    assert hf.bp(hf.INFINITY) is hf.INFINITY or hf.bp(hf.INFINITY).is_infinity
    assert hf.bp(math.inf).is_infinity
    assert hf.bp(-0.0) == hf.bp(0.0)
    assert not hf.bp(2.0).is_infinity
    assert hf.bp("inf") is hf.INFINITY and hf.bp(np.float64(0.5)).value == 0.5


@pytest.mark.parametrize("x", [True, False, "1", "0.5", float("nan")])
def test_boundary_point_refuses_bools_strings_and_nan(x):
    with pytest.raises(hf.InvalidPoint, match="real number or inf"):
        hf.bp(x)


def test_an_infinite_value_is_the_point_at_infinity():
    for x in (math.inf, -math.inf, np.float64(-np.inf)):
        p = hf.BoundaryPoint(x)
        assert p.is_infinity and p == hf.INFINITY and hash(p) == hash(hf.INFINITY)
    with pytest.raises(hf.InvalidPoint, match="real number or inf"):
        hf.BoundaryPoint(math.nan)
    # each map's float value overflows to inf
    assert hf.UnitTangent(hf.Mobius(1e10, 0.0, 1e-300, 1e-10)).forward_endpoint() == hf.INFINITY
    assert hf.apply_boundary(hf.Mobius(1e200, 0, 0, 1e-200), 1e200) == hf.INFINITY
    assert hf.harmonic_conjugate(1e300, -1e300, 0.0) == hf.INFINITY


def test_mobius_refuses_bools_and_strings():
    with pytest.raises(ValueError, match="real number"):
        hf.Mobius("2", False, 0, "0.5")
    for bad in (True, "1"):
        with pytest.raises(ValueError, match="real number"):
            hf.Mobius(1.0, bad, 0.0, 1.0)
        with pytest.raises(ValueError, match="real number"):
            hf.Mobius.normalized(1.0, bad, 0.0, 2.0)
    assert hf.Mobius(2, 0, 0, np.float64(0.5)) == hf.Mobius(2.0, 0.0, 0.0, 0.5)


# ---------------------------------------------------------------------------
# Mobius arithmetic


def test_mobius_rejects_non_unit_determinant():
    with pytest.raises(ValueError):
        hf.Mobius(1.0, 2.0, 3.0, 4.0)
    with pytest.raises(ValueError):
        hf.Mobius(2.0, 0.0, 0.0, 1.0)


def test_mobius_sign_is_canonical():
    # M and -M act identically; construction picks one representative.
    m = hf.Mobius(-2.0, 0.0, 0.0, -0.5)
    assert (m.a, m.d) == (2.0, 0.5)
    assert hf.Mobius(-1.0, 0.0, 0.0, -1.0).is_identity()


def test_mobius_product_inverse_closure(rng, mobius_sampler):
    for _ in range(200):
        g = mobius_sampler(rng)
        h = mobius_sampler(rng)
        gh = g @ h
        z = hf.PointH(0.3, 0.8)
        w1 = hf.apply(g, hf.apply(h, z))
        w2 = hf.apply(gh, z)
        assert abs(complex(w1.re, w1.im) - complex(w2.re, w2.im)) < 1e-9
        assert (g @ g.inverse()).is_identity()


def test_mobius_normalized_rescales():
    m = hf.Mobius.normalized(2.0, 0.0, 0.0, 2.0)
    assert m.is_identity()
    with pytest.raises(ValueError):
        hf.Mobius.normalized(1.0, 0.0, 0.0, -1.0)  # negative determinant


def test_apply_boundary_exact_infinity_handling():
    m = hf.Mobius(3.0, 1.0, 2.0, 1.0)
    assert hf.apply_boundary(m, hf.INFINITY).value == 1.5
    # -0.5 is the pole: 2*(-0.5) + 1 cancels exactly in floats
    assert hf.apply_boundary(m, hf.bp(-0.5)).is_infinity
    shift = hf.Mobius(1.0, 7.0, 0.0, 1.0)
    assert hf.apply_boundary(shift, hf.INFINITY).is_infinity
    assert hf.apply_boundary(m.inverse(), hf.INFINITY).value == -0.5


def test_apply_boundary_fixes_inf_only_where_c_is_zero():
    # a map with c = 0 fixes inf, and so does its inverse
    m = hf.Mobius(2.0, 1.0, 0.0, 0.5)
    assert hf.apply_boundary(m, hf.INFINITY).is_infinity
    assert hf.apply_boundary(m.inverse(), hf.INFINITY).is_infinity
    # one with a tiny c sends inf to a/c, and its inverse sends it to -d/c
    m = hf.Mobius.normalized(1.0, 0.0, 1e-9, 1.0)
    assert hf.apply_boundary(m, hf.INFINITY).value == m.a / m.c
    assert hf.apply_boundary(m.inverse(), hf.INFINITY).value == -m.d / m.c


# ---------------------------------------------------------------------------
# hyperbolic distance


def test_dist_vertical_segment_exact():
    assert hf.dist(hf.POINT_I, hf.PointH(0.0, 4.0)) == pytest.approx(
        math.log(4.0), abs=1e-12
    )


@pytest.mark.parametrize("z, w, want", [
    # Im z * Im w overflows to inf, and underflows to 0
    ((0.0, 1e200), (1e300, 1e200), 2.0 * math.asinh(0.5e100)),
    ((0.0, 1e-200), (1e-200, 1e-200), 2.0 * math.asinh(0.5)),
    ((0.0, 1e-300), (0.0, 1e300), 2.0 * math.log(1e300)),
])
def test_dist_at_extreme_heights(z, w, want):
    d = hf.dist(hf.PointH(*z), hf.PointH(*w))
    assert d == pytest.approx(want, rel=1e-14)


def test_dist_properties(rng, mobius_sampler, point_sampler):
    for _ in range(300):
        z = point_sampler(rng)
        w = point_sampler(rng)
        g = mobius_sampler(rng)
        d = hf.dist(z, w)
        assert d >= 0.0
        assert hf.dist(w, z) == pytest.approx(d, abs=1e-12)
        gz, gw = hf.apply(g, z), hf.apply(g, w)
        assert hf.dist(gz, gw) == pytest.approx(d, rel=1e-9, abs=1e-9)
    assert hf.dist(hf.POINT_I, hf.POINT_I) == 0.0


def test_dist_triangle_inequality(rng, point_sampler):
    for _ in range(200):
        z, w, v = (point_sampler(rng) for _ in range(3))
        assert hf.dist(z, v) <= hf.dist(z, w) + hf.dist(w, v) + 1e-12


# ---------------------------------------------------------------------------
# heights and the Busemann cocycle


def test_height_known_values():
    assert hf.height(hf.INFINITY, hf.PointH(3.0, 2.0)) == 2.0
    assert hf.height(hf.bp(1.0), hf.PointH(1.0, 2.0)) == 0.5
    assert hf.height(hf.bp(0.0), hf.POINT_I) == 1.0


def test_busemann_vertical_oracle():
    got = hf.busemann(hf.INFINITY, hf.POINT_I, hf.PointH(0.0, 2.0))
    assert got == pytest.approx(math.log(2.0), abs=1e-15)


@pytest.mark.parametrize("xi, z, w, want", [
    # (x - xi)^2 + y^2 overflows to inf, and underflows to 0
    (0.0, (1e200, 1.0), (1e200, 2.0), math.log(2.0)),
    (0.0, (0.0, 1e-200), (0.0, 2e-200), -math.log(2.0)),
    (1e-200, (0.0, 1e-200), (2e-200, 1e-200), 0.0),
])
def test_busemann_at_extreme_heights(xi, z, w, want):
    # the logs of the two heights, near +-460 or 920, cancel to a few of their ulps
    got = hf.busemann(xi, hf.PointH(*z), hf.PointH(*w))
    assert got == pytest.approx(want, abs=1e-12)


def test_height_at_extreme_heights():
    # e^x carries the log's rounding, a few ulps of 460, into its last digits
    assert hf.height(0.0, hf.PointH(0.0, 1e-200)) == pytest.approx(1e200, rel=1e-12)
    assert hf.height(0.0, hf.PointH(1e200, 1e200)) == pytest.approx(0.5e-200, rel=1e-12)


def test_differences_past_the_float_range():
    # the real parts' difference, or the modulus of z - w, overflows: the
    # distance is 2 asinh(|z - w| / (2 sqrt(Im z Im w))), here from its
    # quarters, and ln(2x) for asinh(x) where x itself overflows
    assert hf.dist(hf.PointH(-1e308, 1.0), hf.PointH(1e308, 1.0)) == 2.0 * math.asinh(1e308)
    assert hf.dist(hf.PointH(-1e308, 1.0), hf.PointH(1e308, 1.0)) == pytest.approx(
        1419.7787116454, rel=1e-13)
    assert hf.dist(hf.PointH(-1e308, 1e308), hf.PointH(1e308, 1e308)) == 2.0 * math.asinh(1.0)
    # against mpmath at 40 digits
    for z, w, want in [((0.0, 1e308), (1.5e308, 1.0), 710.37486363850771679),
                       ((-1.7e308, 1.7e308), (1.7e308, 1.0), 711.33627480566234145),
                       ((-1e308, 0.5), (1e308, 0.5), 1421.1650060065719226),
                       ((0.0, 1e-300), (1e300, 1e-300), 2763.1021115928548208)]:
        assert hf.dist(hf.PointH(*z), hf.PointH(*w)) == pytest.approx(want, rel=1e-15)
    got = hf.busemann(-1e308, hf.PointH(1e308, 1.0), hf.PointH(1e308, 2.0))
    assert got == pytest.approx(math.log(2.0), abs=1e-12)  # two logs near -1418 cancel
    level = hf.Horocycle.through(-1e308, hf.PointH(1e308, 1.0)).level
    assert level == pytest.approx(-math.log(4.0), abs=1e-12)
    # |p - xi| past the float range at both points: ln(h(w) / h(z)) with
    # h = Im / |p - xi|^2, in units of 1e308
    got = hf.busemann(-1.7e308, hf.PointH(1.7e308, 1.7e308), hf.PointH(1.7e308, 0.85e308))
    assert got == pytest.approx(math.log(0.5 * (3.4 ** 2 + 1.7 ** 2) / (3.4 ** 2 + 0.85 ** 2)),
                                abs=1e-12)


def _dist_in_the_normal_range(z, w):
    # dist and the log of height before the overflow fallbacks
    h = z.im * w.im
    root = math.sqrt(h) if 2.0 ** -1022 <= h < math.inf else math.sqrt(z.im) * math.sqrt(w.im)
    return 2.0 * math.asinh(abs(z.z - w.z) / (2.0 * root))


def _log_height_in_the_normal_range(x, p):
    dx = p.re - x
    sq = dx * dx + p.im * p.im
    log_sq = math.log(sq) if 2.0 ** -1022 <= sq < math.inf else 2.0 * math.log(
        math.hypot(dx, p.im))
    return math.log(p.im) - log_sq


def test_the_overflow_fallbacks_leave_the_normal_range_bits(rng):
    # where no difference overflows, dist, height and busemann are the
    # formulas they were, bit for bit, at scales from 1e-300 to 1e300
    for _ in range(2000):
        scale = 10.0 ** rng.uniform(-300.0, 300.0)
        z, w = (hf.PointH(scale * rng.normal(), scale * rng.exponential()) for _ in range(2))
        x = scale * rng.normal()
        assert hf.dist(z, w) == _dist_in_the_normal_range(z, w)
        log_z, log_w = (_log_height_in_the_normal_range(x, p) for p in (z, w))
        assert hf.height(x, z) == math.exp(log_z)
        assert hf.busemann(x, z, w) == log_w - log_z


def test_busemann_matrix_entry_oracle(rng, mobius_sampler):
    # B_inf(g(i), i) equals the log squared norm of the bottom matrix row.
    for _ in range(300):
        g = mobius_sampler(rng)
        got = hf.busemann(hf.INFINITY, hf.apply(g, hf.POINT_I), hf.POINT_I)
        assert got == pytest.approx(math.log(g.c**2 + g.d**2), abs=1e-9)


def test_busemann_additivity(rng, point_sampler):
    for _ in range(300):
        xi = hf.INFINITY if rng.random() < 0.3 else hf.bp(rng.uniform(-5, 5))
        z, w, v = (point_sampler(rng) for _ in range(3))
        lhs = hf.busemann(xi, z, w) + hf.busemann(xi, w, v)
        assert lhs == pytest.approx(hf.busemann(xi, z, v), abs=1e-9)


def test_busemann_equivariance(rng, mobius_sampler, point_sampler):
    for _ in range(300):
        g = mobius_sampler(rng)
        xi = hf.INFINITY if rng.random() < 0.3 else hf.bp(rng.uniform(-5, 5))
        z, w = point_sampler(rng), point_sampler(rng)
        lhs = hf.busemann(hf.apply_boundary(g, xi), hf.apply(g, z), hf.apply(g, w))
        assert lhs == pytest.approx(hf.busemann(xi, z, w), abs=1e-9)


def test_parabolic_preserves_its_horocycles(rng, point_sampler):
    # A parabolic fixing 0 slides points along horocycles based there.
    for _ in range(50):
        s = rng.uniform(-4.0, 4.0)
        g = hf.Mobius(1.0, 0.0, s, 1.0)
        z = point_sampler(rng)
        assert hf.busemann(hf.bp(0.0), z, hf.apply(g, z)) == pytest.approx(
            0.0, abs=1e-9
        )


def test_horocycle_level_and_contains():
    h = hf.Horocycle.through(hf.INFINITY, hf.PointH(5.0, 2.0))
    assert h.level == pytest.approx(math.log(2.0), abs=1e-15)
    assert h.contains(hf.PointH(-3.0, 2.0))
    assert not h.contains(hf.PointH(0.0, 2.1))
    h0 = hf.Horocycle.through(hf.bp(0.0), hf.POINT_I)
    assert h0.level == 0.0
    assert h0.contains(hf.apply(hf.Mobius(1.0, 0.0, 2.0, 1.0), hf.POINT_I))


def test_horocycle_coerces_its_base_and_checks_its_level():
    h = hf.Horocycle(0.0, 1)
    assert h == hf.Horocycle(hf.bp(0.0), 1.0) and len({h, hf.Horocycle(hf.bp(0.0), 1.0)}) == 1
    assert hf.Horocycle("inf", 0.0).base is hf.INFINITY
    for level in ("x", True, math.nan, math.inf):
        with pytest.raises(ValueError, match="^level must be"):
            hf.Horocycle(hf.bp(0.0), level)
    with pytest.raises(hf.InvalidPoint):
        hf.Horocycle("0", 1.0)


# ---------------------------------------------------------------------------
# cross-ratio


def test_cross_ratio_worked_values():
    assert hf.cross_ratio(hf.bp(0), hf.bp(1), hf.bp(2), hf.INFINITY) == pytest.approx(
        2.0, abs=1e-15
    )
    assert hf.cross_ratio(hf.bp(-1), hf.bp(0), hf.INFINITY, hf.bp(1)) == pytest.approx(
        0.5, abs=1e-15
    )


def test_cross_ratio_needs_distinct_points():
    with pytest.raises(hf.DegeneratePoints):
        hf.cross_ratio(hf.bp(0), hf.bp(0), hf.bp(1), hf.bp(2))


def test_cross_ratio_mobius_invariance(rng, mobius_sampler):
    for _ in range(400):
        g = mobius_sampler(rng)
        vals = rng.uniform(-6.0, 6.0, 4)
        if len(set(vals.round(6))) < 4:
            continue
        pts = [hf.bp(v) for v in vals]
        if rng.random() < 0.25:
            pts[int(rng.integers(4))] = hf.INFINITY
        r0 = hf.cross_ratio(*pts)
        r1 = hf.cross_ratio(*(hf.apply_boundary(g, p) for p in pts))
        assert r1 == pytest.approx(r0, rel=1e-9, abs=1e-9)


def test_cross_ratio_invariance_with_exact_infinite_image():
    # dyadic entries: the image of -0.5 lands exactly on the point at infinity
    g = hf.Mobius(3.0, 1.0, 2.0, 1.0)
    pts = [hf.bp(-0.5), hf.bp(0.0), hf.bp(1.0), hf.bp(3.0)]
    images = [hf.apply_boundary(g, p) for p in pts]
    assert images[0].is_infinity
    assert hf.cross_ratio(*images) == pytest.approx(hf.cross_ratio(*pts), rel=1e-12)


# ---------------------------------------------------------------------------
# harmonic conjugate


def test_harmonic_conjugate_worked_values():
    assert hf.harmonic_conjugate(hf.bp(-1), hf.bp(1), hf.bp(0)).is_infinity
    got = hf.harmonic_conjugate(hf.bp(0), hf.bp(4), hf.bp(1))
    assert got.value == pytest.approx(-2.0, abs=1e-12)


def test_harmonic_conjugate_cross_ratio_is_minus_one(rng):
    for _ in range(200):
        y, x, z = rng.uniform(-5.0, 5.0, 3)
        if min(abs(y - x), abs(y - z), abs(x - z)) < 1e-3:
            continue
        w = hf.harmonic_conjugate(hf.bp(y), hf.bp(x), hf.bp(z))
        if w.is_infinity:
            continue
        assert hf.cross_ratio(hf.bp(y), hf.bp(x), hf.bp(z), w) == pytest.approx(
            -1.0, abs=1e-9
        )


def test_harmonic_conjugate_is_an_involution(rng):
    for _ in range(200):
        y, x, z = rng.uniform(-5.0, 5.0, 3)
        if min(abs(y - x), abs(y - z), abs(x - z)) < 1e-3:
            continue
        w = hf.harmonic_conjugate(hf.bp(y), hf.bp(x), hf.bp(z))
        back = hf.harmonic_conjugate(hf.bp(y), hf.bp(x), w)
        assert back.value == pytest.approx(z, rel=1e-8, abs=1e-8)


def test_harmonic_conjugate_needs_distinct_points():
    with pytest.raises(hf.DegeneratePoints):
        hf.harmonic_conjugate(hf.bp(0), hf.bp(0), hf.bp(1))


# ---------------------------------------------------------------------------
# geodesics and crossing angles


def test_geodesic_endpoints_must_differ():
    with pytest.raises(hf.DegeneratePoints):
        hf.Geodesic(hf.bp(2), hf.bp(2))


def test_right_angle_cases():
    a = hf.angle_between(hf.Geodesic(hf.bp(-1), hf.bp(1)), hf.Geodesic(hf.bp(0), hf.INFINITY))
    assert a == pytest.approx(math.pi / 2, abs=1e-9)
    b = hf.angle_between(hf.Geodesic(hf.bp(0), hf.bp(4)), hf.Geodesic(hf.bp(-2), hf.bp(1)))
    assert b == pytest.approx(math.pi / 2, abs=1e-9)


def test_angle_at_an_endpoint_past_2_53():
    # the vertical x = 4 meets the circle over (-3, R) near its foot at -3,
    # at an angle tending to pi as R grows; R + 1 == R changes nothing
    def angle(r):
        return hf.angle_between(hf.Geodesic(hf.INFINITY, hf.bp(4)), hf.Geodesic(hf.bp(-3), hf.bp(r)))
    assert angle(1e6) > 3.13
    assert angle(2.0 ** 60) == pytest.approx(math.pi)
    assert angle(3.865095818362521e171) == pytest.approx(math.pi)


def test_angle_error_cases():
    with pytest.raises(hf.NoIntersection):
        hf.angle_between(hf.Geodesic(hf.bp(0), hf.bp(1)), hf.Geodesic(hf.bp(2), hf.bp(3)))
    with pytest.raises(hf.NoIntersection):
        # nested half-disks never meet
        hf.angle_between(hf.Geodesic(hf.bp(0), hf.bp(10)), hf.Geodesic(hf.bp(1), hf.bp(2)))
    with pytest.raises(hf.DegeneratePoints):
        hf.angle_between(hf.Geodesic(hf.bp(0), hf.bp(1)), hf.Geodesic(hf.bp(1), hf.bp(3)))
    with pytest.raises(hf.NoIntersection):
        hf.angle_between(hf.Geodesic(hf.bp(0), hf.bp(1)), hf.Geodesic(hf.bp(1), hf.bp(0)))


def test_geodesics_past_the_float_range_do_not_cross():
    # (a - c)(b - d) and (a - d)(b - c) both overflow to inf here, yet the
    # intervals [-1.4e-200, 0.0024] and [1.8e120, 8.4e205] are disjoint
    with pytest.raises(hf.NoIntersection):
        hf.angle_between(hf.Geodesic(hf.bp(0.0024), hf.bp(-1.4e-200)),
                         hf.Geodesic(hf.bp(8.4e205), hf.bp(1.8e120)))


def test_cross_ratio_past_the_float_range_saturates():
    big = math.nextafter(1e300, math.inf)
    assert hf.cross_ratio(1e300, 1e-300, 2e-300, big) == -math.inf
    assert hf.cross_ratio(1e-300, 1e300, 2e-300, big) == 0.0
    assert hf.cross_ratio(0.0024, -1.4e-200, 8.4e205, 1.8e120) == pytest.approx(1.0)


def _exact_angle(a, b, c, d):
    # None when (a, b) and (c, d) do not separate each other, else the angle
    # from the exact cross-ratio of the endpoints in cyclic order (a; c; b; d)
    def diff(p, q):
        (p1, p2), (q1, q2) = p.proj, q.proj
        return Fraction(p1) * Fraction(q2) - Fraction(q1) * Fraction(p2)
    if diff(a, c) * diff(b, d) / (diff(a, d) * diff(b, c)) > 0:
        return None
    if sum(diff(p, q) < 0 for p, q in ((a, c), (c, b), (b, a))) % 2:
        c, d = d, c
    x = diff(a, d) * diff(c, b) / (diff(a, b) * diff(c, d))
    return math.acos(min(1.0, max(-1.0, float(2 * x - 1))))


def test_angles_of_extreme_geodesics_match_exact_arithmetic():
    rng = np.random.default_rng(11)

    def endpoint():
        kind = rng.integers(5)
        if kind == 0:
            return hf.INFINITY
        if kind == 1:
            return hf.bp(int(rng.integers(-3, 4)))
        if kind == 2:
            return hf.bp(float(rng.choice([1e-200, -1e-200])))
        if kind == 3:
            return hf.bp(float(rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-300, 300)))
        return hf.bp(float(rng.normal()))

    crossed = 0
    for _ in range(3000):
        a, b, c, d = (endpoint() for _ in range(4))
        if len({a, b, c, d}) < 4:
            continue
        want = _exact_angle(a, b, c, d)
        if want is None:
            with pytest.raises(hf.NoIntersection):
                hf.angle_between(hf.Geodesic(a, b), hf.Geodesic(c, d))
        else:
            crossed += 1
            got = hf.angle_between(hf.Geodesic(a, b), hf.Geodesic(c, d))
            assert got == pytest.approx(want, abs=1e-7)
    assert crossed > 300


def test_angle_mobius_invariance(rng, mobius_sampler):
    for _ in range(200):
        vals = np.sort(rng.uniform(-5.0, 5.0, 4))
        if np.min(np.diff(vals)) < 1e-2:
            continue
        w, x, y, z = vals
        g1 = hf.Geodesic(hf.bp(w), hf.bp(y))
        g2 = hf.Geodesic(hf.bp(x), hf.bp(z))
        beta = hf.angle_between(g1, g2)
        m = mobius_sampler(rng)
        m1 = hf.Geodesic(hf.apply_boundary(m, g1.neg), hf.apply_boundary(m, g1.pos))
        m2 = hf.Geodesic(hf.apply_boundary(m, g2.neg), hf.apply_boundary(m, g2.pos))
        assert hf.angle_between(m1, m2) == pytest.approx(beta, abs=1e-9)


def _euclidean_model(g):
    if g.neg.is_infinity:
        return ("line", g.pos.value, None)
    if g.pos.is_infinity:
        return ("line", g.neg.value, None)
    p, q = g.neg.value, g.pos.value
    return ("circle", (p + q) / 2.0, abs(q - p) / 2.0)


def _abs_cos_at_crossing(g1, g2):
    """Unsigned cosine of the Euclidean tangent angle where the arcs meet."""
    k1, k2 = _euclidean_model(g1), _euclidean_model(g2)
    if k1[0] == "line" and k2[0] == "circle":
        k1, k2 = k2, k1
    if k1[0] == "circle" and k2[0] == "circle":
        _, c1, r1 = k1
        _, c2, r2 = k2
        x = (r1 * r1 - r2 * r2 - c1 * c1 + c2 * c2) / (2.0 * (c2 - c1))
        y2 = r1 * r1 - (x - c1) ** 2
        assert y2 > 0.0
        y = math.sqrt(y2)
        t1 = np.array([-y, x - c1])
        t2 = np.array([-y, x - c2])
        return abs(float(t1 @ t2)) / (r1 * r2)
    if k1[0] == "circle" and k2[0] == "line":
        _, c, r = k1
        x0 = k2[1]
        assert r * r - (x0 - c) ** 2 > 0.0
        return abs(x0 - c) / r
    raise AssertionError("parallel vertical lines do not cross")


def test_angle_against_euclidean_tangents(rng):
    # Interleaved endpoints force a crossing; compare |cos| of both notions.
    count = 0
    while count < 200:
        vals = np.sort(rng.uniform(-5.0, 5.0, 4))
        if np.min(np.diff(vals)) < 5e-2:
            continue
        w, x, y, z = vals
        if rng.random() < 0.2:
            g1 = hf.Geodesic(hf.bp(x), hf.INFINITY)
            g2 = hf.Geodesic(hf.bp(w), hf.bp(y))
        else:
            g1 = hf.Geodesic(hf.bp(w), hf.bp(y))
            g2 = hf.Geodesic(hf.bp(x), hf.bp(z))
        beta = hf.angle_between(g1, g2)
        assert 0.0 < beta < math.pi
        assert abs(math.cos(beta)) == pytest.approx(
            _abs_cos_at_crossing(g1, g2), abs=1e-9
        )
        count += 1


def test_conjugate_construction_gives_right_angles(rng):
    # The geodesic through z and its harmonic conjugate crosses (y, x) at pi/2.
    count = 0
    while count < 200:
        vals = np.sort(rng.uniform(-5.0, 5.0, 3))
        if np.min(np.diff(vals)) < 1e-2:
            continue
        y, z, x = vals
        w = hf.harmonic_conjugate(hf.bp(y), hf.bp(x), hf.bp(z))
        beta = hf.angle_between(hf.Geodesic(hf.bp(y), hf.bp(x)), hf.Geodesic(w, hf.bp(z)))
        assert beta == pytest.approx(math.pi / 2, abs=1e-8)
        count += 1
