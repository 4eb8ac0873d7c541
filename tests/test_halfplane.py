"""Point/matrix primitives, distance, Busemann, cross-ratio and angle identities."""

import math

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


def test_boundary_point_coercion():
    assert hf.bp(1.5).value == 1.5
    assert hf.bp(hf.INFINITY) is hf.INFINITY or hf.bp(hf.INFINITY).is_infinity
    assert hf.bp(math.inf).is_infinity
    assert hf.bp(-0.0) == hf.bp(0.0)
    assert not hf.bp(2.0).is_infinity


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


# ---------------------------------------------------------------------------
# hyperbolic distance


def test_dist_vertical_segment_exact():
    assert hf.dist(hf.POINT_I, hf.PointH(0.0, 4.0)) == pytest.approx(
        math.log(4.0), abs=1e-12
    )


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
