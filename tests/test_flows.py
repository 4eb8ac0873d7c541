"""Geodesic/horocycle flows on frames and the injectivity-radius profile."""

import math
import subprocess
import sys

import numpy as np
import pytest

import horoflow as hf
from horoflow.group import _cached_ball

from conftest import CONJUGATORS, conjugate_spec


def _frame_gap(u, v):
    a = u.frame
    b = v.frame
    return max(abs(a.a - b.a), abs(a.b - b.b), abs(a.c - b.c), abs(a.d - b.d))


def test_flow_group_laws(rng, mobius_sampler):
    for _ in range(200):
        u = hf.UnitTangent(mobius_sampler(rng))
        t, s = rng.uniform(-3.0, 3.0, 2)
        geo = hf.geodesic_flow(hf.geodesic_flow(u, t), s)
        assert _frame_gap(geo, hf.geodesic_flow(u, t + s)) < 1e-12
        hor = hf.horocycle_flow(hf.horocycle_flow(u, t), s)
        assert _frame_gap(hor, hf.horocycle_flow(u, t + s)) < 1e-12


def test_flow_renormalization(rng, mobius_sampler):
    # Flowing forward scales the horocycle parameter by e^{-t}.
    for _ in range(200):
        u = hf.UnitTangent(mobius_sampler(rng))
        t = rng.uniform(-3.0, 3.0)
        s = rng.uniform(-5.0, 5.0)
        lhs = hf.geodesic_flow(hf.horocycle_flow(hf.geodesic_flow(u, -t), s), t)
        rhs = hf.horocycle_flow(u, s * math.exp(-t))
        assert _frame_gap(lhs, rhs) < 1e-12


def test_flows_preserve_forward_endpoint(rng, mobius_sampler):
    for _ in range(100):
        u = hf.UnitTangent(mobius_sampler(rng))
        e0 = u.forward_endpoint()
        for v in (hf.geodesic_flow(u, 1.7), hf.horocycle_flow(u, -2.3)):
            e1 = v.forward_endpoint()
            if e0.is_infinity:
                assert e1.is_infinity
            else:
                assert e1.value == pytest.approx(e0.value, rel=1e-12, abs=1e-12)


def test_base_point_formulas():
    u = hf.BASE_TANGENT
    p = hf.geodesic_flow(u, 0.7).base_point()
    assert (p.re, p.im) == pytest.approx((0.0, math.exp(0.7)), abs=1e-12)
    q = hf.horocycle_flow(u, 0.3).base_point()
    assert (q.re, q.im) == pytest.approx((0.3, 1.0), abs=1e-15)


def test_a_frame_must_be_a_mobius_value():
    with pytest.raises(ValueError, match="a frame must be a Mobius value, got 'x'"):
        hf.UnitTangent("x")


def test_ray_point():
    p = hf.ray_point(hf.BASE_TANGENT, 1.0)
    assert (p.re, p.im) == pytest.approx((0.0, math.e), abs=1e-12)
    with pytest.raises(hf.NegativeTime):
        hf.ray_point(hf.BASE_TANGENT, -0.1)


def test_orbit_points_values():
    ts = np.array([0.0, 0.5, 1.0])
    geo = hf.orbit_points(hf.BASE_TANGENT, "geodesic", ts)
    assert np.allclose(geo, 1j * np.exp(ts), atol=1e-12)
    hor = hf.orbit_points(hf.BASE_TANGENT, "horocycle", ts)
    assert np.allclose(hor, ts + 1j, atol=1e-15)
    with pytest.raises(ValueError):
        hf.orbit_points(hf.BASE_TANGENT, "spiral", ts)


# ---------------------------------------------------------------------------
# injectivity profile


def test_profile_shape_and_grid(parabolic_spec):
    prof = hf.injectivity_profile(parabolic_spec)
    assert len(prof.times) == 101
    assert prof.times[0] == 0.0
    assert prof.times[-1] == pytest.approx(10.0, abs=1e-12)
    assert len(prof.inj_estimates) == 101


def test_profile_matches_cusp_closed_form(parabolic_spec):
    # Ray into the cusp: half the translation gap asinh(e^{-t}/2).
    prof = hf.injectivity_profile(parabolic_spec)
    expected = np.arcsinh(np.exp(-prof.times) / 2.0)
    assert np.max(np.abs(prof.inj_estimates - expected)) < 1e-12
    assert prof.liminf_estimate == pytest.approx(math.asinh(math.exp(-10.0) / 2.0))


def test_profile_constant_along_closed_geodesic(hyperbolic_spec):
    prof = hf.injectivity_profile(hyperbolic_spec)
    half_length = 0.5 * math.log(4.0)
    assert np.max(np.abs(prof.inj_estimates - half_length)) < 1e-12
    assert prof.liminf_estimate == pytest.approx(half_length, abs=1e-12)


def test_profile_input_validation(hyperbolic_spec):
    with pytest.raises(hf.EmptyBall):
        hf.injectivity_profile(hyperbolic_spec, depth=0)
    with pytest.raises(ValueError):
        hf.injectivity_profile(hyperbolic_spec, step=0.0)
    with pytest.raises(ValueError):
        hf.injectivity_profile(hyperbolic_spec, t_max=-1.0)
    # sample grids past MAX_SAMPLES are refused before anything is allocated
    with pytest.raises(ValueError):
        hf.injectivity_profile(hyperbolic_spec, t_max=math.inf)
    with pytest.raises(ValueError):
        hf.injectivity_profile(hyperbolic_spec, t_max=1.0, step=1e-300)


@pytest.mark.parametrize("kwargs", [{"step": math.inf}, {"step": math.nan}, {"step": True},
                                    {"t_max": math.nan}, {"t_max": "1"}],
                         ids=["step-inf", "step-nan", "step-True", "t_max-nan", "t_max-str"])
def test_a_bad_grid_is_refused_before_any_ball_is_built(schottky_spec, kwargs):
    _cached_ball.cache_clear()
    with pytest.raises(ValueError, match="step" if "step" in kwargs else "span"):
        hf.injectivity_profile(schottky_spec, **kwargs)
    assert _cached_ball.cache_info().currsize == 0


@pytest.mark.parametrize("frame", [hf.Mobius(0.0, -1e-200, 1e200, 0.0),
                                   hf.Mobius(1e200, 0.0, 0.0, 1e-200)],
                         ids=["c-1e200", "a-1e200"])
def test_a_frame_past_the_float_range_is_refused_before_any_ball_is_built(frame):
    # the ray terms square every frame entry: past about 1.34e154 no
    # profile is meaningful, where one read inf and the other overflowed
    # in _c_bound
    spec = hf.schottky_pair(max_word_length=4)
    _cached_ball.cache_clear()
    with pytest.raises(ValueError, match=r"frame Mobius\(.*past the float range"):
        hf.injectivity_profile(spec, hf.UnitTangent(frame), t_max=1, step=0.5)
    assert _cached_ball.cache_info().currsize == 0


def test_profile_matches_scalar_distances(schottky_spec):
    # several kernel slices
    u = hf.UnitTangent(hf.Mobius(1.0, 0.3, 0.0, 1.0))
    p = hf.injectivity_profile(schottky_spec, u, t_max=4.0, step=1.0, depth=7)
    ball = hf.enumerate_ball(schottky_spec, 7)
    for t, v in zip(p.times, p.inj_estimates):
        z = hf.ray_point(u, t)
        want = 0.5 * min(hf.dist(z, hf.apply(e.mobius, z)) for e in ball)
        assert v == pytest.approx(want, rel=1e-12)


def test_profile_survives_squares_past_the_float_range(schottky_spec):
    # At t = 700 the kernel's squared sinh overflows and its hypot fallback
    # takes over; the displacement of a ray escaping to infinity grows like 2t.
    p = hf.injectivity_profile(schottky_spec, t_max=700.0, step=350.0, depth=6)
    assert np.all(np.isfinite(p.inj_estimates))
    assert p.inj_estimates[2] - p.inj_estimates[1] == pytest.approx(350.0, abs=1e-6)


def test_profile_survives_squares_below_the_normal_range(parabolic_spec):
    # Into the cusp the least squared sinh, e^-2t, leaves the normal range
    # past t ~ 354; the hypot fallback keeps every digit down to t = 700.
    p = hf.injectivity_profile(parabolic_spec, t_max=700.0, step=10.0)
    for t, v in zip(p.times.tolist(), p.inj_estimates.tolist()):
        want = math.asinh(math.exp(-t) / 2.0)
        assert abs(v - want) <= 1e-14 * want, (t, v, want)


@pytest.mark.parametrize("flow, t", [(hf.ray_point, 1e4), (hf.geodesic_flow, 1e4),
                                     (hf.geodesic_flow, -1e4)])
def test_flow_times_past_the_float_range_are_refused(flow, t):
    with pytest.raises(ValueError, match="float range"):
        flow(hf.BASE_TANGENT, t)


@pytest.mark.parametrize("flow, t", [(hf.horocycle_flow, "1"), (hf.horocycle_flow, True),
                                     (hf.horocycle_flow, math.inf), (hf.geodesic_flow, "1"),
                                     (hf.geodesic_flow, True), (hf.geodesic_flow, math.nan),
                                     (hf.ray_point, "1"), (hf.ray_point, True),
                                     (hf.ray_point, math.nan)])
def test_flow_times_must_be_finite_real_numbers(flow, t):
    # the error names the argument
    name = "s" if flow is hf.horocycle_flow else "t"
    with pytest.raises(ValueError, match=f"^{name} must be (a real number|finite), got "):
        flow(hf.BASE_TANGENT, t)


@pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
def test_horocycle_orbits_refuse_non_finite_times(t):
    with pytest.raises(ValueError, match=f"horocycle time {t:g} is not finite"):
        hf.orbit_points(hf.BASE_TANGENT, "horocycle", np.array([0.0, t, 1.0, math.nan]))


@pytest.mark.parametrize("start, end", [(700.0, 720.0), (-760.0, -750.0)])
def test_geodesic_orbits_past_the_float_range_are_refused(start, end):
    # e^t overflows to inf past t ~ 709.8 and underflows to 0 (a point off H)
    # before t ~ -745
    with pytest.raises(ValueError, match="float range"):
        hf.orbit_points(hf.BASE_TANGENT, "geodesic", np.arange(start, end, 1.0))


def test_profile_past_the_float_range_is_refused(parabolic_spec):
    with pytest.raises(ValueError, match="float range"):
        hf.injectivity_profile(parabolic_spec, t_max=800.0, step=10.0)


M = hf.Mobius
GAMMA2 = hf.GroupSpec((M(1, 2, 0, 1), M(1, 0, 2, 1)))
PSL2Z = hf.GroupSpec((M(0, -1, 1, 0), M(1, 1, 0, 1)), max_word_length=20)
# a ray diving to the boundary point 5.115... of the flute
DIVING = hf.UnitTangent(M(2.0557572159931365, -0.1255172451590788,
                          0.40188744443969604, 0.4619009422526465))


def _frames(rng, sampler):
    vertical = []
    for _ in range(2):  # n_x a_y: based at x + i e^y, climbing straight up
        x, y = rng.uniform(-3.0, 3.0), rng.uniform(-1.0, 1.0)
        e = math.exp(y / 2.0)
        vertical.append(hf.UnitTangent(M(e, x / e, 0.0, 1.0 / e)))
    general = [hf.UnitTangent(sampler(rng)) for _ in range(2)]
    return [hf.BASE_TANGENT, DIVING] + vertical + general


def _full_scan(ball, u, times):
    # the kernel over the whole ball, unpruned
    x = hf.flows._min_2sinh(np.exp(times), *hf.flows._ray_terms(ball._coef, u.frame))
    return 0.5 * (2.0 * np.arcsinh(x / 2.0))


def _prefilter(ball, u, times):
    # (gathered, left): the rows whose ray terms the kernel gathers, those
    # whose cached floor is at most twice the seeds' largest bound U and
    # whose |c| at most the largest _c_bound, and of those the rows whose
    # _floor too is at most that
    floor, _, seed_coef, *_ = ball.displacement_floor
    s = np.exp(times)
    top = 2.0 * hf.flows._seed_bound(s, *hf.flows._ray_terms(seed_coef, u.frame))
    bound = hf.flows._c_bound(s, top, u.frame)
    c_max = bound.max() if bound.min() >= hf.flows._TINY else np.inf
    near = ~(floor > top.max()) & ~(np.abs(ball.c) > c_max)
    coef = ball._coef.take(np.flatnonzero(near), axis=1)
    low = hf.flows._floor(*hf.flows._ray_terms(coef, u.frame))
    return int(np.count_nonzero(near)), int(np.count_nonzero(~(low > top.max())))


_RAY_BALLS = pytest.mark.parametrize("spec, depth", [
    (hf.schottky_pair(), 8), (hf.truncated_flute(), 5), (GAMMA2, 8), (PSL2Z, 14),
    (hf.schottky_pair(), 4),
], ids=["schottky", "flute", "gamma2", "psl2z-elliptic", "below-seed-rows"])
# 121 samples at step 0.05: the last block of 8 is short; 667 at step 0.03
# span several seed chunks, the last one short
_GRIDS = ((10.0, 0.1), (6.0, 0.05), (700.0, 350.0), (20.0, 0.03))


@_RAY_BALLS
def test_pruned_profile_is_bitwise_the_full_scan(spec, depth, rng, mobius_sampler):
    ball = hf.ball_arrays(spec, depth)
    if depth == 4:
        assert len(ball) < 512
    for u in _frames(rng, mobius_sampler):
        for t_max, step in _GRIDS:
            prof = hf.injectivity_profile(spec, u, t_max=t_max, step=step, depth=depth)
            full = _full_scan(ball, u, prof.times)
            assert np.array_equal(prof.inj_estimates.view(np.int64), full.view(np.int64))


def _seed_rule(s, ch, bh, eh):
    # per sample, U: the least over the seeds of the larger kernel at its
    # block's ends; a block runs from every _BLOCK-th sample of a chunk to
    # the next block's first sample, or to the chunk's last one. A block
    # whose least square is below the normal range takes the kernel by
    # hypot, and a U that is not finite or is itself below it reads inf
    u = np.empty_like(s)
    for blk in hf.flows._blocks(s.size, ch.size):
        sb = s[blk]
        starts = np.arange(0, sb.size, hf.flows._BLOCK)
        s0 = sb[starts][:, None]
        s1 = sb[np.append(starts[1:], sb.size - 1)][:, None]
        with np.errstate(over="ignore", invalid="ignore"):
            sq = np.maximum(*((ch * x + bh / x) ** 2 + eh ** 2 for x in (s0, s1))).min(axis=1)
            lost = sq < hf.flows._TINY
            ub = np.sqrt(sq)
            ub[lost] = np.maximum(*(np.hypot(ch * x + bh / x, eh)
                                    for x in (s0[lost], s1[lost]))).min(axis=1)
            ub = np.where((ub >= hf.flows._TINY) & np.isfinite(ub), ub, np.inf)
        u[blk] = ub[np.arange(sb.size) // hf.flows._BLOCK]
    return u


@_RAY_BALLS
def test_seed_bound_is_the_block_rule_and_bounds_the_ball(spec, depth, rng, mobius_sampler,
                                                          monkeypatch):
    # _seed_bound is _seed_rule's U bit for bit and at least the ball's
    # minimum at every sample, and every block of the kernel evaluates a row
    ball = hf.ball_arrays(spec, depth)
    _, _, seed_coef, *_ = ball.displacement_floor
    full_min = hf.flows._min_2sinh
    rows = []
    monkeypatch.setattr(hf.flows, "_min_2sinh",
                        lambda s, ch, *terms: rows.append(ch.size) or full_min(s, ch, *terms))
    for u in _frames(rng, mobius_sampler):
        terms = hf.flows._ray_terms(seed_coef, u.frame)
        every = hf.flows._ray_terms(ball._coef, u.frame)
        for t_max, step in _GRIDS:
            s = np.exp(step * np.arange(hf.flows.sample_count(t_max, step)))
            got = hf.flows._seed_bound(s, *terms)
            assert np.array_equal(got.view(np.int64), _seed_rule(s, *terms).view(np.int64))
            assert np.all(got >= full_min(s, *every))
            rows.clear()
            hf.flows._min_displacements(s, ball, u.frame)
            assert rows and min(rows) > 0


@_RAY_BALLS
def test_cached_per_length_extremes_bound_their_rows(spec, depth):
    ball = hf.ball_arrays(spec, depth)
    floor, _, _, least_c, least_floor = ball.displacement_floor
    starts = ball._level_starts
    abs_c = np.abs(ball.c)
    assert least_c.size == least_floor.size == starts.size - 1
    assert starts.size - 1 == ball.word_lengths[-1]
    for k, start in enumerate(starts[:-1]):
        # the minima over the rows of length k + 1 and every longer one
        assert np.all(abs_c[start:] >= least_c[k])
        assert np.all(floor[start:] >= least_floor[k])
        assert least_c[k] == abs_c[start:].min()
        assert least_floor[k] == floor[start:].min()


@_RAY_BALLS
def test_seeds_are_the_least_floors_ties_to_the_lower_row(spec, depth):
    floor, seeds, *_ = hf.ball_arrays(spec, depth).displacement_floor
    assert np.array_equal(seeds, np.sort(np.argsort(floor, kind="stable")[:512]))


def test_gamma2_seeds_are_the_first_rows_of_floor_zero():
    # the 1,452 parabolic rows of the d10 ball have floor 0: the seeds are
    # the first 512 of them, whatever the NumPy version
    floor, seeds, *_ = hf.ball_arrays(GAMMA2, 10).displacement_floor
    zero = np.flatnonzero(floor == 0)
    assert zero.size == 1452
    assert np.array_equal(seeds, zero[:512])


@_RAY_BALLS
def test_ray_minimum_grows_at_most_as_its_lipschitz_bound(spec, depth, rng, mobius_sampler):
    # t = log s is arc length along the ray, so the ball's least kernel m
    # grows from a sample s0 to s1 = r s0 to at most r m + r - 1/r: the
    # block loop's bound from the block before. S of PSL(2,Z) fixes i, the
    # base ray's first point, where m = 0 and the bound is met; the flute's
    # deep rows drift from det 1 by up to 3.5e-7
    ball = hf.ball_arrays(spec, depth)
    s = np.exp(0.1 * np.arange(101))
    for u in _frames(rng, mobius_sampler):
        m = hf.flows._min_2sinh(s, *hf.flows._ray_terms(ball._coef, u.frame))
        for lag in (1, 8, 100):
            r = s[lag:] / s[:-lag]
            assert np.all(m[lag:] <= (r * m[:-lag] + (r - 1.0 / r)) * (1.0 + 1e-6))


@pytest.mark.parametrize("h", list(CONJUGATORS))
@pytest.mark.parametrize("spec, depth", [
    (hf.schottky_pair(max_word_length=10), 10), (hf.truncated_flute(), 6), (GAMMA2, 10),
], ids=["schottky", "flute", "gamma2"])
def test_profiles_survive_conjugation(spec, depth, h):
    # h u on h G h^-1 sees the displacements that u sees on G, so only the
    # frame's rounding can move a sample: the base frame and three frames
    # translated along the boundary
    g = CONJUGATORS[h]
    conj = conjugate_spec(spec, g)
    for x in (0.0, -1.3, 0.45, 2.2):
        u = hf.BASE_TANGENT.transform(hf.Mobius(1.0, x, 0.0, 1.0))
        want = hf.injectivity_profile(spec, u, depth=depth).inj_estimates
        got = hf.injectivity_profile(conj, u.transform(g), depth=depth).inj_estimates
        assert np.all(np.abs(got - want) <= 1e-12 * want), (x, np.max(np.abs(got / want - 1.0)))


def test_deep_gamma2_base_ray_keeps_a_finite_seed_bound():
    # past t ~ 354 the seeds' least end squares underflow; their U, redone
    # with hypot, is _seed_rule's and stays finite, so the prefilter still
    # gathers a few rows
    ball = hf.ball_arrays(GAMMA2, 10)
    _, _, seed_coef, *_ = ball.displacement_floor
    times = np.arange(hf.flows.sample_count(420.0, 1.0), dtype=float)
    terms = hf.flows._ray_terms(seed_coef, hf.BASE_TANGENT.frame)
    bound = hf.flows._seed_bound(np.exp(times), *terms)
    assert np.array_equal(bound.view(np.int64), _seed_rule(np.exp(times), *terms).view(np.int64))
    assert np.all(np.isfinite(bound))
    assert _prefilter(ball, hf.BASE_TANGENT, times)[0] < 1000


def test_deep_gamma2_base_ray_is_bitwise_the_full_scan():
    # at t = 420 the squares of the c = 0 rows' kernel, e^-2t, underflow to
    # 0: a seed-step U read from them would prune every seed
    ball = hf.ball_arrays(GAMMA2, 10)
    prof = hf.injectivity_profile(GAMMA2, t_max=420.0, step=1.0, depth=10)
    assert prof.times.size == 421
    full = np.concatenate([_full_scan(ball, hf.BASE_TANGENT, prof.times[k:k + 4])
                           for k in range(0, prof.times.size, 4)])
    assert np.array_equal(prof.inj_estimates.view(np.int64), full.view(np.int64))


@pytest.mark.parametrize("spec, depth, one_block, frames", [
    (GAMMA2, 9, True, (2, 3)), (hf.schottky_pair(), 8, False, (1, 5)),
], ids=["gamma2-one-block", "schottky-blocks"])
def test_both_kernel_paths_are_bitwise_the_full_scan(spec, depth, one_block, frames, rng,
                                                     mobius_sampler):
    # the kernel's blocks hold about _CELLS rows x samples: climbing rays
    # leave a few Gamma(2) rows past the prefilter, which take the whole grid
    # in one block; rays that end at a point of the limit set (the diving
    # ray and a general SL2 frame) leave thousands of schottky rows, which
    # take _BLOCK samples at a time, since their height tends to 0 and the
    # |c| test drops few rows
    ball = hf.ball_arrays(spec, depth)
    every = _frames(rng, mobius_sampler)
    for u in (every[i] for i in frames):
        for t_max, step in ((10.0, 0.5), (20.0, 0.03)):
            prof = hf.injectivity_profile(spec, u, t_max=t_max, step=step, depth=depth)
            _, left = _prefilter(ball, u, prof.times)
            blocks = list(hf.flows._blocks(prof.times.size, left))
            if one_block:
                assert left > 0 and len(blocks) == 1
            else:
                assert all(b.stop - b.start == hf.flows._BLOCK for b in blocks)
            full = _full_scan(ball, u, prof.times)
            assert np.array_equal(prof.inj_estimates.view(np.int64), full.view(np.int64))


def test_climbing_rays_gather_under_one_percent_of_the_ball(rng, mobius_sampler):
    # on a ray that climbs into a funnel of the schottky group the height Y
    # grows, so the |c| test drops all but a few rows before any is
    # gathered; the floor test alone keeps about 92% of the d8 ball
    ball = hf.ball_arrays(hf.schottky_pair(), 8)
    times = 0.1 * np.arange(101)
    for u in _frames(rng, mobius_sampler)[2:4]:
        gathered, _ = _prefilter(ball, u, times)
        assert gathered < 0.01 * len(ball)


# peak RSS of a profile over a grid of argv[1] steps on [0, 10], in KiB on
# Linux (bytes on macOS), after the ball, its floor and a first profile. It
# runs through _DRIVER: a process inherits the peak of the one it was
# started from, and pytest's is above this child's own first peak
_DRIVER = "import subprocess, sys; sys.exit(subprocess.run(sys.argv[1:]).returncode)"
_RSS_CHILD = """
import resource, sys
import horoflow as hf
spec = hf.schottky_pair()
hf.ball_arrays(spec, 6).displacement_floor
hf.injectivity_profile(spec, depth=6)
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
prof = hf.injectivity_profile(spec, t_max=10.0, step=10.0 / int(sys.argv[1]), depth=6)
print(prof.times.size, before, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
"""


def test_profile_memory_does_not_grow_with_the_rows_times_samples():
    # the kernel's temporaries are bounded per block of samples, so a long
    # grid costs only its own few arrays, about 50 bytes a sample; 512 seed
    # rows taken over every sample at once would cost about 12 KB
    pytest.importorskip("resource")
    r = subprocess.run([sys.executable, "-c", _DRIVER, sys.executable, "-c", _RSS_CHILD, "200000"],
                       capture_output=True, text=True, timeout=300)
    assert r.returncode == 0, r.stderr
    n, before, after = map(int, r.stdout.split())
    assert n == 200_001
    unit = 1 if sys.platform == "darwin" else 1024
    assert (after - before) * unit < 1024 * n


@pytest.mark.parametrize("spec, depth", [
    (hf.truncated_flute(), 5), (hf.truncated_flute(), 6), (PSL2Z, 14), (hf.schottky_pair(), 8),
], ids=["flute-d5", "flute-d6", "psl2z-elliptic", "schottky"])
def test_displacement_floor_is_below_every_ray_floor(spec, depth, rng, mobius_sampler):
    # the flute's deep rows drift from det 1 (up to 3.5e-7); the floor needs
    # no det = 1, since (d - a)^2 + 4 bc = tr^2 - 4 det
    ball = hf.ball_arrays(spec, depth)
    floor, *_ = ball.displacement_floor
    for u in _frames(rng, mobius_sampler):
        low = hf.flows._floor(*hf.flows._ray_terms(ball._coef, u.frame))
        assert np.all(floor <= low)


def test_displacement_floor_is_read_only_and_cached(schottky_spec):
    ball = hf.ball_arrays(schottky_spec, 6)
    floor, seeds, seed_coef, least_c, least_floor = cached = ball.displacement_floor
    assert ball.displacement_floor is cached
    assert floor.dtype == np.float64 and floor.shape == (len(ball),) and seeds.shape == (512,)
    for arr in cached:
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 0
    # the seeds are the rows of least floor, in row order and kept without
    # the whole partition, and their coefficients one contiguous copy
    assert seeds.base is None and np.all(np.diff(seeds) > 0)
    assert floor[seeds].max() <= np.delete(floor, seeds).min()
    assert seed_coef.flags.c_contiguous and np.array_equal(seed_coef, ball._coef[:, seeds])
    assert least_c.shape == least_floor.shape == (6,)
    assert least_floor.dtype == np.float64


def test_displacement_floor_reads_nan_where_its_square_overflows(hyperbolic_spec):
    # z -> 4z to the k-th power has d - a = 2^-k - 2^k: past k = 512,
    # (d - a)^2 leaves float64's range and the floor reads NaN, which
    # keeps the row. It does not warn.
    ball = hf.ball_arrays(hyperbolic_spec, 540)
    floor, *_ = ball.displacement_floor
    exact = np.abs(ball.d - ball.a)
    nan = np.isnan(floor)
    assert np.all(nan == (exact > math.sqrt(np.finfo(float).max)))
    assert np.all(floor[~nan] <= exact[~nan])
    prof = hf.injectivity_profile(hyperbolic_spec, t_max=10.0, step=0.5, depth=540)
    full = _full_scan(ball, hf.BASE_TANGENT, prof.times)
    assert np.array_equal(prof.inj_estimates.view(np.int64), full.view(np.int64))


def test_ray_terms_of_chosen_rows_are_those_of_the_whole_ball(schottky_spec, rng, mobius_sampler):
    ball = hf.ball_arrays(schottky_spec, 6)
    rows = np.sort(rng.choice(len(ball), 300, replace=False))
    for u in _frames(rng, mobius_sampler):
        whole = hf.flows._ray_terms(ball._coef, u.frame)
        for x, y in zip(hf.flows._ray_terms(ball._coef.take(rows, axis=1), u.frame), whole):
            assert np.array_equal(x.view(np.int64), y[rows].view(np.int64))


@pytest.mark.parametrize("spec, depth, u", [
    (hf.truncated_flute(), 5, DIVING),
    (PSL2Z, 14, hf.UnitTangent(M(1.3, 0.4, -0.7, 0.5538461538461539))),
    (hf.schottky_pair(), 7, hf.UnitTangent(M(1.2, 1.9, 0.0, 1.0 / 1.2))),
    (GAMMA2, 7, hf.UnitTangent(M(0.9, -0.7, 0.0, 1.0 / 0.9))),
], ids=["flute-diving", "psl2z-general", "schottky-funnel", "gamma2-climbing"])
def test_lower_bounds_hold_at_every_sample(spec, depth, u):
    ball = hf.ball_arrays(spec, depth)
    s = np.exp(0.1 * np.arange(101))
    ch, bh, eh = hf.flows._ray_terms(ball._coef, u.frame)
    low = hf.flows._floor(ch, bh, eh)
    # Gamma(2)'s translations have c = 0, which no |c| bound drops
    abs_c = np.abs(ball.c)
    assert spec is not GAMMA2 or np.any(abs_c == 0.0)
    # the narrowest blocks, and one block over the whole grid
    blocks = [slice(k, k + hf.flows._BLOCK) for k in range(0, s.size, hf.flows._BLOCK)]
    blocks.append(slice(0, s.size))
    bounds = [hf.flows._block_floor(np.abs(ch), np.abs(bh), s[blk][0], s[blk][-1])
              for blk in blocks]
    for i in range(len(ball)):
        row = slice(i, i + 1)  # the kernel's min over one row is its value
        values = hf.flows._min_2sinh(s, ch[row], bh[row], eh[row])
        assert np.all(low[i] <= values), i
        # the |c| test drops a row only where its kernel is above T, so at
        # T = the row's own kernel it keeps the row at every sample
        assert np.all(abs_c[i] <= hf.flows._c_bound(s, values, u.frame)), i
        # where rounding is tightest: at the row's least value s = sqrt(b_h/c_h),
        # or just past the root s = sqrt(-b_h/c_h) of c_h s + b_h/s
        m = math.sqrt(abs(bh[i] / ch[i])) if ch[i] * bh[i] != 0.0 else 1.0
        for t in m * (1.0 + np.array([-1e-15, 0.0, 1e-15, 1e-12, 1e-9])):
            value = hf.flows._min_2sinh(np.array([t]), ch[row], bh[row], eh[row])[0]
            bound = hf.flows._block_floor(np.abs(ch[row]), np.abs(bh[row]), t, t)[0]
            assert low[i] <= value and bound <= value, (i, t)
        for blk, bound in zip(blocks, bounds):
            assert np.all(bound[i] <= values[blk]), (i, blk)
