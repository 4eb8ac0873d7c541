"""Bounded escaping sequences, return-time evidence, the dichotomy driver."""

import math
import re
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import horoflow as hf
from horoflow import dichotomy
from horoflow.group import _boundary_images, _coefficients, ball_arrays, orbit_height
from horoflow.halfplane import apply_boundary

LN4 = math.log(4.0)


def _synthetic_matrices(n=16):
    return [hf.Mobius(1.0, 4.0**k, 4.0**-k, 2.0) for k in range(1, n + 1)]


# ---------------------------------------------------------------------------
# sequence candidates


def test_synthetic_candidate_fields():
    sc = hf.synthetic_candidate(_synthetic_matrices(), (0.1, 2.0))
    assert len(sc) == 16
    assert sc.height_band == (0.1, 2.0)
    assert all(0.1 <= h <= 2.0 for h in sc.heights)
    assert sc.heights_nonconstant
    assert all(e.word is None for e in sc.elements)
    assert all(not p.is_infinity for p in sc.endpoint_images)


def test_synthetic_candidate_rejects_heights_outside_band():
    with pytest.raises(ValueError):
        hf.synthetic_candidate(_synthetic_matrices(), (0.5, 0.6))


def test_synthetic_candidate_refuses_string_and_bool_entries():
    # float() would read this as [[1, 1], [0, 1]], the translation z -> z + 1
    with pytest.raises(ValueError, match="real number"):
        hf.synthetic_candidate([[["1", "1"], [0, True]]], (0.5, 2.0))


@pytest.mark.parametrize("matrix", [[[1, 2]], [1, 0, 0, 1], [[1, 0], [0, 1, 2]]])
def test_synthetic_candidate_refuses_a_malformed_matrix(matrix):
    with pytest.raises(ValueError, match=r"expected a matrix \(\(a, b\), \(c, d\)\)"):
        hf.synthetic_candidate([matrix], (0.5, 2.0))


def test_candidate_stores_its_band_as_floats():
    elements = tuple(hf.GroupElement(m, None) for m in _synthetic_matrices())
    sc = hf.SequenceCandidate(elements, (np.float64(0.1), 2))
    assert sc.height_band == (0.1, 2.0)
    assert all(type(x) is float for x in sc.height_band)


def test_candidate_with_a_height_past_the_float_range_is_outside_the_band():
    # c^2 + d^2 underflows to 0: the height is inf, not a ZeroDivisionError
    with pytest.raises(ValueError, match="height inf falls outside the band"):
        hf.synthetic_candidate([hf.Mobius(0, -1e170, 1e-170, 0)], (0.1, 2))


def test_candidate_needs_increasing_word_lengths():
    m1, m2 = _synthetic_matrices(2)
    with pytest.raises(ValueError, match="word lengths must strictly increase"):
        hf.SequenceCandidate((hf.GroupElement(m1, (1,)), hf.GroupElement(m2, (2,))),
                             (0.1, 2.0))


def test_synthetic_candidate_needs_increasing_moduli():
    mats = _synthetic_matrices(6)
    with pytest.raises(ValueError):
        hf.synthetic_candidate(list(reversed(mats)), (0.1, 2.0))


def test_finder_longest_chain_on_dilations(hyperbolic_spec):
    seq = hf.find_bounded_escaping_sequence(hyperbolic_spec, (1e-7, 1e7))
    words = [e.word for e in seq.elements]
    assert words[0] == (-1,)
    assert words[1:] == [(1,) * k for k in range(2, 11)]
    assert seq.heights_nonconstant
    # moduli |g(i)| strictly increase along the chain
    mods = [abs(complex(m.b, m.a) / complex(m.d, m.c)) for m in
            (e.mobius for e in seq.elements)]
    assert all(m2 > m1 for m1, m2 in zip(mods, mods[1:]))


def _reference_chain(order, moduli, lengths):
    # the Python DP the array chain search replaced, kept as its reference
    if not order:
        return []
    max_len = max(lengths[i] for i in order) + 2
    F = {}
    best_from_len = [0] * (max_len + 1)
    blocks = []
    start = 0
    for k in range(1, len(order) + 1):
        if k == len(order) or moduli[order[k]] != moduli[order[start]]:
            blocks.append(order[start:k])
            start = k
    for block in reversed(blocks):
        vals = {}
        for i in block:
            li = lengths[i]
            vals[i] = 1 + max(best_from_len[li + 1:], default=0)
        for i in block:
            F[i] = vals[i]
            li = lengths[i]
            if vals[i] > best_from_len[li]:
                best_from_len[li] = vals[i]
    remaining = max(F.values())
    chain = []
    last = None
    for i in order:
        if F[i] != remaining:
            continue
        if last is not None and not (moduli[i] > moduli[last]
                                     and lengths[i] > lengths[last]):
            continue
        chain.append(i)
        last = i
        remaining -= 1
        if remaining == 0:
            break
    return chain


def _check_chain(moduli, lengths):
    got = dichotomy._longest_escaping_chain(np.array(moduli, dtype=float),
                                            np.array(lengths, dtype=int)).tolist()
    assert got == _reference_chain(list(range(len(moduli))), moduli, lengths)
    return got


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(rows=st.lists(st.tuples(st.integers(0, 6), st.integers(1, 6)), max_size=40))
def test_chain_equals_reference(rows):
    # few distinct moduli and lengths, so ties abound
    rows.sort(key=lambda r: r[0])  # stable: tied moduli keep their order
    _check_chain([float(m) for m, _ in rows], [l for _, l in rows])


@pytest.mark.parametrize("moduli, lengths, chain", [
    ([], [], []),
    ([2.0], [5], [0]),
    ([1.0] * 5, [3, 1, 2, 6, 2], [0]),
    ([0.0, 1.0, 2.0, 2.0, 5.0], [4] * 5, [0]),
], ids=["n=0", "n=1", "equal moduli", "equal lengths"])
def test_chain_degenerate_inputs(moduli, lengths, chain):
    assert _check_chain(moduli, lengths) == chain


@pytest.mark.parametrize("band", [(0.5, 2.0), (1e-3, 1e3), (1e-6, 1e6)])
def test_chain_equals_reference_on_a_ball(band):
    gamma2 = hf.GroupSpec((hf.Mobius(1, 2, 0, 1), hf.Mobius(1, 0, 2, 1)), max_word_length=8)
    ball = ball_arrays(gamma2)
    heights = 1.0 / (ball.c ** 2 + ball.d ** 2)
    rows = np.nonzero((heights >= band[0]) & (heights <= band[1]))[0]
    moduli = dichotomy._modulus_sq(ball.a[rows], ball.b[rows], ball.c[rows], ball.d[rows])
    order = np.argsort(moduli, kind="stable")
    assert len(_check_chain(moduli[order].tolist(),
                            ball.word_lengths[rows[order]].tolist())) >= 8


def test_finder_reports_shortfall(schottky_spec):
    with pytest.raises(hf.NoSequenceFound) as exc:
        hf.find_bounded_escaping_sequence(schottky_spec, (0.9, 1.1), depth=6)
    assert exc.value.found == 0


def test_finder_band_validation(hyperbolic_spec):
    with pytest.raises(ValueError):
        hf.find_bounded_escaping_sequence(hyperbolic_spec, (2.0, 1.0))
    with pytest.raises(ValueError):
        hf.find_bounded_escaping_sequence(hyperbolic_spec, (0.0, 1.0))
    with pytest.raises(ValueError):
        hf.find_bounded_escaping_sequence(hyperbolic_spec, (50.0, 60.0), min_len=0)


BAD_BANDS = [(band, "a height band bound must be") for band in [
    (True, 1e7), ("0.1", 2), ("0.1", "2"), (0.5, math.inf), (math.nan, 2.0), (-math.inf, 1.0)]
] + [(band, rf"a height band is a pair \(m, M\), got {re.escape(repr(band))}")
     for band in [(1.0,), (0.1, 1.0, 2.0), 1.0, ()]]
BAD_BAND_IDS = ["bool", "string", "strings", "inf", "nan", "-inf",
                "one", "three", "scalar", "empty"]


@pytest.mark.parametrize("band, match", BAD_BANDS, ids=BAD_BAND_IDS)
def test_band_bounds_are_finite_real_numbers(hyperbolic_spec, band, match):
    with pytest.raises(ValueError, match=match):
        hf.find_bounded_escaping_sequence(hyperbolic_spec, band)
    with pytest.raises(ValueError, match=match):
        hf.synthetic_candidate(_synthetic_matrices(), band)
    with pytest.raises(ValueError, match=match):
        hf.run_dichotomy(hyperbolic_spec, band=band)
    # checked before any work, also when a candidate is injected
    sc = hf.synthetic_candidate(_synthetic_matrices(), (0.1, 2.0))
    with pytest.raises(ValueError, match=match):
        hf.run_dichotomy(hyperbolic_spec, candidate=sc, band=band)


def test_sequence_heights_and_busemann_values_match_exact_composition(schottky_spec):
    # Compose each word of the float generators exactly: the heights are
    # 1/(c^2 + d^2) and the Busemann values ln(c^2 + d^2) of the sequence.
    report = hf.run_dichotomy(schottky_spec, band=(1e-6, 1e6))
    seq = report.sequence
    assert len(seq) >= 8
    letters = {}
    for k, g in enumerate(schottky_spec.generators):
        for sign, m in ((1, g), (-1, g.inverse())):
            letters[sign * (k + 1)] = [Fraction(v) for v in (m.a, m.b, m.c, m.d)]
    for e, h, v in zip(seq.elements, seq.heights, report.busemann_limit.values):
        a, b, c, d = Fraction(1), Fraction(0), Fraction(0), Fraction(1)
        for letter in e.word:
            p, q, r, s = letters[letter]
            a, b, c, d = a * p + b * r, a * q + b * s, c * p + d * r, c * q + d * s
        norm = c * c + d * d
        assert abs(Fraction(h) * norm - 1) <= Fraction(1, 10 ** 14)
        assert abs(v - math.log(norm)) <= 1e-13


@pytest.mark.parametrize("kwargs", [{"min_len": 0}, {"window": 0}, {"eps": math.nan},
                                    {"eps": math.inf}, {"eps": 0.0}, {"eps": -1e-6}],
                         ids=["min_len=0", "window=0", "eps=nan", "eps=inf", "eps=0", "eps<0"])
def test_dichotomy_rejects_bad_settle_parameters(parabolic_spec, kwargs):
    with pytest.raises(ValueError):
        hf.run_dichotomy(parabolic_spec, band=(50.0, 60.0), **kwargs)


@pytest.mark.parametrize("kwargs", [{"window": 0}, {"eps": math.nan}, {"eps": math.inf},
                                    {"eps": 0.0}, {"eps": -1e-6}],
                         ids=["window=0", "eps=nan", "eps=inf", "eps=0", "eps<0"])
def test_settle_functions_reject_bad_settle_parameters(kwargs):
    sc = hf.synthetic_candidate(_synthetic_matrices(), (0.1, 2.0))
    with pytest.raises(ValueError):
        hf.test_recurrence(hf.BASE_TANGENT, sc, **kwargs)
    with pytest.raises(ValueError):
        hf.test_return_time(hf.BASE_TANGENT, hf.Mobius.identity(), sc, **kwargs)
    with pytest.raises(ValueError):
        hf.check_coefficient_asymptotics(sc, **kwargs)


@pytest.mark.parametrize("bad", [2.5, True], ids=["2.5", "True"])
def test_window_and_min_len_must_be_integers(parabolic_spec, bad):
    sc = hf.synthetic_candidate(_synthetic_matrices(), (0.1, 2.0))
    for kwargs in ({"window": bad}, {"min_len": bad}):
        with pytest.raises(ValueError, match="integer"):
            hf.run_dichotomy(parabolic_spec, **kwargs)
    with pytest.raises(ValueError, match="integer"):
        hf.find_bounded_escaping_sequence(parabolic_spec, (0.5, 2.0), min_len=bad)
    with pytest.raises(ValueError, match="integer"):
        hf.test_recurrence(hf.BASE_TANGENT, sc, window=bad)
    with pytest.raises(ValueError, match="integer"):
        hf.check_coefficient_asymptotics(sc, window=bad)


# ---------------------------------------------------------------------------
# return-time streams


def test_settle_functions_are_not_collected_as_tests():
    assert hf.test_recurrence.__test__ is False
    assert hf.test_return_time.__test__ is False


def test_return_time_exact_on_translations(parabolic_spec):
    seq = hf.find_bounded_escaping_sequence(parabolic_spec, (0.5, 2.0), min_len=8)
    verdict = hf.test_recurrence(hf.BASE_TANGENT, seq)
    assert verdict.converged
    assert verdict.limit == 0.0
    assert verdict.residuals[0] == math.inf  # no previous value to compare
    assert all(r == 0.0 for r in verdict.residuals[1:])


# the scalar settle test that the array pass replaced, kept as its reference:
# the orbit as BoundaryPoints and log heights, then one alpha at a time


def _reference_orbit(u, ms):
    u_inf = u.forward_endpoint()
    return (u_inf, [apply_boundary(m, u_inf) for m in ms],
            [math.log(orbit_height(m.inverse(), u_inf)) for m in ms])


def _residual_to(p, target):
    if target.is_infinity:
        if p.is_infinity:
            return 0.0
        v = abs(p.value)
        return math.inf if v == 0.0 else 1.0 / v
    if p.is_infinity:
        return math.inf
    return abs(p.value - target.value)


def _settled(residuals, eps, window):
    return len(residuals) >= window and all(r < eps for r in residuals[-window:])


def _return_time(orbit, alpha, eps, window):
    u_inf, images, log_heights = orbit
    am = alpha.mobius if isinstance(alpha, hf.GroupElement) else alpha
    target = apply_boundary(am, u_inf)
    s1 = [_residual_to(p, target) for p in images]
    log_alpha = math.log(orbit_height(am.inverse(), u_inf))
    values = [log_alpha - h for h in log_heights]
    s2 = [math.inf] + [abs(v1 - v0) for v0, v1 in zip(values, values[1:])]
    unsettled = tuple(name for name, s in (("endpoint", s1), ("Busemann", s2))
                      if not _settled(s, eps, window))
    residuals = tuple(max(r1, r2) for r1, r2 in zip(s1, s2))
    return hf.ConvergenceVerdict(
        converged=not unsettled,
        limit=None if unsettled else values[-1],
        residuals=residuals,
        values=tuple(values),
        unsettled=unsettled,
    )


def _loop_return_times(orbit, alpha_ball, eps, window):
    # one scalar settle test per alpha row
    times = []
    for i in range(len(alpha_ball)):
        v = _return_time(orbit, alpha_ball[i], eps, window)
        if v.converged and abs(v.limit) >= eps:
            times.append(v.limit)
    return times


def _scan_times(u, rows, alpha_ball, eps, window):
    # the candidate-time scan of run_dichotomy: one settle pass over the ball
    values, _, settled = dichotomy._settle(u, rows, alpha_ball.a, alpha_ball.b, alpha_ball.c,
                                           alpha_ball.d, eps, window)
    limits = values[settled.all(axis=0), -1]
    return limits[np.abs(limits) >= eps].tolist()


def _inverses(seq):
    return tuple(e.mobius.inverse() for e in seq.elements)


def _same_floats(xs, ys):
    return [float.hex(x) for x in xs] == [float.hex(y) for y in ys]


def _bits(verdict):
    # every field of a settle verdict, floats as their exact hex form
    return (verdict.converged, verdict.unsettled,
            None if verdict.limit is None else float.hex(verdict.limit),
            [float.hex(v) for v in verdict.values], [float.hex(r) for r in verdict.residuals])


# (eps, window) from the defaults to loose ones, under which many alphas settle
_SETTLE = [(dichotomy.EPS, dichotomy.WINDOW), (1e-2, 3), (0.5, 2), (2.0, 1)]
_GENERATORS = {"gamma2": ((1, 2, 0, 1), (1, 0, 2, 1)), "psl2z": ((1, 1, 0, 1), (0, -1, 1, 0))}


def _group(name):
    if name == "schottky":
        return hf.schottky_pair(max_word_length=8)
    if name == "flute":
        return hf.truncated_flute()
    return hf.GroupSpec(tuple(hf.Mobius(*g) for g in _GENERATORS[name]), max_word_length=8)


def _aimed_at(endpoint):
    # a frame whose forward endpoint a/c is the given point; aimed at 0, the
    # targets are alpha(0): den = d is 0 for S in PSL(2, Z)
    if endpoint == "inf":
        return hf.BASE_TANGENT
    return hf.UnitTangent(hf.Mobius(float(endpoint), -1.0, 1.0, 0.0))


@pytest.mark.parametrize("name", ["gamma2", "psl2z", "schottky", "flute"])
@pytest.mark.parametrize("endpoint", ["inf", 0.0, 0.37])
def test_settle_equals_the_scalar_reference(name, endpoint):
    # test_return_time (one row), test_recurrence and the scan over the
    # alpha ball give the scalar test's values, residuals, unsettled streams
    # and limit bit for bit, window > n included
    spec = _group(name)
    u = _aimed_at(endpoint)
    assert u.forward_endpoint().is_infinity == (endpoint == "inf")
    alpha_ball = ball_arrays(spec, 3)
    alphas = [hf.Mobius.identity()] + [m.mobius for m in alpha_ball]
    rows = settled = 0
    for band in [(0.5, 2.0), (0.1, 10.0), (1e-3, 1e3), (1e-6, 1e6)]:
        try:
            seq = hf.find_bounded_escaping_sequence(spec, band, min_len=1)
        except hf.NoSequenceFound:
            continue
        inv = _inverses(seq)
        ref_orbit = _reference_orbit(u, inv)
        seq_rows = _coefficients(inv)
        for eps, window in _SETTLE + [(1e-2, len(inv) + 1)]:
            want = _return_time(ref_orbit, hf.Mobius.identity(), eps, window)
            assert _bits(hf.test_recurrence(u, inv, eps, window)) == _bits(want)
            values, residuals, ok = dichotomy._settle(
                u, seq_rows, alpha_ball.a, alpha_ball.b, alpha_ball.c, alpha_ball.d, eps, window)
            for k, alpha in enumerate(alphas):
                want = _return_time(ref_orbit, alpha, eps, window)
                assert _bits(hf.test_return_time(u, alpha, inv, eps, window)) == _bits(want)
                if k:
                    assert _same_floats(values[k - 1], want.values)
                    assert _same_floats(residuals[k - 1], want.residuals)
                    assert bool(ok[:, k - 1].all()) == want.converged
                rows += 1
                settled += want.converged
    assert rows > 0 and settled > 0


@pytest.mark.parametrize("name, endpoint", [
    ("gamma2", "inf"), ("gamma2", 0.0), ("schottky", "inf"), ("schottky", 0.0),
    ("psl2z", 0.0),
])
def test_return_times_equal_the_settle_loop(name, endpoint):
    spec = _group(name)
    u = _aimed_at(endpoint)
    assert u.forward_endpoint().is_infinity == (endpoint == "inf")
    settled = 0
    for band in [(0.1, 10.0), (1e-3, 1e3), (1e-6, 1e6)]:
        try:
            seq = hf.find_bounded_escaping_sequence(spec, band, min_len=1)
        except hf.NoSequenceFound:
            continue
        inv = _inverses(seq)
        rows, ref_orbit = _coefficients(inv), _reference_orbit(u, inv)
        for alpha_depth in (2, 3):
            alpha_ball = ball_arrays(spec, alpha_depth)
            for eps, window in _SETTLE:
                got = _scan_times(u, rows, alpha_ball, eps, window)
                assert _same_floats(got, _loop_return_times(ref_orbit, alpha_ball, eps, window))
                settled += len(got)
    assert settled > 0


@pytest.mark.parametrize("name", ["gamma2", "schottky"])
@pytest.mark.parametrize("band", [(0.1, 10.0), (1e-3, 1e3)])
def test_candidate_times_of_run_dichotomy(name, band):
    # run_dichotomy's scan over the ALPHA_DEPTH ball, sorted and merged within eps
    spec = _group(name)
    eps, window = 0.5, 2
    report = hf.run_dichotomy(spec, band=band, eps=eps, window=window, min_len=1)
    alpha_ball = ball_arrays(spec, dichotomy.ALPHA_DEPTH)
    times = []
    for t in sorted(_loop_return_times(_reference_orbit(hf.BASE_TANGENT, _inverses(report.sequence)),
                                       alpha_ball, eps, window)):
        if not times or t - times[-1] > eps:
            times.append(t)
    assert _same_floats(report.candidate_times, times)


def _synthetic_orbits(n):
    # the last n of the synthetic matrices, inverted as run_dichotomy does
    inv = _inverses(hf.synthetic_candidate(_synthetic_matrices()[-n:], (0.1, 2.0)))
    return _coefficients(inv), _reference_orbit(hf.BASE_TANGENT, inv)


@pytest.mark.parametrize("extra", [0, 1], ids=["window terms", "window + 1 terms"])
def test_return_times_at_the_window_edge(hyperbolic_spec, extra):
    # the Busemann stream opens with an inf residual: window terms never
    # settle, one more can
    window = dichotomy.WINDOW
    rows, ref_orbit = _synthetic_orbits(window + extra)
    alpha_ball = ball_arrays(hyperbolic_spec, 3)
    got = _scan_times(hf.BASE_TANGENT, rows, alpha_ball, dichotomy.EPS, window)
    assert _same_floats(got, _loop_return_times(ref_orbit, alpha_ball, dichotomy.EPS, window))
    assert bool(got) == bool(extra)


def test_return_times_of_alphas_aimed_at_infinity(hyperbolic_spec):
    # every dilation has c = 0, so its target alpha(inf) is inf itself
    alpha_ball = ball_arrays(hyperbolic_spec, 3)
    assert np.all(alpha_ball.c == 0.0)
    rows, ref_orbit = _synthetic_orbits(16)
    got = _scan_times(hf.BASE_TANGENT, rows, alpha_ball, dichotomy.EPS, dichotomy.WINDOW)
    assert _same_floats(got, _loop_return_times(ref_orbit, alpha_ball, dichotomy.EPS,
                                                dichotomy.WINDOW))
    # the sequence settles at ln 4 and the dilation by 4^j shifts it by
    # j ln 4, j = +-1, +-2, +-3; the shift to 0 is no candidate
    assert sorted(got) == pytest.approx([k * LN4 for k in (-2, -1, 2, 3, 4)])


def test_candidate_fields_come_from_the_elements():
    # heights, endpoint images and coefficients, as the array passes over the
    # elements' coefficients give them, for a found and an injected sequence
    gamma2 = _group("gamma2")
    for seq in (hf.find_bounded_escaping_sequence(gamma2, (1e-3, 1e3)),
                hf.synthetic_candidate(_synthetic_matrices(), (0.1, 2.0))):
        coeffs = [(e.mobius.a, e.mobius.b, e.mobius.c, e.mobius.d) for e in seq.elements]
        a, b, c, d = np.array(coeffs).T
        heights = orbit_height(SimpleNamespace(a=a, b=b, c=c, d=d), hf.INFINITY).tolist()
        values, at_inf = _boundary_images(a, b, c, d, hf.INFINITY)
        assert _same_floats(seq.heights, heights)
        assert [p.is_infinity for p in seq.endpoint_images] == at_inf.tolist()
        assert _same_floats([p.value for p in seq.endpoint_images if not p.is_infinity],
                            values[~at_inf].tolist())
        assert [list(map(float.hex, c)) for c in seq.coefficients] == \
            [list(map(float.hex, c)) for c in coeffs]
        assert seq.heights_nonconstant == (len(set(heights)) > 1)


def test_recurrence_needs_a_nonempty_sequence_of_distinct_elements():
    g = hf.Mobius(1.0, 1.0, 0.0, 1.0)
    with pytest.raises(ValueError, match="sequence is empty"):
        dichotomy.test_recurrence(hf.BASE_TANGENT, [])
    with pytest.raises(ValueError, match="pairwise distinct"):
        dichotomy.test_recurrence(hf.BASE_TANGENT, [g, hf.GroupElement(g, (1,))])


def test_run_dichotomy_rejects_a_repeated_inverse_before_the_scan(monkeypatch):
    # translations by 1 and 1 + 1e-12 are distinct candidates whose inverses
    # share a dedup cell: test_recurrence raises before any settle pass runs
    seq = hf.synthetic_candidate([hf.Mobius(1.0, b, 0.0, 1.0) for b in (1.0, 1.0 + 1e-12)],
                                 (0.5, 2.0))
    calls = []
    monkeypatch.setattr(dichotomy, "_settle", lambda *args: calls.append(args))
    with pytest.raises(ValueError, match="pairwise distinct") as excinfo:
        hf.run_dichotomy(hf.cyclic_parabolic(), candidate=seq)
    assert "test_recurrence" in {entry.name for entry in excinfo.traceback}
    assert calls == []


_FAR_GROUPS = {"schottky": (hf.schottky_pair(), 10), "gamma2": (_group("gamma2"), 10),
               "psl2z": (_group("psl2z"), 20)}


@pytest.mark.parametrize("band", [(1e-100, 1e100), (1e-300, 1e300), (5e-324, 1.0)])
@pytest.mark.parametrize("x", [3e7, -1e8, 1e8 + 0.1, 1e12, 1e16])
@pytest.mark.parametrize("name", _FAR_GROUPS)
def test_displacement_probe_at_far_endpoints(name, x, band):
    # conjugated far out, the sequence rows lose their digits in floats (some
    # send i|b| to an image with imaginary part 0); the run must still find a
    # sequence and read one of the three verdicts
    spec, depth = _FAR_GROUPS[name]
    u = hf.UnitTangent(hf.Mobius(x, -1.0, 1.0, 0.0))
    report = hf.run_dichotomy(spec, u, band, depth=depth)
    assert report.sequence is not None
    assert report.verdict.kind in (dichotomy.RECURRENCE, dichotomy.NON_MINIMALITY,
                                   dichotomy.INCONCLUSIVE)


def test_candidate_rejects_an_empty_sequence():
    with pytest.raises(ValueError, match="sequence is empty"):
        hf.synthetic_candidate([], (0.5, 2.0))
    with pytest.raises(ValueError, match="sequence is empty"):
        hf.SequenceCandidate(elements=(), height_band=(0.5, 2.0))


def test_candidate_rejects_repeated_elements():
    g = hf.Mobius(1.0, 1.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        hf.SequenceCandidate(elements=(hf.GroupElement(g, None),) * 2, height_band=(0.5, 2.0))


def test_coefficient_asymptotics_on_synthetic():
    sc = hf.synthetic_candidate(_synthetic_matrices(), (0.1, 2.0))
    coef = hf.check_coefficient_asymptotics(sc)
    assert coef.c_limit_zero
    assert coef.d_limit == pytest.approx(2.0, abs=1e-12)
    assert not coef.a_diverging
    assert coef.cd_bound_ok


# ---------------------------------------------------------------------------
# the dichotomy driver


def test_dichotomy_recurrence_on_cusp(parabolic_spec):
    report = hf.run_dichotomy(parabolic_spec)
    assert report.verdict.kind == "recurrence-evidence"
    assert report.verdict.t == pytest.approx(0.0, abs=1e-9)
    assert report.busemann_limit.converged
    assert report.note is None


def test_dichotomy_inconclusive_without_sequence(hyperbolic_spec):
    report = hf.run_dichotomy(hyperbolic_spec)
    assert report.verdict.kind == "inconclusive"
    assert report.verdict.t is None
    assert report.sequence is None
    assert "no qualifying sequence" in report.note


def test_dichotomy_unsettled_sequence_has_a_note():
    # Gamma(2) at depth 10 finds a sequence in this band whose endpoint
    # images stay put instead of escaping to infinity.
    gamma2 = hf.GroupSpec((hf.Mobius(1, 2, 0, 1), hf.Mobius(1, 0, 2, 1)))
    report = hf.run_dichotomy(gamma2, band=(0.1, 10.0))
    assert report.verdict.kind == "inconclusive"
    assert report.sequence is not None
    assert report.busemann_limit.unsettled == ("endpoint",)
    assert "endpoint stream" in report.note


def test_dichotomy_non_minimality_on_synthetic(hyperbolic_spec):
    sc = hf.synthetic_candidate(_synthetic_matrices(), (0.1, 2.0))
    report = hf.run_dichotomy(hyperbolic_spec, candidate=sc, band=(0.1, 2.0))
    assert report.verdict.kind == "non-minimality-evidence"
    assert report.verdict.t == pytest.approx(LN4, abs=1e-6)
    assert report.coefficients.c_limit_zero
    assert report.candidate_times == tuple(sorted(report.candidate_times))


def test_dichotomy_conjugates_finite_endpoints():
    # Frame aiming straight down at 0; the cusp group fixes 0.
    spec = hf.GroupSpec((hf.Mobius(1.0, 0.0, 1.0, 1.0),))
    u = hf.UnitTangent(hf.Mobius(0.0, -1.0, 1.0, 0.0))
    assert u.forward_endpoint().value == 0.0
    report = hf.run_dichotomy(spec, u)
    assert report.verdict.kind == "recurrence-evidence"
    assert report.verdict.t == pytest.approx(0.0, abs=1e-9)


def test_dichotomy_rejects_candidate_with_moved_frame():
    u = hf.UnitTangent(hf.Mobius(0.0, -1.0, 1.0, 0.0))
    sc = hf.synthetic_candidate(_synthetic_matrices(4), (0.1, 2.0))
    with pytest.raises(ValueError):
        hf.run_dichotomy(hf.cyclic_hyperbolic(), u, candidate=sc, band=(0.1, 2.0))


# ---------------------------------------------------------------------------
# finite endpoints, read through h = [[0, -1], [1, -xi]] on the spec's own ball

_REFERENCE_SPECS = {
    "schottky": hf.schottky_pair(),
    "flute": hf.truncated_flute(),
    "gamma2": hf.GroupSpec(tuple(hf.Mobius(*g) for g in _GENERATORS["gamma2"]),
                           max_word_length=10),
    "psl2z": hf.GroupSpec(tuple(hf.Mobius(*g) for g in _GENERATORS["psl2z"]),
                          max_word_length=20),
}


def _report_fields(r):
    """Every field of a report, floats as floats, in the order diagnose prints them."""
    out = {"note": r.note, "verdict": (r.verdict.kind, r.verdict.t),
           "converged": r.busemann_limit.converged, "limit": r.busemann_limit.limit,
           "values": r.busemann_limit.values, "residuals": r.busemann_limit.residuals,
           "candidate_times": r.candidate_times}
    if r.sequence is not None:
        s = r.sequence
        out.update(words=[e.word for e in s.elements], heights=s.heights,
                   endpoint_images=[math.inf if p.is_infinity else p.value
                                    for p in s.endpoint_images],
                   coefficients=[x for c in s.coefficients for x in c],
                   heights_nonconstant=s.heights_nonconstant)
        co = r.coefficients
        out.update({k: getattr(co, k) for k in (
            "a_abs", "c_values", "d_values", "a_diverging", "c_limit_zero", "d_limit",
            "min_cd_norm", "cd_bound_ok")})
    return out


def _conjugated_run(spec, u, band):
    # the path that conjugates the whole group and builds its ball
    h = hf.Mobius(0.0, -1.0, 1.0, -u.forward_endpoint().value)
    return hf.run_dichotomy(hf.conjugate_spec(spec, h), u.transform(h), band=band)


def _hexed(value):
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, (tuple, list)):
        return [_hexed(v) for v in value]
    return value


def _floats(value):
    if isinstance(value, float):
        return [value]
    if isinstance(value, (tuple, list)):
        return [x for v in value for x in _floats(v)]
    return []


@pytest.mark.parametrize("band", [(0.5, 2.0), (0.1, 10.0), (0.01, 100.0)])
@pytest.mark.parametrize("name", sorted(_REFERENCE_SPECS))
def test_finite_endpoint_equals_the_conjugated_group(name, band):
    # At 0, h is a signed permutation: the reports are equal bit for bit,
    # signed zeros included. Elsewhere the conjugated ball rounds its own
    # products, so every float agrees within 1e-9 relative to max(1, |x|),
    # with the same words, flags, verdict and note.
    spec = _REFERENCE_SPECS[name]
    for xi in (0.0, 0.37, -1.3, 2.5):
        u = _aimed_at(xi)
        got = _report_fields(hf.run_dichotomy(spec, u, band=band))
        want = _report_fields(_conjugated_run(spec, u, band))
        if xi == 0.0:
            assert {k: _hexed(v) for k, v in got.items()} == \
                {k: _hexed(v) for k, v in want.items()}
            continue
        assert got.keys() == want.keys()
        for key in got:
            x, y = _floats(got[key]), _floats(want[key])
            if not x and not y:
                assert got[key] == want[key], key
                continue
            assert len(x) == len(y), key
            for p, q in zip(x, y):
                assert p == q or abs(p - q) <= 1e-9 * max(1.0, abs(p), abs(q)), (key, p, q)
        assert got["note"] is None or got["note"] == want["note"]


def _exact_word(generators, word):
    m = (1, 0, 0, 1)
    for letter in word:
        p, q, r, s = generators[abs(letter) - 1]
        if letter < 0:
            p, q, r, s = s, -q, -r, p
        a, b, c, d = m
        m = (a * p + b * r, a * q + b * s, c * p + d * r, c * q + d * s)
    return m


@pytest.mark.parametrize("name", ["gamma2", "psl2z"])
def test_finite_endpoint_sequence_is_the_exact_conjugate(name):
    # At sqrt(2) - 1, where conjugating Gamma(2) itself fails the determinant
    # check, each element is h g h^-1 of its word's integer matrix g, and its
    # height the height of the orbit of xi + i about xi, within 1e-14.
    spec, xi = _REFERENCE_SPECS[name], math.sqrt(2.0) - 1.0
    x = Fraction(xi)
    for band in [(0.5, 2.0), (0.01, 100.0)]:
        seq = hf.run_dichotomy(spec, _aimed_at(xi), band=band).sequence
        assert len(seq) >= dichotomy.MIN_SEQ_LEN
        for e, h in zip(seq.elements, seq.heights):
            a, b, c, d = _exact_word(_GENERATORS[name], e.word)
            u = a - x * c
            want = (c * x + d, -c, -(b + x * (u - d)), u)
            got = (e.mobius.a, e.mobius.b, e.mobius.c, e.mobius.d)
            scale = max(abs(v) for v in want)
            err = min(max(abs(Fraction(g) - s * w) for g, w in zip(got, want))
                      for s in (1, -1))
            assert err <= scale * Fraction(1, 10 ** 14)
            # height_xi(g(xi + i)) = Im w / |w - xi|^2 at w = g(xi + i)
            wx = complex(a * xi + b, a) / complex(c * xi + d, c)
            assert h == pytest.approx(wx.imag / abs(wx - xi) ** 2, rel=1e-12)


@pytest.mark.parametrize("name", ["gamma2", "psl2z"])
def test_aimed_vectors_build_no_ball_and_raise_nothing(name):
    # Eight vectors aimed at points drawn from a seeded generator: with the
    # group conjugated, two of them died in the determinant check on Gamma(2),
    # and each built and kept its own ball.
    spec = _REFERENCE_SPECS[name]
    xis = np.random.default_rng(5).uniform(-3.0, 3.0, 8).tolist()
    memo = hf.group._cached_ball
    memo.cache_clear()
    for xi in xis:
        report = hf.run_dichotomy(spec, _aimed_at(xi))
        assert report.verdict.kind in (dichotomy.RECURRENCE, dichotomy.NON_MINIMALITY,
                                       dichotomy.INCONCLUSIVE)
    # the spec's own ball and its depth-2 alpha ball
    assert memo.cache_info().currsize == 2
    assert ball_arrays(spec) is ball_arrays(spec, spec.max_word_length)
    assert memo.cache_info().currsize == 2


@pytest.mark.parametrize("xi", [1e16, 1e200, -1e300])
def test_far_endpoint_reads_no_row_and_says_so(xi):
    # the conjugated generators overflowed (or lost every digit) and raised;
    # the closed form's rows fall outside every band, with no NumPy warning
    report = hf.run_dichotomy(_REFERENCE_SPECS["gamma2"], _aimed_at(xi))
    assert report.sequence is None and report.verdict.kind == dichotomy.INCONCLUSIVE
    assert report.note.startswith("no qualifying sequence: only 0 qualifying elements")


def test_finder_at_a_finite_point_takes_any_boundary_point():
    spec = _REFERENCE_SPECS["gamma2"]
    by_float = hf.find_bounded_escaping_sequence(spec, (0.5, 2.0), xi=0.37)
    by_point = hf.find_bounded_escaping_sequence(spec, (0.5, 2.0), xi=hf.bp(0.37))
    assert by_float == by_point
    at_inf = hf.find_bounded_escaping_sequence(spec, (0.5, 2.0), xi="inf")
    assert at_inf == hf.find_bounded_escaping_sequence(spec, (0.5, 2.0))
    with pytest.raises(hf.InvalidPoint):
        hf.find_bounded_escaping_sequence(spec, (0.5, 2.0), xi=math.nan)


def test_log_height_past_the_float_range_leaves_the_stream_unsettled():
    # height_xi(g^-1(i)) reads 0 at xi = 1e200: log -inf, not a math domain error
    u = hf.UnitTangent(hf.Mobius(1e200, -1, 1, 0))
    verdict = hf.test_recurrence(u, [hf.Mobius(1, 0, 1e150, 1)], window=1)
    assert not verdict.converged and verdict.limit is None
    assert verdict.unsettled == ("endpoint", "Busemann")
    assert math.isnan(verdict.values[0])


def test_dichotomy_runtime_parameters_forwarded(parabolic_spec):
    report = hf.run_dichotomy(parabolic_spec, depth=8, min_len=4, window=3)
    assert report.verdict.kind == "recurrence-evidence"
    assert len(report.sequence) >= 4


def _masked_search(spec, band, depth, xi):
    """The words of the search at xi (infinity or 0) with min_len 1, its
    in-band rows taken by a mask over every row of the ball. At 0,
    h = [[0, -1], [1, 0]] is a signed permutation: h g h^-1 has the row
    (d, -c, -b, a), and its height 1/(a^2 + b^2) is orbit_height's at 0."""
    ball = ball_arrays(spec, depth)
    heights = orbit_height(ball, xi)
    rows = np.nonzero((heights >= band[0]) & (heights <= band[1]))[0]
    a, b, c, d = (x[rows] for x in (ball.a, ball.b, ball.c, ball.d))
    if not xi.is_infinity:
        a, b, c, d = d, -c, -b, a
    with np.errstate(over="ignore"):
        moduli = dichotomy._modulus_sq(a, b, c, d)
    order = np.argsort(moduli, kind="stable")
    chain = dichotomy._longest_escaping_chain(moduli[order], ball.word_lengths[rows[order]])
    picks = order[chain].tolist()
    hs = heights[rows[picks]].tolist()
    if len(set(hs)) > 1:
        while len(hs) >= 2 and hs[0] == hs[1]:
            del picks[0], hs[0]
    return [ball.word(i) for i in rows[picks].tolist()]


_EDGE_SPECS = {
    "gamma2": (_REFERENCE_SPECS["gamma2"], 10),
    "psl2z": (_REFERENCE_SPECS["psl2z"], 20),
    "schottky": (_REFERENCE_SPECS["schottky"], 10),
    # an elliptic of order 3: the ball ends at length 1, before the depth
    "order3": (hf.GroupSpec((hf.Mobius(0.5, math.sqrt(0.75), -math.sqrt(0.75), 0.5),)), 8),
    # c^2 + d^2 underflows to 0 and overflows to inf: heights inf and 0
    "dilation": (hf.cyclic_hyperbolic(1e100), 4),
}
# Gamma(2) has rows of height exactly 1 and 0.2, and none in [1.5, 1.9], at
# infinity and at 0 alike
_EDGE_BANDS = [(0.2, 1.0), (0.5, 1.0), (1.0, 2.0), (1.5, 1.9), (0.5, 2.0), (1e-300, 1e300)]
_EDGE_POINTS = [pytest.param(name, hf.INFINITY, id=name) for name in sorted(_EDGE_SPECS)]
_EDGE_POINTS += [pytest.param(name, hf.bp(0.0), id=f"{name}-xi0") for name in ("gamma2", "psl2z")]


@pytest.mark.parametrize("band", _EDGE_BANDS, ids=map(str, _EDGE_BANDS))
@pytest.mark.parametrize("name, xi", _EDGE_POINTS)
def test_search_at_infinity_takes_the_masked_rows(name, xi, band):
    # both band ends are inclusive: the search masks the heights at both
    # endpoints, the ball's own at infinity and the conjugated ones at 0,
    # which are exact there
    spec, depth = _EDGE_SPECS[name]
    want = _masked_search(spec, band, depth, xi)
    try:
        seq = hf.find_bounded_escaping_sequence(spec, band, depth, min_len=1, xi=xi)
    except hf.NoSequenceFound as exc:
        assert exc.found == 0 and want == []
    else:
        assert [e.word for e in seq.elements] == want
    heights = set(orbit_height(ball_arrays(spec, depth), xi).tolist())
    if name == "gamma2":
        assert {1.0, 0.2} <= heights
        assert bool(want) == (band != (1.5, 1.9))
    if name == "dilation":
        assert {math.inf, 0.0} <= heights


def test_diagnose_prints_the_words_of_the_rows():
    # the int32 parent and letter arrays spell the same words
    gamma2 = _REFERENCE_SPECS["gamma2"]
    report = hf.run_dichotomy(gamma2, band=(0.01, 100.0))
    assert [e.word for e in report.sequence.elements] == [
        (2,), (2, -1), (2, -1, -2), (2, -1, 2, -1), (2, -1, 2, -1, 2), (2, -1, 2, -1, 2, -1),
        (1, -2, 1, -2, 1, -2, 1), (1, 1, -2, 1, -2, 1, -2, 1), (1, 1, 1, -2, 1, -2, 1, -2, 1),
        (1, 1, 1, 1, -2, 1, -2, 1, -2, 1)]
    psl2z = hf.GroupSpec((hf.Mobius(0, -1, 1, 0), hf.Mobius(1, 1, 0, 1)), max_word_length=20)
    report = hf.run_dichotomy(psl2z, band=(0.5, 2.0))
    assert [e.word for e in report.sequence.elements] == [(2, 1)] + [
        (2,) * k + (1, -2) for k in range(1, 19)]
    ball = ball_arrays(psl2z)
    for e in report.sequence.elements:
        i = next(i for i in range(len(ball)) if ball.word(i) == e.word)
        assert ball[i] == e
