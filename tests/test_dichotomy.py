"""Bounded escaping sequences, return-time evidence, the dichotomy driver."""

import math
from fractions import Fraction

import pytest

import horoflow as hf

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


def test_candidate_rejects_repeated_elements():
    g = hf.Mobius(1.0, 1.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        hf.SequenceCandidate(
            elements=(hf.GroupElement(g, None),) * 2,
            heights=(1.0, 1.0),
            height_band=(0.5, 2.0),
            endpoint_images=(hf.INFINITY, hf.INFINITY),
            coefficients=((1.0, 1.0, 0.0, 1.0),) * 2,
            heights_nonconstant=False,
        )


def test_coefficient_asymptotics_on_synthetic():
    sc = hf.synthetic_candidate(_synthetic_matrices(), (0.1, 2.0))
    coef = hf.check_coefficient_asymptotics(sc)
    assert coef.c_limit_zero
    assert coef.d_limit == pytest.approx(2.0, abs=1e-12)
    assert not coef.a_diverging
    assert coef.cd_bound_ok
    assert coef.probe_max_residual < 1e-9


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


def test_dichotomy_runtime_parameters_forwarded(parabolic_spec):
    report = hf.run_dichotomy(parabolic_spec, depth=8, min_len=4, window=3)
    assert report.verdict.kind == "recurrence-evidence"
    assert len(report.sequence) >= 4
