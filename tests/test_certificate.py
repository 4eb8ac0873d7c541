"""The ping-pong certificate of a group spec, and the ball it builds without dedup."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import horoflow as hf
from horoflow.group import ENUM_CAP, _build_ball

from conftest import conjugate_spec, stand_in

M = hf.Mobius
ULP = 2.0 ** -52  # the gap from 1 to the next float
GAMMA2 = hf.GroupSpec((M(1, 2, 0, 1), M(1, 0, 2, 1)))
PSL2Z = hf.GroupSpec((M(0, -1, 1, 0), M(1, 1, 0, 1)), max_word_length=20)
ARRAYS = ("a", "b", "c", "d", "word_lengths", "parent", "letter")


def _assert_same_ball(got, want):
    for name in ARRAYS:
        x, y = getattr(got, name), getattr(want, name)
        assert x.dtype == y.dtype and x.tobytes() == y.tobytes(), name


def _pair_touching_one(a):
    # [[a, 4a - 1], [1, 4]] has det 1 exactly for a = 2 and for a = 2 - ULP
    # (4a - 1 is then 7 - 4 ULP, a float): its disks span [-5, -3] and
    # [a - 1, a + 1], which meets Gamma(2)'s disk [0, 1] at 1 for a = 2 and
    # overlaps it by one ulp for a = 2 - ULP
    return M(a, 4.0 * a - 1.0, 1.0, 4.0)


CERTIFIED = {
    "gamma2-tangent": (GAMMA2, ((-math.inf, -1.0), (1.0, math.inf), (-1.0, 0.0), (0.0, 1.0))),
    "schottky": (hf.schottky_pair(), None),
    "flute": (hf.truncated_flute(), None),
    "cyclic-parabolic": (hf.cyclic_parabolic(), ((-math.inf, -0.5), (0.5, math.inf))),
    "disks-tangent-at-1": (hf.GroupSpec((M(1, 0, 2, 1), _pair_touching_one(2.0))),
                           ((-1.0, 0.0), (0.0, 1.0), (-5.0, -3.0), (1.0, 3.0))),
}
REFUSED = {
    "psl2z": PSL2Z,
    "cyclic-hyperbolic": hf.cyclic_hyperbolic(),
    "elliptic": hf.GroupSpec((M(math.cos(0.4), math.sin(0.4), -math.sin(0.4), math.cos(0.4)),)),
    "disks-overlap-by-one-ulp": hf.GroupSpec((M(1, 0, 2, 1), _pair_touching_one(2.0 - ULP))),
    "gamma2-translation-one-ulp-short": hf.GroupSpec((M(1, 2.0 - ULP, 0, 1), M(1, 0, 2, 1))),
    "two-translations": hf.GroupSpec((M(1, 1, 0, 1), M(1, 5, 0, 1))),
}


@pytest.mark.parametrize("spec, disks", CERTIFIED.values(), ids=CERTIFIED.keys())
def test_certified_specs(spec, disks):
    cert = spec.certificate
    assert cert is not None and len(cert) == 2 * len(spec.generators)
    if disks is not None:
        assert cert == disks
    # the float intervals of circles are those of isometric_circle
    for k, g in enumerate(spec.generators):
        if g.c != 0.0:
            for (lo, hi), m in zip(cert[2 * k:2 * k + 2], (g, g.inverse())):
                x, r = hf.isometric_circle(m)
                assert (lo, hi) == (x - r, x + r)


@pytest.mark.parametrize("spec", REFUSED.values(), ids=REFUSED.keys())
def test_refused_specs(spec):
    assert spec.certificate is None


def test_the_certificate_is_read_only_and_out_of_eq_hash_and_repr():
    spec = hf.schottky_pair()
    assert "certificate" not in repr(spec)
    again = hf.schottky_pair()
    assert again == spec and hash(again) == hash(spec)
    with pytest.raises(dataclasses.FrozenInstanceError):
        spec.certificate = None
    with pytest.raises(TypeError):
        hf.GroupSpec(spec.generators, certificate=None)
    # replace derives it again from the new generators
    conj = conjugate_spec(spec, M(1.0, 0.25, 0.0, 1.0))
    assert np.allclose(conj.certificate, np.add(spec.certificate, 0.25), rtol=0, atol=1e-14)
    assert conjugate_spec(GAMMA2, M(0, -1, 1, 0)).certificate is not None
    assert dataclasses.replace(PSL2Z, max_word_length=3).certificate is None


def test_a_negative_translation_takes_the_right_half_plane():
    spec = hf.GroupSpec((M(1, -2, 0, 1), M(1, 0, 2, 1)))
    assert spec.certificate[:2] == ((1.0, math.inf), (-math.inf, -1.0))
    wide = hf.GroupSpec((M(1, 0, 2, 1), M(1, 3, 0, 1)))
    assert wide.certificate == ((-1.0, 0.0), (0.0, 1.0), (-math.inf, -1.5), (1.5, math.inf))


_BENCH_GROUPS = {"schottky": hf.schottky_pair(), "flute": hf.truncated_flute(), "gamma2": GAMMA2}


@pytest.mark.parametrize("spec", _BENCH_GROUPS.values(), ids=_BENCH_GROUPS.keys())
def test_certified_balls_are_the_dedup_balls_at_every_depth(spec):
    assert spec.certificate is not None
    for depth in range(spec.max_word_length + 1):
        _assert_same_ball(_build_ball(spec, depth, ENUM_CAP),
                          _build_ball(stand_in(spec), depth, ENUM_CAP))


@st.composite
def _schottky(draw):
    # four circles on the line, their closures at least 1e-3 apart, in any
    # order; the two circles a generator pairs have one radius, so that they
    # are its isometric circles (unequal radii r1, r2 give both radius
    # sqrt(r1 r2), and may fail the certificate)
    radii = draw(st.lists(st.floats(0.05, 3.0), min_size=2, max_size=2))
    labels = draw(st.permutations([0, 0, 1, 1]))
    gaps = draw(st.lists(st.floats(1e-3, 2.0), min_size=3, max_size=3))
    x, circles = draw(st.floats(-5.0, 5.0)), [[], []]
    for k, label in enumerate(labels):
        x += radii[label] if k == 0 else radii[labels[k - 1]] + gaps[k - 1] + radii[label]
        circles[label].append((x, radii[label]))
    for pair in circles:
        if draw(st.booleans()):
            pair.reverse()
    return hf.schottky_pair(circles[0] + circles[1])


@st.composite
def _flute(draw):
    # lengths too short for the spacing are refused: valid ones only
    lengths = draw(st.lists(st.floats(2.0, 8.0), min_size=1, max_size=3))
    try:
        return hf.truncated_flute(lengths, spacing=draw(st.floats(2.0, 4.0)))
    except hf.InvalidGenerator:
        assume(False)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(spec=st.one_of(_schottky(), _flute()), depth=st.integers(0, 5))
def test_certified_build_equals_the_dedup_build(spec, depth):
    assert spec.certificate is not None
    _assert_same_ball(_build_ball(spec, depth, ENUM_CAP),
                      _build_ball(stand_in(spec), depth, ENUM_CAP))


@pytest.mark.parametrize("dedup, depth", [(False, 2), (True, 1)], ids=["certified", "dedup"])
def test_products_past_the_float_range_raise_coefficient_overflow(dedup, depth):
    # z -> z + 2 t is past the float range, and so is t's cell on the dedup
    # grid: the certified build fails at depth 2, the dedup build at depth 1
    spec = hf.cyclic_parabolic(1.5e308)
    assert spec.certificate is not None
    build = stand_in(spec) if dedup else spec
    assert len(_build_ball(build, depth - 1, ENUM_CAP)) == 2 * (depth - 1)
    with pytest.raises(hf.CoefficientOverflow):
        _build_ball(build, depth, ENUM_CAP)


def test_a_determinant_drift_raises_the_same_error_on_both_paths(monkeypatch):
    # with no tolerance, the first rounded product off det 1 fails the check
    monkeypatch.setattr(hf.group, "DET_TOL", 0.0)
    spec = hf.schottky_pair()
    errors = []
    for build in (spec, stand_in(spec)):
        with pytest.raises(ValueError, match="has det") as exc:
            _build_ball(build, 3, ENUM_CAP)
        errors.append(str(exc.value))
    assert errors[0] == errors[1]


def test_the_relations_path_still_merges():
    assert PSL2Z.certificate is None
    # S^2 = 1 and (ST)^3 = 1 merge words; without dedup every reduced word is a row
    raw = _build_ball(stand_in(PSL2Z, certificate=()), 8, ENUM_CAP)
    assert len(hf.ball_arrays(PSL2Z, 8)) < len(raw) == 4 * (3 ** 8 - 1) // 2
