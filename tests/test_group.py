"""Word-ball enumeration, element classification, fixed points, presets."""

import gc
import hashlib
import math
import weakref
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import horoflow as hf
from horoflow.group import (DEDUP_TOL, ENUM_CAP, Ball, _build_ball, _canonical_sign, _check_det,
                            _split, ball_arrays, orbit_height)
from horoflow.halfplane import DET_TOL, SIGN_TOL, _near_identity

from conftest import conjugate_spec


def _rotation(theta):
    return hf.Mobius(math.cos(theta), math.sin(theta), -math.sin(theta), math.cos(theta))


# ---------------------------------------------------------------------------
# GroupSpec validation


def test_spec_rejects_identity_generator():
    with pytest.raises(hf.InvalidGenerator):
        hf.GroupSpec((hf.Mobius.identity(),))


def test_spec_needs_mobius_generators():
    with pytest.raises(hf.InvalidGenerator, match="at least one generator"):
        hf.GroupSpec(())
    with pytest.raises(hf.InvalidGenerator, match="is not a Mobius value"):
        hf.GroupSpec(((1.0, 1.0, 0.0, 1.0),))


def test_spec_rejects_bad_word_length():
    with pytest.raises(hf.InvalidGenerator):
        hf.GroupSpec((hf.Mobius(1, 1, 0, 1),), max_word_length=0)
    with pytest.raises(hf.InvalidGenerator):
        hf.GroupSpec((hf.Mobius(1, 1, 0, 1),), max_word_length=True)


def test_a_numpy_integer_is_a_max_word_length():
    gens = (hf.Mobius(1, 2, 0, 1), hf.Mobius(1, 0, 2, 1))
    spec = hf.GroupSpec(gens, max_word_length=np.int64(4))
    plain = hf.GroupSpec(gens, max_word_length=4)
    assert type(spec.max_word_length) is int
    assert spec == plain and hash(spec) == hash(plain)
    assert ball_arrays(spec) is ball_arrays(plain)
    with pytest.raises(hf.InvalidGenerator, match="integer"):
        hf.GroupSpec(gens, max_word_length=4.0)


def test_elliptic_generator_is_constructible_but_flagged():
    # Construction stays permissive; the ball's elliptic rows report the offenders.
    ball = ball_arrays(hf.GroupSpec((_rotation(0.4),), max_word_length=3))
    words = [ball[i].word for i in ball.isometry_rows[1].tolist()]
    assert (1,) in words
    assert ball_arrays(hf.schottky_pair(), 4).isometry_rows[1].size == 0


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
        return tuple(round(x / DEDUP_TOL) for x in (m.a, m.b, m.c, m.d))

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


REFERENCE_BALLS = {"schottky": (hf.schottky_pair(), 6), "flute": (hf.truncated_flute(), 4),
                   "gamma2": (GAMMA2, 6), "psl2z": (PSL2Z, 12), "duplicate": (DUPLICATE, 6)}


@pytest.mark.parametrize("spec, depth", REFERENCE_BALLS.values(), ids=REFERENCE_BALLS.keys())
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
    for arr in (ball.word_lengths, ball.parent, ball.letter):
        assert arr.dtype == np.int32
    assert [e.word for e in hf.enumerate_ball(spec, depth)] == words
    e = ball[len(ball) - 1]
    assert e.word == words[-1] and e.mobius == ref[-1][1]


def test_determinant_drift_is_allowed_per_letter():
    # PSL(2,Z) in non-integer coordinates: 20 rounded products drift det by
    # 2.6e-12, past DET_TOL, on exact products of valid generators.
    h = M(math.sqrt(3.0), 0.0, 0.0, 1.0 / math.sqrt(3.0)) @ M(1.0, 0.37, 0.0, 1.0)
    spec = conjugate_spec(PSL2Z, h)
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
    assert ball[worst].mobius.inverse().inverse() == ball[worst].mobius


def test_builder_rejects_a_row_off_determinant_one():
    # columns (a, b, c, d): the identity passes, diag(2, 1) has det 2
    rows = np.array([[1.0, 2.0], [0.0, 0.0], [0.0, 0.0], [1.0, 1.0]])
    _check_det(rows[:, :1], 1)
    with pytest.raises(ValueError, match=r"matrix \(2\.0, 0\.0, 0\.0, 1\.0\) has det 2\.0, not 1"):
        _check_det(rows, 1)


def test_a_determinant_drift_past_the_tolerance_is_a_typed_error():
    # ROADMAP item 2's reproduction: Gamma(2) conjugated so that sqrt(2) - 1
    # sits at infinity has no certificate, and a row of length 9 drifts
    # 3.9e-11 off det 1, past DET_TOL * 9 of its products
    spec = conjugate_spec(GAMMA2, M(0.0, -1.0, 1.0, -(math.sqrt(2.0) - 1.0)))
    assert spec.certificate is None
    with pytest.raises(hf.CoefficientOverflow, match=r"^matrix \(.*\) has det "
                       r"1\.0000000000392513, not 1, at word length 9$"):
        ball_arrays(spec, 10)


_ENTRY = st.one_of(st.sampled_from([0.0, -0.0, SIGN_TOL, -SIGN_TOL]),
                   st.floats(-SIGN_TOL, SIGN_TOL), st.floats(allow_nan=False))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(cols=st.lists(st.tuples(_ENTRY, _ENTRY, _ENTRY, _ENTRY), min_size=1, max_size=12))
def test_the_array_sign_rule_is_the_mobius_sign_rule(cols):
    # columns of a (4, m) view whose rows are contiguous, as in the builder;
    # entries at or within SIGN_TOL of 0 in a leave the sign to b, c or d
    buf = np.zeros((4, len(cols) + 2))
    p = buf[:, 1:-1]
    p[...] = np.array(cols).T
    _canonical_sign(p)
    want = np.array([[getattr(M._admitted(*col), x) for x in "abcd"] for col in cols]).T
    assert np.array_equal(p.view(np.int64), want.view(np.int64))
    assert not buf[:, [0, -1]].any()


def test_the_psl2z_ball_takes_the_sign_rule_past_a():
    # integer rows with a = 0 (S among them) run the four-entry path of
    # _canonical_sign in the build; det 1 = -bc leaves b nonzero to decide
    ball = ball_arrays(PSL2Z, 12)
    rare = np.abs(ball.a) <= SIGN_TOL
    assert rare.sum() == 23 and (ball.b[rare] > 0.0).all()


PRESET_BALLS = {"schottky": (hf.schottky_pair(), 10), "flute": (hf.truncated_flute(), 6),
                "gamma2": (GAMMA2, 10), "psl2z": (PSL2Z, 20)}


@pytest.mark.parametrize("spec, depth", PRESET_BALLS.values(), ids=PRESET_BALLS.keys())
def test_ball_arrays_are_c_contiguous_and_read_only(spec, depth):
    # np.take(axis=1), the kernels' gather, copies a strided input whole
    # before it gathers: a 600-row gather from schottky d10 costs over 100
    # times more from a [:, 1:] view than from a C-contiguous array. So
    # _coef must be one C-contiguous (4, n) array, and so must any prefix
    # view of a ball grown in place
    ball = ball_arrays(spec, depth)
    assert ball._coef.flags.c_contiguous and ball._coef.shape == (4, len(ball))
    if spec.certificate is not None:  # every row kept: the builder's own buffers
        assert all(x.base is not None for x in (ball._coef, ball.parent, ball.letter))
    arrays = [ball._coef, ball.a, ball.b, ball.c, ball.d, ball.word_lengths, ball.parent,
              ball.letter, ball._level_starts, ball.inf_heights, *ball.isometry_rows,
              *ball.displacement_floor]
    assert not any(x.flags.writeable for x in arrays)


@pytest.mark.parametrize("spec, depth", PRESET_BALLS.values(), ids=PRESET_BALLS.keys())
def test_level_starts_come_from_the_builder(spec, depth):
    # the first row of each word length, then len(ball), as a search of the
    # word lengths finds them, at every depth up to the default one; PSL(2,Z)
    # takes the dedup path, where a level's rows are the new ones only
    for k in range(depth + 1):
        ball = _build_ball(spec, k, ENUM_CAP)
        lengths = ball.word_lengths
        top = int(lengths[-1]) if lengths.size else 0
        want = np.searchsorted(lengths, np.arange(1, top + 2, dtype=lengths.dtype))
        assert ball._level_starts.dtype == np.intp
        assert ball._level_starts.tolist() == want.tolist()
        assert ball._level_starts[-1] == len(ball)


@pytest.mark.parametrize("spec, depth", PRESET_BALLS.values(), ids=PRESET_BALLS.keys())
def test_a_shallower_ball_is_a_prefix_of_the_default_ball(spec, depth):
    # the rows of a depth-d build are the first rows of the default-depth
    # ball, bit for bit, so one ball grown in place can serve every depth by
    # prefix; PSL(2,Z) takes the dedup path
    full = ball_arrays(spec, depth)
    for d in range(depth):
        ball = _build_ball(spec, d, ENUM_CAP)
        n = len(ball)
        assert ball._coef.tobytes() == full._coef[:, :n].tobytes()
        for name in ("word_lengths", "parent", "letter"):
            assert getattr(ball, name).tobytes() == getattr(full, name)[:n].tobytes(), name
        assert ball._level_starts.tolist() == full._level_starts[:d + 1].tolist()


def _digest(*arrays):
    # floats as little-endian float64 and integers as little-endian int64,
    # so that the digest does not depend on the platform's intp or byte order
    h = hashlib.sha256()
    for x in arrays:
        h.update(x.astype("<f8" if x.dtype.kind == "f" else "<i8").tobytes())
    return h.hexdigest()


PINNED_DIGESTS = {
    "schottky": {
        "a": "4d870f901ced03da5d29d240660b85151b73d57c3f6832b744279527a9225bf9",
        "b": "f19d4772d25cb65104f002a51d1918939a8cf401301a3554a41728091a4e7e45",
        "c": "f76a086577e3a0ff95818aeb2e7bdb490e9e202a4d237feca30f08f09ca479f7",
        "d": "c9ce3653e256f3d3fc9155e092d46841a2aedf98901d5e9267b358f6164b7e31",
        "word_lengths": "e61752f2c0da2998d9a46c92138a39c6fd8181223e07e877ab6774c3b98398c0",
        "parent": "1b0588eeb507a9b45d8f8517b9eed03dc6fc309ddae7bed6ef062c1e58b8e4e1",
        "letter": "86498c9de7bbf18c0254f87173df57a6ebec4aa5812a2b4a2b9d4e5fb5d84201",
        "inf_heights": "860825ab0c21ec49716dea6ce19cb9412b90eba986e71d5f089cfd9ca158a844",
        "displacement_floor": "9da538b9867843fe907b15e88f6db3c37d22c6bdc41a9b7f2a7ddb414f836abc",
    },
    "flute": {
        "a": "23ba68ba3c269e8df9548c2508c89519c879fc7109c7cea22e9e269f1ea9d0c8",
        "b": "a315a22b7e87372f2183dfc234143b9294ba363f48ae287b75b1cf7b7d8d1834",
        "c": "420d7a71cfd580c69484b3026a3939e0582c1fd8bd30640a48acb12fbe0fdc58",
        "d": "b68994a0106525e8659438283bf6f0c0bf5643beb1ebeabcf951642f6dcd13e1",
        "word_lengths": "ecea56e1fc08272603c6765e019ef422e6d9ed8ca17964d7bd9acb4c4282bb16",
        "parent": "e8e3d12d94ee8560cd13227b837b76bf4c4a774d78fda2ea4ec2de44e85b72ac",
        "letter": "e103271e2249ada2b14c4787ec0519c6c75911b5ba650330baa3b0d8e128487a",
        "inf_heights": "99323826ab3d792a9f286af7212131c32ba4f1ad3ef87e6f2b4e041d128e3cac",
        "displacement_floor": "f81889c9aa96e94a940772d75d7b7dd01690d88aa418fc527dc6fe0e39c407b4",
    },
    "gamma2": {
        "a": "e46f56af1082b08682d184eba4f7bd783c3ebe63afbd42a2964dbf44a657e202",
        "b": "e934f5a1291f11cd523d7c62facccce37dd1c065db619e719baae710214da675",
        "c": "658297f609860559045779c0600621320689dae5ff5a1a598318b377ac55d99b",
        "d": "226624f9d88c6e5311988ca286ede6a0224b112f2bb4d31ad5f8dcc375b673c6",
        "word_lengths": "e61752f2c0da2998d9a46c92138a39c6fd8181223e07e877ab6774c3b98398c0",
        "parent": "1b0588eeb507a9b45d8f8517b9eed03dc6fc309ddae7bed6ef062c1e58b8e4e1",
        "letter": "86498c9de7bbf18c0254f87173df57a6ebec4aa5812a2b4a2b9d4e5fb5d84201",
        "inf_heights": "97585c1b836ba49ed29fcbc1b157130254355cb0fd6d3782b91ef3f4ce4843d6",
        "displacement_floor": "86d23fa4e4b5053338f480813ea48c585230727b4568f293d1b42e1cb969de5c",
    },
    "psl2z": {
        "a": "9f4e9a8a613132001c3a445aa1ed104c39f18726e278cd6bc02318dc82868641",
        "b": "f3dc1ee1c59a0afb70141d8bf519d7ec56fd1acc72ab9e95b12fb9a1c3e11b00",
        "c": "c4e6d8aea4ea60068ef393d27a32f4125e6cf541f4b809aeb6b50c405dc6fe65",
        "d": "0a0f3518a0f4e04975bd46b8e2140898e9bcaca344b8782ba4c7d840fbfd419b",
        "word_lengths": "d50dd6197086a84313130a60f8e0bb36a0bfe51a19209c9f3a34c3e05feba350",
        "parent": "ca8ef57e5ad1cb5201a8713646c92f85b72aaebf419fb207888cf5d9a3d0e310",
        "letter": "cb4edfb66765ffb10c299fb23da23cac8a5288aeb72520fef6e9f1b3a3b67dcf",
        "inf_heights": "4f1f6032d46eda942cf458ceb9f7b610d11606f7d3d7a1a2b086c2908110c6fd",
        "displacement_floor": "7b171b7eaa7dd7a9a976c4664286d76fe59acb0430055f323a01cfcfba7c2cb3",
    },
}


@pytest.mark.parametrize("name", PRESET_BALLS)
def test_the_preset_balls_keep_their_bytes(name):
    # byte-identical output for a fixed seed starts at the ball: these are
    # the builder's bytes before its in-place rewrite, on NumPy 1.24 and 2
    spec, depth = PRESET_BALLS[name]
    ball = ball_arrays(spec, depth)
    got = {x: _digest(getattr(ball, x)) for x in PINNED_DIGESTS[name] if x != "displacement_floor"}
    got["displacement_floor"] = _digest(*ball.displacement_floor)
    assert got == PINNED_DIGESTS[name]


def test_ball_too_large_counts_deduped_elements():
    # PSL(2,Z) merges about half of its candidate products; the cap counts
    # the kept elements only.
    n = len(ball_arrays(PSL2Z, 12))
    assert len(hf.group._build_ball(PSL2Z, 12, n)) == n
    with pytest.raises(hf.BallTooLarge):
        hf.group._build_ball(PSL2Z, 12, n - 1)


@pytest.mark.parametrize("collide", [
    lambda cells: np.zeros(cells.shape[1], dtype=np.uint64),
    lambda cells: cells[0] & 0xFF,
    lambda cells: (cells[1] ^ cells[2]) >> 50,
], ids=["constant", "low-byte-of-a", "top-bits-of-b-xor-c"])
def test_dedup_is_exact_under_hash_collisions(monkeypatch, collide):
    # the hash only orders rows; ties are settled on the full cells
    build = hf.group._build_ball
    want = {k: build(spec, depth, hf.group.ENUM_CAP) for k, (spec, depth) in REFERENCE_BALLS.items()}
    monkeypatch.setattr(hf.group, "_cell_hash", collide)
    for k, (spec, depth) in REFERENCE_BALLS.items():
        got = build(spec, depth, hf.group.ENUM_CAP)
        for name in ("a", "b", "c", "d", "word_lengths", "parent", "letter"):
            x, y = getattr(got, name), getattr(want[k], name)
            assert x.dtype == y.dtype and x.tobytes() == y.tobytes(), (k, name)


def test_ball_cap_counts_deduped_elements_under_a_constant_hash(monkeypatch):
    n = len(ball_arrays(PSL2Z, 12))
    monkeypatch.setattr(hf.group, "_cell_hash", lambda cells: np.zeros(cells.shape[1], np.uint64))
    assert len(hf.group._build_ball(PSL2Z, 12, n)) == n
    with pytest.raises(hf.BallTooLarge):
        hf.group._build_ball(PSL2Z, 12, n - 1)


def test_elliptic_scan_matches_scalar_classification():
    # PSL(2,Z) has the elliptic S (order 2) and ST (order 3)
    ball = hf.enumerate_ball(PSL2Z, 6)
    want = [e for e in ball if hf.classify_isometry(e) is hf.IsometryClass.ELLIPTIC]
    assert [ball[i] for i in ball.isometry_rows[1].tolist()] == want
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
    assert ball_arrays(spec).isometry_rows[1].size == 6


@pytest.mark.parametrize("spec, depth", REFERENCE_BALLS.values(), ids=REFERENCE_BALLS.keys())
def test_heights_at_infinity_and_their_order_are_memoized_and_read_only(spec, depth):
    ball = ball_arrays(spec, depth)
    heights = ball.inf_heights
    assert ball.inf_heights is heights
    with pytest.raises(ValueError):
        heights[0] = 0
    fresh = orbit_height(ball, hf.INFINITY)
    assert fresh.dtype == heights.dtype and fresh.tobytes() == heights.tobytes()
    # the public height pass still hands out a fresh array of the caller's own
    assert fresh.flags.writeable and fresh is not orbit_height(ball, hf.INFINITY)
    fresh[:] = -1.0
    assert heights.tobytes() == orbit_height(ball, hf.INFINITY).tobytes()


def _subtracted_heights(ball, x):
    # 1/((a - xi c)^2 + (b - xi d)^2) with xi's split, as plain subtractions
    head, tail = _split(x)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        u = (ball.a - head * ball.c) - tail * ball.c
        v = (ball.b - head * ball.d) - tail * ball.d
        return np.fmax(1.0 / (u * u + v * v), 0.0)


@pytest.mark.parametrize("spec, depth", REFERENCE_BALLS.values(), ids=REFERENCE_BALLS.keys())
def test_heights_at_a_finite_point_are_the_subtractions_bit_for_bit(spec, depth):
    ball = ball_arrays(spec, depth)
    rows = [0, len(ball) // 2, len(ball) - 1]
    for x in (0.0, -0.0, 0.37, -1.3, math.sqrt(2.0) - 1.0, 1e8 + 0.1, -3e15, 1e154, 1e200,
              -1e300, 1.7e308):
        got = orbit_height(ball, hf.bp(x))
        assert np.array_equal(got.view(np.uint64), _subtracted_heights(ball, x).view(np.uint64))
        for i in rows:
            assert orbit_height(ball[i].mobius, hf.bp(x)).hex() == float(got[i]).hex()


def test_a_ball_dies_with_its_memo_entry():
    # the isometry rows and the heights at infinity live on the ball, so a
    # query keeps no ball alive
    spec = conjugate_spec(hf.schottky_pair(max_word_length=4), hf.Mobius(1.0, 0.25, 0.0, 1.0))
    hf.classify_boundary_point(spec, 0.37)
    hf.classify_boundary_point(spec, hf.INFINITY)
    hf.orbit_heights(spec, hf.INFINITY)
    hf.run_dichotomy(spec, band=(0.1, 10.0))
    ref = weakref.ref(ball_arrays(spec))
    assert {"isometry_rows", "inf_heights"} <= vars(ref()).keys()
    hf.group._cached_ball.cache_clear()
    gc.collect()
    assert ref() is None


def test_overflowing_coefficients_raise_domain_error():
    # (1e30)^10 = 1e300 is finite, but its dedup cell 1e309 is not.
    with pytest.raises(hf.CoefficientOverflow):
        hf.enumerate_ball(hf.cyclic_hyperbolic(1e60), 10)
    assert issubclass(hf.CoefficientOverflow, ValueError)


def test_depth_validation(parabolic_spec):
    assert len(hf.enumerate_ball(parabolic_spec, 0)) == 0
    with pytest.raises(ValueError):
        hf.enumerate_ball(parabolic_spec, -1)


DEPTH_CALLS = {
    "ball_arrays": ball_arrays,
    "classify": lambda spec, depth: hf.classify_boundary_point(spec, 0.3, depth=depth),
    "orbit_heights": lambda spec, depth: hf.orbit_heights(spec, 0.3, depth=depth),
    "inj": lambda spec, depth: hf.injectivity_profile(spec, t_max=1.0, depth=depth),
}


@pytest.mark.parametrize("depth", [2.5, 2.0, True, "2"])
@pytest.mark.parametrize("call", DEPTH_CALLS.values(), ids=DEPTH_CALLS.keys())
def test_a_depth_must_be_an_integer(schottky_spec, call, depth):
    with pytest.raises(ValueError, match="integer"):
        call(schottky_spec, depth)


def test_a_numpy_integer_is_a_depth(schottky_spec):
    for call in DEPTH_CALLS.values():
        call(schottky_spec, np.int64(3))
    assert ball_arrays(schottky_spec, np.int64(3)) is ball_arrays(schottky_spec, 3)
    ev = hf.classify_boundary_point(schottky_spec, 0.3, depth=np.int32(3))
    assert type(ev.depth) is int and ev.depth == 3


def test_enumerate_ball_is_the_memoized_ball(schottky_spec):
    assert hf.enumerate_ball(schottky_spec, 3) is ball_arrays(schottky_spec, 3)
    assert hf.enumerate_ball(schottky_spec) is ball_arrays(schottky_spec)


def test_a_warm_ball_builds_no_element(schottky_spec, monkeypatch):
    made = []

    class Counting(hf.GroupElement):
        def __init__(self, *args, **kwargs):
            made.append(1)
            super().__init__(*args, **kwargs)

    ball_arrays(schottky_spec, 5)
    monkeypatch.setattr(hf.group, "GroupElement", Counting)
    ball = hf.enumerate_ball(schottky_spec, 5)
    assert len(made) == 0
    assert isinstance(ball[3], Counting) and len(made) == 1


def test_a_ball_is_the_sequence_of_its_elements(schottky_spec):
    ball = hf.enumerate_ball(schottky_spec, 3)
    n = len(ball)
    assert ball[-1] == ball[n - 1] and ball[-n] == ball[0]
    assert ball[np.int64(7)] == ball[7] and ball[np.int64(-2)] == ball[n - 2]
    for i in (n, -n - 1):
        with pytest.raises(IndexError):
            ball[i]
    assert ball[:7] == tuple(list(ball)[:7])
    assert ball[5:1:-2] == (ball[5], ball[3])
    assert list(ball) == [ball[i] for i in range(n)]
    assert ball[n - 1].word == ball.word(n - 1) and ball[n - 1] in ball


def test_a_negative_word_index_counts_from_the_end(flute_spec):
    ball = ball_arrays(flute_spec, 3)
    n = len(ball)
    assert n == 186
    assert ball.word(-1) == ball.word(n - 1) == ball[-1].word == (-3, -3, -3)
    assert ball.word(-n) == ball.word(0) == ball[-n].word
    for i in (n, -n - 1):
        with pytest.raises(IndexError):
            ball.word(i)


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


def test_fixed_points_of_the_identity_and_of_a_parabolic_with_c_nonzero():
    with pytest.raises(ValueError, match="the identity fixes every boundary point"):
        hf.fixed_points(hf.Mobius.identity())
    assert hf.fixed_points(hf.Mobius(1, 0, 1, 1)) == (hf.bp(0.0), hf.bp(0.0))


def test_identity_test_is_one_rule_for_an_element_and_for_ball_rows():
    tol = 1e-9
    rows = np.array([[1.0, 0.0, 0.0, 1.0], [1.0 + tol / 2, -tol / 2, tol, 1.0 - tol / 2],
                     [1.0, 2 * tol, 0.0, 1.0], [1.0, 1.0, 0.0, 1.0]])
    mask = _near_identity(*rows.T, tol)
    assert mask.tolist() == [_near_identity(*row, tol) for row in rows.tolist()]
    assert mask.tolist() == [True, True, False, False]
    assert [hf.Mobius._admitted(*row).is_identity(tol) for row in rows.tolist()] == mask.tolist()


def test_fixed_points_keep_both_roots_where_the_trace_squared_overflows():
    # tr^2 overflows, yet both roots of c x^2 + (d - a) x - b are floats
    a, b, c, d = 1e200, 1.0, -1.0, 0.0
    roots = [p.value for p in hf.fixed_points(hf.Mobius(a, b, c, d))]
    assert roots == [-1e200, -1e-200]
    a, b, c, d = map(Fraction, (a, b, c, d))
    for x in map(Fraction, roots):
        scale = abs(c) * x * x + abs(d - a) * abs(x) + abs(b)
        assert abs(c * x * x + (d - a) * x - b) <= Fraction(1, 10 ** 15) * scale


def test_fixed_points_elliptic_raises():
    with pytest.raises(hf.EllipticElement):
        hf.fixed_points(_rotation(0.7))


def test_truncated_flute_needs_lengths_for_disjoint_circles():
    with pytest.raises(hf.InvalidGenerator, match="at least one translation length"):
        hf.truncated_flute(lengths=())
    with pytest.raises(hf.InvalidGenerator, match="too short for disjoint isometric circles"):
        hf.truncated_flute(lengths=(0.5, 0.5))


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


_CIRCLES = ((-3.0, 0.9), (-1.0, 0.9), (1.0, 0.9), (3.0, 0.9))
_PRESET_PARAMETERS = {
    "shift": hf.cyclic_parabolic,
    "factor": hf.cyclic_hyperbolic,
    "circle-center": lambda v: hf.schottky_pair(((v, 0.9),) + _CIRCLES[1:]),
    "circle-radius": lambda v: hf.schottky_pair(_CIRCLES[:3] + ((3.0, v),)),
    "length": lambda v: hf.hyperbolic_element(0.0, 1.0, v),
    "neg": lambda v: hf.hyperbolic_element(v, 1.0, 1.0),
    "pos": lambda v: hf.hyperbolic_element(0.0, v, 1.0),
    "lengths": lambda v: hf.truncated_flute((2.0, v)),
    "spacing": lambda v: hf.truncated_flute(spacing=v),
}
# a translation by 1e300, or a dilation by it, is a valid generator
_VALID_AT_1E300 = ("shift", "factor")


@pytest.mark.parametrize("param, value", [
    (param, value) for param in _PRESET_PARAMETERS
    for value in (math.nan, math.inf, -math.inf, 1e300, True)
    if not (value == 1e300 and param in _VALID_AT_1E300)])
def test_presets_refuse_bad_parameters_as_invalid_generators(param, value):
    with pytest.raises(hf.InvalidGenerator):
        _PRESET_PARAMETERS[param](value)


@pytest.mark.parametrize("call", [
    lambda: hf.schottky_pair(((-3e200, 0.9),) + _CIRCLES[1:]),
    lambda: hf.schottky_pair(((3e200, 0.9),) + _CIRCLES[1:]),
    lambda: hf.schottky_pair(_CIRCLES[:3]),
    lambda: hf.schottky_pair((1.0, 2.0, 3.0, 4.0)),
    lambda: hf.schottky_pair(3.0),
    lambda: hf.truncated_flute(3.0),
    lambda: hf.truncated_flute(("2.0",)),
    lambda: hf.truncated_flute((1e-300,)),
    lambda: hf.cyclic_hyperbolic(1.0),
], ids=["center--3e200", "center-3e200", "three-circles", "flat-circles", "circles-number",
        "lengths-number", "lengths-str", "length-1e-300", "factor-1"])
def test_presets_refuse_bad_shapes_as_invalid_generators(call):
    with pytest.raises(hf.InvalidGenerator):
        call()


def test_presets_take_a_translation_or_dilation_by_1e300():
    assert hf.cyclic_parabolic(1e300).generators[0].b == 1e300
    assert hf.cyclic_hyperbolic(1e300).generators[0].a == 1e150


def test_conjugate_spec_moves_the_whole_ball(schottky_spec, rng):
    h = hf.Mobius(1.0, 0.7, 0.0, 1.0) @ hf.Mobius(2.0, 0.0, 0.0, 0.5)
    conj = conjugate_spec(schottky_spec, h)
    ball = hf.enumerate_ball(schottky_spec, 2)
    cball = hf.enumerate_ball(conj, 2)
    assert [e.word for e in cball] == [e.word for e in ball]
    hi = h.inverse()
    for e, ce in zip(ball, cball):
        want = h @ e.mobius @ hi
        got = ce.mobius
        assert max(abs(got.a - want.a), abs(got.b - want.b),
                   abs(got.c - want.c), abs(got.d - want.d)) < 1e-9
