"""Group-file parsing and the command-line surface (run as subprocesses)."""

import contextlib
import io
import json
import math
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import horoflow as hf
from horoflow import cli, verify
from horoflow.flows import BASE_TANGENT, MAX_SAMPLES, orbit_points, sample_count
from horoflow.group import _cached_ball
from horoflow.groupio import spec_to_data


def _write_family(path, kind, **params):
    data = {"family": {"kind": kind}}
    data["family"].update(params)
    path.write_text(json.dumps(data))
    return str(path)


# ---------------------------------------------------------------------------
# parsing and serialization


def test_round_trip_preserves_spec(tmp_path, schottky_spec):
    p = tmp_path / "group.json"
    hf.dump_group_spec(schottky_spec, p)
    back = hf.load_group_spec(p)
    assert back.max_word_length == schottky_spec.max_word_length
    for g, h in zip(back.generators, schottky_spec.generators):
        assert (g.a, g.b, g.c, g.d) == (h.a, h.b, h.c, h.d)


def test_family_entries_match_presets(tmp_path):
    p = _write_family(tmp_path / "f.json", "cyclic-hyperbolic", **{"lambda": 9.0})
    spec = hf.load_group_spec(p)
    (g,) = spec.generators
    assert (g.a, g.d) == (3.0, 1.0 / 3.0)
    p = _write_family(tmp_path / "g.json", "cyclic-parabolic", shift=2.0)
    (g,) = hf.load_group_spec(p).generators
    assert g.b == 2.0
    p = _write_family(tmp_path / "h.json", "flute-truncated")
    assert hf.load_group_spec(p).max_word_length == 6


def test_family_files_pass_their_spec_keys_to_the_preset(tmp_path):
    p = tmp_path / "f.json"
    p.write_text(json.dumps({"family": {"kind": "flute-truncated", "lengths": [2.0, 2.5]},
                             "max_word_length": 4}))
    assert hf.load_group_spec(p) == hf.truncated_flute((2.0, 2.5), max_word_length=4)
    p.write_text(json.dumps({"family": {"kind": "flute-truncated"}, "max_word_length": 3}))
    assert hf.load_group_spec(p) == hf.truncated_flute(max_word_length=3)


def test_generator_matrices_accept_nested_and_flat(tmp_path):
    nested = {"generators": [[[1.0, 1.0], [0.0, 1.0]]]}
    flat = {"generators": [[2.0, 0.0, 0.0, 0.5]]}
    assert hf.parse_group_spec(nested).generators[0].b == 1.0
    assert hf.parse_group_spec(flat).generators[0].a == 2.0


def test_non_unit_determinant_is_rejected_with_advice():
    with pytest.raises(hf.InvalidGenerator) as exc:
        hf.parse_group_spec({"generators": [[2.0, 0.0, 0.0, 1.0]]})
    assert str(exc.value) == ("generators[0]: matrix (2.0, 0.0, 0.0, 1.0) has det 2.0, not 1; "
                              "rescale the matrix yourself")


@pytest.mark.parametrize("entry", [math.nan, math.inf, -math.inf])
def test_non_finite_generator_entries_are_invalid_generators(tmp_path, entry):
    # named without the advice to rescale, which cannot mend them
    for m, name in (([[entry, 0.0], [0.0, 1.0]], "a"), ([1.0, entry, 0.0, 1.0], "b")):
        with pytest.raises(hf.InvalidGenerator) as exc:
            hf.parse_group_spec({"generators": [m]})
        assert str(exc.value) == f"generators[0]: {name} must be finite, got {entry!r}"
    # json reads NaN and Infinity from a file
    p = tmp_path / "g.json"
    p.write_text(json.dumps({"generators": [[[entry, 0.0], [0.0, 1.0]]]}))
    with pytest.raises(hf.InvalidGenerator) as exc:
        hf.load_group_spec(p)
    assert str(exc.value) == f"generators[0]: a must be finite, got {entry!r}"


@pytest.mark.parametrize("data", [
    {"generators": [[1, 1, 0, 1]], "max_word_length": True},
    {"generators": [[True, 1, 0, True]]},
    {"generators": [[["1", 1], [0, 1]]]},
    {"family": {"kind": "flute-truncated", "lengths": "345"}},
    {"family": {"kind": "cyclic-parabolic", "shift": True}},
    {"family": {"kind": "cyclic-hyperbolic", "lambda": "9"}},
], ids=["max_word_length-true", "entries-true", "entry-str", "lengths-str", "shift-true",
        "lambda-str"])
def test_group_file_numbers_are_json_numbers(data):
    with pytest.raises(hf.ParseError):
        hf.parse_group_spec(data)


@pytest.mark.parametrize("kind, preset", [
    ("cyclic-parabolic", hf.cyclic_parabolic), ("cyclic-hyperbolic", hf.cyclic_hyperbolic),
    ("schottky-pair", hf.schottky_pair), ("flute-truncated", hf.truncated_flute)])
def test_a_family_without_parameters_is_its_preset(kind, preset):
    assert hf.parse_group_spec({"family": {"kind": kind}}) == preset()


def test_parse_errors():
    with pytest.raises(hf.ParseError):
        hf.parse_group_spec({})  # neither generators nor family
    with pytest.raises(hf.ParseError):
        hf.parse_group_spec({
            "generators": [[1.0, 1.0, 0.0, 1.0]],
            "family": {"kind": "cyclic-parabolic"},
        })
    with pytest.raises(hf.ParseError):
        hf.parse_group_spec({"generators": [[1, 1, 0, 1]], "colour": "red"})
    with pytest.raises(hf.ParseError):
        hf.parse_group_spec({"family": {"kind": "lattice"}})
    with pytest.raises(hf.ParseError):
        hf.parse_group_spec({"family": {"kind": "cyclic-parabolic", "spin": 3}})
    with pytest.raises(hf.ParseError):
        hf.parse_group_spec({"generators": [[1, 1, 0, 1]], "max_word_length": True})


def test_load_rejects_malformed_json(tmp_path):
    p = tmp_path / "broken.json"
    p.write_text("{not json")
    with pytest.raises(hf.ParseError):
        hf.load_group_spec(p)


def test_load_rejects_json_nested_too_deeply(tmp_path):
    p = tmp_path / "deep.json"
    p.write_text('{"generators": ' + "[" * 100_000 + "]" * 100_000 + "}")
    with pytest.raises(hf.ParseError):
        hf.load_group_spec(p)


def test_load_rejects_a_file_that_is_not_utf8(tmp_path):
    p = tmp_path / "utf16.json"
    p.write_bytes(b"\xff\xfe" + '{"generators": [[1, 1, 0, 1]]}'.encode("utf-16-le"))
    with pytest.raises(hf.ParseError, match="not UTF-8") as info:
        hf.load_group_spec(p)
    assert str(p) in str(info.value)
    r = _cli("classify", "--group", str(p), "--point", "0")
    assert r.returncode == 1 and r.stdout == ""
    assert r.stderr.startswith(f"horoflow: error: {p}: ") and "Traceback" not in r.stderr


def test_unknown_keys_of_mixed_types_are_a_parse_error(tmp_path):
    # the dedup grid is a constant: a file that sets it is refused
    grid = {"generators": [[1, 1, 0, 1]], "dedup_tol": 1e-9}
    for data in ({"generators": [[1, 1, 0, 1]], 1: 2, "x": 3},
                 {"family": {"kind": "cyclic-parabolic", 1: 2, "x": 3}}, grid):
        with pytest.raises(hf.ParseError, match="unknown"):
            hf.parse_group_spec(data)
    p = tmp_path / "g.json"
    p.write_text(json.dumps(grid))
    r = _cli("classify", "--group", str(p), "--point", "0")
    assert r.returncode == 1 and r.stdout == ""
    assert r.stderr.startswith("horoflow: error: ") and "unknown keys" in r.stderr


def test_spec_to_data_omits_default_dedup(parabolic_spec):
    data = spec_to_data(parabolic_spec)
    assert set(data) == {"generators", "max_word_length"}
    assert data["generators"] == [[[1.0, 1.0], [0.0, 1.0]]]


# what json can decode: numbers include huge integers, NaN and +-inf
_NUMBER = st.one_of(
    st.sampled_from([0, 1, -1, 2, 0.5, math.nan, math.inf, -math.inf, 10 ** 400]),
    st.integers(), st.floats())
_JSON = st.recursive(
    st.one_of(st.none(), st.booleans(), _NUMBER, st.text(max_size=6)),
    lambda kids: st.one_of(st.lists(kids, max_size=4),
                           st.dictionaries(st.text(max_size=6), kids, max_size=3)),
    max_leaves=8)
_MATRIX = st.one_of(
    st.sampled_from([[[1, 1], [0, 1]], [2.0, 0.0, 0.0, 0.5]]),
    st.lists(_NUMBER, min_size=4, max_size=4),
    st.lists(st.lists(_NUMBER, min_size=2, max_size=2), min_size=2, max_size=2),
    _JSON)
_FAMILY = st.fixed_dictionaries(
    {"kind": st.sampled_from(["cyclic-parabolic", "cyclic-hyperbolic", "schottky-pair",
                              "flute-truncated", "lattice"])},
    optional={"shift": _NUMBER, "lambda": _NUMBER, "spacing": _NUMBER,
              "lengths": st.one_of(st.lists(_NUMBER, max_size=4), _JSON),
              "circles": st.one_of(st.lists(st.lists(_NUMBER, min_size=2, max_size=2),
                                            min_size=4, max_size=4), _JSON),
              "spin": _JSON})
_OPTIONAL = {"max_word_length": st.one_of(st.integers(), _JSON),
             "colour": _JSON}
_SPEC = st.one_of(
    st.fixed_dictionaries({"generators": st.lists(_MATRIX, min_size=1, max_size=3)},
                          optional=_OPTIONAL),
    st.fixed_dictionaries({"family": _FAMILY}, optional=_OPTIONAL),
    st.fixed_dictionaries({}, optional=dict(_OPTIONAL, generators=_JSON, family=_JSON)),
    _JSON)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(data=_SPEC)
@example(data={"generators": [[1, 1, 0, math.nan]]})
@example(data={"generators": [[[math.inf, 0], [0, 1]]]})
@example(data={"generators": [[10 ** 400, 0, 0, 1]]})
@example(data={"family": {"kind": "cyclic-parabolic", "shift": 10 ** 400}})
@example(data={"family": {"kind": "flute-truncated", "lengths": [1e300]}})
def test_parse_group_spec_returns_a_spec_or_a_domain_error(data):
    try:
        spec = hf.parse_group_spec(data)
    except hf.HoroflowError:
        return
    assert isinstance(spec, hf.GroupSpec)
    assert all(math.isfinite(x) for g in spec.generators for x in (g.a, g.b, g.c, g.d))


# ---------------------------------------------------------------------------
# CLI


def _cli(*args, **kw):
    return subprocess.run(
        [sys.executable, "-m", "horoflow.cli", *args],
        capture_output=True, text=True, timeout=120, **kw,
    )


@pytest.fixture(scope="module")
def group_files(tmp_path_factory):
    d = tmp_path_factory.mktemp("groups")
    files = {}
    for name, kind in [
        ("parabolic", "cyclic-parabolic"),
        ("hyperbolic", "cyclic-hyperbolic"),
        ("schottky", "schottky-pair"),
    ]:
        p = d / f"{name}.json"
        p.write_text(json.dumps({"family": {"kind": kind}}))
        files[name] = str(p)
    bad = d / "bad.json"
    bad.write_text(json.dumps({"generators": [[2.0, 0.0, 0.0, 1.0]]}))
    files["bad"] = str(bad)
    return files


def test_cli_verify_passes_and_is_deterministic():
    a = _cli("verify", "--samples", "300", "--seed", "7")
    b = _cli("verify", "--samples", "300", "--seed", "7")
    assert a.returncode == 0
    assert a.stdout == b.stdout
    report = json.loads(a.stdout)
    assert report["passed"] is True
    assert {"matching", "alternative"} <= set(report["substitution"])


def test_cli_classify(group_files):
    a = _cli("classify", "--group", group_files["parabolic"], "--point", "inf")
    assert a.returncode == 0
    out = json.loads(a.stdout)["result"]
    assert out["verdict"] == "parabolic"
    assert out["parabolic_witness"]["word"] == [1]
    b = _cli("classify", "--group", group_files["parabolic"], "--point", "inf")
    assert a.stdout == b.stdout


def _horoflow(*names):
    return tuple(f"horoflow.{n}" for n in names)


@pytest.mark.parametrize("argv, absent", [
    (["--version"], ("numpy", *_horoflow("dichotomy", "flows", "group", "groupio",
                                          "halfplane", "limits", "verify"))),
    (["classify", "--group", "schottky", "--point", "7.207419"],
     _horoflow("dichotomy", "flows", "verify")),
    (["inj", "--group", "schottky", "--tmax", "1"], _horoflow("dichotomy", "limits", "verify")),
    (["orbit", "--flow", "horocycle", "--end", "1"], _horoflow("dichotomy", "limits", "verify")),
    (["diagnose", "--group", "parabolic"], _horoflow("flows", "limits", "verify")),
    # verify loads horoflow, cli, errors, halfplane and verify alone
    (["verify", "--samples", "1000"], _horoflow("dichotomy", "flows", "group", "groupio",
                                                 "limits")),
], ids=["version", "classify", "inj", "orbit", "diagnose", "verify"])
def test_cold_calls_do_not_import_numpy_ma(group_files, argv, absent):
    # each subcommand imports only its own modules; np.unique would import
    # numpy.ma (NumPy 2), about 13 ms of a cold call, and fractions pulls in
    # decimal (the ping-pong certificate is decided in plain integers)
    argv = [group_files.get(a, a) for a in argv]
    code = ("import sys\nfrom horoflow.cli import main\n"
            "try:\n    sys.exit(main(sys.argv[1:]))\n"
            "finally:\n    print(*sys.modules, file=sys.stderr)")
    r = subprocess.run([sys.executable, "-c", code, *argv],
                       capture_output=True, text=True, timeout=120)
    assert r.returncode == 0
    (loaded,) = r.stderr.splitlines()  # nothing else on stderr
    assert not {"numpy.ma", "fractions", "decimal", *absent} & set(loaded.split())


def test_cli_classify_far_point_is_quiet(group_files):
    # (a - xi c)^2 overflows past |xi| ~ 1e154: the height is 1/inf = 0, and
    # no raw NumPy warning may reach stderr
    r = _cli("classify", "--group", group_files["schottky"], "--point", "1e300",
             "--depth", "4")
    assert r.returncode == 0
    assert r.stderr == ""
    assert json.loads(r.stdout)["result"]["sup_height"] == 0.0


def test_cli_classify_height_past_the_float_range_is_quiet(tmp_path):
    # c^2 + d^2 of the first generator underflows to 0: its height is inf
    p = tmp_path / "under.json"
    p.write_text(json.dumps({"generators": [[[0, -1e170], [1e-170, 0]], [[1, 2], [0, 1]]],
                             "max_word_length": 3}))
    r = _cli("classify", "--group", str(p), "--point", "inf")
    assert (r.returncode, r.stderr) == (0, "")
    assert '"sup_height": "inf"' in r.stdout
    r = _cli("diagnose", "--group", str(p))
    assert (r.returncode, r.stderr) == (0, "")


def test_cli_classify_rejects_a_nan_tol(group_files):
    r = _cli("classify", "--group", group_files["parabolic"], "--point", "0.5", "--tol", "nan")
    assert r.returncode == 1
    assert r.stdout == ""
    assert "Traceback" not in r.stderr and "tol" in r.stderr


def test_cli_orbit_csv(tmp_path):
    out = tmp_path / "orbit.csv"
    r = _cli("orbit", "--flow", "horocycle", "--start", "0", "--end", "1",
             "--step", "0.5", "--out", str(out))
    assert r.returncode == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "s_or_t,re,im"
    assert len(lines) == 4
    first = lines[1].split(",")
    assert float(first[1]) == 0.0 and float(first[2]) == 1.0
    # every row is the orbit point, each value at 17 significant digits
    for flow, start, end, step in (("horocycle", 0.0, 1.0, 0.5), ("geodesic", -0.3, 0.7, 0.1)):
        r = _cli("orbit", "--flow", flow, "--start", repr(start), "--end", repr(end),
                 "--step", repr(step), "--out", str(out))
        assert r.returncode == 0
        times = start + step * np.arange(sample_count(end - start, step))
        pts = orbit_points(BASE_TANGENT, flow, times)
        want = ["s_or_t,re,im"] + ["%.17g,%.17g,%.17g" % (float(t), float(z.real), float(z.imag))
                                   for t, z in zip(times, pts)]
        assert out.read_text() == "\n".join(want) + "\n"


def test_cli_orbit_validates_range():
    r = _cli("orbit", "--flow", "geodesic", "--start", "2", "--end", "1")
    assert r.returncode == 1
    assert r.stderr.strip()


def test_cli_inj_writes_csv_and_summary(group_files, tmp_path):
    out = tmp_path / "prof.csv"
    r = _cli("inj", "--group", group_files["parabolic"], "--out", str(out))
    assert r.returncode == 0
    summary = json.loads(r.stdout)
    assert summary["rows"] == 101
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "t,inj_estimate"
    assert len(lines) == 102
    t, v = (float(x) for x in lines[-1].split(","))
    assert t == 10.0
    assert v == pytest.approx(math.asinh(math.exp(-10.0) / 2.0), rel=1e-9)
    assert summary["liminf_estimate"] == pytest.approx(v, rel=1e-12)


# peak RSS of two `horoflow inj` calls on the schottky file argv[1] at depth
# 6, over the default grid and over 200,001 samples on [0, 10], in KiB on
# Linux (bytes on macOS). They run as grandchildren of this test: a process
# inherits the peak of the one it was started from, here the small driver
# and not pytest
_INJ_RSS_CHILD = """
import resource, subprocess, sys
peaks = []
for step in ("0.1", "0.00005"):
    subprocess.run([sys.executable, "-m", "horoflow.cli", "inj", "--group", sys.argv[1],
                    "--depth", "6", "--step", step, "--out", sys.argv[2]],
                   stdout=subprocess.DEVNULL, check=True)
    peaks.append(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
print(*peaks)
"""


def test_cli_inj_memory_grows_by_under_100_bytes_a_sample(group_files, tmp_path):
    # the CSV is formatted in chunks of rows, so past the profile's own few
    # arrays a long grid holds no text for every row at once (one string per
    # row, then their join, took about 210 bytes a sample)
    pytest.importorskip("resource")
    out = tmp_path / "prof.csv"
    r = subprocess.run([sys.executable, "-c", _INJ_RSS_CHILD, group_files["schottky"], str(out)],
                       capture_output=True, text=True, timeout=300)
    assert r.returncode == 0, r.stderr
    short, long = map(int, r.stdout.split())
    n = 200_001
    with out.open() as fh:
        assert sum(1 for _ in fh) == n + 1
    unit = 1 if sys.platform == "darwin" else 1024
    assert (long - short) * unit < 100 * n


def test_cli_diagnose_verdicts(group_files):
    r = _cli("diagnose", "--group", group_files["parabolic"])
    assert r.returncode == 0
    out = json.loads(r.stdout)
    assert out["verdict"]["kind"] == "recurrence-evidence"
    # not in the limit set from this base point: honest shrug, still exit 0
    r2 = _cli("diagnose", "--group", group_files["schottky"])
    assert r2.returncode == 0
    assert json.loads(r2.stdout)["verdict"]["kind"] == "inconclusive"
    r3 = _cli("diagnose", "--group", group_files["parabolic"])
    assert r.stdout == r3.stdout


def test_cli_diagnose_coefficient_keys(group_files):
    r = _cli("diagnose", "--group", group_files["parabolic"])
    assert r.returncode == 0
    assert list(json.loads(r.stdout)["coefficients"]) == [
        "a_abs", "c", "d", "a_diverging", "c_limit_zero", "d_limit", "min_cd_norm",
        "cd_bound_ok"]


def test_cli_exit_codes(group_files, tmp_path):
    assert _cli("classify", "--group", group_files["bad"], "--point", "0").returncode == 1
    missing = str(tmp_path / "nope.json")
    assert _cli("classify", "--group", missing, "--point", "0").returncode == 2
    assert _cli("classify", "--group", group_files["parabolic"]).returncode == 2
    assert _cli("frobnicate").returncode == 2
    assert _cli().returncode == 2


def test_cli_unreadable_paths_exit_2(group_files, tmp_path):
    for argv in (["--group", str(tmp_path)],
                 ["--group", group_files["parabolic"], "--out", str(tmp_path)]):
        r = _cli("classify", "--point", "0.5", *argv)
        assert r.returncode == 2
        assert "Traceback" not in r.stderr and r.stderr.startswith("horoflow: error:")


@pytest.mark.parametrize("start", ["700", "-760"])
def test_cli_geodesic_orbit_past_the_float_range_is_an_error(start):
    end = str(float(start) + 20.0)
    r = subprocess.run([sys.executable, "-W", "error", "-m", "horoflow.cli", "orbit",
                        "--flow", "geodesic", "--start", start, "--end", end],
                       capture_output=True, text=True, timeout=120)
    assert r.returncode == 1 and r.stdout == ""
    assert "Traceback" not in r.stderr and "float range" in r.stderr


@pytest.mark.parametrize("argv, named", [
    (["orbit", "--flow", "horocycle", "--start", "0", "--end", "1", "--step", "inf"],
     ("step", "inf")),
    (["inj", "--group", "{parabolic}", "--step", "inf"], ("step", "inf")),
    (["verify", "--seed", "-1"], ("seed", "-1")),
    (["verify", "--tol", "nan"], ("tol", "nan")),
    (["verify", "--tol", "-1"], ("tol", "-1")),
    (["diagnose", "--group", "{parabolic}", "--band", "0.5", "inf"], ("height band", "inf")),
], ids=["orbit-step-inf", "inj-step-inf", "verify-seed--1", "verify-tol-nan", "verify-tol--1",
        "diagnose-band-inf"])
def test_cli_bad_inputs_are_named_before_any_output(group_files, argv, named):
    r = subprocess.run([sys.executable, "-W", "error", "-m", "horoflow.cli",
                        *(a.format(**group_files) for a in argv)],
                       capture_output=True, text=True, timeout=120)
    assert r.returncode == 1 and r.stdout == ""
    assert r.stderr.startswith("horoflow: error:") and "Traceback" not in r.stderr
    assert all(word in r.stderr for word in named)


def test_cli_bad_out_path_exits_2_before_the_work(group_files, tmp_path):
    out = str(tmp_path / "missing" / "x.json")
    r = _cli("classify", "--group", group_files["schottky"], "--point", "0.37", "--out", out)
    assert r.returncode == 2 and r.stdout == ""
    assert r.stderr.startswith("horoflow: error:") and out in r.stderr
    # in process: the ball is never built
    _cached_ball.cache_clear()
    argv = ["classify", "--group", group_files["schottky"], "--point", "0.37",
            "--out", str(tmp_path)]
    assert _main(argv)[:2] == (2, "")
    assert _cached_ball.cache_info().currsize == 0


def test_cli_out_is_truncated_even_when_the_run_fails(group_files, tmp_path):
    out = tmp_path / "x.json"
    out.write_text("old")
    r = _cli("classify", "--group", group_files["bad"], "--point", "0", "--out", str(out))
    assert r.returncode == 1 and out.read_text() == ""


# (seed, samples) where the suite once failed on exact or correctly rounded
# values: 204 and 1590 put a map with 0 < |c| <= 1e-6, which sends inf to
# a/c and not to inf, among the maps of the cross-ratio and cocycle checks;
# the rest draw a cross-ratio whose images lie too close for any float
# implementation to meet 1e-9 (the last two are the verify ops of cold-cli
# bench seeds 455 and 583)
@pytest.mark.parametrize("seed, samples", [
    (204, 1000), (1590, 1000), (217, 1000), (1481, 1000), (1935, 1000), (2088, 1000),
    (2786, 1000), (2903, 1000), (1575650597, 10000), (1055534359, 10000),
])
def test_verify_passes_where_every_value_is_exact_or_correctly_rounded(seed, samples):
    report = hf.run_verification(samples=samples, seed=seed)
    assert report.passed, [c for c in report.checks if not c.passed]


@pytest.mark.parametrize("seed", [0, 1, 2, 455])
def test_verify_catches_a_wrong_boundary_image(monkeypatch, seed):
    # every finite image x goes to x + 1e-6 x^2; a uniform scaling would go
    # unseen, as it is itself a Moebius map and keeps every cross-ratio
    exact = verify.apply_boundary

    def bent(m, x):
        y = exact(m, x)
        return y if y.is_infinity else hf.bp(y.value + 1e-6 * y.value ** 2)

    monkeypatch.setattr(verify, "apply_boundary", bent)
    report = hf.run_verification(samples=1000, seed=seed)
    failed = {c.name for c in report.checks if not c.passed}
    assert {"cross-ratio-invariance", "cocycle-equivariance"} <= failed
    assert not report.passed


def test_verify_seed_and_tol_are_checked_by_name():
    with pytest.raises(ValueError, match="tol"):
        hf.run_verification(samples=1, tol=math.nan)
    with pytest.raises(ValueError, match="seed"):
        hf.run_verification(samples=1, seed=-1)


@pytest.mark.parametrize("samples", [2.5, True, MAX_SAMPLES + 1])
def test_verify_samples_is_a_bounded_integer(samples):
    # the cap is checked before any sample array is allocated
    with pytest.raises(ValueError, match="samples"):
        hf.run_verification(samples=samples)


def test_cli_overflowing_family_is_a_domain_error(tmp_path):
    p = _write_family(tmp_path / "huge.json", "cyclic-hyperbolic", **{"lambda": 1e60})
    r = _cli("classify", "--group", p, "--point", "inf")
    assert r.returncode == 1
    assert "Traceback" not in r.stderr and "overflows" in r.stderr


def test_cli_determinant_drift_in_the_ball_exits_1(tmp_path):
    # ROADMAP item 2's conjugated Gamma(2): a row of length 9 drifts off
    # det 1 at depth 10, a typed error with the word length in its message
    h = hf.Mobius(0.0, -1.0, 1.0, -(math.sqrt(2.0) - 1.0))
    gens = [h @ g @ h.inverse() for g in (hf.Mobius(1, 2, 0, 1), hf.Mobius(1, 0, 2, 1))]
    p = tmp_path / "gamma2-conjugated.json"
    hf.dump_group_spec(hf.GroupSpec(tuple(gens), max_word_length=10), p)
    code, out, err = _main(["classify", "--group", str(p), "--point", "0"])
    assert (code, out) == (1, "")
    assert err.startswith("horoflow: error: matrix (")
    assert err.endswith(" has det 1.0000000000392513, not 1, at word length 9\n")


def test_cli_rejects_nan_point(group_files):
    r = _cli("classify", "--group", group_files["parabolic"], "--point", "nan")
    assert r.returncode == 1
    assert "Traceback" not in r.stderr and "zero-size" not in r.stderr
    assert "nan" in r.stderr


@pytest.mark.parametrize("argv", [
    ["inj", "--group", "{parabolic}", "--tmax", "inf"],
    ["orbit", "--flow", "geodesic", "--end", "inf"],
    ["diagnose", "--group", "{parabolic}", "--band", "50", "60", "--min-len", "0"],
    ["diagnose", "--group", "{parabolic}", "--eps", "nan"],
    ["diagnose", "--group", "{parabolic}", "--window", "0"],
    ["classify", "--group", "{parabolic}", "--point", "nan"],
], ids=["inj-tmax-inf", "orbit-end-inf", "diagnose-min-len-0", "diagnose-eps-nan",
        "diagnose-window-0", "classify-point-nan"])
def test_cli_bad_arguments_end_without_a_traceback(group_files, argv):
    r = _cli(*(a.format(**group_files) for a in argv))
    assert r.returncode in (1, 2)
    assert "Traceback" not in r.stderr
    assert "horoflow: error:" in r.stderr


def test_cli_version_runs():
    r = _cli("--version")
    assert r.returncode == 0
    assert hf.__version__ in r.stdout


# ---------------------------------------------------------------------------
# fuzzed argv, run in process


_SPECIAL = ["nan", "inf", "-inf", "1e-300", "1e300", "x"]
_REAL = st.one_of(st.floats(-20.0, 20.0).map(repr), st.sampled_from(_SPECIAL))
# grid steps stay coarse enough that an accepted grid prints at most ~800 rows
_STEP = st.one_of(st.floats(0.05, 5.0).map(repr), st.sampled_from(["0", "-0.1"] + _SPECIAL))
_SMALL_INT = st.integers(-1, 4).map(str)


def _option(flag, *values):
    return st.one_of(st.just([]), st.tuples(*values).map(lambda v: [flag, *v]))


@st.composite
def _argv(draw):
    command = draw(st.sampled_from(["classify", "inj", "diagnose", "orbit", "verify"]))
    argv = [command]
    if command in ("classify", "inj", "diagnose"):
        group = draw(st.sampled_from(["parabolic", "hyperbolic", "bad", "missing"]))
        argv += ["--group", "{%s}" % group] + draw(_option("--depth", _SMALL_INT))
    if command == "classify":
        argv += draw(_option("--point", _REAL)) + draw(_option("--tol", _REAL))
    elif command == "inj":
        argv += draw(_option("--tmax", _REAL)) + draw(_option("--step", _STEP))
    elif command == "diagnose":
        argv += (draw(_option("--band", _REAL, _REAL)) + draw(_option("--eps", _REAL))
                 + draw(_option("--window", _SMALL_INT)) + draw(_option("--min-len", _SMALL_INT)))
    elif command == "orbit":
        argv += (draw(_option("--flow", st.sampled_from(["geodesic", "horocycle", "spiral"])))
                 + draw(_option("--start", _REAL)) + draw(_option("--end", _REAL))
                 + draw(_option("--step", _STEP)))
    else:
        argv += (draw(_option("--samples", st.integers(-1, 40).map(str)))
                 + draw(_option("--seed", st.integers(-1, 2 ** 31).map(str)))
                 + draw(_option("--tol", _REAL)))
    return argv


def _main(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse's usage errors and --version
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(argv=_argv())
@example(argv=["orbit", "--flow", "horocycle", "--start", "0", "--end", "1", "--step", "inf"])
@example(argv=["verify", "--seed", "-1"])
def test_cli_fuzzed_argv_exits_cleanly_and_deterministically(group_files, argv):
    paths = dict(group_files, missing=group_files["bad"] + ".missing")
    argv = [a.format(**paths) for a in argv]
    code, out, err = _main(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    assert _main(argv)[:2] == (code, out)


# ---------------------------------------------------------------------------
# option values that look like options


@pytest.mark.parametrize("argv, same_as", [
    (["classify", "--group", "{schottky}", "--depth", "4", "--point", "-1e-3"], None),
    (["classify", "--group", "{schottky}", "--depth", "4", "--point", "-2.5E+0"], None),
    (["classify", "--group", "{parabolic}", "--point", "-inf"], "inf"),
    (["orbit", "--flow", "geodesic", "--end", "1", "--start", "-1e-3"], None),
    (["inj", "--group", "{parabolic}", "--tmax", "1", "--step", "-1e-1"], None),
], ids=["point-exponent", "point-exponent-sign", "point-minus-inf", "orbit-start", "inj-step"])
def test_cli_reads_a_negative_exponent_or_minus_inf_as_a_value(group_files, argv, same_as):
    # argparse alone reads only plain negative decimals as values; the
    # spaced and the = spelling must print the same bytes on every Python
    argv = [a.format(**group_files) for a in argv]
    spaced = _main(argv)
    assert spaced == _main(argv[:-2] + [f"{argv[-2]}={argv[-1]}"])
    assert spaced[0] in (0, 1) and "expected one argument" not in spaced[2]
    if same_as is not None:  # -inf is the point at infinity
        assert spaced == _main(argv[:-1] + [same_as])
        assert json.loads(spaced[1])["result"]["point"] == "inf"


def test_cli_band_takes_negative_exponents(group_files):
    code, _, err = _main(["diagnose", "--group", group_files["parabolic"],
                          "--band", "-1e-3", "2"])
    assert code == 1 and "got (-0.001, 2.0)" in err


def test_cli_group_file_errors_advise_rescaling_for_the_determinant_only(group_files, tmp_path):
    nan = tmp_path / "nan.json"
    nan.write_text(json.dumps({"generators": [[[math.nan, 0.0], [0.0, 1.0]]]}))
    for path, tail in ((nan, "a must be finite, got nan\n"),
                       (group_files["bad"], "not 1; rescale the matrix yourself\n")):
        code, out, err = _main(["classify", "--group", str(path), "--point", "0"])
        assert (code, out) == (1, "") and err.endswith(tail), err
