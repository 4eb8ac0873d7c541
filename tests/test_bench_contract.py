"""What the benchmark needs from horoflow: one distinct public function per
traced name, called through its module globals, and every report key that
its checks read.

``bench/trace.py`` keys its targets by function object and wraps them
wherever horoflow's modules bind them, so an alias (one function under two
traced names) or a call that bypasses the module global records no span.
``bench/checks.py`` reads the CLI's reports through ``parse_cli``.
"""

import importlib.util
import json
from pathlib import Path

import pytest

import horoflow as hf
import horoflow.cli  # noqa: F401  (binds hf.cli, which the tracer wraps)

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _bench_module(monkeypatch, name):
    # bench modules import their siblings by bare name, and trace.py's own
    # name would shadow the standard library's trace module
    monkeypatch.syspath_prepend(str(BENCH))
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def tracer(monkeypatch):
    module = _bench_module(monkeypatch, "trace")
    t = module.Tracer(hf)
    t.install()
    yield module, t
    t.uninstall()


def test_traced_names_are_distinct_functions(tracer):
    module, _ = tracer
    fns = [getattr(getattr(hf, mod), name) for mod, names in module.TRACED.items()
           for name in names]
    assert len(fns) == 13 and all(callable(f) for f in fns)
    assert len(set(fns)) == 13


def test_traced_calls_record_their_spans(tracer):
    _, t = tracer
    schottky = hf.schottky_pair(max_word_length=3)
    gamma2 = hf.GroupSpec((hf.Mobius(1, 2, 0, 1), hf.Mobius(1, 0, 2, 1)), max_word_length=8)
    assert len(hf.enumerate_ball(schottky)) == 52
    hf.group.ball_arrays(schottky)
    assert hf.run_dichotomy(gamma2).sequence is not None
    spans = t.spans
    by = {}
    for i, s in enumerate(spans):
        by.setdefault(s["name"], []).append(i)
    for name in ("enumerate_ball", "ball_arrays", "run_dichotomy",
                 "find_bounded_escaping_sequence", "test_recurrence"):
        assert name in by, name
    assert spans[by["enumerate_ball"][0]]["elements"] == 52
    run = by["run_dichotomy"][0]
    assert all(spans[i]["parent"] == run for i in by["test_recurrence"])
    assert spans[by["find_bounded_escaping_sequence"][0]]["parent"] == run


def test_finite_endpoint_search_is_traced_inside_its_run(tracer):
    # vectors aimed at finite points run the same search function, through
    # its module global, on the spec's own ball, and the settle test as a
    # test_recurrence span of the run, the span the trace's
    # dichotomy.settle_ms reads: a frame aimed at 0, and a general frame
    # (n_x a_s k_theta) aimed at xi = 2.016..., whose frame moved by
    # h = [[0, -1], [1, -xi]] keeps a finite endpoint in floats
    _, t = tracer
    gamma2 = hf.GroupSpec((hf.Mobius(1, 2, 0, 1), hf.Mobius(1, 0, 2, 1)), max_word_length=8)
    aimed = hf.UnitTangent(hf.Mobius(0.0, -1.0, 1.0, 0.0))
    general = hf.UnitTangent(hf.Mobius(*map(float.fromhex, (
        "-0x1.f301ca2978964p-4", "0x1.4099f5271a12cp+3", "-0x1.ef0938ded965ep-5",
        "-0x1.9e8ff72517abbp+1"))))
    h = hf.Mobius(0.0, -1.0, 1.0, -general.forward_endpoint().value)
    assert not general.transform(h).forward_endpoint().is_infinity
    for u, band in [(aimed, (0.5, 2.0)), (general, (0.1, 10.0))]:
        t.spans.clear()
        assert hf.run_dichotomy(gamma2, u, band=band).sequence is not None
        spans = t.spans
        runs = [i for i, s in enumerate(spans) if s["name"] == "run_dichotomy"]
        assert len(runs) == 1 and spans[runs[0]]["finite"]
        for name in ("find_bounded_escaping_sequence", "test_recurrence"):
            kids = [s for s in spans if s["name"] == name]
            assert len(kids) == 1 and kids[0]["parent"] == runs[0], name


def test_an_injected_candidate_at_a_finite_point_is_traced_without_a_search(tracer):
    # a sequence found at xi and injected again for a vector aimed at xi:
    # the run reads it at its own point, with one test_recurrence span under
    # the run (the span of dichotomy.settle_ms) and no search span
    _, t = tracer
    gamma2 = hf.GroupSpec((hf.Mobius(1, 2, 0, 1), hf.Mobius(1, 0, 2, 1)), max_word_length=8)
    u = hf.UnitTangent(hf.Mobius(0.37, -1.0, 1.0, 0.0))
    seq = hf.find_bounded_escaping_sequence(gamma2, (0.01, 100.0), xi=0.37)
    t.spans.clear()
    assert hf.run_dichotomy(gamma2, u, band=(0.01, 100.0), candidate=seq).sequence is seq
    spans = t.spans
    runs = [i for i, s in enumerate(spans) if s["name"] == "run_dichotomy"]
    assert len(runs) == 1 and spans[runs[0]]["finite"]
    settle = [s for s in spans if s["name"] == "test_recurrence"]
    assert len(settle) == 1 and settle[0]["parent"] == runs[0]
    assert not [s for s in spans if s["name"] == "find_bounded_escaping_sequence"]


def test_package_names_leave_no_wrapper_behind(tracer):
    # the package stores no name it resolves, so a name first read while the
    # wrappers are in reads the plain function again once they are out
    _, t = tracer
    plain = hf.dichotomy.run_dichotomy.__wrapped__
    assert "run_dichotomy" not in vars(hf)
    assert hf.run_dichotomy is hf.dichotomy.run_dichotomy
    assert hf.run_dichotomy.__wrapped__ is plain
    t.uninstall()
    assert hf.run_dichotomy is hf.dichotomy.run_dichotomy is plain
    assert not hasattr(hf.run_dichotomy, "__wrapped__")
    assert "run_dichotomy" not in vars(hf)


def test_cli_reports_hold_every_key_the_checks_read(monkeypatch, tmp_path, capsys):
    # parse_cli raises KeyError on a missing top-level key; the nested keys
    # the checks read from what it passes through are asserted here
    checks = _bench_module(monkeypatch, "checks")
    files = {"parabolic": {"family": {"kind": "cyclic-parabolic"}},
             "gamma2": {"generators": [[[1, 2], [0, 1]], [[1, 0], [2, 1]]]},
             "schottky": {"family": {"kind": "schottky-pair"}}}
    for name, data in files.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(data))

    def run(op, *argv):
        assert hf.cli.main([op, *argv]) == 0
        return checks.parse_cli({"op": op}, capsys.readouterr().out)

    out = run("classify", "--group", str(tmp_path / "parabolic.json"), "--point", "inf")
    assert out["verdict"] == "parabolic" and out["sup_height"] == 1.0
    assert set(out["witness"]) >= {"word", "matrix"}
    found = run("diagnose", "--group", str(tmp_path / "gamma2.json"), "--depth", "8",
                "--band", "0.5", "2")
    none = run("diagnose", "--group", str(tmp_path / "schottky.json"), "--depth", "4")
    assert found["sequence"] is not None and found["values"] is not None
    assert none["sequence"] is None and none["note"]
    for out in (found, none):
        assert set(out["verdict"]) >= {"kind", "t"}
    out = run("verify", "--samples", "100")
    assert out["passed"] and all(set(c) >= {"name", "passed"} for c in out["checks"])
    out = run("inj", "--group", str(tmp_path / "parabolic.json"), "--tmax", "1")
    assert out["header"] == "t,inj_estimate" and out["times"].shape == out["inj"].shape
    out = run("orbit", "--flow", "horocycle", "--end", "1")
    assert out["header"] == "s_or_t,re,im" and out["rows"].shape == (11, 3)
