"""What the benchmark's tracer needs from horoflow: one distinct public
function per traced name, called through its module globals.

``bench/trace.py`` keys its targets by function object and wraps them
wherever horoflow's modules bind them, so an alias (one function under two
traced names) or a call that bypasses the module global records no span.
"""

import importlib.util
from pathlib import Path

import pytest

import horoflow as hf
import horoflow.cli  # noqa: F401  (binds hf.cli, which the tracer wraps)

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture
def tracer(monkeypatch):
    # trace.py imports its sibling modules by bare name, and its own name
    # would shadow the standard library's trace module
    monkeypatch.syspath_prepend(str(BENCH))
    spec = importlib.util.spec_from_file_location("bench_trace", BENCH / "trace.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
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
