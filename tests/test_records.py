"""The frozen record types: shared methods that behave as dataclass's own."""

import dataclasses
import importlib
import inspect

import numpy as np
import pytest

import horoflow as hf
from horoflow.dichotomy import (CoefficientAsymptotics, ConvergenceVerdict, DiagnosticsReport,
                                DichotomyVerdict, SequenceCandidate)
from horoflow.flows import RayProfile, UnitTangent
from horoflow.group import Ball, GroupElement, GroupSpec
from horoflow.halfplane import (INFINITY, BoundaryPoint, Geodesic, Horocycle, Mobius, PointH,
                                bp)
from horoflow.limits import LimitPointEvidence, LimitVerdict
from horoflow.verify import CheckResult, VerificationReport

MODULES = ("cli", "dichotomy", "errors", "flows", "group", "groupio", "halfplane", "limits",
           "verify")

_M = Mobius(2.0, 3.0, 1.0, 2.0)
_CONVERGED = ConvergenceVerdict(True, 0.5, (1e-3,), (0.5,), ())
_CHECK = CheckResult("im-image-of-i", 1e-12, 1e-9)


def _int32(*x):
    return np.array(x, dtype=np.int32)


# per record: every init field positionally, and one field changed for replace
SAMPLES = {
    PointH: ((0.5, 2.0), {"im": 3.0}),
    BoundaryPoint: ((1.5,), {"value": None}),
    Mobius: ((2.0, 3.0, 1.0, 2.0), {"a": 1.0, "b": 5.0, "c": 0.0, "d": 1.0}),
    Geodesic: ((bp(0.0), bp(1.0)), {"pos": INFINITY}),
    Horocycle: ((INFINITY, 0.5), {"level": 1.5}),
    GroupElement: ((_M, (1, -2)), {"word": None}),
    GroupSpec: (((_M,), 3), {"max_word_length": 4}),
    Ball: ((np.array([[2.0], [3.0], [1.0], [2.0]]), _int32(1), _int32(-1), _int32(1),
            np.array([0, 1], dtype=np.intp)),
           {"letter": _int32(-1)}),
    UnitTangent: ((_M,), {"frame": Mobius.identity()}),
    RayProfile: ((np.array([0.0]), np.array([1.0]), 1.0), {"liminf_estimate": 2.0}),
    SequenceCandidate: ((np.array([[1.0, 1.0], [1.0, 2.0], [0.0, 0.0], [1.0, 1.0]]),
                         ((1,), (1, 1)), (0.5, 2.0), bp(0.0)),
                        {"height_band": (0.25, 4.0)}),
    ConvergenceVerdict: ((True, 0.5, (1e-3,), (0.5,), ("endpoint",)), {"converged": False}),
    CoefficientAsymptotics: ((True, True, 1.0), {"min_cd_norm": 2.0}),
    DichotomyVerdict: (("recurrence-evidence", 0.5), {"t": None}),
    DiagnosticsReport: ((None, None, _CONVERGED, (0.5,), DichotomyVerdict("inconclusive"),
                         "a note"), {"note": None}),
    LimitPointEvidence: ((bp(0.5), 3, 1.0, None, None, LimitVerdict.INCONCLUSIVE),
                         {"depth": 4}),
    CheckResult: (("im-image-of-i", 1e-12, 1e-9), {"tol": 1e-6}),
    VerificationReport: ((10, 1, 1e-9, (_CHECK,), 0.1), {"seed": 2}),
}

# what the record decorator attaches, and what dataclass keeps for itself
_MADE = {"__init__", "__repr__", "__eq__", "__hash__", "__setattr__", "__delattr__",
         "__dict__", "__weakref__", "__annotations__", "__dataclass_fields__",
         "__dataclass_params__", "__match_args__", "__replace__", "_abc_impl",
         "__abstractmethods__"}


def _records():
    found = {}
    for name in MODULES:
        for obj in vars(importlib.import_module(f"horoflow.{name}")).values():
            if isinstance(obj, type) and dataclasses.is_dataclass(obj):
                found[obj.__qualname__] = obj
    return found


def _eq(cls):
    return cls.__eq__ is not object.__eq__


def _twin(cls):
    """The same record from dataclass(frozen=True) itself: its fields, its
    own methods, and dataclass's generated ones."""
    ns = {k: v for k, v in vars(cls).items() if k not in _MADE}
    if cls.__repr__.__code__ is not PointH.__repr__.__code__:
        ns["__repr__"] = cls.__repr__  # a repr of its own, as BoundaryPoint's
    spec = [(f.name, f.type, dataclasses.field(default=f.default, init=f.init, repr=f.repr,
                                               compare=f.compare))
            for f in dataclasses.fields(cls)]
    return dataclasses.make_dataclass(cls.__name__, spec, bases=cls.__bases__, namespace=ns,
                                      frozen=True, eq=_eq(cls))


def _outcome(fn):
    try:
        return "returns", fn()
    except Exception as exc:  # noqa: BLE001 - the exception type is the outcome
        return "raises", type(exc)


def test_the_samples_cover_every_record():
    assert set(_records().values()) == set(SAMPLES)


@pytest.mark.parametrize("cls", list(SAMPLES), ids=lambda c: c.__name__)
def test_a_record_behaves_as_its_frozen_dataclass_twin(cls):
    args, change = SAMPLES[cls]
    twin = _twin(cls)
    names = [p.name for p in inspect.signature(cls).parameters.values()]
    assert len(args) == len(names)
    r1, r2, t1, t2 = cls(*args), cls(*args), twin(*args), twin(*args)
    assert repr(r1) == repr(t1)
    assert bool(r1 == r2) == bool(t1 == t2) and bool(r1 != r2) == bool(t1 != t2)
    if _eq(cls):
        assert r1 == r2 and _outcome(lambda: hash(r1)) == _outcome(lambda: hash(t1))
    r3, t3 = dataclasses.replace(r1, **change), dataclasses.replace(t1, **change)
    assert repr(r3) == repr(t3) and repr(r3) != repr(r1)
    assert bool(r3 == r1) == bool(t3 == t1) and bool(r3 != r1) == bool(t3 != t1)
    assert repr(dataclasses.replace(r1)) == repr(r1)
    assert [f.name for f in dataclasses.fields(r1)] == [f.name for f in dataclasses.fields(t1)]
    assert dataclasses.is_dataclass(r1) and not dataclasses.is_dataclass(object())
    assert ([(p.name, p.default) for p in inspect.signature(cls).parameters.values()]
            == [(p.name, p.default) for p in inspect.signature(twin).parameters.values()])
    for obj in (r1, t1):
        for name in (names[0], "not_a_field"):
            with pytest.raises(dataclasses.FrozenInstanceError, match=f"assign to field '{name}'"):
                setattr(obj, name, args[0])
            with pytest.raises(dataclasses.FrozenInstanceError, match=f"delete field '{name}'"):
                delattr(obj, name)
    required = sum(p.default is inspect.Parameter.empty
                   for p in inspect.signature(cls).parameters.values())
    bad = [((*args, args[-1]), {}), (args, {names[0]: args[0]}), (args, {"not_a_field": 1})]
    if required:
        bad.append((args[:required - 1], {}))
    for make in (cls, twin):
        for a, kw in bad:  # one extra, one given twice, an unknown name, one missing
            with pytest.raises(TypeError):
                make(*a, **kw)


def test_keywords_and_defaults_fill_the_fields_as_dataclass_does():
    assert ConvergenceVerdict(limit=None, residuals=(), converged=False) == \
        ConvergenceVerdict(False, None, (), None, ())
    assert GroupSpec((_M,)).max_word_length == 10
    assert GroupSpec((_M,), max_word_length=3) == GroupSpec((_M,), 3)
    assert repr(DichotomyVerdict("inconclusive")) == "DichotomyVerdict(kind='inconclusive', t=None)"
    assert repr(BoundaryPoint()) == "BoundaryPoint(inf)"
    with pytest.raises(TypeError, match="multiple values for argument 'self'"):
        PointH(0.0, 1.0, self=None)


def test_every_record_shares_one_set_of_methods_and_has_a_docstring():
    """No record runs code that dataclass wrote for it: a new @dataclass,
    or a record without a docstring of its own, fails here."""
    records = _records()
    assert len(records) == 18
    shared = {name: getattr(PointH, name).__code__ for name in
              ("__init__", "__repr__", "__eq__", "__hash__", "__setattr__", "__delattr__")}
    for cls in records.values():
        params = cls.__dataclass_params__
        assert not (params.init or params.repr or params.eq or params.frozen), cls
        assert cls.__init__.__code__ is Mobius.__init__.__code__ is GroupSpec.__init__.__code__
        for name, code in shared.items():
            if name in ("__eq__", "__hash__") and not _eq(cls):
                # records with an array field compare and hash by identity
                assert cls in (Ball, SequenceCandidate)
                assert getattr(cls, name) is getattr(object, name)
            elif name == "__repr__" and cls is BoundaryPoint:
                assert "__repr__" in BoundaryPoint.__dict__
            else:
                assert getattr(cls, name).__code__ is code, (cls, name)
        assert cls.__doc__ and not cls.__doc__.startswith(f"{cls.__name__}("), cls


def test_no_horoflow_class_holds_code_compiled_from_a_string():
    # dataclass compiles the methods it writes from source text, "<string>"
    for name in MODULES:
        module = importlib.import_module(f"horoflow.{name}")
        for cls in vars(module).values():
            if isinstance(cls, type) and cls.__module__ == module.__name__:
                for attr, fn in vars(cls).items():
                    code = getattr(fn, "__code__", None)
                    assert code is None or code.co_filename != "<string>", (cls, attr)


def test_records_hash_as_tuples_of_their_compared_fields():
    spec = GroupSpec((_M,), 3)
    assert hash(spec) == hash((spec.generators, 3))  # certificate is not compared
    assert hash(INFINITY) == hash((None,)) and hash(_M) == hash((2.0, 3.0, 1.0, 2.0))
    assert hf.truncated_flute() == hf.truncated_flute()
    assert len({hf.schottky_pair(), hf.schottky_pair(), hf.truncated_flute()}) == 2
