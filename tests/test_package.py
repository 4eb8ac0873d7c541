"""The package namespace: public names resolve lazily to their modules."""

import importlib
import subprocess
import sys

import pytest

import horoflow as hf


def test_import_loads_no_submodule():
    code = "import sys, horoflow; print(*sorted(m for m in sys.modules if 'horoflow' in m))"
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                       timeout=60)
    assert (r.returncode, r.stdout) == (0, "horoflow\n")


@pytest.mark.parametrize("name", hf.__all__)
def test_public_name_is_its_modules_object(name):
    module = importlib.import_module(f"horoflow.{hf._MODULE_OF[name]}")
    obj = getattr(hf, name)
    assert obj is getattr(module, name)
    if isinstance(obj, type) or callable(obj):
        # the table names the defining module, not one that imports the name
        assert obj.__module__ == module.__name__


def test_dir_and_star_import_cover_all():
    assert set(hf.__all__) <= set(dir(hf))
    ns = {}
    exec("from horoflow import *", ns)
    assert all(ns[name] is getattr(hf, name) for name in hf.__all__)


def test_submodules_resolve_as_attributes():
    for name in ("cli", "dichotomy", "flows", "group", "groupio", "halfplane", "limits",
                 "verify", "errors"):
        assert getattr(hf, name) is importlib.import_module(f"horoflow.{name}")


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        hf.no_such_name  # noqa: B018
    assert getattr(hf, "ACCUM_FLOOR", None) is None  # a module's, not public
