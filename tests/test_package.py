"""The package namespace: public names resolve lazily to their modules, and
the modules import each other in one order."""

import ast
import importlib
import subprocess
import sys
from pathlib import Path

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
    assert getattr(hf, "UNBOUNDED_RUN", None) is None  # a module's, not public


def test_moved_names_still_resolve_where_they_were():
    # frames and the sample cap live in halfplane; flows imports them
    assert hf.UnitTangent is hf.flows.UnitTangent is hf.halfplane.UnitTangent
    assert hf.BASE_TANGENT is hf.flows.BASE_TANGENT is hf.halfplane.BASE_TANGENT
    assert hf.flows.MAX_SAMPLES == hf.halfplane.MAX_SAMPLES == 2_000_000


ANALYSIS = ("groupio", "limits", "flows", "dichotomy")
# the modules each module may import at its top level: errors <- halfplane <-
# group <- the analysis modules, none of which imports another, and verify
# on halfplane alone; cli imports a subcommand's modules when it runs
LAYERS = {"__init__": set(), "errors": set(), "halfplane": {"errors"},
          "group": {"errors", "halfplane"},
          **{m: {"errors", "halfplane", "group"} for m in ANALYSIS},
          "verify": {"errors", "halfplane"}, "cli": {"__init__", "errors"}}


def _defined(tree):
    """The names a module binds at its top level other than by importing them."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for t in targets:
                names.update(n.id for n in ast.walk(t) if isinstance(n, ast.Name))
    return names


def _import_findings(src):
    """Each relative import, anywhere in a module, that takes a name from a
    module that does not define it, and each top-level one that breaks the
    order of LAYERS."""
    trees = {p.stem: ast.parse(p.read_text(encoding="utf-8")) for p in src.glob("*.py")}
    defined = {m: _defined(tree) for m, tree in trees.items()}
    found = []
    for m, tree in sorted(trees.items()):
        for node in ast.walk(tree):
            if not (isinstance(node, ast.ImportFrom) and node.level):
                continue
            source = node.module or "__init__"
            found += [f"{m} takes {a.name} from {source}" for a in node.names
                      if a.name not in defined[source]]
            if node in tree.body and source not in LAYERS[m]:
                found.append(f"{m} imports {source}")
    return found


def test_every_import_names_the_defining_module_in_the_layer_order():
    src = Path(hf.__file__).parent
    assert set(LAYERS) == {p.stem for p in src.glob("*.py")}
    assert _import_findings(src) == []
