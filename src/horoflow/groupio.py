"""JSON serialization for group specifications.

A group file holds exactly one of:

* ``"generators"``: a list of row-major 2x2 real matrices, each with
  determinant 1 (no rescaling is applied; a wrong determinant is an error);
* ``"family"``: a named preset with its parameters, one of
  ``cyclic-parabolic`` (``shift``), ``cyclic-hyperbolic`` (``lambda``),
  ``schottky-pair`` (``circles``: four ``[center, radius]`` pairs), or
  ``flute-truncated`` (``lengths``, ``spacing``); a parameter left out
  takes its preset's default.

Every number is a JSON number, never a bool or a string. One optional key,
``max_word_length``: left out, it takes ``GroupSpec``'s default (10), or in a
family file its preset's (6 for ``flute-truncated``). Any other key is a
``ParseError``.
``dump_group_spec`` always writes resolved generator matrices, so a family
file round-trips to an equivalent explicit-generator file.
"""

from __future__ import annotations

import json
import math

from .errors import InvalidGenerator, ParseError
from .group import GroupSpec, cyclic_hyperbolic, cyclic_parabolic, schottky_pair, truncated_flute
from .halfplane import Mobius


def _number(v, where: str) -> float:
    """A JSON number as a float: an int or a float, never a bool or a string."""
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ParseError(f"{where} must be a number, got {v!r}")
    try:
        return float(v)
    except OverflowError:
        raise ParseError(f"{where} is past the float range: {v!r}") from None


def _numbers(v, where: str):
    # a family parameter: a number, or a (nested) list of numbers as tuples
    if isinstance(v, (list, tuple)):
        return tuple(_numbers(x, where) for x in v)
    return _number(v, where)


def _parse_generator(m, where: str) -> Mobius:
    if (isinstance(m, (list, tuple)) and len(m) == 2
            and all(isinstance(r, (list, tuple)) and len(r) == 2 for r in m)):
        m = [*m[0], *m[1]]
    if not (isinstance(m, (list, tuple)) and len(m) == 4):
        raise ParseError(f"{where}: expected a 2x2 matrix (nested or flat), got {m!r}")
    entries = [_number(v, f"{where}: a matrix entry") for v in m]
    try:
        return Mobius(*entries)
    except ValueError as exc:  # a non-finite entry, or the determinant
        hint = "; rescale the matrix yourself" if all(map(math.isfinite, entries)) else ""
        raise InvalidGenerator(f"{where}: {exc}{hint}") from None


# each family kind: its preset, and the preset argument of each file parameter
_FAMILIES = {
    "cyclic-parabolic": (cyclic_parabolic, {"shift": "shift"}),
    "cyclic-hyperbolic": (cyclic_hyperbolic, {"lambda": "factor"}),
    "schottky-pair": (schottky_pair, {"circles": "circles"}),
    "flute-truncated": (truncated_flute, {"lengths": "lengths", "spacing": "spacing"}),
}


def _resolve_family(family, spec_kwargs: dict) -> GroupSpec:
    if not isinstance(family, dict):
        raise ParseError(f"'family' must be an object, got {family!r}")
    kind = family.get("kind")
    if not isinstance(kind, str) or kind not in _FAMILIES:
        raise ParseError(f"unknown family kind {kind!r}; expected one of {tuple(_FAMILIES)}")
    preset, names = _FAMILIES[kind]
    params = {k: v for k, v in family.items() if k != "kind"}
    extra = sorted(set(params) - set(names), key=str)
    if extra:
        raise ParseError(f"unknown parameters for family {kind!r}: {extra}")
    return preset(**{names[k]: _numbers(v, f"family parameter {k!r}") for k, v in params.items()},
                  **spec_kwargs)


def parse_group_spec(data) -> GroupSpec:
    """Build a GroupSpec from already-decoded JSON data."""
    if not isinstance(data, dict):
        raise ParseError(f"group spec must be a JSON object, got {type(data).__name__}")
    has_gens = "generators" in data
    has_family = "family" in data
    if has_gens == has_family:
        raise ParseError("give exactly one of 'generators' or 'family'")
    known = {"generators", "family", "max_word_length"}
    extra = set(data) - known
    if extra:
        raise ParseError(f"unknown keys: {sorted(extra, key=str)}")
    kwargs = {}
    if "max_word_length" in data:
        v = data["max_word_length"]
        if not isinstance(v, int) or isinstance(v, bool):
            raise ParseError(f"'max_word_length' must be an integer, got {v!r}")
        kwargs["max_word_length"] = v
    if has_family:
        # a key left out keeps the preset's default (the flute's depth is 6)
        return _resolve_family(data["family"], kwargs)
    gens = data["generators"]
    if not isinstance(gens, list) or not gens:
        raise ParseError("'generators' must be a non-empty list of matrices")
    return GroupSpec(tuple(_parse_generator(m, f"generators[{k}]") for k, m in enumerate(gens)),
                     **kwargs)


def load_group_spec(path) -> GroupSpec:
    """Read a group spec from a JSON file."""
    with open(path, encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except (json.JSONDecodeError, RecursionError) as exc:  # or nested too deeply
            raise ParseError(f"{path}: not valid JSON ({exc})") from None
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path}: not UTF-8 text ({exc})") from None
    return parse_group_spec(data)


def spec_to_data(spec: GroupSpec) -> dict:
    """JSON-ready dict with resolved generators (families do not survive)."""
    return {
        "generators": [[[g.a, g.b], [g.c, g.d]] for g in spec.generators],
        "max_word_length": spec.max_word_length,
    }


def dump_group_spec(spec: GroupSpec, path) -> None:
    """Write a group spec as JSON; loading it back gives equal generators."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(spec_to_data(spec), fh, indent=2)
        fh.write("\n")
