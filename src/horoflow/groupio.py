"""JSON serialization for group specifications.

A group file holds exactly one of:

* ``"generators"``: a list of row-major 2x2 real matrices, each with
  determinant 1 (no rescaling is applied; a wrong determinant is an error);
* ``"family"``: a named preset with its parameters, one of
  ``cyclic-parabolic`` (``shift``), ``cyclic-hyperbolic`` (``lambda``),
  ``schottky-pair`` (``circles``: four ``[center, radius]`` pairs), or
  ``flute-truncated`` (``lengths``, ``spacing``).

Optional keys: ``max_word_length`` (default 10) and ``dedup_tol``.
``dump_group_spec`` always writes resolved generator matrices, so a family
file round-trips to an equivalent explicit-generator file.
"""

from __future__ import annotations

import json

from .errors import InvalidGenerator, ParseError
from .group import (DEDUP_TOL, GroupSpec, cyclic_hyperbolic, cyclic_parabolic,
                    schottky_pair, truncated_flute)
from .halfplane import Mobius


def _matrix_entries(m, where: str) -> tuple[float, float, float, float]:
    rows = m
    if (isinstance(rows, (list, tuple)) and len(rows) == 2
            and all(isinstance(r, (list, tuple)) and len(r) == 2 for r in rows)):
        flat = [rows[0][0], rows[0][1], rows[1][0], rows[1][1]]
    elif isinstance(rows, (list, tuple)) and len(rows) == 4:
        flat = list(rows)
    else:
        raise ParseError(f"{where}: expected a 2x2 matrix (nested or flat), got {m!r}")
    try:
        return tuple(float(v) for v in flat)
    except (TypeError, ValueError, OverflowError):
        raise ParseError(f"{where}: matrix entries must be numbers, got {m!r}") from None


def _parse_generator(m, where: str) -> Mobius:
    entries = _matrix_entries(m, where)
    try:
        return Mobius(*entries)
    except ValueError as exc:
        raise InvalidGenerator(f"{where}: {exc}; rescale the matrix yourself") from None


_FAMILY_KINDS = ("cyclic-parabolic", "cyclic-hyperbolic",
                 "schottky-pair", "flute-truncated")


def _resolve_family(family) -> GroupSpec:
    if not isinstance(family, dict):
        raise ParseError(f"'family' must be an object, got {family!r}")
    kind = family.get("kind")
    if kind not in _FAMILY_KINDS:
        raise ParseError(f"unknown family kind {kind!r}; expected one of {_FAMILY_KINDS}")
    params = {k: v for k, v in family.items() if k != "kind"}
    try:
        if kind == "cyclic-parabolic":
            spec = cyclic_parabolic(float(params.pop("shift", 1.0)))
        elif kind == "cyclic-hyperbolic":
            spec = cyclic_hyperbolic(float(params.pop("lambda", 4.0)))
        elif kind == "schottky-pair":
            circles = params.pop("circles", None)
            if circles is None:
                spec = schottky_pair()
            else:
                if not (isinstance(circles, list) and len(circles) == 4):
                    raise ParseError("'circles' must list four [center, radius] pairs")
                spec = schottky_pair(tuple((float(x), float(r)) for x, r in circles))
        else:
            lengths = params.pop("lengths", None)
            spacing = float(params.pop("spacing", 2.0))
            if lengths is None:
                spec = truncated_flute(spacing=spacing)
            else:
                spec = truncated_flute(tuple(float(v) for v in lengths), spacing)
    except (TypeError, ValueError, OverflowError) as exc:
        if isinstance(exc, (ParseError, InvalidGenerator)):
            raise
        raise ParseError(f"bad parameters for family {kind!r}: {exc}") from None
    if params:
        raise ParseError(f"unknown parameters for family {kind!r}: {sorted(params)}")
    return spec


def parse_group_spec(data) -> GroupSpec:
    """Build a GroupSpec from already-decoded JSON data."""
    if not isinstance(data, dict):
        raise ParseError(f"group spec must be a JSON object, got {type(data).__name__}")
    has_gens = "generators" in data
    has_family = "family" in data
    if has_gens == has_family:
        raise ParseError("give exactly one of 'generators' or 'family'")
    known = {"generators", "family", "max_word_length", "dedup_tol"}
    extra = set(data) - known
    if extra:
        raise ParseError(f"unknown keys: {sorted(extra)}")
    kwargs = {}
    if has_gens:
        gens = data["generators"]
        if not isinstance(gens, list) or not gens:
            raise ParseError("'generators' must be a non-empty list of matrices")
        generators = tuple(_parse_generator(m, f"generators[{k}]")
                           for k, m in enumerate(gens))
    else:
        family_spec = _resolve_family(data["family"])
        generators = family_spec.generators
        # families may carry their own depth default (the flute caps at 6)
        kwargs["max_word_length"] = family_spec.max_word_length
    if "max_word_length" in data:
        v = data["max_word_length"]
        if not isinstance(v, int) or isinstance(v, bool):
            raise ParseError(f"'max_word_length' must be an integer, got {v!r}")
        kwargs["max_word_length"] = v
    if "dedup_tol" in data:
        try:
            kwargs["dedup_tol"] = float(data["dedup_tol"])
        except (TypeError, ValueError, OverflowError):
            raise ParseError(f"'dedup_tol' must be a number, got {data['dedup_tol']!r}") from None
    return GroupSpec(generators, **kwargs)


def load_group_spec(path) -> GroupSpec:
    """Read a group spec from a JSON file."""
    with open(path, encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParseError(f"{path}: not valid JSON ({exc})") from None
    return parse_group_spec(data)


def spec_to_data(spec: GroupSpec) -> dict:
    """JSON-ready dict with resolved generators (families do not survive)."""
    out = {
        "generators": [[[g.a, g.b], [g.c, g.d]] for g in spec.generators],
        "max_word_length": spec.max_word_length,
    }
    if spec.dedup_tol != DEDUP_TOL:
        out["dedup_tol"] = spec.dedup_tol
    return out


def dump_group_spec(spec: GroupSpec, path) -> None:
    """Write a group spec as JSON; loading it back gives equal generators."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(spec_to_data(spec), fh, indent=2)
        fh.write("\n")
