"""Seeded inputs: group files and the operation list of each workload.

The same seed gives the same files and operations. Operations are plain
dicts; ``run.py`` and ``session.py`` execute them and ``checks.py`` checks
their outputs against ``oracle.py``.

Which inputs are seeded and which are fixed:

* seeded: classify points (rationals p/q with q <= 6 on the integer groups,
  points of the ordinary set well away from the isometric discs on the
  float groups), the base points of the injectivity rays, dichotomy bands on
  the float groups, the verify seed and the orbit grids;
* fixed: infinity and 0, the irrationals sqrt(2) - 1 and (sqrt(5) - 1)/2,
  the heights points, one ray diving to the boundary, the Gamma(2) bands and
  the finite dichotomy endpoint 0.
  The operations that fail because of known faults run only on fixed
  inputs, so every seed fails the same share of operations.
"""

from __future__ import annotations

import json
import math
import os
from fractions import Fraction

import numpy as np

import oracle

GROUPS = {
    "schottky": {"file": {"family": {"kind": "schottky-pair"}, "max_word_length": 10},
                 "gens": oracle.schottky_generators(), "depth": 10},
    "flute": {"file": {"family": {"kind": "flute-truncated"}},
              "gens": oracle.flute_generators(), "depth": 6},
    "gamma2": {"file": {"generators": [[[1, 2], [0, 1]], [[1, 0], [2, 1]]],
                        "max_word_length": 10},
               "gens": [(1, 2, 0, 1), (1, 0, 2, 1)], "depth": 10},
    "psl2z": {"file": {"generators": [[[0, -1], [1, 0]], [[1, 1], [0, 1]]],
                       "max_word_length": 20},
              "gens": [(0, -1, 1, 0), (1, 1, 0, 1)], "depth": 20},
}

WORKLOAD_GROUPS = {
    "cold-cli": ("schottky", "flute", "gamma2"),
    "warm-session": ("schottky", "flute", "gamma2"),
    "relations-cli": ("psl2z",),
}

INTEGER_GROUPS = ("gamma2", "psl2z")
SQRT2_M1 = math.sqrt(2.0) - 1.0
GOLDEN_M1 = (math.sqrt(5.0) - 1.0) / 2.0
ORBIT_ROWS = 60001
WARM_POINTS = 6   # seeded classify points per group and pass on warm-session
VERIFY_SAMPLES = 10000
ORDINARY_RANGE = {"schottky": (-8.0, 8.0), "flute": (-4.0, 10.0)}


def write_group_files(workdir, names):
    paths = {}
    for name in names:
        path = os.path.join(workdir, f"{name}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(GROUPS[name]["file"], fh)
        paths[name] = path
    return paths


def infinity():
    return {"point": "inf", "exact": None}


def rational(rng):
    q = int(rng.integers(1, 7))
    p = int(rng.integers(-3 * q, 3 * q + 1))
    x = Fraction(p, q)
    return {"point": float(x), "exact": [x.numerator, x.denominator]}


def irrational(x):
    return {"point": x, "exact": "irrational"}


# Operations that fail because of a known fault in horoflow (see README.md)
# carry the id of the one check in checks.py that the fault excuses; they run
# only on fixed inputs. Complex-division heights lose digits on deep words
# (in orbit_heights and in classify's sup_height), and an unsettled dichotomy
# returns no note.
HEIGHTS_FAULT = {"fault": "heights"}
SUP_HEIGHT_FAULT = {"fault": "sup_height"}
NOTE_FAULT = {"fault": "note"}
# A ray diving to the boundary point 5.115...: near t = 8.5 the complex-division
# displacement kernel is off by 1.3e-7 relative on the flute ball.
DIVING_FRAME = [2.0557572159931365, -0.1255172451590788, 0.40188744443969604, 0.4619009422526465]
DISPLACEMENT_FAULT = {"fault": "inj"}


def ordinary_point(rng, name):
    """A point of the ordinary set, at least twice the radius away from the
    centre of every isometric circle: the orbit stays far from it, so its
    highest orbit point is a short word."""
    lo, hi = ORDINARY_RANGE[name]
    discs = oracle.isometric_discs(GROUPS[name]["gens"])
    while True:
        x = round(float(rng.uniform(lo, hi)), 6)
        if all(abs(x - c) >= 2.0 * r for c, r in discs):
            f = Fraction(x)
            return {"point": x, "exact": [f.numerator, f.denominator]}


def seeded_point(rng, name):
    return rational(rng) if name in INTEGER_GROUPS else ordinary_point(rng, name)


def frame(rng):
    """Frame n_x a_y: based at x + i e^y, its ray climbs straight up."""
    x = float(rng.uniform(-3.0, 3.0))
    e = math.exp(float(rng.uniform(-1.0, 1.0)) / 2.0)
    return [e, x / e, 0.0, 1.0 / e]


def band(rng):
    """Height band of log-uniform width (1.5 to 1000) around a level near 1."""
    level = math.exp(float(rng.uniform(-0.5, 0.5)))
    width = math.exp(float(rng.uniform(math.log(1.5), math.log(1000.0))))
    return [level / math.sqrt(width), level * math.sqrt(width)]


def ops_for(workload, seed):
    """The operations of one pass; every pass of a run repeats them."""
    rng = np.random.default_rng([seed, sorted(WORKLOAD_GROUPS).index(workload)])
    ops = []
    if workload == "cold-cli":
        for g in WORKLOAD_GROUPS[workload]:
            ops.append({"op": "classify", "group": g, **infinity()})
            ops.append({"op": "classify", "group": g, **seeded_point(rng, g)})
            ops.append({"op": "inj", "group": g, "frame": None, "tmax": 10.0, "step": 0.1})
            ops.append({"op": "diagnose", "group": g, "band": [0.5, 2.0], "endpoint": "inf"})
        ops.append({"op": "verify", "samples": VERIFY_SAMPLES,
                    "seed": int(rng.integers(0, 2 ** 31))})
        ops.append({"op": "orbit", "flow": "geodesic", "start": float(rng.uniform(-5.0, 0.0)),
                    "step": float(rng.uniform(4e-4, 5e-4)), "rows": ORBIT_ROWS})
        ops.append({"op": "orbit", "flow": "horocycle", "start": float(rng.uniform(-100.0, -50.0)),
                    "step": float(rng.uniform(2e-3, 3e-3)), "rows": ORBIT_ROWS})
    elif workload == "relations-cli":
        g = "psl2z"
        points = [infinity(), rational(rng), irrational(SQRT2_M1)]
        ops += [{"op": "classify", "group": g, **p} for p in points]
        # each slow call twice, so a pass mean rests on two cold calls
        ops += [{"op": "inj", "group": g, "frame": None, "tmax": 10.0, "step": 0.1}] * 2
        ops += [{"op": "diagnose", "group": g, "band": [0.5, 2.0], "endpoint": "inf",
                 **NOTE_FAULT}] * 2
    elif workload == "warm-session":
        for g in WORKLOAD_GROUPS[workload]:
            points = [infinity()] + [seeded_point(rng, g) for _ in range(WARM_POINTS)]
            ops += [{"op": "classify", "group": g, **p} for p in points]
            if g == "gamma2":
                ops += [{"op": "classify", "group": g, **irrational(x), **SUP_HEIGHT_FAULT}
                        for x in (SQRT2_M1, GOLDEN_M1)]
            ops += [{"op": "heights", "group": g, **p, **HEIGHTS_FAULT}
                    for p in (infinity(), {"point": 0.0, "exact": [0, 1]})]
            ops.append({"op": "inj", "group": g, "frame": frame(rng), "tmax": 10.0, "step": 0.1})
            if g == "flute":
                ops.append({"op": "inj", "group": g, "frame": DIVING_FRAME, "tmax": 10.0,
                            "step": 0.1, **DISPLACEMENT_FAULT})
            if g in ("flute", "gamma2"):
                ops.append({"op": "diagnose", "group": g, "band": [0.5, 2.0], "endpoint": 0.0})
            if g == "gamma2":
                ops.append({"op": "diagnose", "group": g, "band": [0.5, 2.0], "endpoint": "inf"})
                ops += [{"op": "diagnose", "group": g, "band": b, "endpoint": "inf", **NOTE_FAULT}
                        for b in ([0.1, 10.0], [0.01, 100.0], [0.001, 1000.0])]
            else:
                ops += [{"op": "diagnose", "group": g, "band": band(rng), "endpoint": "inf"}
                        for _ in range(3)]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return ops


# the console script's entry point, run from source
LAUNCH = "import sys; from horoflow.cli import main; sys.exit(main())"


def _num(x):
    return "inf" if x == "inf" else repr(float(x))


def cli_argv(op, paths):
    """horoflow command-line arguments of a CLI operation."""
    kind = op["op"]
    if kind == "classify":
        return ["classify", "--group", paths[op["group"]], "--point", _num(op["point"])]
    if kind == "inj":
        return ["inj", "--group", paths[op["group"]], "--tmax", repr(op["tmax"]),
                "--step", repr(op["step"])]
    if kind == "diagnose":
        return ["diagnose", "--group", paths[op["group"]],
                "--band", repr(op["band"][0]), repr(op["band"][1])]
    if kind == "verify":
        return ["verify", "--samples", str(op["samples"]), "--seed", str(op["seed"])]
    if kind == "orbit":
        end = op["start"] + op["step"] * (op["rows"] - 1)
        return ["orbit", "--flow", op["flow"], "--start", repr(op["start"]),
                "--end", repr(end), "--step", repr(op["step"])]
    raise ValueError(f"{kind} is not a CLI operation")
