"""The warm-session workload: one process that uses horoflow as a library.

Set-up imports horoflow, loads the group files and builds every ball the
query stream uses (each group's ball, and the conjugated ball of each finite
dichotomy endpoint). The measured phase then repeats the same pass of
library calls, at least twice and until ``--seconds`` have passed, in a
closed loop.

Usage: python3 session.py --ops OPS.json --groups GROUPS.json --seconds S
       [--setup-only]

It prints one JSON line: set-up time, per-pass latencies, the process's own
peak resident set, and the check results. The peak is read before the
checks build their reference balls, so it covers horoflow's work only.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import sys
import time

import numpy as np

import calib


def point(op):
    return float(op["point"])  # "inf" parses to infinity


def endpoint_tangent(hf, endpoint):
    if endpoint == "inf":
        return hf.BASE_TANGENT
    # a frame whose forward endpoint a/c is the given point
    return hf.UnitTangent(hf.Mobius(float(endpoint), -1.0, 1.0, 0.0))


def execute(hf, specs, op):
    kind = op["op"]
    if kind == "classify":
        return hf.classify_boundary_point(specs[op["group"]], point(op))
    if kind == "heights":
        return hf.orbit_heights(specs[op["group"]], point(op))
    if kind == "inj":
        u = hf.UnitTangent(hf.Mobius(*op["frame"])) if op["frame"] else hf.BASE_TANGENT
        return hf.injectivity_profile(specs[op["group"]], u, t_max=op["tmax"], step=op["step"])
    if kind == "diagnose":
        return hf.run_dichotomy(specs[op["group"]], endpoint_tangent(hf, op["endpoint"]),
                                band=tuple(op["band"]))
    if kind == "verify":
        return hf.run_verification(samples=op["samples"], seed=op["seed"])
    if kind == "orbit":
        times = op["start"] + op["step"] * np.arange(op["rows"])
        return times, hf.orbit_points(hf.BASE_TANGENT, op["flow"], times)
    raise ValueError(kind)


def normalize(op, r):
    """The same dict ``checks.parse_cli`` makes from the CLI's output."""
    kind = op["op"]
    if kind == "classify":
        w = r.parabolic_witness
        witness = None if w is None else {
            "word": list(w.word),
            "matrix": [[w.mobius.a, w.mobius.b], [w.mobius.c, w.mobius.d]]}
        return {"sup_height": r.sup_height, "verdict": r.verdict.value, "witness": witness}
    if kind == "heights":
        return r
    if kind == "inj":
        return {"header": "t,inj_estimate", "times": r.times, "inj": r.inj_estimates}
    if kind == "diagnose":
        seq = None if r.sequence is None else {
            "words": [list(e.word) for e in r.sequence.elements],
            "heights": list(r.sequence.heights),
            "coefficients": [list(c) for c in r.sequence.coefficients]}
        values = r.busemann_limit.values
        return {"sequence": seq, "values": None if values is None else list(values),
                "verdict": {"kind": r.verdict.kind, "t": r.verdict.t}, "note": r.note}
    if kind == "verify":
        return {"passed": r.passed,
                "checks": [{"name": c.name, "passed": c.passed} for c in r.checks]}
    if kind == "orbit":
        times, z = r
        return {"header": "s_or_t,re,im", "rows": np.column_stack([times, z.real, z.imag])}
    raise ValueError(kind)


def same(x, y) -> bool:
    """Bitwise equality of two normalized outputs."""
    if isinstance(x, np.ndarray):
        return isinstance(y, np.ndarray) and x.shape == y.shape and np.array_equal(x, y)
    if isinstance(x, dict):
        return isinstance(y, dict) and x.keys() == y.keys() and all(same(x[k], y[k]) for k in x)
    if isinstance(x, list):
        return isinstance(y, list) and len(x) == len(y) and all(map(same, x, y))
    return x == y


def setup(group_paths, ops):
    """Import, load and build every ball the ops use, in steps, a speed probe
    before each; returns (hf, specs, step times, probe times)."""
    times, probes = [], []

    def step(fn):
        probes.append(calib.probe())
        t = time.perf_counter()
        out = fn()
        times.append(time.perf_counter() - t)
        return out

    hf = step(lambda: importlib.import_module("horoflow"))
    specs = step(lambda: {g: hf.load_group_spec(p) for g, p in group_paths.items()})
    for spec in specs.values():
        step(lambda: (hf.enumerate_ball(spec), hf.group.ball_arrays(spec)))
    built = set()
    for op in ops:
        if op["op"] == "diagnose" and op["endpoint"] != "inf":
            key = (op["group"], op["endpoint"])
            if key not in built:
                step(lambda: execute(hf, specs, op))
                built.add(key)
    return hf, specs, times, probes


def run_passes(hf, specs, ops, seconds):
    """Closed loop over whole passes, a speed probe before each operation;
    returns per-pass latencies and probe times, and the outputs."""
    first, mismatched, passes, probes = [], [0] * len(ops), [], []
    start = time.perf_counter()
    while True:
        lat, pr = [], []
        for i, op in enumerate(ops):
            pr.append(calib.probe())
            t = time.perf_counter()
            r = execute(hf, specs, op)
            lat.append(time.perf_counter() - t)
            out = normalize(op, r)
            if not passes:
                first.append(out)
            elif not same(out, first[i]):
                mismatched[i] += 1
        passes.append(lat)
        probes.append(pr)
        if len(passes) >= 2 and time.perf_counter() - start >= seconds:
            break
    return passes, probes, first, mismatched


def count_failures(ops, first, mismatched, n_passes, log):
    """Check pass one against the reference; a later pass fails an op when
    its output differs from pass one's. Returns the failed count and, per
    failed operation, its failed check ids as ``[index, ids]`` pairs."""
    import checks

    refs = checks.References()
    failed, failures = 0, []
    for i, op in enumerate(ops):
        fails = checks.check(op, first[i], refs)
        if mismatched[i]:
            fails.append(("repeat", f"output changed between passes "
                                    f"({mismatched[i]} of {n_passes - 1} later passes)"))
        for cid, msg in fails:
            log(f"FAILED {checks.describe(op)} [{cid}]: {msg}")
        failed += n_passes if any(cid != "repeat" for cid, _ in fails) else mismatched[i]
        if fails:
            failures.append([i, sorted({cid for cid, _ in fails})])
    return failed, failures


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--ops", required=True)
    ap.add_argument("--groups", required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)
    with open(args.ops) as fh:
        ops = json.load(fh)
    with open(args.groups) as fh:
        group_paths = json.load(fh)

    hf, specs, steps, setup_probes = setup(group_paths, ops)
    setup_s = sum(steps)
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "setup_probes": setup_probes}))
        return 0
    passes, probes, first, mismatched = run_passes(hf, specs, ops, args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    failed, failures = count_failures(ops, first, mismatched, len(passes),
                                      lambda msg: print(msg, file=sys.stderr))
    print(json.dumps({"setup_s": setup_s, "setup_probes": setup_probes,
                      "passes": passes, "probes": probes,
                      "peak_rss_mb": peak_rss_mb, "failed": failed,
                      "failures": failures}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
