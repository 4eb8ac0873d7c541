"""Traced run: per-layer metrics from spans around horoflow's public functions.

The run replays one pass of the workload's operations in this process,
through the CLI's ``main`` for CLI workloads and through the library for
warm-session, then probes the layers the pass does not reach. Every call
into the traced functions records a span (name, start, end, parent span and
a few counts); the spans stay in memory and are written out when the run
ends. Tracing overhead is measured by replaying the pass with and without
the wrappers installed.

Usage: python3 trace.py --ops OPS.json --groups GROUPS.json --seconds S
       --spans OUT.json [--cli]
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import json
import os
import statistics
import subprocess
import sys
import time
from collections import Counter

import checks
import gen
import session

TRACED = {
    "groupio": ("load_group_spec",),
    "group": ("enumerate_ball", "ball_arrays"),
    "limits": ("orbit_heights", "classify_boundary_point"),
    "flows": ("injectivity_profile", "orbit_points"),
    "dichotomy": ("find_bounded_escaping_sequence", "test_recurrence", "test_return_time",
                  "run_dichotomy"),
    "verify": ("run_verification",),
    "cli": ("main",),
}
CLI_COMPUTE = ("classify_boundary_point", "injectivity_profile", "run_dichotomy",
               "run_verification", "orbit_points")
SETTLE = ("test_recurrence", "test_return_time")
IMPORT_TIMER = ("import time; t = time.perf_counter(); import horoflow.cli; "
                "print(time.perf_counter() - t)")


def candidates(spec, ball):
    """Products the breadth-first enumeration tries: 2r at length one, then
    2r - 1 per element of each shorter length."""
    letters = 2 * len(spec.generators)
    per_length = Counter(len(e.word) for e in ball)
    depth = max(per_length, default=0)
    return letters + sum(per_length[k] * (letters - 1) for k in range(1, depth))


class Tracer:
    """Wraps the traced functions wherever horoflow's modules bind them."""

    def __init__(self, hf):
        self.spans = []
        self._stack = []
        self._saved = []
        self._seen_balls = set()
        self.modules = [hf] + [getattr(hf, m) for m in (
            "cli", "dichotomy", "flows", "group", "groupio", "limits", "verify")]
        self.targets = {getattr(getattr(hf, mod), name): name if name != "main" else "cli.main"
                        for mod, names in TRACED.items() for name in names}

    def _info(self, name, args, kwargs, result):
        if name == "enumerate_ball" and id(result) not in self._seen_balls:
            self._seen_balls.add(id(result))
            return {"cold": True, "spec": args[0], "elements": len(result),
                    "candidates": candidates(args[0], result)}
        if name == "orbit_heights":
            return {"elements": len(result)}
        if name == "injectivity_profile":
            return {"spec": args[0], "samples": len(result.times),
                    "threads": os.environ.get("HOROFLOW_THREADS")}
        if name == "run_dichotomy":
            u = args[1] if len(args) > 1 else kwargs.get("u")
            return {"spec": args[0],
                    "finite": u is not None and not u.forward_endpoint().is_infinity}
        if name == "run_verification":
            return {"samples": kwargs["samples"]}
        if name == "cli.main":
            return {"command": args[0][0]}
        return {}

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {"name": name, "parent": self._stack[-1] if self._stack else None}
            self.spans.append(span)
            self._stack.append(len(self.spans) - 1)
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            span.update(self._info(name, args, kwargs, result))
            return result
        return traced

    def install(self):
        wrappers = {}
        for mod in self.modules:
            for attr, val in list(vars(mod).items()):
                name = self.targets.get(val) if callable(val) else None
                if name is not None:
                    if val not in wrappers:
                        wrappers[val] = self._wrap(name, val)
                    self._saved.append((mod, attr, val))
                    setattr(mod, attr, wrappers[val])

    def uninstall(self):
        for mod, attr, val in self._saved:
            setattr(mod, attr, val)
        self._saved.clear()


def rss_mb():
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE") / 2 ** 20


def replay(hf, specs, paths, ops, cli_backend):
    """One pass; returns the normalized outputs."""
    outs = []
    for op in ops:
        if cli_backend:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
                rc = hf.cli.main(gen.cli_argv(op, paths))
            outs.append(checks.parse_cli(op, buf.getvalue()) if rc == 0 else None)
        else:
            outs.append(session.normalize(op, session.execute(hf, specs, op)))
    return outs


def cli_main(hf, argv):
    with contextlib.redirect_stdout(io.StringIO()):
        hf.cli.main(argv)


def spawned(argv, env, reps=3):
    """(wall ms, stdout) of a few runs of a spawned process."""
    runs = []
    for _ in range(reps):
        t = time.perf_counter()
        p = subprocess.run(argv, env=env, capture_output=True, text=True, check=True)
        runs.append((1000.0 * (time.perf_counter() - t), p.stdout))
    return runs


def _ms(spans):
    return 1000.0 * statistics.mean(s["end"] - s["start"] for s in spans)


def _sum_s(spans):
    return sum(s["end"] - s["start"] for s in spans)


def layer_metrics(spans, ball_mb, heights_err, startup_ms, import_ms, overhead_pct):
    by = {}
    for s in spans:
        by.setdefault(s["name"], []).append(s)
    kids = {}
    for s in spans:
        if s["parent"] is not None:
            kids.setdefault(s["parent"], []).append(s)
    ids = {id(s): i for i, s in enumerate(spans)}

    cold = [s for s in by["enumerate_ball"] if s.get("cold") and s["parent"] is None]
    sizes = {s["spec"]: s["elements"] for s in cold}
    arrays = [s for s in by["ball_arrays"] if s["parent"] is None]
    inj1 = [s for s in by["injectivity_profile"] if s["threads"] is None]
    inj2 = [s for s in by["injectivity_profile"] if s["threads"] is not None]
    # the first call at a finite endpoint builds that conjugated ball
    conjugate, warm, seen = [], [], set()
    for s in by["run_dichotomy"]:
        if s["finite"] and s["spec"] not in seen:
            seen.add(s["spec"])
            conjugate.append(s)
        else:
            warm.append(s)
    warm_ids = {ids[id(s)] for s in warm}
    search = [s for s in by["find_bounded_escaping_sequence"] if s["parent"] in warm_ids]
    settle = [_sum_s(ks) for ks in ([k for k in kids.get(i, []) if k["name"] in SETTLE]
                                     for i in warm_ids) if ks]
    mains = by["cli.main"]
    overhead = []
    for s in mains:
        inner = [k for k in kids.get(ids[id(s)], []) if k["name"] in CLI_COMPUTE]
        if inner:
            overhead.append(s["end"] - s["start"] - _sum_s(inner))
    heights = by["orbit_heights"]
    verify = by["run_verification"]
    m = {
        "cli.startup_ms": (startup_ms, "ms"),
        "cli.import_ms": (import_ms, "ms"),
        "cli.overhead_ms": (1000.0 * statistics.mean(overhead), "ms"),
        "cli.verify_ms": (_ms([s for s in mains if s["command"] == "verify"]), "ms"),
        "cli.orbit_ms": (_ms([s for s in mains if s["command"] == "orbit"]), "ms"),
        "groupio.load_ms": (_ms(by["load_group_spec"]), "ms"),
        "group.ball_s": (_sum_s(cold), "s"),
        "group.arrays_ms": (1000.0 * _sum_s(arrays), "ms"),
        "group.elements_per_s": (sum(s["elements"] for s in cold) / _sum_s(cold), "1/s"),
        "group.ball_mb": (ball_mb, "MB"),
        "group.keep_ratio": (sum(s["elements"] for s in cold)
                             / sum(s["candidates"] for s in cold), "ratio"),
        "limits.classify_ms": (_ms(by["classify_boundary_point"]), "ms"),
        "limits.heights_ms": (_ms(heights), "ms"),
        "limits.heights_per_s": (sum(s["elements"] for s in heights) / _sum_s(heights), "1/s"),
        "limits.height_rel_err": (heights_err, "ratio"),
        "flows.inj_ms": (_ms(inj1), "ms"),
        "flows.pair_evals_per_s": (sum(sizes[s["spec"]] * s["samples"] for s in inj1)
                                   / _sum_s(inj1), "1/s"),
        "flows.pair_evals_per_s_2t": (sum(sizes[s["spec"]] * s["samples"] for s in inj2)
                                      / _sum_s(inj2), "1/s"),
        "flows.orbit_points_ms": (_ms(by["orbit_points"]), "ms"),
        "dichotomy.search_ms": (_ms(search), "ms"),
        "dichotomy.settle_ms": (1000.0 * statistics.mean(settle), "ms"),
        "dichotomy.run_ms": (_ms(warm), "ms"),
        "dichotomy.conjugate_ball_s": (_sum_s(conjugate) / len(conjugate), "s"),
        "verify.run_ms": (_ms(verify), "ms"),
        "verify.samples_per_s": (sum(s["samples"] for s in verify) / _sum_s(verify), "1/s"),
        "trace.overhead_pct": (overhead_pct, "%"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--ops", required=True)
    ap.add_argument("--groups", required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--spans", required=True)
    ap.add_argument("--cli", action="store_true", help="replay through cli.main")
    args = ap.parse_args(argv)
    with open(args.ops) as fh:
        ops = json.load(fh)
    with open(args.groups) as fh:
        paths = json.load(fh)
    start = time.perf_counter()
    env = dict(os.environ)
    startup_ms = statistics.median(
        wall for wall, _ in spawned([sys.executable, "-c", gen.LAUNCH, "--version"], env))
    import_ms = statistics.median(
        1000.0 * float(out) for _, out in spawned([sys.executable, "-c", IMPORT_TIMER], env))

    import horoflow as hf
    import horoflow.cli  # noqa: F401  (binds hf.cli)

    tracer = Tracer(hf)
    tracer.install()
    before = rss_mb()
    specs = {g: hf.load_group_spec(p) for g, p in paths.items()}
    for spec in specs.values():
        hf.enumerate_ball(spec)
        hf.group.ball_arrays(spec)
    ball_mb = rss_mb() - before

    outs = replay(hf, specs, paths, ops, args.cli)
    refs = checks.References()
    failures = []
    for i, (op, out) in enumerate(zip(ops, outs)):
        fails = [("exit", "non-zero exit")] if out is None else checks.check(op, out, refs)
        for cid, msg in fails:
            print(f"FAILED {checks.describe(op)} [{cid}]: {msg}", file=sys.stderr)
        if fails:
            failures.append([i, sorted({cid for cid, _ in fails})])

    # probes for the layers a pass may not reach
    first = next(iter(specs))
    if not any(op["op"] == "diagnose" and op["endpoint"] != "inf" for op in ops):
        hf.run_dichotomy(specs[first], session.endpoint_tangent(hf, 0.0))
    heights_err = 0.0
    for g, spec in specs.items():
        for p in ("inf", 0.0):
            op = {"op": "heights", "group": g, "point": p}
            heights_err = max(heights_err, checks.heights_error(
                hf.orbit_heights(spec, float(p)), refs.ball(g), op))
    threads = min(2, len(os.sched_getaffinity(0)))
    os.environ["HOROFLOW_THREADS"] = str(threads)
    try:
        hf.injectivity_profile(specs[first])
    finally:
        del os.environ["HOROFLOW_THREADS"]
    cli_main(hf, ["verify", "--samples", str(gen.VERIFY_SAMPLES)])
    cli_main(hf, ["orbit", "--flow", "geodesic", "--start", "0", "--end", "30",
                  "--step", "0.0005"])
    cli_main(hf, ["inj", "--group", paths[first]])

    # tracing overhead: the same warm pass with and without the wrappers
    ratios = []
    while not ratios or time.perf_counter() - start < args.seconds:
        tracer.uninstall()
        t = time.perf_counter()
        replay(hf, specs, paths, ops, args.cli)
        plain = time.perf_counter() - t
        tracer.install()
        t = time.perf_counter()
        replay(hf, specs, paths, ops, args.cli)
        ratios.append((time.perf_counter() - t) / plain)
    tracer.uninstall()

    metrics = layer_metrics(tracer.spans, ball_mb, heights_err, startup_ms, import_ms,
                            100.0 * (statistics.median(ratios) - 1.0))
    with open(args.spans, "w") as fh:
        json.dump([{k: v for k, v in s.items() if k != "spec"} for s in tracer.spans], fh)
    print(json.dumps({"attempted": len(ops), "failed": len(failures),
                      "failures": failures, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
