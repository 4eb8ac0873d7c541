"""horoflow benchmark: run one workload and print its metrics.

Usage (from the root of a checkout):

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: cold-cli, warm-session, relations-cli (see README.md). horoflow
runs from ``src/`` of the checkout with ``HOROFLOW_THREADS`` unset; it gets
only the generated group files and arguments. Every operation's output is
checked against ``oracle.py``. The last line of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones, from an untraced
run; with ``--trace 1`` they are the per-layer ones, from ``trace.py``.
``correct`` is false when a check fails that no known fault excuses (see
``checks.unexpected``) or the reference does not pass its own accuracy
check.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import calib  # noqa: E402
import checks  # noqa: E402
import gen  # noqa: E402
import oracle  # noqa: E402

SETUP_RUNS = 3          # warm-session set-ups behind its set-up median
MIN_PASSES = 2          # every latency is a median over at least two passes
ORACLE_TOL = 1e-13      # the reference closed forms must be this close to exact
LATENCY = {"classify": "classify_ms", "inj": "inj_ms", "diagnose": "diagnose_ms"}
UNITS = {"ops_per_s": "1/s", "classify_ms": "ms", "inj_ms": "ms", "diagnose_ms": "ms",
         "setup_s": "s", "peak_rss_mb": "MB"}


def log(msg):
    print(msg, file=sys.stderr)


def child_env():
    env = dict(os.environ)
    env.pop("HOROFLOW_THREADS", None)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def spawn(argv, env):
    t = time.perf_counter()
    p = subprocess.run(argv, env=env, capture_output=True, text=True)
    return p, time.perf_counter() - t


def timing_metrics(ops, passes, probes):
    """Throughput over the operations' own time, and per kind the mean
    latency within a pass, median over passes, in ms; all at the reference
    speed of ``calib``."""
    passes = [[x * calib.factor(pr) for x in lat] for lat, pr in zip(passes, probes)]
    out = {"ops_per_s": sum(map(len, passes)) / sum(map(sum, passes))}
    for kind, name in LATENCY.items():
        idx = [i for i, op in enumerate(ops) if op["op"] == kind]
        means = [1000.0 * statistics.mean(lat[i] for i in idx) for lat in passes]
        out[name] = statistics.median(means)
    return out


def run_cli(ops, paths, seconds, env):
    """Cold CLI calls in a closed loop, each after a ``--version`` call that
    samples the set-up time; every output is checked after the phase."""
    version = [sys.executable, "-c", gen.LAUNCH, "--version"]
    spawn(version, env)  # compiles the bytecode
    results, passes, probes, versions = [], [], [], []
    start = time.perf_counter()
    with calib.Prober() as prober:
        while len(passes) < MIN_PASSES or time.perf_counter() - start < seconds:
            lat, pr, ver = [], [], []
            for op in ops:
                pr.append(prober.probe())
                ver.append(spawn(version, env)[1])
                p, dt = spawn([sys.executable, "-c", gen.LAUNCH] + gen.cli_argv(op, paths), env)
                lat.append(dt)
                results.append((op, p))
            passes.append(lat)
            probes.append(pr)
            versions += [v * calib.factor(pr) for v in ver]
    peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0

    refs, verdicts, failed, failures = checks.References(), {}, 0, {}
    for k, (op, p) in enumerate(results):
        key = (checks.describe(op), p.returncode, p.stdout)
        if key not in verdicts:
            if p.returncode != 0:
                verdicts[key] = [("exit", f"exit code {p.returncode}: {p.stderr.strip()[-300:]}")]
            else:
                verdicts[key] = checks.check(op, checks.parse_cli(op, p.stdout), refs)
            for cid, msg in verdicts[key]:
                log(f"FAILED {checks.describe(op)} [{cid}]: {msg}")
        if verdicts[key]:
            failed += 1
            failures.setdefault(k % len(ops), set()).update(cid for cid, _ in verdicts[key])
    metrics = {**timing_metrics(ops, passes, probes),
               "setup_s": statistics.median(versions), "peak_rss_mb": peak}
    return len(results), failed, failures, metrics


def run_session(ops, workdir, seconds, env):
    """The warm-session child; extra set-up-only children give the set-up median."""
    base = [sys.executable, os.path.join(HERE, "session.py"),
            "--ops", os.path.join(workdir, "ops.json"),
            "--groups", os.path.join(workdir, "groups.json")]
    setups = []
    for _ in range(SETUP_RUNS - 1):
        p, _ = spawn(base + ["--seconds", "0", "--setup-only"], env)
        if p.returncode != 0:
            raise RuntimeError(f"session set-up failed: {p.stderr.strip()[-500:]}")
        res = json.loads(p.stdout.strip().splitlines()[-1])
        setups.append(res["setup_s"] * calib.factor(res["setup_probes"]))
    p, _ = spawn(base + ["--seconds", str(seconds)], env)
    for line in p.stderr.splitlines():
        log(line)
    if p.returncode != 0:
        raise RuntimeError(f"session failed with exit code {p.returncode}")
    res = json.loads(p.stdout.strip().splitlines()[-1])
    setups.append(res["setup_s"] * calib.factor(res["setup_probes"]))
    n = len(ops) * len(res["passes"])
    metrics = {**timing_metrics(ops, res["passes"], res["probes"]),
               "setup_s": statistics.median(setups), "peak_rss_mb": res["peak_rss_mb"]}
    return n, res["failed"], dict(res["failures"]), metrics


def run_trace(ops, workdir, seconds, env, cli):
    argv = [sys.executable, os.path.join(HERE, "trace.py"),
            "--ops", os.path.join(workdir, "ops.json"),
            "--groups", os.path.join(workdir, "groups.json"),
            "--seconds", str(seconds), "--spans", os.path.join(workdir, "spans.json")]
    p, _ = spawn(argv + (["--cli"] if cli else []), env)
    for line in p.stderr.splitlines():
        log(line)
    if p.returncode != 0:
        raise RuntimeError(f"traced run failed with exit code {p.returncode}")
    res = json.loads(p.stdout.strip().splitlines()[-1])
    return res["attempted"], res["failed"], dict(res["failures"]), res["metrics"]


def oracle_ok(ops, seed) -> bool:
    """The reference's closed forms against exact recomposition, on a
    seeded sample of every ball the checks used."""
    refs = checks.References()
    for op in ops:
        if "group" in op:
            refs.ball(op["group"], op.get("endpoint", "inf"))
    ok = True
    for (group, endpoint), ball in refs.balls():
        err = oracle.self_check(ball, np.random.default_rng([seed, len(ball)]))
        if not err <= ORACLE_TOL:
            log(f"reference for {group} at {endpoint}: closed forms off by {err:.3g}")
            ok = False
    return ok


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(gen.WORKLOAD_GROUPS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "horoflow", "cli.py")):
        print(f"error: no horoflow sources under {SRC}; run from a checkout", file=sys.stderr)
        return 2

    workdir = os.path.join(ROOT, ".bench_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        ops = gen.ops_for(args.workload, args.seed)
        paths = gen.write_group_files(workdir, gen.WORKLOAD_GROUPS[args.workload])
        with open(os.path.join(workdir, "ops.json"), "w") as fh:
            json.dump(ops, fh)
        with open(os.path.join(workdir, "groups.json"), "w") as fh:
            json.dump(paths, fh)
        env = child_env()
        cli = args.workload.endswith("-cli")
        if args.trace:
            res = run_trace(ops, workdir, args.seconds, env, cli)
        elif cli:
            res = run_cli(ops, paths, args.seconds, env)
        else:
            res = run_session(ops, workdir, args.seconds, env)
        attempted, failed, failures, metrics = res
        unexpected = checks.unexpected(ops, failures)
        for i, cid in unexpected:
            log(f"unexpected failure: check {cid} of {checks.describe(ops[i])} "
                f"is not excused by a known fault")
        correct = oracle_ok(ops, args.seed) and not unexpected
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if not args.trace:
        metrics = {k: {"value": v, "unit": UNITS[k]} for k, v in metrics.items()}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
