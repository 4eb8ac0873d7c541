"""Steadiness command: repeat workloads over seeds and report each metric's spread.

Usage (from the root of a checkout):

    python3 bench/steady.py [--workloads cold-cli,warm-session] [--first-seed 1]

Runs ``run.py`` on ten seeds, one run at a time, for the ``run_seconds`` of
BENCHMARK.json that its bounds apply to, and prints for every metric
the median, the quartiles (``statistics.quantiles(values, n=4)``) and the
spread (q3 - q1) / median, next to a third of its bound and the bound from
BENCHMARK.json. It also prints each workload's share of failed operations,
which must be the same in every run. The raw results go to stdout as JSON
lines first, so a long session can be kept with ``tee``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEEDS = 10


def main(argv=None):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    for workload in args.workloads.split(","):
        runs = []
        for seed in range(args.first_seed, args.first_seed + SEEDS):
            p = subprocess.run([sys.executable, os.path.join(HERE, "run.py"),
                                "--workload", workload, "--seed", str(seed),
                                "--seconds", str(bench["run_seconds"]), "--trace", "0"],
                               cwd=ROOT, capture_output=True, text=True)
            if p.returncode != 0:
                print(p.stderr, file=sys.stderr)
                raise SystemExit(f"{workload} seed {seed}: exit code {p.returncode}")
            res = json.loads(p.stdout.strip().splitlines()[-1])
            print(json.dumps({"workload": workload, "seed": seed, **res}), flush=True)
            runs.append(res)
        shares = sorted({f"{r['failed']}/{r['attempted']}" for r in runs})
        ratio = {r["failed"] / r["attempted"] for r in runs}
        print(f"\n{workload}: {len(runs)} runs, failed/attempted {', '.join(shares)} "
              f"({'one share' if len(ratio) == 1 else 'SHARES DIFFER'}), "
              f"correct in {sum(r['correct'] for r in runs)}")
        print(f"{'metric':28s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s} "
              f"{'bound/3':>8s} {'bound':>6s}")
        for name in runs[0]["metrics"]:
            vals = [r["metrics"][name]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / abs(med) if med else float("nan")
            b = bounds[name]
            flag = "" if spread < b / 3 else ("  over bound/3" if spread < b else "  OVER BOUND")
            print(f"{name:28s} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.3f} "
                  f"{b / 3:8.3f} {b:6.2f}{flag}")
        print(flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
