"""Group files on disk and the command-line interface.

Writes group specifications as JSON (explicit generators and named
families), reloads them, and then drives each CLI subcommand the way a
shell user would. Outputs are deterministic for a fixed seed, so piping
them into files or diffs is safe.
"""

import atexit
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import horoflow as hf

# every file lives in a fresh directory, named relative to it, so that the
# printed commands and reports are the same on every run
workdir = Path(tempfile.mkdtemp(prefix="horoflow-demo-"))
atexit.register(shutil.rmtree, workdir)
os.chdir(workdir)
# the CLI runs from that directory too, so it imports this horoflow by its absolute path
env = dict(os.environ, PYTHONPATH=str(Path(hf.__file__).resolve().parents[1]))


def run(*args):
    proc = subprocess.run(
        [sys.executable, "-m", "horoflow.cli", *args],
        capture_output=True, text=True, env=env,
    )
    print(f"\n$ horoflow {' '.join(args)}")
    out = proc.stdout.strip()
    print("\n".join(out.splitlines()[:14]))
    if len(out.splitlines()) > 14:
        print(f"... ({len(out.splitlines())} lines total)")
    if proc.returncode != 0:
        print(f"[exit {proc.returncode}] {proc.stderr.strip()}")
    return proc


print("=== Writing group files ===")
explicit = Path("dilation.json")
hf.dump_group_spec(hf.cyclic_hyperbolic(), explicit)
print(f"{explicit}:")
print(explicit.read_text())

family = Path("cusp.json")
family.write_text(json.dumps({"family": {"kind": "cyclic-parabolic", "shift": 1.0}}))
reloaded = hf.load_group_spec(family)
print(f"family file reloads to generators {[(g.a, g.b, g.c, g.d) for g in reloaded.generators]}")

print("\n=== CLI tour ===")
run("verify", "--samples", "300", "--seed", "7")
run("classify", "--group", str(explicit), "--point", "inf", "--depth", "10")
run("orbit", "--flow", "horocycle", "--start", "0", "--end", "1", "--step", "0.25")
csv_path = Path("profile.csv")
run("inj", "--group", str(family), "--tmax", "4", "--out", str(csv_path))
print(f"\nfirst lines of {csv_path}:")
print("\n".join(csv_path.read_text().splitlines()[:4]))
run("diagnose", "--group", str(family))

print("\n=== Error handling ===")
bad = Path("bad.json")
bad.write_text(json.dumps({"generators": [[2.0, 0.0, 0.0, 1.0]]}))
run("classify", "--group", str(bad), "--point", "0")
run("classify", "--group", "missing.json", "--point", "0")
