"""Command-line front end: verify | classify | orbit | inj | diagnose.

JSON reports (verify, classify, diagnose) and CSV tables (orbit, inj) are
emitted with all floats printed to 17 significant digits, so identical
inputs and seeds give byte-identical outputs. Exit status: 0 on success,
1 on domain errors (and on a failed verify run), 2 on usage errors.

Each subcommand imports its own modules, and NumPy, when it runs: a
classify call never loads the dichotomy, and --version loads no NumPy.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import re
import sys

from . import __version__
from .errors import HoroflowError

TOOL = "horoflow"
_CSV_ROWS = 4096  # CSV rows formatted per write


# ---------------------------------------------------------------------------
# deterministic JSON with 17-significant-digit floats


def _format_float(f: float) -> str:
    if math.isnan(f):
        return '"nan"'
    if math.isinf(f):
        return '"inf"' if f > 0 else '"-inf"'
    return "%.17g" % f


def dumps_17g(value, _indent: int = 0) -> str:
    import numpy as np  # already loaded by every subcommand that prints JSON

    pad = "  " * _indent
    if value is None:
        return "null"
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return _format_float(float(value))
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, dict):
        if not value:
            return "{}"
        inner = ",\n".join(f"{pad}  {json.dumps(str(k))}: {dumps_17g(v, _indent + 1)}"
                           for k, v in value.items())
        return "{\n" + inner + "\n" + pad + "}"
    if isinstance(value, (list, tuple, np.ndarray)):
        items = [dumps_17g(v, _indent + 1) for v in value]
        if not items:
            return "[]"
        if (all(not isinstance(v, (dict, list, tuple, np.ndarray)) for v in value)
                and sum(len(s) for s in items) < 72):
            return "[" + ", ".join(items) + "]"
        inner = ",\n".join(pad + "  " + s for s in items)
        return "[\n" + inner + "\n" + pad + "]"
    raise TypeError(f"cannot serialize {type(value).__name__}")


def _write_csv(out, header: str, *columns) -> None:
    """Write ``header`` and one row per index of the float arrays, each value
    at 17 significant digits, _CSV_ROWS rows at a time, each chunk formatted
    by one % over its values: the text held at once stays bounded."""
    n, width = len(columns[0]), len(columns)
    row = ",".join(["%.17g"] * width) + "\n"
    out.write(header + "\n")
    for k in range(0, n, _CSV_ROWS):
        m = min(_CSV_ROWS, n - k)
        values = [0.0] * (m * width)
        for j, col in enumerate(columns):
            values[j::width] = col[k:k + m].tolist()
        out.write(row * m % tuple(values))


def _bp_data(p):
    return "inf" if p.is_infinity else p.value


def _header(command: str, config: dict) -> dict:
    return {"tool": TOOL, "version": __version__, "command": command,
            "config": config}


def _defaults(args, **values):
    """Fill the options left unset with their library defaults, which live in
    the modules the subcommand imports, so that parsing imports none."""
    for name, value in values.items():
        if getattr(args, name) is None:
            setattr(args, name, value)


def _load_spec(args):
    from .groupio import load_group_spec

    spec = load_group_spec(args.group)
    if args.depth is not None and args.depth < 1:
        raise ValueError("depth must be at least 1")
    return spec


# ---------------------------------------------------------------------------
# subcommands


def _cmd_verify(args, out) -> int:
    from .verify import DEFAULT_SAMPLES, DEFAULT_TOL, run_verification

    _defaults(args, samples=DEFAULT_SAMPLES, tol=DEFAULT_TOL)
    report = run_verification(samples=args.samples, seed=args.seed, tol=args.tol)
    data = _header("verify", {"samples": args.samples, "seed": args.seed,
                              "tol": args.tol})
    data["checks"] = [{"name": c.name, "max_residual": c.max_residual,
                       "tol": c.tol, "passed": c.passed} for c in report.checks]
    data["substitution"] = {"alternative": "log-b-squared",
                            "alternative_residual": report.substitution_alternative_residual}
    data["passed"] = report.passed
    out.write(dumps_17g(data) + "\n")
    return 0 if report.passed else 1


def _cmd_classify(args, out) -> int:
    from .halfplane import GEOM_TOL, bp
    from .limits import classify_boundary_point

    _defaults(args, tol=GEOM_TOL)
    spec = _load_spec(args)
    ev = classify_boundary_point(spec, bp(args.point), depth=args.depth,
                                 tol=args.tol)
    witness = None
    if ev.parabolic_witness is not None:
        g = ev.parabolic_witness
        witness = {"word": list(g.word),
                   "matrix": [[g.mobius.a, g.mobius.b], [g.mobius.c, g.mobius.d]]}
    data = _header("classify", {"group": args.group,
                                "point": _bp_data(bp(args.point)),
                                "depth": ev.depth, "tol": args.tol})
    data["result"] = {
        "point": _bp_data(ev.point),
        "depth": ev.depth,
        "sup_height": ev.sup_height,
        "height_accumulation": ev.height_accumulation,
        "parabolic_witness": witness,
        "verdict": ev.verdict.value,
    }
    out.write(dumps_17g(data) + "\n")
    return 0


def _cmd_orbit(args, out) -> int:
    import numpy as np

    from .flows import orbit_points, sample_count
    from .halfplane import BASE_TANGENT

    if not args.start < args.end:
        raise ValueError(f"need start < end, got {args.start}, {args.end}")
    n = sample_count(args.end - args.start, args.step)
    times = args.start + args.step * np.arange(n)
    pts = orbit_points(BASE_TANGENT, args.flow, times)
    _write_csv(out, "s_or_t,re,im", times, pts.real, pts.imag)
    return 0


def _cmd_inj(args, out) -> int:
    from .flows import injectivity_profile

    spec = _load_spec(args)
    profile = injectivity_profile(spec, t_max=args.tmax, step=args.step,
                                  depth=args.depth)
    _write_csv(out, "t,inj_estimate", profile.times, profile.inj_estimates)
    if args.out is not None:
        summary = _header("inj", {"group": args.group, "tmax": args.tmax,
                                  "step": args.step, "out": args.out})
        summary["rows"] = profile.times.size
        summary["liminf_estimate"] = profile.liminf_estimate
        sys.stdout.write(dumps_17g(summary) + "\n")
    return 0


def _cmd_diagnose(args, out) -> int:
    from .dichotomy import EPS, MIN_SEQ_LEN, WINDOW, run_dichotomy

    _defaults(args, eps=EPS, window=WINDOW, min_len=MIN_SEQ_LEN)
    spec = _load_spec(args)
    band = (args.band[0], args.band[1])
    report = run_dichotomy(spec, band=band, eps=args.eps, depth=args.depth,
                           window=args.window, min_len=args.min_len)
    data = _header("diagnose", {"group": args.group, "band": list(band),
                                "eps": args.eps, "depth": args.depth,
                                "window": args.window, "min_len": args.min_len})
    seq = report.sequence
    if seq is None:
        data["sequence"] = None
    else:
        data["sequence"] = {
            "words": [list(w) for w in seq.words],
            "heights": list(seq.heights),
            "endpoint_images": [_bp_data(p) for p in seq.endpoint_images],
            "coefficients": [list(c) for c in seq.coefficients],
            "heights_nonconstant": seq.heights_nonconstant,
        }
    co = report.coefficients
    data["coefficients"] = None if co is None else {
        "a_diverging": co.a_diverging, "c_limit_zero": co.c_limit_zero,
        "min_cd_norm": co.min_cd_norm}
    bl = report.busemann_limit
    data["busemann"] = {
        "converged": bl.converged,
        "limit": bl.limit,
        "values": list(bl.values) if bl.values is not None else None,
        "residuals": list(bl.residuals),
    }
    data["candidate_times"] = list(report.candidate_times)
    data["verdict"] = {"kind": report.verdict.kind, "t": report.verdict.t}
    data["note"] = report.note
    out.write(dumps_17g(data) + "\n")
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    # an option whose default is a library constant defaults to None here;
    # its subcommand fills it in (_defaults)
    parser = argparse.ArgumentParser(
        prog=TOOL, description="Half-plane horocycle dynamics toolkit")
    parser.add_argument("--version", action="version",
                        version=f"{TOOL} {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out")
    grouped = argparse.ArgumentParser(add_help=False, parents=[common])
    grouped.add_argument("--group", required=True)
    grouped.add_argument("--depth", type=int, default=None)

    p = sub.add_parser("verify", parents=[common], help="run the randomized identity suite")
    p.add_argument("--samples", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=float, default=None)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("classify", parents=[grouped],
                       help="finite-depth boundary point classification")
    p.add_argument("--point", type=float, required=True,
                   help="boundary point (real number, or inf)")
    p.add_argument("--tol", type=float, default=None)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("orbit", parents=[common],
                       help="sample a flow orbit of the base tangent vector")
    p.add_argument("--flow", choices=("geodesic", "horocycle"), required=True)
    p.add_argument("--start", type=float, default=0.0)
    p.add_argument("--end", type=float, default=10.0)
    p.add_argument("--step", type=float, default=0.1)
    p.set_defaults(func=_cmd_orbit)

    p = sub.add_parser("inj", parents=[grouped],
                       help="injectivity-radius profile along the forward ray")
    p.add_argument("--tmax", type=float, default=10.0)
    p.add_argument("--step", type=float, default=0.1)
    p.set_defaults(func=_cmd_inj)

    p = sub.add_parser("diagnose", parents=[grouped],
                       help="recurrence vs non-minimality diagnostics")
    p.add_argument("--band", type=float, nargs=2, default=(0.5, 2.0),
                   metavar=("MIN", "MAX"))
    p.add_argument("--eps", type=float, default=None)
    p.add_argument("--window", type=int, default=None)
    p.add_argument("--min-len", type=int, default=None, dest="min_len")
    p.set_defaults(func=_cmd_diagnose)

    # argparse reads -1.5 but not -1e-3 or -inf as a value; no option here looks like one
    for p in sub.choices.values():
        p._negative_number_matcher = re.compile(r"-(\.?\d|(inf|infinity|nan)$)", re.I)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # opened before the work, and truncated like a shell redirection
        with (contextlib.nullcontext(sys.stdout) if args.out is None
              else open(args.out, "w", encoding="utf-8", newline="")) as out:
            return args.func(args, out)
    except OSError as exc:
        print(f"{TOOL}: error: {exc}", file=sys.stderr)
        return 2
    except (HoroflowError, ValueError) as exc:
        print(f"{TOOL}: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
