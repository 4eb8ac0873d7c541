"""Checks of every operation's output against the reference in ``oracle.py``.

Outputs arrive normalized: ``parse_cli`` turns horoflow's JSON/CSV output
into the same dicts that ``session.py`` builds from library results. Each
check returns a list of failures ``(check id, message)``, the message naming
the measured value; an empty list means the operation passed. An operation
of a known fault carries ``"fault": <check id>``, the one check the fault
excuses (see ``unexpected``).
"""

from __future__ import annotations

import json
import math
import re
from fractions import Fraction

import numpy as np

import oracle
from gen import GROUPS

SUP_REL_TOL = 1e-12       # classify sup_height against the exact maximum
HEIGHTS_REL_TOL = 1e-12   # orbit_heights against the sorted reference
INJ_REL_TOL = 1e-9        # injectivity estimates against the closed form
BUSEMANN_ABS_TOL = 1e-9   # Busemann values against ln(c^2 + d^2)
ORBIT_REL_TOL = 1e-12     # orbit rows against s + i and i e^t
EPS = 1e-6                # horoflow's default settle tolerance and window
WINDOW = 5


class References:
    """Oracle balls per group, built on first use."""

    def __init__(self):
        self._balls = {}

    def ball(self, group, endpoint="inf"):
        key = (group, endpoint)
        if key not in self._balls:
            if endpoint == "inf":
                spec = GROUPS[group]
                self._balls[key] = oracle.Ball(spec["gens"], spec["depth"])
            elif endpoint == 0.0:
                self._balls[key] = self.ball(group).conjugated_by_s()
            else:
                raise ValueError(f"no reference for endpoint {endpoint!r}")
        return self._balls[key]

    def balls(self):
        return sorted(self._balls.items(), key=str)


# ---------------------------------------------------------------------------
# normalization of CLI output


def _csv(text):
    lines = text.strip().splitlines()
    return lines[0], np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])


def parse_cli(op, text):
    kind = op["op"]
    if kind in ("inj", "orbit"):
        header, rows = _csv(text)
        if kind == "inj":
            return {"header": header, "times": rows[:, 0], "inj": rows[:, 1]}
        return {"header": header, "rows": rows}
    data = json.loads(text)
    if kind == "classify":
        r = data["result"]
        return {"sup_height": r["sup_height"], "verdict": r["verdict"],
                "witness": r["parabolic_witness"]}
    if kind == "diagnose":
        seq = data["sequence"]
        if seq is not None:
            seq = {k: seq[k] for k in ("words", "heights", "coefficients")}
        return {"sequence": seq, "values": data["busemann"]["values"],
                "verdict": data["verdict"], "note": data["note"]}
    if kind == "verify":
        return {"passed": data["passed"], "checks": data["checks"]}
    raise ValueError(kind)


# ---------------------------------------------------------------------------
# checks


def _exact_point(op):
    """The point the input stands for, for the parabolic test."""
    e = op["exact"]
    if e is None or e == "irrational":
        return e
    return Fraction(e[0], e[1])


def _float_point(op):
    """The float the program was given, as an exact Fraction, for heights."""
    return None if op["point"] == "inf" else Fraction(float(op["point"]))


def _rel(got, want):
    return abs(got - want) / abs(want)


def _fixes(m, xi) -> bool:
    a, b, c, d = m
    if xi is None:
        return c == 0
    return c * xi * xi + (d - a) * xi - b == 0


def check_classify(op, out, refs):
    ball = refs.ball(op["group"])
    fails = []
    xi = _exact_point(op)
    want_parabolic = bool(oracle.parabolic_fixing(ball, xi))
    got_parabolic = out["verdict"] == "parabolic"
    if got_parabolic != want_parabolic:
        fails.append(("parabolic", f"parabolic verdict: got {out['verdict']}, reference ball "
                     f"{'has' if want_parabolic else 'has no'} parabolic element fixing the point"))
    if got_parabolic and xi != "irrational":
        w = out["witness"]
        exact = oracle.compose(ball.gens, w["word"])
        (a, b), (c, d) = w["matrix"]
        if not oracle.same_up_to_sign(exact, (a, b, c, d)):
            fails.append(("witness", f"witness word {w['word']} multiplies out to {exact}, "
                                     f"reported {w['matrix']}"))
        if abs(exact[0] + exact[3]) != 2 or not _fixes(exact, xi):
            fails.append(("witness", f"witness {exact}: trace {exact[0] + exact[3]}, "
                                     f"not a parabolic fixing the point"))
    ref = oracle.sup_height(ball, _float_point(op))
    rel = _rel(out["sup_height"], ref)
    if not rel <= SUP_REL_TOL:
        fails.append(("sup_height", f"sup_height: {out['sup_height']!r} vs reference {ref!r}, "
                                    f"relative error {rel:.3g} > {SUP_REL_TOL:g}"))
    return fails


def reference_heights(ball, xi):
    h = ball.heights(xi)
    ident = 1.0 if xi is None else 1.0 / (float(xi) ** 2 + 1.0)
    return np.sort(np.append(h, ident))[::-1]


def heights_error(out, ball, op) -> float:
    ref = reference_heights(ball, _float_point(op))
    if len(out) != len(ref):
        return math.inf
    return float(np.max(np.abs(out - ref) / ref))


def check_heights(op, out, refs):
    ball = refs.ball(op["group"])
    err = heights_error(out, ball, op)
    if not err <= HEIGHTS_REL_TOL:
        return [("heights", f"orbit_heights: worst relative error {err:.3g} > "
                            f"{HEIGHTS_REL_TOL:g} over {len(out)} heights")]
    return []


def check_inj(op, out, refs):
    ball = refs.ball(op["group"])
    n = int(math.floor(op["tmax"] / op["step"] + 1e-9)) + 1
    times = op["step"] * np.arange(n)
    if out["times"].shape != times.shape or not np.array_equal(out["times"], times):
        return [("inj_times", f"inj times: got {out['times'].size} samples, "
                              f"want {n} on step {op['step']}")]
    frame = op["frame"] or (1.0, 0.0, 0.0, 1.0)
    ref = oracle.half_min_displacement(ball, oracle.ray_points(frame, times))
    # an elliptic element fixing a ray point gives an exact 0, which must stay 0
    diff = np.abs(out["inj"] - ref)
    if not np.all(diff <= INJ_REL_TOL * ref):
        worst = int(np.argmax(diff / np.maximum(ref, np.finfo(float).tiny)))
        return [("inj", f"inj: {out['inj'][worst]!r} vs half the minimum displacement "
                        f"{ref[worst]!r} at t = {times[worst]:g}, beyond {INJ_REL_TOL:g} relative")]
    return []


def _expected_verdict(coeffs, values):
    s1 = []
    for a, b, c, d in coeffs:
        # the inverted element sends infinity to -d/c; residual 1/|d/c|
        s1.append(0.0 if c == 0 else (math.inf if d == 0 else float(abs(Fraction(c) / Fraction(d)))))
    s2 = [math.inf] + [abs(v1 - v0) for v0, v1 in zip(values, values[1:])]

    def settled(r):
        return len(r) >= WINDOW and all(x < EPS for x in r[-WINDOW:])

    if settled(s1) and settled(s2):
        t = values[-1]
        return ("recurrence-evidence" if abs(t) < EPS else "non-minimality-evidence"), t
    return "inconclusive", None


def check_diagnose(op, out, refs):
    ball = refs.ball(op["group"], op["endpoint"])
    m, M = op["band"]
    fails = []
    kind, t = out["verdict"]["kind"], out["verdict"]["t"]
    seq = out["sequence"]
    if seq is None:
        found = re.search(r"only (\d+) qualifying", out["note"] or "")
        if found:
            h = ball.heights(None)
            in_band = int(np.count_nonzero((h >= m) & (h <= M)))
            if int(found.group(1)) > in_band:
                fails.append(("note_count", f"note reports {found.group(1)} qualifying "
                                            f"elements, reference finds {in_band} in the band"))
        if kind != "inconclusive":
            fails.append(("verdict_rule", f"verdict {kind} without a sequence"))
    else:
        words, heights = seq["words"], seq["heights"]
        exact = [oracle.compose(ball.gens, w) for w in words]
        for w, e, rep in zip(words, exact, seq["coefficients"]):
            if ball.ints is not None:
                ok = oracle.same_up_to_sign(e, rep)
            else:
                scale = max(abs(float(x)) for x in e)
                ok = min(max(abs(float(x) - s * y) for x, y in zip(e, rep))
                         for s in (1.0, -1.0)) <= 1e-9 * scale
            if not ok:
                fails.append(("words", f"sequence word {w} multiplies out to {e}, reported {rep}"))
        slack = 1e-12 * max(1.0, M)
        for h, e in zip(heights, exact):
            he = oracle.exact_height(e, None)
            if not (m - slack <= h <= M + slack) or not (m <= he <= M):
                fails.append(("band", f"height {h!r} (exact {float(he)!r}) "
                                      f"outside the band ({m}, {M})"))
        moduli = [Fraction(a * a + b * b) / Fraction(c * c + d * d) for a, b, c, d in exact]
        if any(r1 <= r0 for r0, r1 in zip(moduli, moduli[1:])):
            fails.append(("moduli", "moduli |g(i)| do not strictly increase"))
        if any(len(w1) <= len(w0) for w0, w1 in zip(words, words[1:])):
            fails.append(("word_lengths", "word lengths do not strictly increase"))
        values = out["values"]
        for v, (a, b, c, d) in zip(values, exact):
            want = math.log(Fraction(c * c + d * d))
            if not abs(v - want) <= BUSEMANN_ABS_TOL:
                fails.append(("busemann", f"Busemann value {v!r} vs ln(c^2 + d^2) = {want!r}"))
        want_kind, want_t = _expected_verdict(exact, values)
        if (kind, t) != (want_kind, want_t):
            fails.append(("verdict_rule", f"verdict ({kind}, {t}) does not follow from "
                                          f"the values: expected ({want_kind}, {want_t})"))
    if (op["group"], op["endpoint"], tuple(op["band"])) == ("gamma2", "inf", (0.5, 2.0)):
        if kind != "recurrence-evidence" or t is None or abs(t) > 1e-12:
            fails.append(("gamma2_default", f"Gamma(2) at the default band: got "
                                            f"({kind}, {t}), want recurrence-evidence with t = 0"))
    if kind == "inconclusive" and not out["note"]:
        fails.append(("note", "inconclusive verdict without a note"))
    return fails


def check_verify(op, out, refs):
    bad = [c["name"] for c in out["checks"] if not c["passed"]]
    if not out["passed"] or bad:
        return [("verify", f"verify: passed={out['passed']}, failing checks {bad}")]
    return []


def check_orbit(op, out, refs):
    rows = out["rows"]
    if out["header"] != "s_or_t,re,im" or rows.shape != (op["rows"], 3):
        return [("orbit", f"orbit: header {out['header']!r}, shape {rows.shape}, "
                          f"want {op['rows']} rows")]
    t = op["start"] + op["step"] * np.arange(op["rows"])
    if not np.array_equal(rows[:, 0], t):
        return [("orbit", "orbit: sample times differ from start + k * step")]
    if op["flow"] == "horocycle":
        want = t + 1j
    else:
        want = 1j * np.exp(t)
    got = rows[:, 1] + 1j * rows[:, 2]
    err = float(np.max(np.abs(got - want) / np.maximum(1.0, np.abs(want))))
    if not err <= ORBIT_REL_TOL:
        return [("orbit", f"orbit ({op['flow']}): worst relative error {err:.3g} > "
                          f"{ORBIT_REL_TOL:g}")]
    return []


CHECKS = {"classify": check_classify, "heights": check_heights, "inj": check_inj,
          "diagnose": check_diagnose, "verify": check_verify, "orbit": check_orbit}


def check(op, out, refs):
    return CHECKS[op["op"]](op, out, refs)


def unexpected(ops, failures):
    """The failures no known fault excuses: every failed check of an untagged
    operation, and every check of a tagged one other than the one its tag
    names. ``failures`` maps an operation's index to its failed check ids;
    ``exit`` (non-zero exit code) and ``repeat`` (output changed between
    passes) are never excused."""
    return [(i, cid) for i, ids in sorted(failures.items()) for cid in sorted(ids)
            if cid != ops[i].get("fault")]


def describe(op):
    keys = [k for k in ("group", "point", "band", "endpoint", "flow", "seed") if k in op]
    return op["op"] + "(" + ", ".join(f"{k}={op[k]}" for k in keys) + ")"
