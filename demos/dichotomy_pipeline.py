"""The recurrence vs non-minimality diagnostics, end to end.

A horocycle orbit aimed at a limit point either returns near itself
(recurrence evidence, settled return time 0) or keeps returning at a fixed
positive time (non-minimality evidence). The pipeline hunts the word ball
for a height-banded escaping sequence, tracks two convergence streams, and
reports a verdict with the supporting numbers.
"""

import math

import horoflow as hf


def section(title):
    print(f"\n=== {title} ===")


section("Recurrence on a cusp group")
report = hf.run_dichotomy(hf.cyclic_parabolic())
print(f"verdict: {report.verdict.kind}, t = {report.verdict.t}")
print(f"sequence words: {[e.word for e in report.sequence.elements][:4]} ...")
print(f"Busemann stream converged: {report.busemann_limit.converged}, "
      f"limit {report.busemann_limit.limit}")

section("No qualifying sequence on a dilation group")
report = hf.run_dichotomy(hf.cyclic_hyperbolic())
print(f"verdict: {report.verdict.kind}")
print(f"note: {report.note}")

section("Injected synthetic sequence with a positive return time")
mats = [hf.Mobius(1.0, 4.0**n, 4.0**-n, 2.0) for n in range(1, 17)]
candidate = hf.synthetic_candidate(mats, (0.1, 2.0))
report = hf.run_dichotomy(hf.cyclic_hyperbolic(), candidate=candidate, band=(0.1, 2.0))
print(f"verdict: {report.verdict.kind}, t = {report.verdict.t:.12f} "
      f"(ln 4 = {math.log(4.0):.12f})")
coef = report.coefficients
print(f"coefficient evidence: c_n -> 0: {coef.c_limit_zero}, d_n -> {coef.d_limit}")

section("A vector aimed at a finite limit point")
# Frame turning the upward ray toward 0; the group is a parabolic fixing 0.
spec = hf.GroupSpec((hf.Mobius(1.0, 0.0, 1.0, 1.0),))
u = hf.UnitTangent(hf.Mobius(0.0, -1.0, 1.0, 0.0))
report = hf.run_dichotomy(spec, u)
print(f"forward endpoint {u.forward_endpoint()}, verdict: {report.verdict.kind}, "
      f"t = {report.verdict.t}")

section("Gamma(2) seen from a vector aimed at sqrt(2) - 1")
# The sequence and the candidate-time scan read the conjugates h g h^-1,
# h = [[0, -1], [1, -xi]], off Gamma(2)'s own ball in closed form, so the
# integer ball is never conjugated (that path failed its determinant check).
gamma2 = hf.GroupSpec((hf.Mobius(1, 2, 0, 1), hf.Mobius(1, 0, 2, 1)), max_word_length=10)
xi = math.sqrt(2.0) - 1.0
report = hf.run_dichotomy(gamma2, hf.UnitTangent(hf.Mobius(xi, -1.0, 1.0, 0.0)))
seq = report.sequence
print(f"{len(seq)}-term sequence, words {[e.word for e in seq.elements][:3]} ...")
print(f"heights of the orbit of xi + i about xi: "
      f"{', '.join(f'{h:.6f}' for h in seq.heights[:4])} ...")
print(f"verdict: {report.verdict.kind}")
print(f"note: {report.note}")
