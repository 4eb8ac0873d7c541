"""Word balls, orbit heights, and the finite-depth limit-point taxonomy.

Enumerates preset groups, looks at how high their orbits climb inside a
horoball, and classifies boundary points as parabolic, horocyclic-evidence,
or discrete-evidence. Ends with why no group built here reads
irregular-evidence: every one is finitely generated.
"""

import horoflow as hf


def section(title):
    print(f"\n=== {title} ===")


section("Word balls")
schottky = hf.schottky_pair()
for depth in (1, 2, 3):
    print(f"free rank-2 ball, depth {depth}: {len(hf.enumerate_ball(schottky, depth))} elements")
ball = hf.enumerate_ball(schottky, 2)
print("first few words:", [e.word for e in ball[:7]])

section("Orbit heights at a boundary point")
hyp = hf.cyclic_hyperbolic()  # single dilation z -> 4z
print("heights of the dilation orbit seen from infinity (depth 3):")
print(" ", list(hf.orbit_heights(hyp, hf.INFINITY, depth=3)))
print("the same orbit seen from the repelling fixed point 0 stays bounded:")
print(" ", list(hf.orbit_heights(hyp, hf.bp(0.0), depth=3)))

section("Classification of boundary points")
par = hf.cyclic_parabolic()
ev = hf.classify_boundary_point(par, hf.INFINITY)
print(f"translations, at infinity: {ev.verdict.value}, witness word {ev.parabolic_witness.word}")
up = hf.classify_boundary_point(hyp, hf.INFINITY, depth=10)
print(f"dilation, at infinity:     {up.verdict.value}, sup height {up.sup_height:g}")
out = hf.classify_boundary_point(hyp, hf.bp(1.0), depth=10)
print(f"dilation, at 1:            {out.verdict.value}, sup height {out.sup_height:g}")
print("(1 is not a limit point of the dilation orbit, hence the bounded sup)")

section("Geometrically finite presets stay regular")
for name, spec, depth in [
    ("cyclic parabolic", par, 10),
    ("cyclic hyperbolic", hyp, 10),
    ("schottky pair", schottky, 8),
    ("truncated flute", hf.truncated_flute(), 6),
]:
    verdicts = set()
    points = [hf.INFINITY, hf.bp(0.0), hf.bp(1.0), hf.bp(-1.0)]
    for g in spec.generators:
        if hf.classify_isometry(g) is hf.IsometryClass.HYPERBOLIC:
            points.extend(hf.fixed_points(g))
    for xi in points:
        verdicts.add(hf.classify_boundary_point(spec, xi, depth=depth).verdict.value)
    print(f"{name:18s} -> {sorted(verdicts)}")

section("No finitely generated group reads irregular-evidence")
# Six dilations along one axis with nearly equal lengths: the orbit stops
# climbing after depth two, so the heights stay bounded.
gens = tuple(hf.hyperbolic_element(-1.0, 1.0, 1.0 + j * 1e-4) for j in range(6))
spec = hf.GroupSpec(gens, max_word_length=5)
ev = hf.classify_boundary_point(spec, hf.INFINITY)
print(f"six dilations, at infinity: {ev.verdict.value}, sup height {ev.sup_height:g}")
print("(they generate a non-discrete group, with no quotient surface, so no verdict holds there)")
print("A discrete finitely generated group is geometrically finite: each limit point is")
print("conical or parabolic, and no horocycle orbit is irregular. irregular-evidence waits")
print("for a witness on an infinitely generated cover, such as a Z-cover of a schottky surface.")
