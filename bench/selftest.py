"""Self-tests of the reference in ``oracle.py``, against classical facts only.

Run with ``python3 bench/selftest.py`` or ``python3 -m pytest bench/selftest.py``.
Nothing here imports horoflow.
"""

from __future__ import annotations

import math
import os
import sys
from fractions import Fraction

import numpy as np

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import oracle  # noqa: E402
from gen import GROUPS  # noqa: E402

IDENTITY = (1, 0, 0, 1)


def _ball(name):
    return oracle.Ball(GROUPS[name]["gens"], GROUPS[name]["depth"])


def _free_size(rank, depth):
    return sum(2 * rank * (2 * rank - 1) ** (k - 1) for k in range(1, depth + 1))


def test_free_ball_sizes():
    for name, rank in (("schottky", 2), ("flute", 3), ("gamma2", 2)):
        ball = _ball(name)
        assert len(ball) == _free_size(rank, GROUPS[name]["depth"]), name
        assert ball.candidates == len(ball), name
        assert np.array_equal(np.bincount(ball.length)[1:],
                              [2 * rank * (2 * rank - 1) ** (k - 1)
                               for k in range(1, GROUPS[name]["depth"] + 1)])


def test_psl2z_relations_and_dedup():
    gens = GROUPS["psl2z"]["gens"]
    assert oracle.same_up_to_sign(oracle.compose(gens, [1, 1]), IDENTITY)
    assert oracle.same_up_to_sign(oracle.compose(gens, [1, 2] * 3), IDENTITY)
    ball = _ball("psl2z")
    keys = set(zip(*(x.tolist() for x in ball.ints)))
    assert len(keys) == len(ball)                       # exact dedup
    assert IDENTITY not in keys and (-1, 0, 0, -1) not in keys
    assert ball.candidates > len(ball)                   # relations merge words
    a, b, c, d = ball.ints
    assert np.all(a * d - b * c == 1)
    for i in np.random.default_rng(0).choice(len(ball), 200, replace=False).tolist():
        assert oracle.same_up_to_sign(oracle.compose(gens, ball.word(i)), ball.exact(i))


def test_gamma2_cusp_witnesses():
    ball = _ball("gamma2")
    for cusp in (None, Fraction(0), Fraction(1)):
        found = oracle.parabolic_fixing(ball, cusp)
        assert found, cusp
        for i in found[:20]:
            m = oracle.compose(ball.gens, ball.word(i))
            assert abs(m[0] + m[3]) == 2
    assert oracle.parabolic_fixing(ball, "irrational") == []
    assert oracle.sup_height(ball, None) == 1.0


def test_preset_generators():
    circles = ((-3.0, 0.9), (-1.0, 0.9), (1.0, 0.9), (3.0, 0.9))
    for k, g in enumerate(oracle.schottky_generators(circles)):
        assert abs(g[0] * g[3] - g[1] * g[2] - 1.0) < 1e-14
        (x1, r1), (x2, r2) = oracle.isometric_discs([g])
        assert math.isclose(x1, circles[2 * k][0]) and math.isclose(r1, circles[2 * k][1])
        assert math.isclose(x2, circles[2 * k + 1][0]) and math.isclose(r2, circles[2 * k + 1][1])
    for k, (g, length) in enumerate(zip(oracle.flute_generators(), (2.0, 2.5, 3.0))):
        a, b, c, d = g
        assert math.isclose(2.0 * math.acosh(abs(a + d) / 2.0), length, rel_tol=1e-12)
        for x in (2.0 * k, 2.0 * k + 1.0):                 # the axis endpoints are fixed
            assert abs(c * x * x + (d - a) * x - b) < 1e-12
    for name in ("schottky", "flute"):
        assert oracle.ping_pong_certified(GROUPS[name]["gens"])


def test_float_balls_against_exact_composition():
    for name in ("schottky", "flute"):
        assert oracle.self_check(_ball(name), np.random.default_rng(7), samples=200) < 1e-13


def test_closed_forms_against_definitions():
    # integer entries, so det = 1 holds exactly and the identities are exact
    rng = np.random.default_rng(3)
    ball = _ball("gamma2")
    for i in rng.choice(len(ball), 30, replace=False).tolist():
        a, b, c, d = (Fraction(v) for v in ball.exact(i))
        x, y = Fraction(float(rng.uniform(-3, 3))), Fraction(float(rng.uniform(0.1, 3)))
        # g(z) = (a z + b) / (c z + d) for z = x + i y, exactly
        den = (c * x + d) ** 2 + (c * y) ** 2
        gx = ((a * x + b) * (c * x + d) + a * c * y * y) / den
        gy = y / den
        # height about xi: Im w / |w - xi|^2 at w = g(i)
        xi = Fraction(float(rng.uniform(-3, 3)))
        den_i = c * c + d * d
        wx, wy = (a * c + b * d) / den_i, 1 / den_i
        assert oracle.exact_height((a, b, c, d), xi) == wy / ((wx - xi) ** 2 + wy * wy)
        # sinh^2(dist / 2) = |z - g z|^2 / (4 Im z Im g z)
        want = ((x - gx) ** 2 + (y - gy) ** 2) / (4 * y * gy)
        got = math.sinh(oracle._exact_half_displacement((a, b, c, d), complex(x, y))) ** 2
        assert math.isclose(got, float(want), rel_tol=1e-12)


def test_conjugated_ball_is_the_conjugate():
    ball = _ball("gamma2")
    conj = ball.conjugated_by_s()
    for i in np.random.default_rng(5).choice(len(ball), 100, replace=False).tolist():
        a, b, c, d = ball.exact(i)
        assert oracle.same_up_to_sign(oracle.compose(conj.gens, ball.word(i)), (d, -c, -b, a))
        assert oracle.same_up_to_sign(conj.exact(i), (d, -c, -b, a))


if __name__ == "__main__":
    tests = [v for k, v in sorted(globals().items()) if k.startswith("test_")]
    for t in tests:
        t()
        print(f"{t.__name__}: ok")
