"""Reference computations for the benchmark, made without importing horoflow.

Everything here is derived from the group's generators alone:

* integer groups (Gamma(2), PSL(2,Z)) get an exact word ball in integer
  arithmetic: sign-canonical, deduplicated by exact equality, in breadth-first
  order (word length, then letters +1 < -1 < +2 < -2 < ...);
* float groups (the schottky and flute presets) get the same ball composed in
  float64 without deduplication, which is sound because the ping-pong
  certificate (pairwise disjoint isometric circles) makes distinct reduced
  words distinct elements. Any element can be recomposed exactly from its
  word with ``fractions.Fraction``; ``self_check`` does so on a seeded sample
  and bounds the error of the closed forms used below.

Closed forms on the coefficients (a, b, c, d) of g:

* height of g(i) about xi: 1 / ((a - xi c)^2 + (b - xi d)^2), or 1 / (c^2 + d^2)
  at infinity;
* half the displacement of z by g: asinh(|c z^2 + (d - a) z - b| / (2 Im z));
* Busemann value B_inf(g(i), i) = ln(c^2 + d^2).
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

SIGN_TOL = 1e-12          # the sign convention: first entry above this is positive
INT_LIMIT = 2 ** 30       # integer entries stay exact in int64 products below this
CHUNK_ROWS = 8192


# ---------------------------------------------------------------------------
# generators


def _canonical(m, tol=SIGN_TOL):
    for x in m:
        if abs(x) > tol:
            return tuple(-v for v in m) if x < 0 else tuple(m)
    return tuple(m)


def _normalized(a, b, c, d):
    r = math.sqrt(a * d - b * c)
    return _canonical((a / r, b / r, c / r, d / r))


def schottky_generators(circles=((-3.0, 0.9), (-1.0, 0.9), (1.0, 0.9), (3.0, 0.9))):
    """Pairings of circles 0 -> 1 and 2 -> 3: each maps the exterior of the
    first circle onto the interior of the second."""
    gens = []
    for (x1, r1), (x2, r2) in (circles[0:2], circles[2:4]):
        gens.append(_normalized(-x2, x1 * x2 + r1 * r2, -1.0, x1))
    return gens


def flute_generators(lengths=(2.0, 2.5, 3.0), spacing=2.0):
    """One hyperbolic element per length, with axis (k*spacing, k*spacing + 1)."""
    gens = []
    for k, length in enumerate(lengths):
        u = k * spacing
        v = u + 1.0
        s = math.exp(length / 2.0)
        gens.append(_normalized(v * s - u / s, u * v * (1.0 / s - s),
                                s - 1.0 / s, v / s - u * s))
    return gens


def inverse(m):
    a, b, c, d = m
    return _canonical((d, -b, -c, a))


def conjugate_by_s(m):
    """S g S^-1 for S = [[0, -1], [1, 0]], the map sending 0 to infinity."""
    a, b, c, d = m
    return _canonical((d, -c, -b, a))


def isometric_discs(gens):
    """(center, radius) of the isometric circle of every letter with c != 0."""
    discs = []
    for g in gens:
        for m in (g, inverse(g)):
            if m[2] != 0:
                discs.append((-m[3] / m[2], 1.0 / abs(m[2])))
    return discs


def ping_pong_certified(gens) -> bool:
    """True when the isometric circles of all letters are pairwise disjoint."""
    discs = isometric_discs(gens)
    if len(discs) != 2 * len(gens):
        return False
    return all(abs(x1 - x2) > r1 + r2
               for i, (x1, r1) in enumerate(discs) for (x2, r2) in discs[i + 1:])


# ---------------------------------------------------------------------------
# word balls


def _canonical_arrays(a, b, c, d, tol):
    stack = np.stack([a, b, c, d])
    first = np.argmax(np.abs(stack) > tol, axis=0)
    lead = stack[first, np.arange(stack.shape[1])]
    flip = lead < 0
    for arr in (a, b, c, d):
        arr[flip] = -arr[flip]


class Ball:
    """Non-identity elements of word length <= depth, in the program's order.

    ``a, b, c, d`` are float64 coefficients; integer groups also keep exact
    int64 copies in ``ints``. ``parent`` and ``letter`` encode the words.
    """

    def __init__(self, gens, depth):
        self.gens = [tuple(g) for g in gens]
        self.depth = depth
        self.integer = all(float(x).is_integer() for g in self.gens for x in g)
        if not self.integer and not ping_pong_certified(self.gens):
            raise ValueError("float groups need a ping-pong certificate")
        letters, codes = [], []
        for k, g in enumerate(self.gens):
            letters += [g, inverse(g)]
            codes += [k + 1, -(k + 1)]
        dtype = np.int64 if self.integer else np.float64
        lm = np.array(letters, dtype=dtype)
        codes = np.array(codes, dtype=np.int64)
        one = np.ones(1, dtype=dtype)
        zero = np.zeros(1, dtype=dtype)
        fa, fb, fc, fd = one, zero, zero, one
        flast = np.zeros(1, dtype=np.int64)
        fidx = np.full(1, -1, dtype=np.int64)
        parts = []
        seen = {(1, 0, 0, 1)}
        self.candidates = 0
        total = 0
        for _ in range(depth):
            if fa.size == 0:
                break
            if self.integer:
                bound = max(int(np.abs(x).max()) for x in (fa, fb, fc, fd))
                if bound * int(np.abs(lm).max()) >= INT_LIMIT:
                    raise OverflowError("integer entries too large for int64 products")
            A = fa[:, None] * lm[None, :, 0] + fb[:, None] * lm[None, :, 2]
            B = fa[:, None] * lm[None, :, 1] + fb[:, None] * lm[None, :, 3]
            C = fc[:, None] * lm[None, :, 0] + fd[:, None] * lm[None, :, 2]
            D = fc[:, None] * lm[None, :, 1] + fd[:, None] * lm[None, :, 3]
            keep = (codes[None, :] != -flast[:, None]).ravel()
            A, B, C, D = (x.ravel()[keep] for x in (A, B, C, D))
            par = np.repeat(fidx, len(codes))[keep]
            let = np.tile(codes, fa.size)[keep]
            self.candidates += A.size
            _canonical_arrays(A, B, C, D, 0 if self.integer else SIGN_TOL)
            if self.integer:
                new = []
                for i, key in enumerate(zip(A.tolist(), B.tolist(), C.tolist(), D.tolist())):
                    if key not in seen:
                        seen.add(key)
                        new.append(i)
                new = np.array(new, dtype=np.int64)
                A, B, C, D, par, let = (x[new] for x in (A, B, C, D, par, let))
            parts.append((A, B, C, D, par, let))
            fidx = total + np.arange(A.size)
            total += A.size
            fa, fb, fc, fd, flast = A, B, C, D, let
        cols = [np.concatenate([p[j] for p in parts]) for j in range(6)]
        self.parent = cols[4]
        self.letter = cols[5]
        self.length = np.concatenate([np.full(p[0].size, k + 1) for k, p in enumerate(parts)])
        if self.integer:
            self.ints = tuple(cols[:4])
            self.a, self.b, self.c, self.d = (x.astype(np.float64) for x in cols[:4])
        else:
            self.ints = None
            self.a, self.b, self.c, self.d = cols[:4]

    def __len__(self):
        return self.a.size

    def conjugated_by_s(self) -> "Ball":
        """The ball of the same words in the generators S g S^-1.

        Conjugation permutes and negates entries, so the float products of
        the conjugated generators are the permuted float products of the
        originals, bit for bit, and the ball keeps its order and certificate.
        """
        out = object.__new__(Ball)
        out.__dict__.update(self.__dict__)
        out.gens = [conjugate_by_s(g) for g in self.gens]
        out.a, out.b, out.c, out.d = self.d, -self.c, -self.b, self.a
        if self.ints is not None:
            a, b, c, d = self.ints
            out.ints = (d, -c, -b, a)
        return out

    @property
    def keep_ratio(self) -> float:
        return len(self) / self.candidates

    def word(self, i):
        out = []
        while i >= 0:
            out.append(int(self.letter[i]))
            i = int(self.parent[i])
        return out[::-1]

    def exact(self, i):
        """Exact coefficients of element i (ints or Fractions), up to sign."""
        if self.ints is not None:
            return tuple(int(x[i]) for x in self.ints)
        return compose(self.gens, self.word(i))

    def heights(self, xi=None):
        """Closed-form heights of g(i) about xi (None for infinity)."""
        if xi is None:
            return 1.0 / (self.c * self.c + self.d * self.d)
        x = float(xi)
        return 1.0 / ((self.a - x * self.c) ** 2 + (self.b - x * self.d) ** 2)


def compose(gens, word):
    """Exact product of a word in the generators; signed 1-based letters."""
    exact = [tuple(Fraction(x) if not isinstance(x, int) else x for x in g) for g in gens]
    a, b, c, d = 1, 0, 0, 1
    for letter in word:
        g = exact[abs(letter) - 1]
        ga, gb, gc, gd = g if letter > 0 else (g[3], -g[1], -g[2], g[0])
        a, b, c, d = a * ga + b * gc, a * gb + b * gd, c * ga + d * gc, c * gb + d * gd
    return a, b, c, d


def same_up_to_sign(m, n) -> bool:
    return tuple(m) == tuple(n) or tuple(m) == tuple(-x for x in n)


# ---------------------------------------------------------------------------
# reference quantities


def exact_height(m, xi):
    """Height of g(i) about xi (a Fraction, or None for infinity), exactly."""
    a, b, c, d = (Fraction(x) for x in m)
    if xi is None:
        return 1 / (c * c + d * d)
    return 1 / ((a - xi * c) ** 2 + (b - xi * d) ** 2)


def sup_height(ball: Ball, xi) -> float:
    """Largest orbit height about xi over the ball and the identity.

    Closed-form heights pick the candidates; the candidates are then
    recomposed and evaluated exactly, so float cancellation near the top
    cannot choose or misreport the maximum.
    """
    h = ball.heights(xi)
    top = np.argsort(-h)[:16]
    near = np.nonzero(h >= h.max() * (1.0 - 1e-9))[0]
    best = exact_height((1, 0, 0, 1), xi)
    for i in set(top.tolist()) | set(near.tolist()):
        best = max(best, exact_height(ball.exact(i), xi))
    return float(best)


def parabolic_fixing(ball: Ball, xi) -> list[int]:
    """Indices of ball elements that are parabolic and fix xi exactly.

    ``xi`` is None (infinity), a Fraction, or the string "irrational"; the
    fixed point of a parabolic element of an integer group is rational, so
    an irrational point has none. Float groups are ping-pong certified Schottky
    groups: every non-identity element is hyperbolic.
    """
    if ball.ints is None or xi == "irrational":
        return []
    a, b, c, d = ball.ints
    idx = np.nonzero(np.abs(a + d) == 2)[0]
    out = []
    for i in idx.tolist():
        ai, bi, ci, di = int(a[i]), int(b[i]), int(c[i]), int(d[i])
        if xi is None:
            fixed = ci == 0
        else:
            p, q = xi.numerator, xi.denominator
            fixed = ci * p * p + (di - ai) * p * q - bi * q * q == 0
        if fixed:
            out.append(i)
    return out


def ray_points(frame, times):
    """Points frame(i e^t) along the forward ray of the frame."""
    fa, fb, fc, fd = frame
    z0 = 1j * np.exp(times)
    return (fa * z0 + fb) / (fc * z0 + fd)


def _exact_half_displacement(m, z) -> float:
    """asinh(|c z^2 + (d - a) z - b| / (2 Im z)), the radicand exact."""
    a, b, c, d = (Fraction(v) for v in m)
    x, y = Fraction(z.real), Fraction(z.imag)
    re = c * (x * x - y * y) + (d - a) * x - b
    im = 2 * c * x * y + (d - a) * y
    return math.asinh(math.sqrt((re * re + im * im) / (4 * y * y)))


def half_min_displacement(ball: Ball, z) -> np.ndarray:
    """Half the minimal displacement of each z over the ball.

    The closed form in floats picks the candidates (within 1e-6 of each
    sample's minimum, where its own rounding cannot reorder them); the
    candidates are then evaluated exactly.
    """
    q = np.full(z.size, np.inf)
    for i in range(0, len(ball), CHUNK_ROWS):
        sl = slice(i, i + CHUNK_ROWS)
        a, b, c, d = (x[sl, None] for x in (ball.a, ball.b, ball.c, ball.d))
        q = np.minimum(q, np.abs(c * z * z + (d - a) * z - b).min(axis=0))
    cands = [[] for _ in range(z.size)]
    for i in range(0, len(ball), CHUNK_ROWS):
        sl = slice(i, i + CHUNK_ROWS)
        a, b, c, d = (x[sl, None] for x in (ball.a, ball.b, ball.c, ball.d))
        rows, cols = np.nonzero(np.abs(c * z * z + (d - a) * z - b) <= q * (1.0 + 1e-6))
        for r, k in zip(rows.tolist(), cols.tolist()):
            cands[k].append(i + r)
    return np.array([min(_exact_half_displacement(ball.exact(j), zk) for j in js)
                     for zk, js in zip(z.tolist(), cands)])


def self_check(ball: Ball, rng, samples=64) -> float:
    """Worst relative error of the float coefficients and closed-form heights
    against exact recomposition, over a seeded sample of elements."""
    worst = 0.0
    idx = rng.choice(len(ball), size=min(samples, len(ball)), replace=False)
    for i in idx.tolist():
        m = ball.exact(i)
        scale = max(abs(float(x)) for x in m)
        got = (ball.a[i], ball.b[i], ball.c[i], ball.d[i])
        sign = 1.0 if got[0] * float(m[0]) + got[1] * float(m[1]) >= 0 else -1.0
        err = max(abs(sign * g - float(x)) for g, x in zip(got, m)) / scale
        for xi in (None, Fraction(0)):
            want = float(exact_height(m, xi))
            h = ball.heights(xi)[i]
            err = max(err, abs(h - want) / want)
        worst = max(worst, err)
    return worst
