"""Randomized self-checks of the coefficient identities.

Samples unit-determinant matrices through the n-a-k decomposition (shear,
dilation, rotation), so all conjugacy types and sign patterns appear, and
checks the identities the package leans on (image of i, Busemann formula,
axis displacement, cross-ratio invariance, cocycle additivity and
equivariance, flow renormalization), each one row (name, worst residual) of
an ordered table that compares two different computations. A check of the
code against its own expression, like apply_boundary's image of inf against
a/c, reads 0.0 on every draw, one IEEE division being correctly rounded, so
the suite has none.

The time substitution t_n = ln|b_n| in the displacement formula is checked
beside the competing t_n = ln(b_n^2), whose residual the report records
but does not assert, so it shows which one the identity supports.
"""

from __future__ import annotations

import math

import numpy as np

from .halfplane import (INFINITY, MAX_SAMPLES, Mobius, PointH, _check_int, _check_real, _record,
                        apply, apply_boundary, bp, busemann, cross_ratio)

DEFAULT_SAMPLES = 1000
DEFAULT_TOL = 1e-9


@_record
class CheckResult:
    """One identity's worst residual over the samples, against ``tol``."""

    name: str
    max_residual: float
    tol: float

    @property
    def passed(self) -> bool:
        return bool(self.max_residual <= self.tol)


@_record
class VerificationReport:
    """The checks of run_verification, and the residual of t = ln(b^2)."""

    samples: int
    seed: int
    tol: float
    checks: tuple[CheckResult, ...]
    substitution_alternative_residual: float

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


def _sample_matrices(rng: np.random.Generator, n: int):
    """Unit-det coefficients via n_x a_s k_theta."""
    x = rng.uniform(-5.0, 5.0, n)
    s = rng.uniform(-5.0, 5.0, n)
    theta = rng.uniform(0.0, 2.0 * math.pi, n)
    e = np.exp(s / 2.0)
    ct, st = np.cos(theta), np.sin(theta)
    # [[1, x], [0, 1]] @ [[e, 0], [0, 1/e]] @ [[ct, st], [-st, ct]]
    a = e * ct - (x / e) * st
    b = e * st + (x / e) * ct
    c = -st / e
    d = ct / e
    return a, b, c, d


def _rel(got: float, want: float) -> float:
    return abs(got - want) / max(1.0, abs(want))


def _worst(residuals) -> float:
    """The largest of the residuals, and 0.0 if there are none."""
    return max([0.0, *residuals])


def _displacement_residual(a, b, c, d, t, rad) -> float:
    """dist(z, g z) at z = i e^t, as 2 asinh(|z - g z| / (2 sqrt(Im z Im g z))),
    against 2 asinh(sqrt(rad)/2), relative."""
    y = np.exp(t)
    z = 1j * y
    gz = (a * z + b) / (c * z + d)
    got = 2.0 * np.arcsinh(np.abs(z - gz) / (2.0 * np.sqrt(y * gz.imag)))
    want = 2.0 * np.arcsinh(np.sqrt(np.maximum(rad, 0.0)) / 2.0)
    return float(np.max(np.abs(got - want) / np.maximum(1.0, want)))


def _substitution_residual(a, b, c, d, t) -> float:
    """The displacement at i e^t against the closed form t = ln|b| predicts."""
    return _displacement_residual(a, b, c, d, t, b ** 2 * c ** 2 + d ** 2 + a ** 2 - 1.0)


@np.errstate(divide="ignore", invalid="ignore")  # a coincident or infinite image is skipped
def _cross_ratio_residual(m: Mobius, pts: np.ndarray, tol: float) -> float:
    """The cross-ratio of four points against that of their images under m.

    For inputs off by at most 2^-52 relative, as the rounded images are, a
    float cross-ratio is off by at most 4 2^-52 sum (|x| + |y|) / |x - y|
    relative, over its four differences x - y. A draw where that bound, of
    the points or of their images, exceeds tol, so that no float code can
    meet tol, is skipped (reads 0.0), as is one with a repeated point; an
    image at inf or a repeated image leaves the bound NaN or inf.
    """
    before = [bp(float(p)) for p in pts]
    after = [apply_boundary(m, p) for p in before]
    x = np.array([[p.value for p in before], [p.value for p in after]], dtype=float)
    lhs, rhs = x[:, [0, 1, 0, 1]], x[:, [2, 3, 3, 2]]
    bound = 4.0 * 2.0 ** -52 * ((np.abs(lhs) + np.abs(rhs)) / np.abs(lhs - rhs)).sum(axis=1)
    if len(set(pts.tolist())) < 4 or not np.all(bound <= tol):
        return 0.0
    return _rel(cross_ratio(*after), cross_ratio(*before))


def _cocycle_residuals(m: Mobius, rng: np.random.Generator) -> tuple[float, float]:
    """B(z1, z3) against B(z1, z2) + B(z2, z3), and B(z1, z2) against
    B_{m xi}(m z1, m z2), at a random xi (inf one time in five)."""
    xi = bp(float(rng.uniform(-20.0, 20.0))) if rng.uniform() < 0.8 else INFINITY
    zs = [PointH(float(rng.uniform(-5.0, 5.0)), float(rng.uniform(0.1, 5.0))) for _ in range(3)]
    b12 = busemann(xi, zs[0], zs[1])
    b13 = _rel(b12 + busemann(xi, zs[1], zs[2]), busemann(xi, zs[0], zs[2]))
    return b13, _rel(busemann(apply_boundary(m, xi), apply(m, zs[0]), apply(m, zs[1])), b12)


def _renormalization_residual(rng: np.random.Generator) -> float:
    """g_{-t} h_s g_t against h_{s exp(-t)}, entrywise."""
    tk, sk = float(rng.uniform(-3.0, 3.0)), float(rng.uniform(-5.0, 5.0))
    e2 = math.exp(tk / 2.0)
    lhs = (Mobius(1.0 / e2, 0.0, 0.0, e2) @ Mobius(1.0, sk, 0.0, 1.0)
           @ Mobius(e2, 0.0, 0.0, 1.0 / e2))
    rhs = Mobius(1.0, sk * math.exp(-tk), 0.0, 1.0)
    return max(abs(lhs.a - rhs.a), abs(lhs.b - rhs.b), abs(lhs.c - rhs.c), abs(lhs.d - rhs.d))


def run_verification(samples: int = DEFAULT_SAMPLES, seed: int = 0,
                     tol: float = DEFAULT_TOL) -> VerificationReport:
    """Run the nine checks, in the order they draw from `seed`; each compares got with want:

    im-image-of-i: Im g(i) by complex division with 1/(c^2 + d^2);
    re-image-of-i: Re g(i) with a/c - d/(c (c^2 + d^2)), scaled by the larger term, as they cancel;
    busemann-at-inf: B_inf(g i, i) through apply with log(c^2 + d^2);
    axis-displacement: dist(z, g z) at z = i e^t with its closed form in a, b, c, d and t;
    substitution-log-abs-b: the same at t = ln|b| with the collapsed closed form;
    cross-ratio-invariance: the cross-ratio of four boundary points with that of their images;
    cocycle-additivity: B(z1, z2) + B(z2, z3) with B(z1, z3);
    cocycle-equivariance: B_{g xi}(g z1, g z2) with B_xi(z1, z2), on the same draw;
    flow-renormalization: the product g_{-t} h_s g_t with h_{s exp(-t)}, entrywise.
    """
    samples = _check_int("samples", samples, 1)
    if samples > MAX_SAMPLES:
        raise ValueError(f"samples must be at most {MAX_SAMPLES}, got {samples}")
    seed, tol = _check_int("seed", seed, 0), _check_real("tol", tol, 0.0)
    rng = np.random.default_rng(seed)
    a, b, c, d = _sample_matrices(rng, samples)
    # the sampled maps the scalar checks run on
    ms = [Mobius.normalized(a[k], b[k], c[k], d[k]) for k in range(min(128, samples))]
    w = (1j * a + b) / (1j * c + d)  # g(i)
    cd = c * c + d * d
    mask = np.abs(c) > 1e-6
    t1 = a[mask] / c[mask]
    t2 = d[mask] / (c[mask] * cd[mask])
    scale = np.maximum(1.0, np.maximum(np.abs(t1), np.abs(t2)))
    i = PointH(0.0, 1.0)
    t = rng.uniform(-10.0, 10.0, samples)  # the axis-displacement times
    mb = np.abs(b) > 1e-6
    mb2 = b ** 2 > 1e-6
    residuals = [
        ("im-image-of-i", float(np.max(np.abs(w.imag - 1.0 / cd)))),
        ("re-image-of-i", float(np.max(np.abs(w.real[mask] - (t1 - t2)) / scale))),
        ("busemann-at-inf", _worst(abs(busemann(INFINITY, apply(m, i), i)
                                       - math.log(m.c ** 2 + m.d ** 2)) for m in ms)),
        ("axis-displacement", _displacement_residual(
            a, b, c, d, t,
            b * b * np.exp(-2.0 * t) + c * c * np.exp(2.0 * t) + d * d + a * a - 2.0)),
        ("substitution-log-abs-b",
         _substitution_residual(a[mb], b[mb], c[mb], d[mb], np.log(np.abs(b[mb])))),
        ("cross-ratio-invariance",
         _worst(_cross_ratio_residual(m, rng.uniform(-20.0, 20.0, 4), tol) for m in ms[:64])),
        *zip(("cocycle-additivity", "cocycle-equivariance"),
             map(_worst, zip(*(_cocycle_residuals(m, rng) for m in ms[:64])))),
        ("flow-renormalization", _worst(_renormalization_residual(rng) for _ in ms[:64])),
    ]
    return VerificationReport(
        samples=samples, seed=seed, tol=tol,
        checks=tuple(CheckResult(name, r, tol) for name, r in residuals),
        substitution_alternative_residual=_substitution_residual(
            a[mb2], b[mb2], c[mb2], d[mb2], np.log(b[mb2] ** 2)),
    )
