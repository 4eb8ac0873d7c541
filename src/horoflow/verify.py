"""Randomized self-checks of the coefficient identities.

Samples unit-determinant matrices through the n-a-k decomposition (shear,
dilation, rotation), so all conjugacy types and sign patterns appear, then
checks every closed-form identity the package leans on: image of i, boundary
images, the Busemann formula, the displacement formula along the imaginary
axis, cross-ratio invariance, cocycle additivity and equivariance, and the
flow renormalization law. Each check reports its worst residual; the suite
passes when all residuals sit under the tolerance.

One check is special: the time substitution t_n = ln|b_n| in the displacement
formula. The suite evaluates the competing substitution t_n = ln(b_n^2) as
well and records both residuals, so the report shows which one the identity
actually supports rather than asserting it blind.
"""

from __future__ import annotations

import math

import numpy as np

from .halfplane import (INFINITY, MAX_SAMPLES, Mobius, PointH, _check_int, _check_real, _record,
                        apply, apply_boundary, bp, busemann, cross_ratio, dist)

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


def _img_i(a, b, c, d):
    return (1j * a + b) / (1j * c + d)


def _axis_displacement(a, b, c, d, y):
    """dist(z, g z) at z = i y: 2 asinh(|z - g z| / (2 sqrt(Im z Im g z)))."""
    z = 1j * y
    gz = (a * z + b) / (c * z + d)
    return 2.0 * np.arcsinh(np.abs(z - gz) / (2.0 * np.sqrt(y * gz.imag)))


def _relative_residual(got, want) -> float:
    return float(np.max(np.abs(got - want) / np.maximum(1.0, want)))


def _substitution_residual(a, b, c, d, t) -> float:
    """The displacement at i e^t against 2 asinh(sqrt(b^2 c^2 + d^2 + a^2 - 1)/2),
    the closed form the substitution t = ln|b| predicts."""
    rad = b ** 2 * c ** 2 + d ** 2 + a ** 2 - 1.0
    want = 2.0 * np.arcsinh(np.sqrt(np.maximum(rad, 0.0)) / 2.0)
    return _relative_residual(_axis_displacement(a, b, c, d, np.exp(t)), want)


def run_verification(samples: int = DEFAULT_SAMPLES, seed: int = 0,
                     tol: float = DEFAULT_TOL) -> VerificationReport:
    samples = _check_int("samples", samples, 1)
    if samples > MAX_SAMPLES:
        raise ValueError(f"samples must be at most {MAX_SAMPLES}, got {samples}")
    seed, tol = _check_int("seed", seed, 0), _check_real("tol", tol, 0.0)
    rng = np.random.default_rng(seed)
    a, b, c, d = _sample_matrices(rng, samples)
    # the sampled maps the scalar checks run on
    ms = [Mobius.normalized(a[k], b[k], c[k], d[k]) for k in range(min(128, samples))]
    w = _img_i(a, b, c, d)
    cd = c * c + d * d
    checks = []

    checks.append(CheckResult(
        "im-image-of-i", float(np.max(np.abs(w.imag - 1.0 / cd))), tol))

    # Re g(i) = a/c - d/(c (c^2+d^2)); cancellation between the two terms is
    # intrinsic, so the residual is scaled by the larger term.
    mask = np.abs(c) > 1e-6
    t1 = a[mask] / c[mask]
    t2 = d[mask] / (c[mask] * cd[mask])
    scale = np.maximum(1.0, np.maximum(np.abs(t1), np.abs(t2)))
    checks.append(CheckResult(
        "re-image-of-i", float(np.max(np.abs(w.real[mask] - (t1 - t2)) / scale)), tol))

    # g sends inf to a/c, and its inverse sends it to -d/c
    bnd_res = inv_res = 0.0
    for m in ms[:64]:
        p, q = apply_boundary(m, INFINITY), apply_boundary(m.inverse(), INFINITY)
        if abs(m.c) > 1e-6:
            want, want_inv = m.a / m.c, -m.d / m.c
            bnd_res = max(bnd_res, abs(p.value - want) / max(1.0, abs(want)))
            inv_res = max(inv_res, abs(q.value - want_inv) / max(1.0, abs(want_inv)))
        else:
            bnd_res = max(bnd_res, 0.0 if p.is_infinity else math.inf)
            inv_res = max(inv_res, 0.0 if q.is_infinity else math.inf)
    checks.append(CheckResult("boundary-image-of-inf", bnd_res, tol))
    checks.append(CheckResult("inverse-boundary-image", inv_res, tol))

    busemann_res = 0.0
    for m in ms:
        got = busemann(INFINITY, apply(m, PointH(0.0, 1.0)), PointH(0.0, 1.0))
        busemann_res = max(busemann_res, abs(got - math.log(m.c ** 2 + m.d ** 2)))
    checks.append(CheckResult("busemann-at-inf", busemann_res, tol))

    # displacement along the imaginary axis at random times
    t = rng.uniform(-10.0, 10.0, samples)
    rad = b * b * np.exp(-2.0 * t) + c * c * np.exp(2.0 * t) + d * d + a * a - 2.0
    rhs = 2.0 * np.arcsinh(np.sqrt(np.maximum(rad, 0.0)) / 2.0)
    checks.append(CheckResult(
        "axis-displacement", _relative_residual(_axis_displacement(a, b, c, d, np.exp(t)), rhs),
        tol))

    # substitution t = ln|b|: radicand collapses to b^2 c^2 + d^2 + a^2 - 1
    mb = np.abs(b) > 1e-6
    checks.append(CheckResult(
        "substitution-log-abs-b",
        _substitution_residual(a[mb], b[mb], c[mb], d[mb], np.log(np.abs(b[mb]))), tol))

    # competing substitution t = ln(b^2): recorded, not asserted
    mb2 = b ** 2 > 1e-6
    alt_res = _substitution_residual(a[mb2], b[mb2], c[mb2], d[mb2], np.log(b[mb2] ** 2))

    # cross-ratio invariance under a sampled map
    cr_res = 0.0
    for m in ms[:64]:
        pts = rng.uniform(-20.0, 20.0, 4)
        if len(set(pts.tolist())) < 4:
            continue
        before = cross_ratio(*(bp(float(p)) for p in pts))
        after = cross_ratio(*(apply_boundary(m, bp(float(p))) for p in pts))
        cr_res = max(cr_res, abs(before - after) / max(1.0, abs(before)))
    checks.append(CheckResult("cross-ratio-invariance", cr_res, tol))

    # cocycle additivity B(z1,z3) = B(z1,z2) + B(z2,z3) and equivariance
    coc_res = 0.0
    eqv_res = 0.0
    for m in ms[:64]:
        xi = bp(float(rng.uniform(-20.0, 20.0))) if rng.uniform() < 0.8 else INFINITY
        zs = [PointH(float(rng.uniform(-5.0, 5.0)), float(rng.uniform(0.1, 5.0)))
              for _ in range(3)]
        b12 = busemann(xi, zs[0], zs[1])
        b23 = busemann(xi, zs[1], zs[2])
        b13 = busemann(xi, zs[0], zs[2])
        coc_res = max(coc_res, abs(b13 - (b12 + b23)) / max(1.0, abs(b13)))
        before = busemann(xi, zs[0], zs[1])
        after = busemann(apply_boundary(m, xi), apply(m, zs[0]), apply(m, zs[1]))
        eqv_res = max(eqv_res, abs(before - after) / max(1.0, abs(before)))
    checks.append(CheckResult("cocycle-additivity", coc_res, tol))
    checks.append(CheckResult("cocycle-equivariance", eqv_res, tol))

    # renormalization: g_{-t} h_s g_t = h_{s exp(-t)}
    ren_res = 0.0
    for k in range(min(64, samples)):
        tk = float(rng.uniform(-3.0, 3.0))
        sk = float(rng.uniform(-5.0, 5.0))
        e2 = math.exp(tk / 2.0)
        gt = Mobius(e2, 0.0, 0.0, 1.0 / e2)
        gmt = Mobius(1.0 / e2, 0.0, 0.0, e2)
        hs = Mobius(1.0, sk, 0.0, 1.0)
        lhsm = gmt @ hs @ gt
        rhsm = Mobius(1.0, sk * math.exp(-tk), 0.0, 1.0)
        ren_res = max(ren_res, max(abs(lhsm.a - rhsm.a), abs(lhsm.b - rhsm.b),
                                   abs(lhsm.c - rhsm.c), abs(lhsm.d - rhsm.d)))
    checks.append(CheckResult("flow-renormalization", ren_res, tol))

    # distance symmetry and triangle sanity on random pairs
    sym_res = 0.0
    for k in range(min(64, samples)):
        z1 = PointH(float(rng.uniform(-5, 5)), float(rng.uniform(0.1, 5)))
        z2 = PointH(float(rng.uniform(-5, 5)), float(rng.uniform(0.1, 5)))
        sym_res = max(sym_res, abs(dist(z1, z2) - dist(z2, z1)))
    checks.append(CheckResult("distance-symmetry", sym_res, tol))

    return VerificationReport(
        samples=samples, seed=seed, tol=tol, checks=tuple(checks),
        substitution_alternative_residual=alt_res,
    )
