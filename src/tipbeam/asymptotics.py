"""High-frequency eigenvalue expansions and closed-form coefficients.

Away from the degenerate parameter set {k1 = k3 and sqrt(b) on the 2*pi
lattice} the eigenvalues split into two families

    lambda_k^j = i k pi + i alpha_j / k - beta_j / k^2 + o(1/k^2),  j = 1, 2,

with alpha_j the roots of z^2 - gamma1 z + gamma2 and beta_j > 0 under
damping.  On the degenerate set the families collide at order 1/k and three
special expansions take over, ordered by whether the two damping gains
differ, agree, or vanish.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .charfn import paired_exponentials
from .errors import (
    NegativeDiscriminant,
    NegativeRadicand,
    RegimeMismatch,
    ZeroOmega1,
)
from .model import (
    REGIME_CASE1,
    REGIME_CASE2,
    REGIME_CASE3,
    REGIME_GENERIC,
    BeamParams,
    regime_info,
    require_unit_speed,
)


@dataclass(frozen=True)
class AsymptoticCoefficients:
    """Expansion coefficients; omega/beta entries are None off the generic regime."""

    gamma1: float
    gamma2: float
    gamma3: float
    alpha1: float
    alpha2: float
    omega1: tuple[complex, complex] | None
    omega2: tuple[complex, complex] | None
    beta1: float | None
    beta2: float | None
    regime: str


def gamma_coefficients(p: BeamParams) -> tuple[float, float, float]:
    """Coefficients of the family-splitting quadratic and the damping scale.

    gamma1, gamma2 determine the O(1/k) imaginary offsets; gamma3 feeds the
    O(1/k^2) real parts and vanishes exactly when k2 = k4 = 0.
    """
    require_unit_speed(p)
    b, k1, k2, k3, k4 = p.b, p.k1, p.k2, p.k3, p.k4
    sb = math.sqrt(b)
    g1 = (b + 4.0 * (k1 + k3)) / (4.0 * math.pi)
    g2 = (
        -8.0 * b + b * b + 8.0 * b * k1 + 8.0 * b * k3 + 64.0 * k1 * k3
        + 8.0 * b * math.cos(sb) + 16.0 * sb * (k1 - k3) * math.sin(sb)
    ) / (64.0 * math.pi**2)
    g3 = b * (k1 * k2 + k3 * k4) + 8.0 * k1 * k3 * (k2 + k4) \
        + 2.0 * sb * (k1 * k2 - k3 * k4) * math.sin(sb)
    return g1, g2, g3


def discriminant_reduced(p: BeamParams) -> float:
    """gamma1^2 - 4 gamma2 in a manifestly non-negative closed form.

    Equals {2 [k1 - k3 - (sqrt(b)/2) sin sqrt(b)]^2 + (b/2)(1 - cos
    sqrt(b))^2} / (2 pi^2); expanding reproduces [b + 2(k1-k3)^2 -
    b cos sqrt(b) - 2 sqrt(b)(k1-k3) sin sqrt(b)] / (2 pi^2) exactly.
    """
    b, k1, k3 = p.b, p.k1, p.k3
    sb = math.sqrt(b)
    sq1 = k1 - k3 - 0.5 * sb * math.sin(sb)
    sq2 = 1.0 - math.cos(sb)
    return (2.0 * sq1 * sq1 + 0.5 * b * sq2 * sq2) / (2.0 * math.pi**2)


def alpha_coefficients(gamma1: float, gamma2: float) -> tuple[float, float]:
    """Roots alpha1 <= alpha2 of z^2 - gamma1 z + gamma2."""
    disc = gamma1 * gamma1 - 4.0 * gamma2
    if disc < 0.0:
        if disc > -1e-12 * max(1.0, gamma1 * gamma1):
            disc = 0.0   # rounding at the degenerate set
        else:
            raise NegativeDiscriminant(f"gamma1^2 - 4 gamma2 = {disc} < 0")
    root = math.sqrt(disc)
    return 0.5 * (gamma1 - root), 0.5 * (gamma1 + root)


def omega_beta(p: BeamParams, alphas: tuple[float, float]):
    """Per-family (omega1_j, omega2_j, beta_j), j = 1, 2.

    omega1_j = -i (b + 4k1 + 4k3 - 8 alpha_j pi)/(4 pi) = -+ i sqrt(disc);
    omega2_j = (i/(8 pi^3)) (8 pi (k1 k2 + k3 k4) alpha_j - gamma3), the sign
    fixed so that beta_j = omega2_j / omega1_j is positive under damping
    (validated against the measured limits of k^3 f(i k pi + i alpha_j / k));
    beta_j is returned as a real number.
    """
    g1, g2, g3 = gamma_coefficients(p)
    kk = p.k1 * p.k2 + p.k3 * p.k4
    out = []
    for aj in alphas:
        om1 = -1j * (p.b + 4.0 * p.k1 + 4.0 * p.k3 - 8.0 * aj * math.pi) / (4.0 * math.pi)
        if abs(om1) < 1e-12:
            raise ZeroOmega1("families collide: omega1 vanishes on the degenerate set")
        om2 = 1j * (8.0 * math.pi * kk * aj - g3) / (8.0 * math.pi**3)
        beta = (om2 / om1).real
        out.append((om1, om2, beta))
    return tuple(out)


def asymptotic_coefficients(p: BeamParams) -> AsymptoticCoefficients:
    """All expansion coefficients, with regime dispatch made explicit."""
    g1, g2, g3 = gamma_coefficients(p)
    a1, a2 = alpha_coefficients(g1, g2)
    regime = regime_info(p).regime
    if regime == REGIME_GENERIC:
        (om11, om21, b1), (om12, om22, b2) = omega_beta(p, (a1, a2))
        return AsymptoticCoefficients(
            g1, g2, g3, a1, a2, (om11, om12), (om21, om22), b1, b2, regime
        )
    return AsymptoticCoefficients(g1, g2, g3, a1, a2, None, None, None, None, regime)


def special_a3(p: BeamParams) -> tuple[float, float]:
    """Third-order coefficients a_{3,1} <= a_{3,2} on the degenerate set.

    Only defined for k1 = k3 and sqrt(b) = 2 p pi; the radicand
    4 k1^4 - 43 k1^2 p^2 pi^2 - 4 k1 p^4 pi^4 + p^6 pi^6 can be negative
    (e.g. k1 = 2, p = 1), in which case the expansion is refused rather
    than silently continued into the complex plane.
    """
    info = regime_info(p)
    if info.regime == REGIME_GENERIC:
        raise RegimeMismatch("third-order degenerate coefficients need k1 = k3 and sqrt(b) = 2 p pi")
    pp = info.degenerate_p
    k1 = p.k1
    pi2 = math.pi**2
    radicand = (
        4.0 * k1**4 - 43.0 * k1**2 * pp**2 * pi2
        - 4.0 * k1 * pp**4 * pi2**2 + pp**6 * pi2**3
    )
    if radicand < 0.0:
        raise NegativeRadicand(
            f"a3 radicand = {radicand} < 0 at k1={k1}, p={pp}; real expansion unavailable"
        )
    base = -24.0 * k1**2 - 8.0 * k1**3 - 36.0 * k1 * pp**2 * pi2 + 9.0 * pp**4 * pi2**2
    spread = 12.0 * pp * math.pi * math.sqrt(radicand)
    return base - spread, base + spread


def predict_eigenvalue(k: int, j: int, p: BeamParams) -> complex:
    """Closed-form eigenvalue prediction for family j at frequency index k != 0.

    Generic regime: i k pi + i alpha_j / k - beta_j / k^2 (the beta term
    dropped when k2 = k4 = 0).  Degenerate regimes use the colliding-family
    expansions; negative k mirrors by conjugation built into the formulas.
    """
    if j not in (1, 2):
        raise ValueError(f"family index j must be 1 or 2, got {j}")
    if int(k) == 0:
        raise ValueError("prediction needs k != 0")
    require_unit_speed(p)

    info = regime_info(p)
    base = 1j * k * math.pi
    if info.regime == REGIME_GENERIC:
        g1, g2, _ = gamma_coefficients(p)
        a1, a2 = alpha_coefficients(g1, g2)
        aj = a1 if j == 1 else a2
        if p.is_conservative:
            return base + 1j * aj / k
        beta = omega_beta(p, (a1, a2))[j - 1][2]
        return base + 1j * aj / k - beta / k**2

    pp = info.degenerate_p
    k1 = p.k1
    first = 1j * (2.0 * k1 + pp**2 * math.pi**2) / (2.0 * k * math.pi)
    if info.regime == REGIME_CASE1:
        gain = p.k2 if j == 1 else p.k4
        return base + first - k1 * gain / (k * math.pi) ** 2
    a3 = special_a3(p)[j - 1]
    if info.regime == REGIME_CASE2:
        real = -k1 * p.k2 / (k * math.pi) ** 2
        third = 1j * (a3 - 24.0 * k1 * p.k2**2) / (24.0 * k**3 * math.pi**3)
        return base + first + real + third
    # case 3: conservative collision
    return base + first + 1j * a3 / (24.0 * k**3 * math.pi**3)


def f_expansion_terms(lam, p: BeamParams):
    """Terms f0..f3 of the large-|lambda| expansion of the characteristic function.

    f(lambda) = f0 + f1/lambda + f2/lambda^2 + f3/lambda^3 + O(1/lambda^4)
    in the strip; each term depends on lambda only through the stabilized
    paired exponentials of t1 +- t3.  Vectorized over lambda.
    """
    require_unit_speed(p)
    arr = np.asarray(lam, dtype=complex)
    b, k1, k2, k3, k4 = p.b, p.k1, p.k2, p.k3, p.k4
    sb = math.sqrt(b)
    ep, em, dp, dm = paired_exponentials(arr, b)
    f0 = 0.25 * em * (ep - 1.0) ** 2
    f1 = -0.25 * (
        2.0 * (k2 + k4) - ep * (k1 + k2 + k3 + k4) + em * (k1 + k3 - k2 - k4)
    )
    f2 = -(1.0 / 16.0) * (
        -4.0 * (b + 2.0 * k1 * k3 - 2.0 * k2 * k4)
        + (3.0 * b - 4.0 * k1 * k3 - 4.0 * k2 * k3 - 4.0 * k1 * k4 - 4.0 * k2 * k4) * ep
        + (3.0 * b - 4.0 * k1 * k3 + 4.0 * k2 * k3 + 4.0 * k1 * k4 - 4.0 * k2 * k4) * em
        + (-b + 2j * sb * k1 - 2j * sb * k3) * dp
        + (-b - 2j * sb * k1 + 2j * sb * k3) * dm
    )
    f3 = -(1.0 / 16.0) * (
        -4.0 * b * (k2 + k4)
        + 0.5 * b * (7.0 * k1 + 6.0 * k2 + 3.0 * k3 + 6.0 * k4) * ep
        - 0.5 * b * (7.0 * k1 - 6.0 * k2 + 3.0 * k3 - 6.0 * k4) * em
        + (-b * k2 - 2j * sb * k2 * k3 - b * k4 + 2j * sb * k1 * k4) * dp
        + (-b * k2 + 2j * sb * k2 * k3 - b * k4 - 2j * sb * k1 * k4) * dm
    )
    if arr.ndim == 0:
        return complex(f0), complex(f1), complex(f2), complex(f3)
    return f0, f1, f2, f3
