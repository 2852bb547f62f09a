"""High-frequency eigenvalue expansions and closed-form coefficients.

Each eigenvalue family j = 1, 2 follows one series in every regime,

    lambda_k^j ~ i k pi + c1_j / k + c2_j / k^2 + c3_j / k^3,

with the coefficients of the regime `model.regime_info` names:

    regime    c1_j                         c2_j                c3_j
    generic   i alpha_j                    -beta_j             0
    case1     i (2 k1 + p^2 pi^2)/(2 pi)   -k1 g_j / pi^2      0
    case2     as case1                     -k1 g_j / pi^2      i (a3_j - 24 k1 g_j^2)/(24 pi^3)
    case3     as case1                     0                   i a3_j / (24 pi^3)

Here alpha_1 <= alpha_2 are the roots of z^2 - gamma1 z + gamma2, beta_j =
omega2_j / omega1_j is positive under damping and 0 when k2 = k4 = 0,
g_1 = k2 and g_2 = k4 are the damping gains, and a3_1 <= a3_2 come from
`special_a3`.  The degenerate set {k1 = k3 and sqrt(b) = 2 p pi} is where
the families collide at order 1/k; cases 1 to 3 order it by whether the
two gains differ, agree, or vanish.  `asymptotic_coefficients(p)` computes
the series once, as the arrays (c1, c2, c3); `predict_eigenvalue` evaluates
it over arrays of k and j.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import RegimeMismatch, ZeroOmega1
from .model import (
    REGIME_CASE1,
    REGIME_GENERIC,
    BeamParams,
    regime_info,
    require_unit_speed,
)


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


def special_a3(p: BeamParams) -> tuple[float, float]:
    """Third-order coefficients a_{3,1} <= a_{3,2} on the degenerate set.

    Only defined for k1 = k3 and sqrt(b) = 2 p pi; the radicand
    4 k1^4 + 4 k1^2 p^2 pi^2 - 4 k1 p^4 pi^4 + p^6 pi^6
    = 4 k1^4 + p^2 pi^2 (2 k1 - p^2 pi^2)^2 is positive for every k1 > 0.
    """
    info = regime_info(p)
    if info.regime == REGIME_GENERIC:
        raise RegimeMismatch("third-order degenerate coefficients need k1 = k3 and sqrt(b) = 2 p pi")
    pp = info.degenerate_p
    k1 = p.k1
    pi2 = math.pi**2
    radicand = 4.0 * k1**4 + pp**2 * pi2 * (2.0 * k1 - pp**2 * pi2) ** 2
    base = -24.0 * k1**2 - 8.0 * k1**3 - 36.0 * k1 * pp**2 * pi2 + 9.0 * pp**4 * pi2**2
    spread = 12.0 * pp * math.pi * math.sqrt(radicand)
    return base - spread, base + spread


def asymptotic_coefficients(p: BeamParams) -> tuple[np.ndarray, ...]:
    """The series of p, (c1, c2, c3), each a complex array of the
    coefficients of families 1 and 2 (index j - 1), valid in every regime.
    Each is computed once in dependency order: gamma, the discriminant,
    alpha, then beta (generic) or the degenerate first- and third-order
    terms.

    The discriminant gamma1^2 - 4 gamma2 is `discriminant_reduced`, which
    does not cancel near the degenerate set, so alpha_j = (gamma1 -+
    sqrt(d))/2.  Generic: omega1_j = -+ i sqrt(d) and omega2_j = (i/(8
    pi^3)) (8 pi (k1 k2 + k3 k4) alpha_j - gamma3), the sign fixed so that
    beta_j = omega2_j / omega1_j is positive under damping (validated
    against the measured limits of k^3 f(i k pi + i alpha_j / k)).  A
    damped generic set with |omega1| below 1e-12 raises ZeroOmega1.
    """
    g1, g2, g3 = gamma_coefficients(p)
    root = math.sqrt(discriminant_reduced(p))
    alphas = (0.5 * (g1 - root), 0.5 * (g1 + root))
    info = regime_info(p)
    c2 = c3 = [0.0, 0.0]
    if info.regime == REGIME_GENERIC:
        c1 = [1j * a for a in alphas]
        if not p.is_conservative:
            if root < 1e-12:
                raise ZeroOmega1("families collide: |omega1| = sqrt(gamma1^2 - 4 gamma2)"
                                 f" = {root:.3e}")
            kk = p.k1 * p.k2 + p.k3 * p.k4
            # omega2_j / omega1_j with both on the imaginary axis
            c2 = [-(8.0 * math.pi * kk * a - g3) / (8.0 * math.pi**3) / om1
                  for a, om1 in zip(alphas, (-root, root))]
    else:
        pp, k1, gains = info.degenerate_p, p.k1, (p.k2, p.k4)
        c1 = [1j * (2.0 * k1 + pp**2 * math.pi**2) / (2.0 * math.pi)] * 2
        c2 = [-k1 * g / math.pi**2 for g in gains]
        if info.regime != REGIME_CASE1:
            c3 = [1j * (a3 - 24.0 * k1 * g**2) / (24.0 * math.pi**3)
                  for a3, g in zip(special_a3(p), gains)]
    return tuple(np.array(c, dtype=complex) for c in (c1, c2, c3))


def predict_eigenvalue(k, j, p: BeamParams):
    """The series of family j at frequency index k != 0, broadcast over k and j.

    One `asymptotic_coefficients(p)` serves every (k, j).  A scalar k and j
    give a complex; negative k mirrors by conjugation.  The real and
    imaginary parts are summed apart, so each term is one real division
    (numpy's complex division multiplies by a reciprocal).  k and j are
    checked, and the series evaluated, without broadcasting them to one
    shape first, except when that shape is empty.
    """
    k, j = np.asarray(k), np.asarray(j)
    grid = np.broadcast(k, j)      # raises on shapes that do not broadcast
    if not grid.size:       # nothing to check, and the broadcast j indexes nothing
        k, j = np.broadcast_arrays(k, j)
    elif not ((j == 1) | (j == 2)).all():
        raise ValueError(f"family index j must be 1 or 2, got {np.broadcast_to(j, grid.shape)}")
    elif not k.all():
        raise ValueError("prediction needs k != 0")
    c1, c2, c3 = (c[j - 1] for c in asymptotic_coefficients(p))
    k = k.astype(float)
    k2, k3 = k**2, k**3
    re = c1.real / k + c2.real / k2 + c3.real / k3
    im = k * math.pi + c1.imag / k + c2.imag / k2 + c3.imag / k3
    lam = re + 1j * im
    return complex(lam) if lam.ndim == 0 else lam
