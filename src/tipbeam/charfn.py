"""Closed-form characteristic function of the beam eigenvalue problem.

Separating variables turns the eigenproblem into a 4x4 homogeneous linear
system for the coefficients of the exponential interior solutions e^{t_i x}.
Eigenvalues are the zeros of f(lambda) = -det M(lambda) / (16 b), where M
collects the clamped-end and tip-feedback conditions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BranchRootNearZero, NearBranchPoint, ZeroDenominator, ZeroLambda
from .model import BeamParams, require_unit_speed


@dataclass(frozen=True)
class BranchRoots:
    """The four interior exponents; t2 = -t1 and t4 = -t3 exactly."""

    t1: complex
    t2: complex
    t3: complex
    t4: complex


def _check_nonzero(lam: np.ndarray) -> None:
    if np.any(lam == 0):
        raise ZeroLambda("branch roots are defined for lambda != 0")


def _roots(lam: np.ndarray, b: float) -> tuple[np.ndarray, np.ndarray]:
    """t1, t3 with principal square roots composed factor by factor."""
    sb = np.sqrt(b)
    t1 = np.sqrt(lam) * np.sqrt(1j * sb + lam)
    t3 = np.sqrt(lam) * np.sqrt(-1j * sb + lam)
    return t1, t3


def _shifted_roots(lam: np.ndarray, b: float):
    """t1, t3 and the shifts t1 - lambda, t3 - lambda = +- i lambda sqrt(b)/(t + lambda).

    Computing e^{t_i} directly loses |Im t_i| * eps of phase to the rounding
    of t_i, which at |lambda| ~ 10^3 already drowns the O(1/lambda^4) tail of
    f; e^{t_i} = e^{lambda} e^{t_i - lambda} stays accurate to a few ulp
    because the evaluation point lambda itself is exact.
    """
    sb = np.sqrt(b)
    t1, t3 = _roots(lam, b)
    return t1, t3, 1j * lam * sb / (t1 + lam), -1j * lam * sb / (t3 + lam)


def branch_roots(lam: complex, b: float) -> BranchRoots:
    """Exponents of the four interior solutions e^{t x} at frequency lambda.

    t1 = sqrt(lambda) * sqrt(i sqrt(b) + lambda) and t3 its mirror across the
    real axis of the second factor; each square root is the principal branch,
    applied to the two factors separately.
    """
    lam = np.asarray(lam, dtype=complex)
    _check_nonzero(lam)
    t1, t3 = _roots(lam, b)
    return BranchRoots(complex(t1), complex(-t1), complex(t3), complex(-t3))


def mode_couplings(lam: complex, roots: BranchRoots):
    """Shear amplitudes d_i = (lambda^2 - t_i^2)/t_i for each exponent.

    Evaluated through lambda^2 - t1^2 = -(t1^2 - t3^2)/2 (= -i lambda
    sqrt(b), and +i for t3), avoiding the direct difference with lambda^2
    that cancels badly at large |lambda|.
    """
    t1, t3 = roots.t1, roots.t3
    if min(abs(t1), abs(t3)) < 1e-12:
        raise BranchRootNearZero(f"branch root too small at lambda={lam}")
    ilsb = (t1 * t1 - t3 * t3) / 2.0   # i lambda sqrt(b)
    d1 = -ilsb / t1
    d3 = ilsb / t3
    return d1, -d1, d3, -d3


def g_functions(t: complex, lam: complex, p: BeamParams):
    """Boundary symbols (g1, g2, g3) entering the collocation rows.

    g1 multiplies the shear-angle row, g2 the force feedback row, g3 the
    moment feedback row (the latter two already divided by the lambda powers
    shared along their rows).
    """
    if abs(t) < 1e-14 or abs(lam) < 1e-14:
        raise ZeroDenominator("g functions need t != 0 and lambda != 0")
    g1 = -t + lam**2 / t
    g2 = (p.k2 * t + (p.k1 + t) * lam) / (lam * t)
    g3 = (-(t**2) + lam**2) * (p.k3 * t + lam * (p.k4 + lam)) / (lam**2 * t)
    return g1, g2, g3


def _matrix(lam: np.ndarray, p: BeamParams):
    """Collocation matrices of shape lam.shape + (4, 4), stabilized entries.

    Also returns the per-column pieces (shape lam.shape + (4,)) the rows are
    built from: the exponents t_i, the stabilized e^{t_i}, the constants
    q_i = (lambda^2 - t_i^2)/lambda = -+ i sqrt(b), and the row symbols
    d_i = q_i lambda / t_i, g2_i and g3_i.
    """
    t1, t3, dl1, dl3 = _shifted_roots(lam, p.b)
    ez = np.exp(lam)
    e1 = ez * np.exp(dl1)
    e3 = ez * np.exp(dl3)
    exps = np.stack([e1, 1.0 / e1, e3, 1.0 / e3], axis=-1)
    ts = np.stack([t1, -t1, t3, -t3], axis=-1)
    q = np.array([-1j, -1j, 1j, 1j]) * np.sqrt(p.b)
    lamx = lam[..., None]
    d = q * lamx / ts
    g2 = (p.k2 * ts + (p.k1 + ts) * lamx) / (lamx * ts)
    g3 = d * (p.k3 * ts + lamx * (p.k4 + lamx)) / lamx**2
    m = np.stack([np.ones_like(ts), d, exps * g2, exps * g3], axis=-2)
    return m, (ts, exps, q, d, g2, g3)


def paired_exponentials(lam, b: float):
    """(e^{t1+t3}, e^{-t1-t3}, e^{t1-t3}, e^{t3-t1}) with stable phases.

    Built from e^{2 lambda} and the small shifts t_i - lambda so the phase
    error stays at a few ulp even when |Im lambda| is large; see _shifted_roots.
    """
    arr = np.asarray(lam, dtype=complex)
    _check_nonzero(arr)
    _, _, dl1, dl3 = _shifted_roots(arr, b)
    ep = np.exp(2.0 * arr) * np.exp(dl1 + dl3)
    dp = np.exp(dl1 - dl3)
    return ep, 1.0 / ep, dp, 1.0 / dp


def boundary_matrix(lam: complex, p: BeamParams) -> np.ndarray:
    """Assemble the 4x4 system (clamped end; shear row; two tip feedback rows)."""
    require_unit_speed(p)
    arr = np.asarray(lam, dtype=complex)
    _check_nonzero(arr)
    return _matrix(arr, p)[0]


def char_fn(lam, p: BeamParams):
    """Characteristic function f(lambda) = -det M(lambda) / (16 b).

    Vectorized over any leading shape of ``lam``; determinant by
    partial-pivoted LU on the 4x4 blocks.  Zeros with Re(lambda) < 0 are
    exactly the eigenvalues of the damped beam.
    """
    require_unit_speed(p)
    arr = np.asarray(lam, dtype=complex)
    _check_nonzero(arr)
    det = np.linalg.det(_matrix(arr, p)[0])
    val = -det / (16.0 * p.b)
    return complex(val) if arr.ndim == 0 else val


def _near_branch_point(lam: np.ndarray, b: float) -> np.ndarray:
    """True where lambda lies within 1e-6 of a branch point 0 or +- i sqrt(b)."""
    return np.abs(lam[..., None] - np.array([0.0, 1j, -1j]) * np.sqrt(b)).min(axis=-1) < 1e-6


def _guard_branch_points(lam: np.ndarray, b: float) -> None:
    near = _near_branch_point(lam, b)
    if np.any(near):
        raise NearBranchPoint(f"lambda={complex(lam[near].flat[0])} within 1e-6 of a branch point")


def entire_char_fn_and_derivative(lam, p: BeamParams):
    """(F, F', f): the surrogate F = f t1 t3, its derivative, and f itself.

    f jumps sign across the rays Im(lambda) = +-sqrt(b), Re(lambda) <= 0,
    where the composed square roots switch sheets; F has no jump, is
    analytic off the origin, and has the same zeros as f away from the
    branch points, so all contour and Newton work uses F.

    Row 0 of M is constant, so by Jacobi's rule det' is the sum of the three
    determinants of M with row r (r = 1..3) replaced by its derivative.  The
    row derivatives follow from t_i' = (2 lambda - q_i)/(2 t_i).  Unlike
    det * tr(M^-1 M'), the sum stays finite at the roots.  Vectorized like
    char_fn; every point must stay 1e-6 away from the branch points 0 and
    +- i sqrt(b), where t_i' blows up.
    """
    require_unit_speed(p)
    arr = np.asarray(lam, dtype=complex)
    _guard_branch_points(arr, p.b)
    m, (ts, exps, q, d, g2, g3) = _matrix(arr, p)
    lamx = arr[..., None]
    tp = (2.0 * lamx - q) / (2.0 * ts)
    dp = (q - d * tp) / ts
    h = (p.k3 * ts + lamx * (p.k4 + lamx)) / lamx**2      # g3 = d h
    hp = (p.k3 * tp + p.k4 + 2.0 * lamx) / lamx**2 - 2.0 * h / lamx
    rows = (dp,
            exps * (tp * g2 - p.k2 / lamx**2 - p.k1 * tp / ts**2),
            exps * (tp * g3 + dp * h + d * hp))
    det = np.linalg.det(m)
    ddet = np.zeros_like(det)
    for r, row in enumerate(rows, start=1):   # in place: a copy of M would add to the peak
        kept = m[..., r, :].copy()
        m[..., r, :] = row
        ddet += np.linalg.det(m)
        m[..., r, :] = kept
    t1, t3 = ts[..., 0], ts[..., 2]
    f = -det / (16.0 * p.b)
    big_f = f * t1 * t3
    dbig_f = -(ddet * t1 * t3 + det * (tp[..., 0] * t3 + t1 * tp[..., 2])) / (16.0 * p.b)
    out = (big_f, dbig_f, f)
    return tuple(complex(v) for v in out) if arr.ndim == 0 else out
