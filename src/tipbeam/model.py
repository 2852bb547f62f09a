"""Physical parameters, sampled states, and the static solve of the generator.

The state of the beam is U = (u, v, y, z, eta, gamma): lateral displacement,
its velocity, shear angle, its velocity, and the two tip traces.  The tip
shear trace carries a sqrt(a/b) scaling (gamma = sqrt(a/b) * z(1)); with that
convention the weighted energy inner product reproduces the boundary
feedback power balance exactly, for every a, b.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateBoundarySystem,
    GridMismatch,
    NegativeDamping,
    NonPositiveParameter,
    UnsupportedSpeedRatio,
)

REGIME_GENERIC = "generic"
REGIME_CASE1 = "case1"   # k1 = k3, b = 4 p^2 pi^2, k2 != k4
REGIME_CASE2 = "case2"   # k1 = k3, b = 4 p^2 pi^2, k2 = k4 != 0
REGIME_CASE3 = "case3"   # k1 = k3, b = 4 p^2 pi^2, k2 = k4 = 0

# Relative tolerance deciding whether sqrt(b)/(2 pi) is an integer.  Kept tight
# so the degenerate formulas are only selected under exact user intent.
_DEGENERATE_RTOL = 1e-12


@dataclass(frozen=True)
class BeamParams:
    """Wave-speed ratio a, coupling b > 0, tip gains k1, k3 > 0, k2, k4 >= 0."""

    a: float
    b: float
    k1: float
    k2: float
    k3: float
    k4: float

    @property
    def is_conservative(self) -> bool:
        return self.k2 == 0.0 and self.k4 == 0.0


@dataclass(frozen=True)
class RegimeInfo:
    """Which asymptotic expansion applies, and the lattice index p if degenerate."""

    regime: str
    degenerate_p: int | None   # integer p with b = 4 p^2 pi^2, if degenerate


def validate_params(a, b, k1, k2, k3, k4) -> BeamParams:
    """Check sign constraints and return an immutable parameter record."""
    vals = [float(x) for x in (a, b, k1, k2, k3, k4)]
    if not all(math.isfinite(x) for x in vals):
        raise NonPositiveParameter("parameters must be finite")
    a, b, k1, k2, k3, k4 = vals
    if a <= 0.0:
        raise NonPositiveParameter(f"wave-speed ratio a must be positive, got {a}")
    if b <= 0.0 or k1 <= 0.0 or k3 <= 0.0:
        raise NonPositiveParameter(
            f"b, k1, k3 must be strictly positive, got b={b}, k1={k1}, k3={k3}"
        )
    if k2 < 0.0 or k4 < 0.0:
        raise NegativeDamping(f"damping gains must be non-negative, got k2={k2}, k4={k4}")
    return BeamParams(a, b, k1, k2, k3, k4)


def require_unit_speed(p: BeamParams) -> None:
    """Spectral modules only treat the equal wave speed case."""
    if p.a != 1.0:
        raise UnsupportedSpeedRatio(f"spectral analysis requires a = 1, got a = {p.a}")


def _nearest_degenerate_p(b: float) -> tuple[int, float]:
    """Nearest integer p for sqrt(b) = 2 p pi and the relative distance."""
    r = math.sqrt(b) / (2.0 * math.pi)
    pint = max(1, round(r))
    return pint, abs(r - pint) / r


def regime_info(p: BeamParams) -> RegimeInfo:
    """Classify the parameter set for asymptotic dispatch.

    A degenerate case needs k1 == k3 exactly and sqrt(b) on the 2 pi
    lattice within a relative 1e-12; anything nearer than that but not on
    it, however close, is generic.
    """
    pint, rel = _nearest_degenerate_p(p.b)
    b_degenerate = rel <= _DEGENERATE_RTOL
    gains_equal = p.k1 == p.k3
    if gains_equal and b_degenerate:
        if p.k2 == 0.0 and p.k4 == 0.0:
            return RegimeInfo(REGIME_CASE3, pint)
        if p.k2 == p.k4:
            return RegimeInfo(REGIME_CASE2, pint)
        return RegimeInfo(REGIME_CASE1, pint)
    return RegimeInfo(REGIME_GENERIC, pint if b_degenerate else None)


@dataclass
class GridState:
    """State sampled at the N+1 uniform nodes x_m = m/N.

    For states in the operator domain, eta = v[N] and gamma = sqrt(a/b)*z[N];
    u[0] = y[0] = 0 at the clamped end.
    """

    N: int
    u: np.ndarray
    v: np.ndarray
    y: np.ndarray
    z: np.ndarray
    eta: complex
    gamma: complex

    @property
    def h(self) -> float:
        return 1.0 / self.N

    def nodes(self) -> np.ndarray:
        return np.linspace(0.0, 1.0, self.N + 1)


def _check_same_grid(u1, u2) -> None:
    if u1.N != u2.N:
        raise GridMismatch(f"grids differ: N={u1.N} vs N={u2.N}")


def cumulative_integral(values: np.ndarray, h: float) -> np.ndarray:
    """Running integral from node 0, 4th-order accurate at every node.

    Each subinterval is integrated with the cubic through its four nearest
    nodes (local error O(h^5)); plain cumulative Simpson is only 3rd order
    at odd nodes, which would spoil the static-solve residual order.
    """
    n = values.shape[0]
    if n < 4:
        raise GridMismatch("need at least 4 nodes for cubic quadrature")
    inc = np.empty(n - 1, dtype=values.dtype)
    inc[1:-1] = (h / 24.0) * (
        -values[:-3] + 13.0 * values[1:-2] + 13.0 * values[2:-1] - values[3:]
    )
    inc[0] = (h / 24.0) * (9.0 * values[0] + 19.0 * values[1] - 5.0 * values[2] + values[3])
    inc[-1] = (h / 24.0) * (9.0 * values[-1] + 19.0 * values[-2] - 5.0 * values[-3] + values[-4])
    out = np.empty(n, dtype=values.dtype)
    out[0] = 0.0
    np.cumsum(inc, out=out[1:])
    return out


def solve_static(f: GridState, p: BeamParams) -> GridState:
    """Invert the generator at zero: return U in the operator domain with AU = f.

    Follows the constructive resolvent-at-zero recipe: v = f1 and z = f3
    immediately; the displacement pair comes from two nested antiderivatives
    with zero Cauchy data at the clamped end plus two scalar constants fixed
    by the tip force and moment balances.
    """
    if p.k1 < 1e-12 or p.k3 < 1e-12:
        raise DegenerateBoundarySystem("tip equations lose their scaling for k1, k3 ~ 0")
    N, h = f.N, f.h
    x = f.nodes()
    sab = math.sqrt(p.a / p.b)

    f1, f2, f3, f4 = f.u, f.v, f.y, f.z
    eta1, gamma1 = f.eta, f.gamma

    big_f2 = cumulative_integral(f2, h)   # F2' = f2
    g4p = cumulative_integral(f4, h)
    g2p = cumulative_integral(big_f2, h)
    g4 = cumulative_integral(g4p, h)      # G4'' = f4
    g2 = cumulative_integral(g2p, h)      # G2'' = F2

    # Tip force balance: -k1*(u_x(1) + y(1)) - k2*eta = eta1 with
    # u_x + y = F2 + a1 and eta = v(1) = f1(1).
    a1 = -(eta1 + p.k2 * f1[N]) / p.k1 - big_f2[N]

    # Tip moment balance in the scaled trace: the sixth component of AU is
    # -k3*sqrt(a/b)*y_x(1) - k4*gamma with gamma = sqrt(a/b)*z(1).
    yx1_target = -(gamma1 / sab + p.k4 * f3[N]) / p.k3
    a2 = yx1_target - g4p[N] / p.a - (p.b / p.a) * g2p[N] - (p.b / p.a) * a1
    if not (np.isfinite(a1) and np.isfinite(a2)):
        raise DegenerateBoundarySystem("tip constants overflowed")

    y = g4 / p.a + (p.b / p.a) * g2 + (p.b / p.a) * a1 * x**2 / 2.0 + a2 * x
    u = cumulative_integral(-y + big_f2, h) + a1 * x

    return GridState(N, u, f1.copy(), y, f3.copy(), f1[N], sab * f3[N])
