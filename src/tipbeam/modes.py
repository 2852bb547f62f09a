"""Eigenfunctions in closed exponential form and Riesz-basis diagnostics.

An eigenfunction is a four-term exponential sum u(x) = sum c_i e^{t_i x},
y(x) = sum c_i d_i e^{t_i x} whose coefficients span the nullspace of the
4x4 boundary matrix.  Because every energy-norm integrand is again a sum
of exponentials, Gram entries are evaluated exactly through (e^s - 1)/s,
which keeps the k^2-weighted tail diagnostics free of quadrature error.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from .charfn import BranchRoots, boundary_matrix, branch_roots, mode_couplings
from .errors import (
    NotAnEigenvalue,
    RankDeficiencyTwo,
    UnpairedFamily,
    ZeroMode,
)
from .model import BeamParams, GridState, require_unit_speed
from .spectrum import K_MIN, family_roots

_RANK_RTOL = 1e-6
_ROOT_FLOOR = 1e-9    # sigma relative to sigma1 at which a direction counts as null


@dataclass(frozen=True)
class ModeShape:
    """Closed-form eigenfunction u, y with its energy-space tip traces.

    tip_eta is lambda*u(1), the velocity trace at the tip.  tip_gamma
    carries the extra sqrt(a/b) factor on lambda*y(1) so that the energy
    norm and the dissipation identity hold exactly for every a, b.
    """

    lam: complex
    coeffs: np.ndarray
    roots: BranchRoots
    couplings: np.ndarray
    hnorm: float
    tip_eta: complex
    tip_gamma: complex
    variant: str

    def _ts(self) -> np.ndarray:
        r = self.roots
        return np.array([r.t1, r.t2, r.t3, r.t4])

    def _eval(self, x, weights: np.ndarray):
        x = np.asarray(x, dtype=float)
        vals = np.exp(x[..., None] * self._ts()) @ weights
        return complex(vals) if x.ndim == 0 else vals

    def u(self, x):
        return self._eval(x, self.coeffs)

    def y(self, x):
        return self._eval(x, self.coeffs * self.couplings)

    def ux(self, x):
        return self._eval(x, self.coeffs * self._ts())

    def yx(self, x):
        return self._eval(x, self.coeffs * self.couplings * self._ts())

    def to_grid_state(self, N: int) -> GridState:
        """Sample the eigenvector (u, lam u, y, lam y, eta, gamma) on a grid."""
        x = np.linspace(0.0, 1.0, N + 1)
        u = self.u(x)
        y = self.y(x)
        return GridState(N=N, u=u, v=self.lam * u, y=y, z=self.lam * y,
                         eta=self.tip_eta, gamma=self.tip_gamma)


def nullspace_coeffs(lam, p: BeamParams) -> np.ndarray:
    """Coefficients spanning the nullspace of the boundary matrix at lam.

    Right singular vector for the smallest singular value, rescaled so the
    largest-modulus entry equals one.  A moderate smallest singular value
    means lam is not actually an eigenvalue; two tiny ones mean geometric
    multiplicity two, which this closed form does not span.
    """
    lam = complex(getattr(lam, "lam", lam))
    return _matrix_nullspace(boundary_matrix(lam, p), lam)


def _matrix_nullspace(m: np.ndarray, lam: complex) -> np.ndarray:
    """nullspace_coeffs on an already built boundary matrix m = M(lam)."""
    _, s, vh = np.linalg.svd(m)
    # sigma4/sigma3 <= 1e-6 is the usual quality gate, but sigma3 is itself
    # depressed when a second simple root sits Theta(1/k^2) away (unequal
    # gains on the degenerate sqrt(b) lattice), so a root whose sigma4 is at
    # the rounding floor of the matrix scale is accepted regardless.  At the
    # measured roots sigma4/sigma1 stays below 7e-13 while the midpoint
    # between two such neighbors gives 2e-7: six orders of separation.
    if s[2] <= _ROOT_FLOOR * s[0]:
        raise RankDeficiencyTwo(
            f"two singular values vanish at {lam}: {s[3]:.3e}, {s[2]:.3e}")
    if s[3] > _RANK_RTOL * s[2] and s[3] > _ROOT_FLOOR * s[0]:
        raise NotAnEigenvalue(
            f"sigma4/sigma3 = {s[3] / s[2]:.3e}, sigma4/sigma1 = "
            f"{s[3] / s[0]:.3e} at {lam}; not in the spectrum")
    c = np.conj(vh[3])
    return c / c[np.argmax(np.abs(c))]


def build_mode(lam, c: np.ndarray, p: BeamParams, variant: str | None = None) -> ModeShape:
    """Assemble a ModeShape from nullspace coefficients; hnorm is computed."""
    lam = complex(getattr(lam, "lam", lam))
    require_unit_speed(p)
    if variant is None:
        variant = "conservative" if p.is_conservative else "dissipative"
    roots = branch_roots(lam, p.b)
    d = np.array(mode_couplings(lam, roots))
    c = np.asarray(c, dtype=complex)
    ts = np.array([roots.t1, roots.t2, roots.t3, roots.t4])
    e1 = np.exp(ts)
    u_tip = np.sum(c * e1)
    y_tip = np.sum(c * d * e1)
    mode = ModeShape(lam=lam, coeffs=c, roots=roots, couplings=d, hnorm=0.0,
                     tip_eta=lam * u_tip,
                     tip_gamma=math.sqrt(p.a / p.b) * lam * y_tip,
                     variant=variant)
    g = gram_inner_product(mode, mode, p)
    return replace(mode, hnorm=math.sqrt(abs(g)))


def _exp_integral(s: np.ndarray) -> np.ndarray:
    """Entrywise integral of e^{s x} over [0, 1], stable through s = 0."""
    s = np.asarray(s, dtype=complex)
    out = np.empty_like(s)
    small = np.abs(s) < 1e-6
    ss = s[small]
    out[small] = 1.0 + ss / 2.0 + ss * ss / 6.0
    sb = s[~small]
    out[~small] = np.expm1(sb) / sb      # exp(s) - 1 would cancel |log10 s| digits
    return out


def gram_inner_product(m1: ModeShape, m2: ModeShape, p: BeamParams) -> complex:
    """Energy inner product of two modes, evaluated in closed form.

    Every integrand term is a product of exponentials, so the x-integrals
    reduce to (e^s - 1)/s with s = t_i + conj(t_j').  The tip traces add
    (1/k1) eta eta1* + (1/k3) gamma gamma1*.
    """
    t = m1._ts()
    tq = np.conj(m2._ts())
    c, d, lam = m1.coeffs, m1.couplings, m1.lam
    cq, dq, lamq = np.conj(m2.coeffs), np.conj(m2.couplings), np.conjugate(m2.lam)
    ee = _exp_integral(t[:, None] + tq[None, :])
    v = lam * c
    vq = lamq * cq
    z = lam * c * d
    zq = lamq * cq * dq
    yx = c * d * t
    yxq = cq * dq * tq
    sh = c * (t + d)
    shq = cq * (tq + dq)
    total = (np.outer(v, vq) + np.outer(z, zq) / p.b
             + (p.a / p.b) * np.outer(yx, yxq) + np.outer(sh, shq)) * ee
    val = total.sum()
    val += m1.tip_eta * np.conj(m2.tip_eta) / p.k1
    val += m1.tip_gamma * np.conj(m2.tip_gamma) / p.k3
    return complex(val)


def normalize(m: ModeShape, p: BeamParams) -> ModeShape:
    """Rescale so the energy norm is one; recomputes hnorm as a check."""
    if not (m.hnorm > 0.0) or not math.isfinite(m.hnorm):
        raise ZeroMode(f"cannot normalize a mode of norm {m.hnorm}")
    scaled = replace(m, coeffs=m.coeffs / m.hnorm,
                     tip_eta=m.tip_eta / m.hnorm,
                     tip_gamma=m.tip_gamma / m.hnorm)
    g = gram_inner_product(scaled, scaled, p)
    return replace(scaled, hnorm=math.sqrt(abs(g)))


def eigenmode(lam, p: BeamParams, variant: str | None = None) -> ModeShape:
    """Nullspace coefficients, assembly and normalization in one call."""
    c = nullspace_coeffs(lam, p)
    return normalize(build_mode(lam, c, p, variant=variant), p)


def mode_residuals(m: ModeShape, p: BeamParams) -> np.ndarray:
    """Six residuals: two interior ODEs, two clamped traces, two tip laws.

    Interior residuals are maxima over 20 Chebyshev points; all are raw
    (not normalized by the mode's energy norm).
    """
    lam = m.lam
    x = 0.5 * (1.0 + np.cos(np.pi * (np.arange(20) + 0.5) / 20.0))
    ts = m._ts()
    c, d = m.coeffs, m.couplings
    u = m._eval(x, c)
    y = m._eval(x, c * d)
    ux = m._eval(x, c * ts)
    yx = m._eval(x, c * d * ts)
    uxx = m._eval(x, c * ts * ts)
    yxx = m._eval(x, c * d * ts * ts)
    r1 = np.max(np.abs(uxx + yx - lam * lam * u))
    r2 = np.max(np.abs(p.a * yxx - p.b * (ux + y) - lam * lam * y))
    r3 = abs(m.u(0.0))
    r4 = abs(m.y(0.0))
    u1, y1 = m.u(1.0), m.y(1.0)
    r5 = abs(lam * lam * u1 + p.k1 * (m.ux(1.0) + y1) + p.k2 * lam * u1)
    r6 = abs(lam * lam * y1 + p.k3 * m.yx(1.0) + p.k4 * lam * y1)
    return np.array([r1, r2, r3, r4, r5, r6])


@dataclass(frozen=True)
class RieszDiagnostics:
    """Per-frequency closeness of damped modes to their conservative twins.

    Entries are indexed (k, j) for positive k; negative indices follow by
    conjugation, so partial sums weight each row by two.  closeness is
    ||phi - e^{i theta} psi||^2 after the phase alignment that makes
    <psi, phi> real nonnegative, alignment is that aligned value.
    """

    k_values: np.ndarray
    closeness: np.ndarray
    alignment: np.ndarray
    tip_eta: np.ndarray
    tip_gamma: np.ndarray
    pairing_gap: np.ndarray
    partial_sums: np.ndarray


def riesz_closeness(K: int, p: BeamParams, k_min: int = K_MIN) -> RieszDiagnostics:
    """Pair damped and undamped modes per (k, j) and measure their distance.

    The conservative twin uses the same (a, b, k1, k3) with the damping
    gains removed; the energy norm does not involve k2, k4, so the cross
    inner products are unambiguous.
    """
    require_unit_speed(p)
    if K < k_min:
        raise ValueError(f"K = {K} must be at least k_min = {k_min}")
    p0 = replace(p, k2=0.0, k4=0.0)
    ks = np.arange(k_min, K + 1)
    shape = (len(ks), 2)
    closeness = np.empty(shape)
    alignment = np.empty(shape)
    tip_eta = np.empty(shape)
    tip_gamma = np.empty(shape)
    gap = np.empty(shape)
    damped_all = family_roots(p, ks, "dissipative")
    cons_all = family_roots(p0, ks, "conservative")
    for row, k in enumerate(ks):
        damped, cons = damped_all[2 * row:2 * row + 2], cons_all[2 * row:2 * row + 2]
        for j in (0, 1):
            own = abs(damped[j].lam - cons[j].lam)
            cross = abs(damped[j].lam - cons[1 - j].lam)
            if own > 2.0 * cross:
                raise UnpairedFamily(
                    f"family {j + 1} at k = {k}: damped root {damped[j].lam} "
                    f"sits closer to the other conservative family")
            psi = eigenmode(damped[j].lam, p, variant="dissipative")
            phi = eigenmode(cons[j].lam, p0, variant="conservative")
            ip = gram_inner_product(psi, phi, p)
            alignment[row, j] = abs(ip)
            closeness[row, j] = max(2.0 - 2.0 * abs(ip), 0.0)
            tip_eta[row, j] = abs(psi.tip_eta)
            tip_gamma[row, j] = abs(psi.tip_gamma)
            gap[row, j] = own
    partial = 2.0 * np.cumsum(closeness.sum(axis=1))
    return RieszDiagnostics(k_values=ks, closeness=closeness,
                            alignment=alignment, tip_eta=tip_eta,
                            tip_gamma=tip_gamma, pairing_gap=gap,
                            partial_sums=partial)


def gram_condition(p: BeamParams, K: int, k_min: int = K_MIN) -> float:
    """2-norm condition number of the Gram matrix of 2K seeded modes.

    Uses the damped families j = 1, 2 for k = k_min .. k_min + K - 1,
    each normalized; a bounded condition number as K grows is the
    quadratic-closeness route to the Riesz basis property.
    """
    require_unit_speed(p)
    if K < 1:
        raise ValueError("K must be positive")
    variant = "conservative" if p.is_conservative else "dissipative"
    modes = [eigenmode(rec.lam, p) for rec in family_roots(p, range(k_min, k_min + K), variant)]
    n = len(modes)
    g = np.empty((n, n), dtype=complex)
    for i in range(n):
        for j in range(i, n):
            g[i, j] = gram_inner_product(modes[i], modes[j], p)
            g[j, i] = np.conj(g[i, j])
    return float(np.linalg.cond(g))
