"""Eigenfunctions in closed exponential form and Riesz-basis diagnostics.

An eigenfunction is a four-term exponential sum u(x) = sum c_i e^{t_i x},
y(x) = sum c_i d_i e^{t_i x} whose coefficients span the nullspace of the
4x4 boundary matrix.  Because every energy-norm integrand is again a sum
of exponentials, Gram entries are evaluated exactly through (e^s - 1)/s,
which keeps the k^2-weighted tail diagnostics free of quadrature error.

The layer works on arrays of modes.  `eigenmode(lams, p)` builds every
mode of an array of eigenvalues in one pass: one boundary-matrix
evaluation, one stacked SVD and one Gram, whose norms scale every mode
to energy norm one; a scalar eigenvalue gives a 0-d batch.  The fields of a
ModeShape carry its lambdas' shape as leading axes; indexing a ModeShape
indexes them, so modes[i] is one mode.  `gram_inner_product` broadcasts:
gram_inner_product(psi, phi, p) pairs two batches lane by lane, and
gram_inner_product(modes[:, None], modes[None, :], p) is the Gram matrix.
A lane does not depend on the batch size: as in charfn, a complex product
whose right operand is a temporary is written np.multiply(left, right).
"""

import math
from dataclasses import dataclass, fields, replace

import numpy as np

from .charfn import _check_nonzero, _matrix
from .errors import (
    NotAnEigenvalue,
    RankDeficiencyTwo,
    RegimeMismatch,
    UnpairedFamily,
    ZeroMode,
)
from .model import BeamParams, require_unit_speed
from .spectrum import K_MIN, family_roots

_RANK_RTOL = 1e-6
_ROOT_FLOOR = 1e-9    # sigma relative to sigma1 at which a direction counts as null


@dataclass(frozen=True)
class ModeShape:
    """Closed-form eigenfunctions u, y with their energy-space tip traces.

    Every field has the batch shape of lam as its leading axes; coeffs, the
    exponents ts and the shear couplings d_i add a trailing axis of four.
    tip_eta is lambda*u(1), the velocity trace at the tip.  tip_gamma
    carries the extra sqrt(a/b) factor on lambda*y(1) so that the energy
    norm and the dissipation identity hold exactly for every a, b.
    matrix_residual is ||M(lambda) c|| for the nullspace vector scaled to
    largest entry one, before normalization.  conditioning is sigma3/sigma1
    of M(lambda): the gap of the nullspace to the next singular direction.
    It is small near the degenerate sqrt(b) lattice, where coeffs and the
    tip traces move with the last bits of lambda.
    """

    lam: np.ndarray
    coeffs: np.ndarray
    ts: np.ndarray
    couplings: np.ndarray
    tip_eta: np.ndarray
    tip_gamma: np.ndarray
    matrix_residual: np.ndarray
    conditioning: np.ndarray

    def __getitem__(self, index) -> "ModeShape":
        """Index the batch axes: modes[i] is one mode, modes[:, None] a broadcast view."""
        return replace(self, **{f.name: getattr(self, f.name)[index] for f in fields(self)})


def _first(bad: np.ndarray) -> tuple:
    """Index of the first True entry of a batch mask (empty for a 0-d batch)."""
    return tuple(int(v) for v in np.unravel_index(np.argmax(bad), np.shape(bad)))


def _lane_error(error, index: tuple, lam, why: str):
    """error naming the offending mode's batch index and lambda; index rides along."""
    at = f"mode {index[0] if len(index) == 1 else index}, " if index else ""
    err = error(f"{at}lambda = {complex(np.asarray(lam)[index])}: {why}")
    err.index = index
    return err


def eigenmode(lam, p: BeamParams) -> ModeShape:
    """Build, check and normalize the modes at an array of eigenvalues.

    One boundary-matrix evaluation and one stacked SVD serve every mode.
    The coefficients are the right singular vector of the smallest
    singular value, rescaled so the largest-modulus entry is one, and are
    then normalized to energy norm one.  A moderate smallest singular
    value means lam is not actually an eigenvalue (NotAnEigenvalue); two
    tiny ones mean geometric multiplicity two (RankDeficiencyTwo), which
    this closed form does not span; an energy norm that is zero or not
    finite cannot be normalized (ZeroMode).  Each names the first offending
    mode.
    """
    require_unit_speed(p)
    lam = np.asarray(lam, dtype=complex)
    if lam.ndim == 0:   # numpy's scalar arithmetic rounds apart from its array loops
        return eigenmode(lam[None], p)[0]
    _check_nonzero(lam)
    m, (ts, exps, _, d, _, _) = _matrix(lam, p)
    _, s, vh = np.linalg.svd(m)
    # sigma4/sigma3 <= 1e-6 is the usual quality gate, but sigma3 is itself
    # depressed when a second simple root sits Theta(1/k^2) away (unequal
    # gains on the degenerate sqrt(b) lattice), so a root whose sigma4 is at
    # the rounding floor of the matrix scale is accepted regardless.  At the
    # measured roots sigma4/sigma1 stays below 7e-13 while the midpoint
    # between two such neighbors gives 2e-7: six orders of separation.
    s1, s3, s4 = s[..., 0], s[..., 2], s[..., 3]
    deficient = s3 <= _ROOT_FLOOR * s1
    bad = deficient | ((s4 > _RANK_RTOL * s3) & (s4 > _ROOT_FLOOR * s1))
    if np.any(bad):
        i = _first(bad)
        if deficient[i]:
            raise _lane_error(RankDeficiencyTwo, i, lam,
                              f"two singular values vanish: {s4[i]:.3e}, {s3[i]:.3e}")
        raise _lane_error(NotAnEigenvalue, i, lam,
                          f"sigma4/sigma3 = {s4[i] / s3[i]:.3e}, "
                          f"sigma4/sigma1 = {s4[i] / s1[i]:.3e}; not in the spectrum")
    c = np.conj(vh[..., 3, :])
    c = c / np.take_along_axis(c, np.argmax(np.abs(c), axis=-1)[..., None], axis=-1)
    mode = ModeShape(lam=lam, coeffs=c, ts=ts, couplings=d,
                     tip_eta=np.multiply(lam, np.sum(c * exps, axis=-1)),
                     tip_gamma=math.sqrt(p.a / p.b) * lam * np.sum(c * d * exps, axis=-1),
                     matrix_residual=np.linalg.norm(m @ c[..., None], axis=(-2, -1)),
                     conditioning=s3 / s1)
    h = np.sqrt(np.abs(gram_inner_product(mode, mode, p)))
    bad = ~(np.isfinite(h) & (h > 0.0))
    if np.any(bad):
        i = _first(bad)
        raise _lane_error(ZeroMode, i, lam, f"cannot normalize a mode of norm {h[i]}")
    return replace(mode, coeffs=c / h[..., None], tip_eta=mode.tip_eta / h,
                   tip_gamma=mode.tip_gamma / h)


def _exp_integral(s: np.ndarray) -> np.ndarray:
    """Entrywise integral of e^{s x} over [0, 1], stable through s = 0."""
    s = np.asarray(s, dtype=complex)
    with np.errstate(divide="ignore", invalid="ignore"):    # s = 0 is patched below
        out = np.expm1(s) / s      # exp(s) - 1 would cancel |log10 s| digits
    small = np.abs(s) < 1e-6
    if small.any():
        ss = s[small]
        out[small] = 1.0 + ss / 2.0 + ss * ss / 6.0
    return out


def gram_inner_product(m1: ModeShape, m2: ModeShape, p: BeamParams):
    """Energy inner products <m1, m2>, broadcast over the two batch shapes.

    Every integrand term is a product of exponentials, so the x-integrals
    reduce to (e^s - 1)/s with s = t_i + conj(t_j').  The tip traces add
    (1/k1) eta eta1* + (1/k3) gamma gamma1*.
    """
    def factors(m):
        # per exponent: v = lam u, z = lam y, y_x and the shear u_x + y
        c, d, t = m.coeffs, m.couplings, m.ts
        v = np.asarray(m.lam)[..., None] * c
        return np.stack([v, v * d, c * d * t, np.multiply(c, t + d)], axis=-2)

    weights = np.array([1.0, 1.0 / p.b, p.a / p.b, 1.0])[:, None]
    pairs = np.swapaxes(weights * factors(m1), -1, -2) @ np.conj(factors(m2))
    ee = _exp_integral(m1.ts[..., :, None] + np.conj(m2.ts)[..., None, :])
    return (np.einsum("...ij,...ij->...", pairs, ee)
            + np.multiply(m1.tip_eta, np.conj(m2.tip_eta)) / p.k1
            + np.multiply(m1.tip_gamma, np.conj(m2.tip_gamma)) / p.k3)


def mode_residuals(m: ModeShape, p: BeamParams) -> np.ndarray:
    """Six residuals per mode: two interior ODEs, two clamped traces, two tip laws.

    Shaped batch shape + (6,).  Interior residuals are maxima over 20
    Chebyshev points; all are raw (not normalized by the energy norm).
    One e^{t_i x} table times six stacked weights gives u, y and their derivatives.
    """
    lam = np.asarray(m.lam)
    lx = lam[..., None]
    # 20 interior points, then the clamped end and the tip
    x = np.append(0.5 * (1.0 + np.cos(np.pi * (np.arange(20) + 0.5) / 20.0)), [0.0, 1.0])
    w, t = np.stack([m.coeffs, m.coeffs * m.couplings], axis=-1), m.ts[..., None]
    table = np.exp(x[:, None] * m.ts[..., None, :]) @ np.concatenate([w, w * t, w * t * t], -1)
    u, y, ux, yx, uxx, yxx = np.moveaxis(table, -1, 0)
    r1 = np.max(np.abs(uxx + yx - lx * lx * u)[..., :20], axis=-1)
    r2 = np.max(np.abs(p.a * yxx - p.b * (ux + y) - lx * lx * y)[..., :20], axis=-1)
    u1, y1 = u[..., 21], y[..., 21]
    r5 = np.abs(lam * lam * u1 + p.k1 * (ux[..., 21] + y1) + p.k2 * lam * u1)
    r6 = np.abs(lam * lam * y1 + p.k3 * yx[..., 21] + p.k4 * lam * y1)
    return np.stack([r1, r2, np.abs(u[..., 20]), np.abs(y[..., 20]), r5, r6], axis=-1)


@dataclass(frozen=True)
class RieszDiagnostics:
    """Per-frequency closeness of damped modes to their conservative twins.

    Entries are indexed (k, j) for positive k; negative indices follow by
    conjugation, so partial sums weight each row by two.  closeness is
    ||phi - e^{i theta} psi||^2 after the phase alignment that makes
    <psi, phi> real nonnegative, alignment is that aligned value.  It is
    computed as max(2 - 2|<psi, phi>|, 0), which cancels: a closeness near
    1e-8 carries about eight significant digits, and it can move by about
    3e-8 relative when the roots move by a few ulps.
    """

    k_values: np.ndarray
    closeness: np.ndarray
    alignment: np.ndarray
    tip_eta: np.ndarray
    tip_gamma: np.ndarray
    pairing_gap: np.ndarray
    partial_sums: np.ndarray


def _family_modes(p: BeamParams, ks) -> ModeShape:
    """Both family modes at every k, flat in (k, family) order; errors name k and j."""
    lams = np.array([rec.lam for rec in family_roots(p, ks)])
    try:
        return eigenmode(lams, p)
    except (NotAnEigenvalue, RankDeficiencyTwo, ZeroMode) as err:
        (i,) = err.index
        raise type(err)(f"family {i % 2 + 1} at k = {ks[i // 2]}: {err}") from err


def riesz_closeness(K: int, p: BeamParams) -> RieszDiagnostics:
    """Pair damped and undamped modes per (k, j), K_MIN <= k <= K, by their distance.

    The conservative twin of the damped p uses the same (a, b, k1, k3) with
    the damping gains removed; the energy norm does not involve k2, k4, so
    the cross inner products are unambiguous.
    """
    require_unit_speed(p)
    if p.is_conservative:
        raise RegimeMismatch(f"riesz_closeness needs damping, got k2={p.k2}, k4={p.k4}")
    if K < K_MIN:
        raise ValueError(f"K = {K} must be at least K_MIN = {K_MIN}")
    ks = np.arange(K_MIN, K + 1)
    psi = _family_modes(p, ks)
    phi = _family_modes(replace(p, k2=0.0, k4=0.0), ks)
    damped, cons = psi.lam.reshape(-1, 2), phi.lam.reshape(-1, 2)
    own = np.abs(damped - cons)
    unpaired = own > 2.0 * np.abs(damped - cons[:, ::-1])
    if np.any(unpaired):
        row, j = _first(unpaired)
        raise UnpairedFamily(
            f"family {j + 1} at k = {ks[row]}: damped root {damped[row, j]} "
            f"sits closer to the other conservative family")
    alignment = np.abs(gram_inner_product(psi, phi, p)).reshape(-1, 2)
    closeness = np.maximum(2.0 - 2.0 * alignment, 0.0)
    return RieszDiagnostics(k_values=ks, closeness=closeness, alignment=alignment,
                            tip_eta=np.abs(psi.tip_eta).reshape(-1, 2),
                            tip_gamma=np.abs(psi.tip_gamma).reshape(-1, 2),
                            pairing_gap=own,
                            partial_sums=2.0 * np.cumsum(closeness.sum(axis=1)))
