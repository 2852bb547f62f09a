"""Reference implementations that the tests compare the package against.

No command runs these, so they live with the tests:

- the composite Simpson weights, the 4th-order stencil derivative, the
  energy inner product of sampled states and the sampled generator, the
  oracles for `model.solve_static`, the integrator and the closed-form
  Gram entries;
- the truncated eigenfunction expansion of the semigroup solution, with the
  sampling of modes on a grid it needs, the oracle for the integrator;
- a mode field sum_i w_i e^{t_i x} evaluated on its own, one exponential
  table per field, the oracle for `modes.mode_residuals`;
- the branch roots, shear couplings and boundary symbols one exponent at a
  time, the unstabilized forms that `charfn._matrix` is checked against;
- the eigenvalue prediction as one scalar formula per regime, the oracle
  for the series that `asymptotics.predict_eigenvalue` evaluates;
- the terms f0..f3 of the paper's large-|lambda| expansion of f, from the
  stabilized paired exponentials, the oracle that `charfn` is held to;
- the 4N+2 generator A and energy weight W assembled from the stored
  blocks of a `simulate.DiscreteGenerator`, and the dense eigensolve of A,
  the oracles for the integrator and for the finite-difference spectrum;
- the strip's bookkeeping one record at a time (coincidence, distinct
  records, records inside a rect, the sort key of the records, the refusal
  of coinciding records and the sweep's family labels), the oracles for the
  array forms in `spectrum`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse

from tipbeam.asymptotics import discriminant_reduced, gamma_coefficients, special_a3
from tipbeam.charfn import _check_nonzero, _roots, _shifted_roots
from tipbeam.errors import GridMismatch, TipbeamError, ZeroOmega1
from tipbeam.model import (
    REGIME_CASE1,
    REGIME_CASE2,
    REGIME_GENERIC,
    BeamParams,
    GridState,
    _check_same_grid,
    regime_info,
    require_unit_speed,
)
from tipbeam.modes import ModeShape, gram_inner_product
from tipbeam.simulate import DiscreteGenerator
from tipbeam.spectrum import _COINCIDENCE_RTOL, EigenvalueRecord

_KERNEL_TOL = 1e-8      # spurious consistency kernel of the duplicated tip rows


class BranchRootNearZero(TipbeamError, ValueError):
    """t1 or t3 is too close to zero for the coupling formulas."""


class ZeroDenominator(TipbeamError, ValueError):
    """g-function evaluated at t = 0 or lambda = 0."""


class IllConditionedGram(TipbeamError, RuntimeError):
    """Truncated Gram system is too ill-conditioned to invert."""


class EigensolveFailure(TipbeamError, RuntimeError):
    """Dense eigensolver did not converge."""


# ---------------------------------------------------------------------------
# sampled states


def simpson_weights(N: int, h: float) -> np.ndarray:
    """Composite Simpson weights on N+1 nodes; N must be even."""
    if N % 2 != 0:
        raise GridMismatch(f"composite Simpson needs an even interval count, got N={N}")
    w = np.full(N + 1, 2.0)
    w[1::2] = 4.0
    w[0] = w[N] = 1.0
    return w * (h / 3.0)


def derivative(values: np.ndarray, h: float) -> np.ndarray:
    """Fourth-order finite-difference derivative on a uniform grid.

    Central five-point stencil in the interior, one-sided five-point stencils
    at the two nodes next to each end.  The nodes run along the last axis.
    """
    n = values.shape[-1]
    if n < 5:
        raise GridMismatch("need at least 5 nodes for the 4th-order stencil")
    d = np.empty_like(values)
    d[..., 2:-2] = (values[..., :-4] - 8.0 * values[..., 1:-3]
                    + 8.0 * values[..., 3:-1] - values[..., 4:]) / (12.0 * h)
    c0 = np.array([-25.0, 48.0, -36.0, 16.0, -3.0]) / (12.0 * h)
    c1 = np.array([-3.0, -10.0, 18.0, -6.0, 1.0]) / (12.0 * h)
    d[..., 0] = values[..., :5] @ c0
    d[..., 1] = values[..., :5] @ c1
    d[..., -1] = -(values[..., -5:][..., ::-1] @ c0)
    d[..., -2] = -(values[..., -5:][..., ::-1] @ c1)
    return d


def grid_inner_product(u1: GridState, u2: GridState, p: BeamParams):
    """Energy inner product of two sampled states, or of batches of them.

    Composite Simpson quadrature of

        v v1* + (1/b) z z1* + (a/b) y_x y1_x* + (u_x + y)(u1_x + y1)*

    plus the tip terms (1/k1) eta eta1* + (1/k3) gamma gamma1*.  Spatial
    derivatives use the 4th-order stencils of ``derivative``.  Fields with
    leading batch axes before the node axis broadcast.
    """
    _check_same_grid(u1, u2)
    h = u1.h
    w = simpson_weights(u1.N, h)
    y1x = derivative(u1.y, h)
    y2x = derivative(u2.y, h)
    s1 = u1.v * np.conj(u2.v)
    s2 = u1.z * np.conj(u2.z) / p.b
    s3 = (p.a / p.b) * y1x * np.conj(y2x)
    w1 = derivative(u1.u, h) + u1.y
    w2 = derivative(u2.u, h) + u2.y
    s4 = w1 * np.conj(w2)
    integral = np.sum(w * (s1 + s2 + s3 + s4), axis=-1)
    val = integral + u1.eta * np.conj(u2.eta) / p.k1 + u1.gamma * np.conj(u2.gamma) / p.k3
    return complex(val) if np.ndim(val) == 0 else val


def apply_operator(state: GridState, p: BeamParams) -> GridState:
    """Apply the evolution generator to a sampled domain state.

    Interior components (v, (u_x+y)_x, z, a y_xx - b(u_x+y)) use 4th-order
    differences; the tip components follow the feedback laws, with the scaled
    shear trace gamma = sqrt(a/b) * z(1).  Serves as the residual oracle for
    solve_static.
    """
    h = state.h
    sab = math.sqrt(p.a / p.b)
    ux = derivative(state.u, h)
    yx = derivative(state.y, h)
    shear = ux + state.y
    du = state.v.copy()
    dv = derivative(shear, h)
    dy = state.z.copy()
    dz = p.a * derivative(yx, h) - p.b * shear
    deta = -p.k1 * shear[-1] - p.k2 * state.eta
    dgamma = -p.k3 * sab * yx[-1] - p.k4 * state.gamma
    return GridState(state.N, du, dv, dy, dz, deta, dgamma)


# ---------------------------------------------------------------------------
# eigenfunction expansion


def mode_field(modes: ModeShape, x, weights: np.ndarray):
    """sum_i w_i e^{t_i x}, shaped batch shape + x.shape; weights
    modes.coeffs give u, modes.coeffs * modes.couplings give y."""
    x = np.asarray(x, dtype=float)
    lift = np.shape(modes.lam) + (1,) * x.ndim + (4,)
    return np.sum(np.exp(x[..., None] * modes.ts.reshape(lift)) * weights.reshape(lift),
                  axis=-1)


def to_grid_state(modes: ModeShape, N: int) -> GridState:
    """Sample the eigenvectors (u, lam u, y, lam y, eta, gamma) on a grid.

    The node axis comes after the batch axes.
    """
    x = np.linspace(0.0, 1.0, N + 1)
    u = mode_field(modes, x, modes.coeffs)
    y = mode_field(modes, x, modes.coeffs * modes.couplings)
    lam = np.asarray(modes.lam)[..., None]
    return GridState(N=N, u=u, v=lam * u, y=y, z=lam * y,
                     eta=modes.tip_eta, gamma=modes.tip_gamma)


def spectral_solution(U0: GridState, modes: ModeShape, t: float, p: BeamParams) -> GridState:
    """Truncated eigenfunction expansion of the semigroup solution.

    modes is a 1-d batch (see `modes.eigenmode`).  Coefficients solve the
    Gram system G c = <U0, psi_i> assembled from closed-form inner
    products; the time factor is e^{lambda t} per mode.  Pass modes at
    conjugate eigenvalue pairs to represent real data.
    """
    if np.ndim(modes.lam) != 1 or not len(modes.lam):
        raise ValueError("need a 1-d batch of at least one mode")
    gram = gram_inner_product(modes[None, :], modes[:, None], p)
    cond = np.linalg.cond(gram)
    if cond > 1e8:
        raise IllConditionedGram(f"Gram condition {cond:.3e} exceeds 1e8")
    sampled = to_grid_state(modes, U0.N)
    w = np.linalg.solve(gram, grid_inner_product(U0, sampled, p)) * np.exp(modes.lam * t)
    return GridState(N=U0.N, u=w @ sampled.u, v=w @ sampled.v, y=w @ sampled.y,
                     z=w @ sampled.z, eta=w @ sampled.eta, gamma=w @ sampled.gamma)


# ---------------------------------------------------------------------------
# unstabilized characteristic-function pieces


@dataclass(frozen=True)
class BranchRoots:
    """The four interior exponents; t2 = -t1 and t4 = -t3 exactly."""

    t1: complex
    t2: complex
    t3: complex
    t4: complex


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


# ---------------------------------------------------------------------------
# eigenvalue predictions, one (k, j) and one regime branch at a time


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
        g1, _, g3 = gamma_coefficients(p)
        root = math.sqrt(discriminant_reduced(p))
        aj = 0.5 * (g1 - root) if j == 1 else 0.5 * (g1 + root)
        if p.is_conservative:
            return base + 1j * aj / k
        om1 = (-1j if j == 1 else 1j) * root
        if abs(om1) < 1e-12:
            raise ZeroOmega1("families collide: omega1 vanishes")
        kk = p.k1 * p.k2 + p.k3 * p.k4
        om2 = 1j * (8.0 * math.pi * kk * aj - g3) / (8.0 * math.pi**3)
        beta = (om2 / om1).real
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


# ---------------------------------------------------------------------------
# the paper's expansion of f


def paired_exponentials(lam, b: float):
    """(e^{t1+t3}, e^{-t1-t3}, e^{t1-t3}, e^{t3-t1}) with stable phases.

    Built from e^{2 lambda} and the small shifts t_i - lambda so the phase
    error stays at a few ulp even when |Im lambda| is large; see
    `charfn._shifted_roots`.
    """
    arr = np.asarray(lam, dtype=complex)
    _check_nonzero(arr)
    _, _, dl1, dl3 = _shifted_roots(arr, b)
    ep = np.exp(2.0 * arr) * np.exp(dl1 + dl3)
    dp = np.exp(dl1 - dl3)
    return ep, 1.0 / ep, dp, 1.0 / dp


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


# ---------------------------------------------------------------------------
# the assembled finite-difference generator


def generator_matrix(g: DiscreteGenerator) -> scipy.sparse.csr_array:
    """A = [[0, S], [K, D]] with M_w K = -S^T W_d, on 4N+2 coordinates."""
    K = scipy.sparse.diags_array(-1.0 / g.M_w) @ (g.S.T @ g.W_d)
    return scipy.sparse.block_array([[None, g.S], [K, g.D]], format="csr")


def generator_weight(g: DiscreteGenerator) -> scipy.sparse.csr_array:
    """W = diag(W_d, M_w), the energy weight."""
    return scipy.sparse.block_diag((g.W_d, scipy.sparse.diags_array(g.M_w)), format="csr")


def generator_spectrum(g: DiscreteGenerator, m: int) -> np.ndarray:
    """The m eigenvalues of A nearest the real axis with Im >= 0, by |Im|.

    The two zero eigenvalues from the duplicated tip rows (directions with
    v_N != eta) are filtered out; everything else is a physical mode.  A is
    densified for the eigensolve.
    """
    n = 4 * g.N + 2
    if m > n:
        raise ValueError(f"asked for {m} of {n} eigenvalues")
    try:
        vals = scipy.linalg.eigvals(generator_matrix(g).toarray())
    except scipy.linalg.LinAlgError as exc:
        raise EigensolveFailure(str(exc)) from exc
    if not np.all(np.isfinite(vals)):
        raise EigensolveFailure("nonfinite eigenvalues returned")
    vals = vals[np.abs(vals) > _KERNEL_TOL]
    vals = vals[vals.imag >= -1e-9]
    order = np.lexsort((vals.real, np.abs(vals.imag)))
    return vals[order][:m]


def inside(lam: complex, rect) -> bool:
    """lam lies in the closed rect."""
    return rect[0] <= lam.real <= rect[1] and rect[2] <= lam.imag <= rect[3]


def coincide(a: complex, b: complex) -> bool:
    """a and b agree to Newton resolution: two polishes that found one root."""
    return abs(a - b) <= _COINCIDENCE_RTOL * max(1.0, abs(a))


def distinct(recs) -> list:
    """The records of recs that coincide with no other."""
    return [rec for rec in recs
            if not any(coincide(rec.lam, other.lam) for other in recs if other is not rec)]


def recovered(records, rect) -> int:
    """The number of records inside rect."""
    return sum(inside(r.lam, rect) for r in records)


def on_real_axis(lam: complex) -> bool:
    """Im lambda below Newton's resolution: rounding noise on a real root."""
    return abs(lam.imag) <= 1e-12 * max(1.0, abs(lam))


def record_order(rec: EigenvalueRecord):
    """Sort key: Im lambda with rounding noise on the real axis read as 0, then
    Re lambda, then family, so real roots keep their order on ulp-level changes."""
    lam = rec.lam
    im = 0.0 if on_real_axis(lam) else lam.imag
    return (im, lam.real, rec.family if rec.family is not None else 0)


def refuse_coincident(records, known):
    """The first pair (a, b) of records, by Im lambda, that coincide with one
    of them in known, or None."""
    known = {id(rec) for rec in known}
    recs = sorted(records, key=lambda rec: rec.lam.imag)
    for i, rec in enumerate(recs):
        for other in recs[i + 1:]:
            if other.lam.imag > rec.lam.imag + _COINCIDENCE_RTOL * max(1.0, abs(rec.lam)):
                break
            if (id(rec) in known or id(other) in known) and coincide(rec.lam, other.lam):
                return rec.lam, other.lam
    return None


def label_low_frequency(records, preds):
    """The sweep's labels: no k_index, and those with Im >= 0 the family of
    the nearest prediction (the first of equals), if within 0.5."""
    for rec in records:
        rec.k_index = rec.family = None
        if rec.lam.imag >= 0:
            i = int(np.argmin(np.abs(preds - rec.lam)))
            if abs(preds[i] - rec.lam) < 0.5:
                rec.family = i % 2 + 1
