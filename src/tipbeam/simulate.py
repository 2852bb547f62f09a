"""Finite-difference oracle: discrete generator, energy-exact integrator.

The generator acts on (u_1..u_N, v_1..v_N, y_1..y_N, z_1..z_N, eta, gamma)
with the clamped node eliminated.  Interior rows reduce to the standard
second-order central stencils, but they are assembled from midpoint shear
and slope fluxes so that the matrix is exactly skew-adjoint in the
discrete energy weight when the damping gains vanish.  The only energy
drain of the implicit midpoint integrator is then the boundary feedback,
which is what the decay measurements are after.
"""

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
import scipy.sparse
from scipy.sparse.linalg import splu

from .errors import (
    EigensolveFailure,
    IllConditionedGram,
    NonPositiveEnergy,
    ResolutionTooLow,
    SingularSolve,
    WindowTooShort,
)
from .model import BeamParams, GridState, grid_inner_product
from .modes import gram_inner_product

_KERNEL_TOL = 1e-8      # spurious consistency kernel of the duplicated tip rows


@dataclass
class DiscreteGenerator:
    """Dense real generator with its energy weight on 4N+2 coordinates."""

    N: int
    params: BeamParams
    matrix: np.ndarray
    weight: np.ndarray

    @property
    def h(self) -> float:
        return 1.0 / self.N

    def energy(self, vec: np.ndarray) -> float:
        return 0.5 * float(np.real(np.conj(vec) @ (self.weight @ vec)))


def _pack(state: GridState) -> np.ndarray:
    vec = np.concatenate([state.u[1:], state.v[1:], state.y[1:], state.z[1:],
                          [state.eta], [state.gamma]])
    return vec


def _unpack(vec: np.ndarray, N: int) -> GridState:
    zero = np.zeros(1, dtype=vec.dtype)
    u = np.concatenate([zero, vec[0:N]])
    v = np.concatenate([zero, vec[N:2 * N]])
    y = np.concatenate([zero, vec[2 * N:3 * N]])
    z = np.concatenate([zero, vec[3 * N:4 * N]])
    return GridState(N=N, u=u, v=v, y=y, z=z, eta=vec[4 * N], gamma=vec[4 * N + 1])


def _shear_rows(N: int):
    """Index/coefficient lists of w_m = (u_m - u_{m-1})/h + (y_{m-1}+y_m)/2."""
    h = 1.0 / N
    rows = []
    for m in range(1, N + 1):
        cols = [m - 1]
        coef = [1.0 / h]
        if m >= 2:
            cols.append(m - 2)
            coef.append(-1.0 / h)
        cols.append(2 * N + m - 1)
        coef.append(0.5)
        if m >= 2:
            cols.append(2 * N + m - 2)
            coef.append(0.5)
        rows.append((cols, coef))
    return rows


def _slope_rows(N: int):
    """Index/coefficient lists of Dy_m = (y_m - y_{m-1})/h."""
    h = 1.0 / N
    rows = []
    for m in range(1, N + 1):
        cols = [2 * N + m - 1]
        coef = [1.0 / h]
        if m >= 2:
            cols.append(2 * N + m - 2)
            coef.append(-1.0 / h)
        rows.append((cols, coef))
    return rows


def assemble_generator(p: BeamParams, N: int) -> DiscreteGenerator:
    """Build the 4N+2 generator and its energy weight.

    The tip accelerations share one row with the tip trace derivatives and
    carry the lumped half-cell mass, so consistent states (v_N = eta,
    gamma = sqrt(a/b) z_N) stay consistent and dissipate exactly
    -(k2/k1)|eta|^2 - (k4/k3)|gamma|^2.  The u_N and y_N transport rows use
    the weight-averaged velocities, which agree with v_N, z_N on
    consistent states and make the conservative matrix skew for every
    vector, not only the consistent ones.
    """
    if N < 16:
        raise ResolutionTooLow(f"N = {N} is below the minimum of 16")
    h = 1.0 / N
    a, b = p.a, p.b
    sab = math.sqrt(a / b)
    n = 4 * N + 2
    A = np.zeros((n, n))
    shear = _shear_rows(N)
    slope = _slope_rows(N)

    # transport rows: du_m = v_m, dy_m = z_m away from the tip
    for m in range(1, N):
        A[m - 1, N + m - 1] = 1.0
        A[2 * N + m - 1, 3 * N + m - 1] = 1.0
    mu_v = 0.5 * h + 1.0 / p.k1
    A[N - 1, 2 * N - 1] = 0.5 * h / mu_v          # u_N row, weighted velocity
    A[N - 1, 4 * N] = (1.0 / p.k1) / mu_v
    mu_z = 0.5 * h / b + a / (b * p.k3)
    A[3 * N - 1, 4 * N - 1] = (0.5 * h / b) / mu_z
    A[3 * N - 1, 4 * N + 1] = (sab / p.k3) / mu_z

    # interior accelerations from flux differences (central stencils)
    for m in range(1, N):
        row_v = N + m - 1
        for c, w in zip(*shear[m]):
            A[row_v, c] += w / h
        for c, w in zip(*shear[m - 1]):
            A[row_v, c] -= w / h
        row_z = 3 * N + m - 1
        for c, w in zip(*slope[m]):
            A[row_z, c] += a * w / h
        for c, w in zip(*slope[m - 1]):
            A[row_z, c] -= a * w / h
        for c, w in zip(*shear[m - 1]):
            A[row_z, c] -= 0.5 * b * w
        for c, w in zip(*shear[m]):
            A[row_z, c] -= 0.5 * b * w

    # tip rows: boundary laws with lumped half-cell mass
    row = np.zeros(n)
    for c, w in zip(*shear[N - 1]):
        row[c] += w
    row[4 * N] += p.k2 / p.k1
    A[2 * N - 1] = -row / mu_v
    A[4 * N] = A[2 * N - 1]

    row = np.zeros(n)
    for c, w in zip(*shear[N - 1]):
        row[c] += 0.5 * h * w
    for c, w in zip(*slope[N - 1]):
        row[c] += (a / b) * w
    row[4 * N + 1] += sab * p.k4 / p.k3
    A[4 * N - 1] = -row / mu_z
    A[4 * N + 1] = sab * A[4 * N - 1]

    # energy weight: kinetic diagonals plus shear/slope stiffness
    W = np.zeros((n, n))
    for m in range(1, N):
        W[N + m - 1, N + m - 1] = h
        W[3 * N + m - 1, 3 * N + m - 1] = h / b
    W[2 * N - 1, 2 * N - 1] = 0.5 * h
    W[4 * N - 1, 4 * N - 1] = 0.5 * h / b
    W[4 * N, 4 * N] = 1.0 / p.k1
    W[4 * N + 1, 4 * N + 1] = 1.0 / p.k3
    for (cols, coef), (scols, scoef) in zip(shear, slope):
        for ci, wi in zip(cols, coef):
            for cj, wj in zip(cols, coef):
                W[ci, cj] += h * wi * wj
        for ci, wi in zip(scols, scoef):
            for cj, wj in zip(scols, scoef):
                W[ci, cj] += h * (a / b) * wi * wj
    return DiscreteGenerator(N=N, params=p, matrix=A, weight=W)


def generator_spectrum(g: DiscreteGenerator, m: int) -> np.ndarray:
    """The m eigenvalues nearest the real axis with Im >= 0, by |Im|.

    The two zero eigenvalues from the duplicated tip rows (directions with
    v_N != eta) are filtered out; everything else is a physical mode.
    """
    if m > g.matrix.shape[0]:
        raise ValueError(f"asked for {m} of {g.matrix.shape[0]} eigenvalues")
    try:
        vals = scipy.linalg.eigvals(g.matrix)
    except scipy.linalg.LinAlgError as exc:
        raise EigensolveFailure(str(exc)) from exc
    if not np.all(np.isfinite(vals)):
        raise EigensolveFailure("nonfinite eigenvalues returned")
    vals = vals[np.abs(vals) > _KERNEL_TOL]
    vals = vals[vals.imag >= -1e-9]
    order = np.lexsort((vals.real, np.abs(vals.imag)))
    return vals[order][:m]


@dataclass
class EnergyTrace:
    """Sampled energies of one integration run."""

    times: np.ndarray
    energies: np.ndarray
    fitted_exponent: float = math.nan
    fitted_constant: float = math.nan
    final_state: GridState | None = None


def integrate(g: DiscreteGenerator, U0: GridState, T: float, dt: float) -> EnergyTrace:
    """Implicit midpoint march with one iterative-refinement round per step.

    The midpoint rule conserves the quadratic energy exactly for skew
    systems, so any decay in the samples is boundary feedback, not scheme
    dissipation.  Energy is sampled on a stride targeting about one
    thousand samples.
    """
    if dt <= 0.0 or T <= 0.0:
        raise ValueError("T and dt must be positive")
    if dt > 0.5 * g.h * (1.0 + 1e-12):
        raise ValueError(f"dt = {dt} exceeds h/2 = {0.5 * g.h}")
    x = np.real_if_close(_pack(U0), tol=1000)
    if np.iscomplexobj(x):
        raise ValueError("time integration expects real initial data")
    x = x.astype(float)
    sp = scipy.sparse.csc_matrix(g.matrix)
    eye = scipy.sparse.identity(sp.shape[0], format="csc")
    left = (eye - 0.5 * dt * sp).tocsc()
    right = (eye + 0.5 * dt * sp).tocsr()
    try:
        lu = splu(left)
    except RuntimeError as exc:
        raise SingularSolve(str(exc)) from exc
    nsteps = max(1, int(round(T / dt)))
    stride = max(1, int(round(T / (1000.0 * dt))))
    times = [0.0]
    energies = [g.energy(x)]
    for step in range(1, nsteps + 1):
        rhs = right @ x
        x = lu.solve(rhs)
        x += lu.solve(rhs - left @ x)
        if not np.all(np.isfinite(x)):
            raise SingularSolve(f"integration blew up at step {step}")
        if step % stride == 0 or step == nsteps:
            times.append(step * dt)
            energies.append(g.energy(x))
    return EnergyTrace(times=np.array(times), energies=np.array(energies),
                       final_state=_unpack(x, g.N))


@dataclass(frozen=True)
class DecayFit:
    """Log-log slope of an energy trace plus the t*E(t) boundedness data."""

    exponent: float
    constant: float
    sup_te: float
    window: tuple


def fit_decay(trace: EnergyTrace, window: tuple = (0.25, 1.0)) -> DecayFit:
    """Least-squares slope of log E against log t over a window of [0, T].

    Also reports sup t*E(t) there, the quantity that stays bounded for
    smooth initial data when the energy decays like 1/t.  An energy <= 0 in
    the window has no logarithm and raises NonPositiveEnergy at its time.
    """
    t_end = trace.times[-1]
    lo, hi = window
    mask = (trace.times >= lo * t_end) & (trace.times <= hi * t_end)
    t = trace.times[mask]
    e = trace.energies[mask]
    if len(t) < 8 or t[0] <= 0.0 or t[-1] < 2.0 * t[0]:
        raise WindowTooShort(
            f"window {window} of [0, {t_end}] leaves {len(t)} usable samples")
    bad = np.flatnonzero(e <= 0.0)
    if bad.size:
        raise NonPositiveEnergy(
            f"energy {e[bad[0]]:.3e} <= 0 at t = {t[bad[0]]:.17g} in the fit window")
    slope, intercept = np.polyfit(np.log(t), np.log(e), 1)
    fit = DecayFit(exponent=float(slope), constant=float(math.exp(intercept)),
                   sup_te=float(np.max(t * e)), window=(float(lo), float(hi)))
    trace.fitted_exponent = fit.exponent
    trace.fitted_constant = fit.constant
    return fit


def spectral_solution(U0: GridState, modes, t: float, p: BeamParams) -> GridState:
    """Truncated eigenfunction expansion of the semigroup solution.

    Coefficients solve the Gram system G c = <U0, psi_i> assembled from
    closed-form inner products; the time factor is e^{lambda t} per mode.
    Pass modes at conjugate eigenvalue pairs to represent real data.
    """
    if not modes:
        raise ValueError("need at least one mode")
    K = len(modes)
    gram = np.empty((K, K), dtype=complex)
    for i in range(K):
        for j in range(K):
            gram[i, j] = gram_inner_product(modes[j], modes[i], p)
    cond = np.linalg.cond(gram)
    if cond > 1e8:
        raise IllConditionedGram(f"Gram condition {cond:.3e} exceeds 1e8")
    N = U0.N
    sampled = [m.to_grid_state(N) for m in modes]
    beta = np.array([grid_inner_product(U0, s, p) for s in sampled])
    coeff = np.linalg.solve(gram, beta)
    weights = coeff * np.exp(np.array([m.lam for m in modes]) * t)
    u = np.zeros(N + 1, dtype=complex)
    v = np.zeros(N + 1, dtype=complex)
    y = np.zeros(N + 1, dtype=complex)
    z = np.zeros(N + 1, dtype=complex)
    eta = 0.0 + 0.0j
    gamma = 0.0 + 0.0j
    for w, s in zip(weights, sampled):
        u += w * s.u
        v += w * s.v
        y += w * s.y
        z += w * s.z
        eta += w * s.eta
        gamma += w * s.gamma
    return GridState(N=N, u=u, v=v, y=y, z=z, eta=eta, gamma=gamma)
