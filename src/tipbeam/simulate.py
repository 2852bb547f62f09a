"""Finite-difference oracle: discrete generator, energy-exact integrator.

The generator acts on (u_1..u_N, v_1..v_N, y_1..y_N, z_1..z_N, eta, gamma)
with the clamped node eliminated.  Interior rows reduce to the standard
second-order central stencils, but they are assembled from midpoint shear
and slope fluxes so that the matrix is exactly skew-adjoint in the
discrete energy weight when the damping gains vanish.  The only energy
drain of the implicit midpoint integrator is then the boundary feedback,
which is what the decay measurements are after.

Both the generator and its weight are sparse (about three entries per
row), from assembly through energy evaluation.  The integrator reorders
the coordinates once by reverse Cuthill-McKee, which makes the midpoint
matrix banded with seven sub- and super-diagonals, and steps with one
banded LAPACK solve.  Only the eigenvalue check densifies.
"""

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
import scipy.sparse
from scipy.linalg.lapack import dgbtrf, dgbtrs
from scipy.sparse.csgraph import reverse_cuthill_mckee

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
    """Sparse (CSR) real generator with its energy weight on 4N+2 coordinates."""

    N: int
    params: BeamParams
    matrix: scipy.sparse.csr_array
    weight: scipy.sparse.csr_array

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


class _Triplets:
    """(row, col, value) lists; duplicates are summed when converted to CSR."""

    def __init__(self):
        self.rows, self.cols, self.vals = [], [], []

    def emit(self, row: int, cols, coef, scale: float = 1.0) -> None:
        self.rows.extend([row] * len(cols))
        self.cols.extend(cols)
        self.vals.extend([scale * w for w in coef])

    def csr(self, n: int) -> scipy.sparse.csr_array:
        rows = np.asarray(self.rows, dtype=np.int32)     # half the index storage of int64
        cols = np.asarray(self.cols, dtype=np.int32)
        out = scipy.sparse.coo_array((self.vals, (rows, cols)), shape=(n, n)).tocsr()
        out.eliminate_zeros()       # the flux differences cancel some entries exactly
        return out


def assemble_generator(p: BeamParams, N: int) -> DiscreteGenerator:
    """Build the 4N+2 generator and its energy weight, both sparse.

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
    A = _Triplets()
    shear = _shear_rows(N)
    slope = _slope_rows(N)

    # transport rows: du_m = v_m, dy_m = z_m away from the tip
    for m in range(1, N):
        A.emit(m - 1, [N + m - 1], [1.0])
        A.emit(2 * N + m - 1, [3 * N + m - 1], [1.0])
    mu_v = 0.5 * h + 1.0 / p.k1
    A.emit(N - 1, [2 * N - 1, 4 * N], [0.5 * h, 1.0 / p.k1], 1.0 / mu_v)  # weighted velocity
    mu_z = 0.5 * h / b + a / (b * p.k3)
    A.emit(3 * N - 1, [4 * N - 1, 4 * N + 1], [0.5 * h / b, sab / p.k3], 1.0 / mu_z)

    # interior accelerations from flux differences (central stencils)
    for m in range(1, N):
        row_v = N + m - 1
        A.emit(row_v, *shear[m], 1.0 / h)
        A.emit(row_v, *shear[m - 1], -1.0 / h)
        row_z = 3 * N + m - 1
        A.emit(row_z, *slope[m], a / h)
        A.emit(row_z, *slope[m - 1], -a / h)
        A.emit(row_z, *shear[m - 1], -0.5 * b)
        A.emit(row_z, *shear[m], -0.5 * b)

    # tip rows: boundary laws with lumped half-cell mass; the tip traces
    # eta, gamma repeat the rows of v_N and (scaled) z_N
    for row in (2 * N - 1, 4 * N):
        A.emit(row, *shear[N - 1], -1.0 / mu_v)
        A.emit(row, [4 * N], [p.k2 / p.k1], -1.0 / mu_v)
    for row, scale in ((4 * N - 1, -1.0 / mu_z), (4 * N + 1, -sab / mu_z)):
        A.emit(row, *shear[N - 1], 0.5 * h * scale)
        A.emit(row, *slope[N - 1], (a / b) * scale)
        A.emit(row, [4 * N + 1], [sab * p.k4 / p.k3], scale)

    # energy weight: kinetic diagonals plus shear/slope stiffness
    W = _Triplets()
    for m in range(1, N):
        W.emit(N + m - 1, [N + m - 1], [h])
        W.emit(3 * N + m - 1, [3 * N + m - 1], [h / b])
    W.emit(2 * N - 1, [2 * N - 1], [0.5 * h])
    W.emit(4 * N - 1, [4 * N - 1], [0.5 * h / b])
    W.emit(4 * N, [4 * N], [1.0 / p.k1])
    W.emit(4 * N + 1, [4 * N + 1], [1.0 / p.k3])
    for (cols, coef), (scols, scoef) in zip(shear, slope):
        for ci, wi in zip(cols, coef):
            W.emit(ci, cols, coef, h * wi)
        for ci, wi in zip(scols, scoef):
            W.emit(ci, scols, scoef, h * (a / b) * wi)
    return DiscreteGenerator(N=N, params=p, matrix=A.csr(n), weight=W.csr(n))


def generator_spectrum(g: DiscreteGenerator, m: int) -> np.ndarray:
    """The m eigenvalues nearest the real axis with Im >= 0, by |Im|.

    The two zero eigenvalues from the duplicated tip rows (directions with
    v_N != eta) are filtered out; everything else is a physical mode.  This
    is the one place the generator is densified.
    """
    if m > g.matrix.shape[0]:
        raise ValueError(f"asked for {m} of {g.matrix.shape[0]} eigenvalues")
    try:
        vals = scipy.linalg.eigvals(g.matrix.toarray())
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
    """Sampled energies of one integration run, with its deterministic counts."""

    times: np.ndarray
    energies: np.ndarray
    fitted_exponent: float = math.nan
    fitted_constant: float = math.nan
    final_state: GridState | None = None
    stats: dict = field(default_factory=dict)


def integrate(g: DiscreteGenerator, U0: GridState, T: float, dt: float) -> EnergyTrace:
    """Implicit midpoint march: one banded factorization, one solve per step.

    The midpoint rule conserves the quadratic energy exactly for skew
    systems, so any decay in the samples is boundary feedback, not scheme
    dissipation; no refinement solve is needed.  The coordinates are
    reordered once by reverse Cuthill-McKee, I - dt/2 A is factored in
    LAPACK band storage, and each step is x <- (I - dt/2 A)^{-1} (I + dt/2 A) x.
    The state is mapped back to the natural order only where it is sampled.
    Energy is sampled on a stride targeting about one thousand samples; a
    state or an energy sample that is not finite raises SingularSolve naming
    the step and t.
    """
    if dt <= 0.0 or T <= 0.0:
        raise ValueError("T and dt must be positive")
    if dt > 0.5 * g.h * (1.0 + 1e-12):
        raise ValueError(f"dt = {dt} exceeds h/2 = {0.5 * g.h}")
    x = np.real_if_close(_pack(U0), tol=1000)
    if np.iscomplexobj(x):
        raise ValueError("time integration expects real initial data")
    x = x.astype(float)

    n = g.matrix.shape[0]
    perm = reverse_cuthill_mckee(abs(g.matrix) + abs(g.matrix.T), symmetric_mode=True)
    inv = np.empty_like(perm)
    inv[perm] = np.arange(n, dtype=perm.dtype)
    coo = g.matrix.tocoo()
    rows, cols = inv[coo.row], inv[coo.col]
    half = 0.5 * dt * coo.data
    right = scipy.sparse.eye_array(n, format="csr") \
        + scipy.sparse.csr_array((half, (rows, cols)), shape=(n, n))
    kl = int(np.max(rows - cols, initial=0))
    ku = int(np.max(cols - rows, initial=0))
    band = np.zeros((2 * kl + ku + 1, n))      # LAPACK layout, kl spare rows for pivoting
    band[kl + ku] = 1.0
    np.subtract.at(band, (kl + ku + rows - cols, cols), half)
    lub, piv, info = dgbtrf(band, kl, ku, overwrite_ab=True)
    if info != 0:
        where = (f"zero pivot at index {info - 1} of the reordered matrix "
                 f"(coordinate {perm[info - 1]})" if info > 0 else f"dgbtrf info = {info}")
        raise SingularSolve(f"I - dt/2 A is singular for N = {g.N}, dt = {dt:.17g}: {where}")

    nsteps = max(1, int(round(T / dt)))
    stride = max(1, int(round(T / (1000.0 * dt))))
    times, energies = [], []

    def sample(step, state):
        energy = g.energy(state)
        if not math.isfinite(energy):
            raise SingularSolve(f"integration blew up at step {step}, t = {step * dt:.17g}: "
                                f"energy sample {energy}")
        times.append(step * dt)
        energies.append(energy)

    sample(0, x)
    x = x[perm]
    for step in range(1, nsteps + 1):
        x, _ = dgbtrs(lub, kl, ku, right @ x, piv, overwrite_b=True)
        if not np.all(np.isfinite(x)):
            raise SingularSolve(f"integration blew up at step {step}, t = {step * dt:.17g}")
        if step % stride == 0 or step == nsteps:
            sample(step, x[inv])
    stats = {
        "steps": nsteps,
        "energy_samples": len(energies),
        "factorizations": 1,
        "solves": nsteps,
        "kl": kl,
        "ku": ku,
        "nnz_A": int(g.matrix.nnz),
        "nnz_W": int(g.weight.nnz),
    }
    return EnergyTrace(times=np.array(times), energies=np.array(energies),
                       final_state=_unpack(x[inv], g.N), stats=stats)


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
