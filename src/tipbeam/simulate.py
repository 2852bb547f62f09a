"""Finite-difference oracle: discrete generator, energy-exact integrator.

The generator acts on (u_1..u_N, v_1..v_N, y_1..y_N, z_1..z_N, eta, gamma)
with the clamped node eliminated.  Interior rows reduce to the standard
second-order central stencils, but they are assembled from midpoint shear
and slope fluxes so that the matrix is exactly skew-adjoint in the
discrete energy weight when the damping gains vanish.  The only energy
drain of the implicit midpoint integrator is then the boundary feedback,
which is what the decay measurements are after.

Both the generator and its weight are sparse (about three entries per
row), from assembly through energy evaluation.  The generator has the
block form [[0, S], [K, D]] on displacements (u, y) and velocities
(v, z, eta, gamma), with the damping D confined to the two tip columns, and
the weight is diag(W_d, M_w) with M_w diagonal.  The midpoint rule on such a
second-order system is Newmark's average-acceleration scheme, so the
integrator eliminates the displacements: each step solves the 2N+2 velocity
system M_w (I - dt^2/4 KS), symmetric positive definite because
W_d S = -(M_w K)^T, with one banded Cholesky factorization (half-bandwidth
five after reverse Cuthill-McKee) plus a rank-two correction for the tip
damping.  Only the eigenvalue check densifies.
"""

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
import scipy.sparse
from scipy.linalg.lapack import dpbtrf, dpbtrs
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
from .modes import ModeShape, gram_inner_product

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


def _refuse_entries(m: scipy.sparse.coo_array, bad: np.ndarray, what: str,
                    coords: np.ndarray | None = None) -> None:
    """Raise ValueError naming the first flagged entry of m by its coordinates."""
    rows, cols = (m.row, m.col) if coords is None else (coords[m.row], coords[m.col])
    hits = np.flatnonzero(bad)
    if hits.size:
        k = hits[np.lexsort((cols[hits], rows[hits]))[0]]
        raise ValueError(f"{what}: entry [{rows[k]}, {cols[k]}] = {float(m.data[k])!r}")


def _check_block_form(g: DiscreteGenerator, is_d: np.ndarray) -> None:
    """Require A = [[0, S], [K, D]] and W = diag(W_d, M_w) with M_w diagonal."""
    a = g.matrix.tocoo()
    _refuse_entries(a, is_d[a.row] & is_d[a.col] & (a.data != 0.0),
                    "A couples a displacement to a displacement")
    w = g.weight.tocoo()
    off = (is_d[w.row] != is_d[w.col]) | (~is_d[w.row] & (w.row != w.col))
    _refuse_entries(w, off & (w.data != 0.0),
                    "W is not block-diagonal with a diagonal velocity block")


def integrate(g: DiscreteGenerator, U0: GridState, T: float, dt: float) -> EnergyTrace:
    """Implicit midpoint march in velocity form: one banded Cholesky, one solve per step.

    The generator has the block form A = [[0, S], [K, D]] on the
    displacements d = (u, y) and the velocities w = (v, z, eta, gamma), and
    D, the tip damping, is non-zero only in the eta and gamma columns.  The
    midpoint rule on this second-order system is Newmark's
    average-acceleration scheme (beta = 1/4, gamma = 1/2), so d1 can be
    eliminated:

        (C - dt/2 M_w D) w1 = M_w (I + dt/2 D + dt^2/4 KS) w0 + dt M_w K d0,
        d1 = d0 + dt/2 S (w0 + w1),

    with C = M_w (I - dt^2/4 KS).  A is skew in the weight W = diag(W_d, M_w)
    up to D, so W_d S = -(M_w K)^T and C = M_w + dt^2/4 S^T W_d S is
    symmetric positive definite.  C is reordered once by reverse
    Cuthill-McKee and factored once with dpbtrf; the r tip columns of D go
    in as a precomputed r x r Sherman-Morrison-Woodbury correction (r set-up
    solves).  A step is one fused sparse matvec for the right-hand side, one
    dpbtrs, the correction and the displacement update.  This is the same
    scheme as the full midpoint rule, so it conserves the energy exactly when
    D = 0 and any decay in the samples is boundary feedback.

    A generator or weight of another form raises ValueError at its first
    offending entry.  Energy is sampled on a stride targeting about one
    thousand samples; a state or an energy sample that is not finite raises
    SingularSolve naming the step and t.
    """
    if dt <= 0.0 or T <= 0.0:
        raise ValueError("T and dt must be positive")
    if dt > 0.5 * g.h * (1.0 + 1e-12):
        raise ValueError(f"dt = {dt} exceeds h/2 = {0.5 * g.h}")
    nsteps = int(round(T / dt))
    if nsteps == 0:
        raise ValueError(f"horizon T = {T!r} is shorter than half a step, dt = {dt!r}")
    x = np.real_if_close(_pack(U0), tol=1000)
    if np.iscomplexobj(x):
        raise ValueError("time integration expects real initial data")
    x = x.astype(float)

    N = g.N
    n = g.matrix.shape[0]
    is_d = np.zeros(n, dtype=bool)
    is_d[0:N] = is_d[2 * N:3 * N] = True
    _check_block_form(g, is_d)
    disp, vel = np.flatnonzero(is_d), np.flatnonzero(~is_d)
    nd, nw = disp.size, vel.size
    d_rows, w_rows = g.matrix[disp], g.matrix[vel]
    S, K, D = d_rows[:, vel], w_rows[:, disp], w_rows[:, vel]
    mass = scipy.sparse.diags_array(g.weight.diagonal()[vel], format="csr")
    MK = mass @ K
    MKS = MK @ S
    C = (mass - (0.25 * dt * dt) * MKS).tocsr()
    asym = abs(C - C.T).tocoo()
    _refuse_entries(asym, asym.data > 1e-12 * abs(C).max(),
                    "M_w K S is not symmetric, so A is not skew in W up to D", vel)

    perm = reverse_cuthill_mckee(abs(C), symmetric_mode=True)
    upper = scipy.sparse.triu(C[perm][:, perm]).tocoo()
    kd = int(np.max(upper.col - upper.row, initial=0))
    band = np.zeros((kd + 1, nw))               # LAPACK upper band storage
    band[kd + upper.row - upper.col, upper.col] = upper.data
    chol, info = dpbtrf(band, overwrite_ab=1)
    if info != 0:
        where = (f"zero pivot at index {info - 1} of the reordered matrix "
                 f"(coordinate {vel[perm[info - 1]]})" if info > 0 else f"dpbtrf info = {info}")
        raise SingularSolve(f"M_w (I - dt^2/4 KS) is not positive definite for N = {N}, "
                            f"dt = {dt:.17g}: {where}")

    # tip damping, r = len(tips) columns J of D: with U = dt/2 M_w D[:, J],
    # (C - U E_J^T)^{-1} b = y + Z (I - Z[J])^{-1} y[J], y = C^{-1} b, Z = C^{-1} U
    Dp = D[perm][:, perm]
    tips = np.flatnonzero(abs(Dp).sum(axis=0))
    half_MD = (0.5 * dt) * (mass[perm][:, perm] @ Dp)
    U = half_MD[:, tips].toarray()
    Z = np.empty_like(U)
    for i in range(tips.size):
        Z[:, i], _ = dpbtrs(chol, U[:, i])
    try:
        tip_gain = np.linalg.solve((np.eye(tips.size) - Z[tips]).T, Z.T).T
    except np.linalg.LinAlgError as exc:
        raise SingularSolve(f"I - dt/2 A is singular for N = {N}, dt = {dt:.17g}: tip correction "
                            f"at coordinates {sorted(vel[perm[tips]].tolist())}") from exc

    right = scipy.sparse.hstack(
        [dt * MK[perm], (mass + (0.25 * dt * dt) * MKS)[perm][:, perm] + half_MD], format="csr")
    half_S = (0.5 * dt) * S[:, perm]
    order = np.concatenate([disp, vel[perm]])   # state layout: d, then the reordered w
    natural = np.empty_like(order)
    natural[order] = np.arange(n, dtype=order.dtype)

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
    x = x[order]
    for step in range(1, nsteps + 1):
        y, _ = dpbtrs(chol, right @ x, overwrite_b=1)
        w = y + tip_gain @ y[tips]
        x[:nd] += half_S @ (x[nd:] + w)
        x[nd:] = w
        if not np.all(np.isfinite(x)):
            raise SingularSolve(f"integration blew up at step {step}, t = {step * dt:.17g}")
        if step % stride == 0 or step == nsteps:
            sample(step, x[natural])
    stats = {
        "steps": nsteps,
        "energy_samples": len(energies),
        "factorizations": 1,
        "solves": nsteps + int(tips.size),
        "kd": kd,
        "solve_n": int(nw),
        "nnz_A": int(g.matrix.nnz),
        "nnz_W": int(g.weight.nnz),
    }
    return EnergyTrace(times=np.array(times), energies=np.array(energies),
                       final_state=_unpack(x[natural], N), stats=stats)


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
    sampled = modes.to_grid_state(U0.N)
    w = np.linalg.solve(gram, grid_inner_product(U0, sampled, p)) * np.exp(modes.lam * t)
    return GridState(N=U0.N, u=w @ sampled.u, v=w @ sampled.v, y=w @ sampled.y,
                     z=w @ sampled.z, eta=w @ sampled.eta, gamma=w @ sampled.gamma)
