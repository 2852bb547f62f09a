"""Finite-difference oracle: discrete generator, energy-exact integrator.

The state of N cells, clamped node eliminated, is ordered as the
displacements d = (u_1, y_1, .., u_N, y_N) and then the velocities
w = (v_1, z_1, .., v_N, z_N, eta, gamma), node by node, so the generator is
the block matrix A = [[0, S], [K, D]] and eta, gamma sit at coordinates
4N, 4N+1.  It is stored as the four blocks that define it: the transport S
(d' = S w); the flux operator B, whose rows are the midpoint shears
(u_m - u_{m-1})/h + (y_{m-1} + y_m)/2 and the sqrt(a/b)-scaled slopes
(y_m - y_{m-1})/h; the diagonal velocity masses M_w; and the tip damping
D, non-zero only in the eta and gamma columns.  Everything else is
derived: the stiffness W_d = h B^T B, the accelerations M_w K = -S^T W_d,
and the sparse 4N+2 arrays `matrix` (A) and `weight` (W = diag(W_d, M_w)).
So A is skew in W up to D by construction, the interior rows reduce to the
standard second-order central stencils, and the only energy drain of the
implicit midpoint integrator is the boundary feedback, which is what the
decay measurements are after.  The energy is read from the fluxes as a sum
of squares, which does not cancel the way x^T W x does on the O(1/h)
entries of W_d.

The midpoint rule on this second-order system is Newmark's
average-acceleration scheme, so the integrator eliminates the
displacements: each step solves the 2N+2 velocity system
M_w (I - dt^2/4 KS) = M_w + dt^2/4 S^T W_d S, symmetric positive definite,
with one banded Cholesky factorization (half-bandwidth five after reverse
Cuthill-McKee) plus a rank-two correction for the tip damping.  Only the
eigenvalue check densifies.
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
    """The blocks S, B, M_w, D of the generator on 4N+2 coordinates (CSR, M_w a vector)."""

    N: int
    params: BeamParams
    S: scipy.sparse.csr_array       # 2N x (2N+2): displacement rates from velocities
    B: scipy.sparse.csr_array       # 2N x 2N: shear and scaled slope fluxes of d
    M_w: np.ndarray                 # 2N+2 velocity masses
    D: scipy.sparse.csr_array       # (2N+2) x (2N+2) tip damping

    @property
    def h(self) -> float:
        return 1.0 / self.N

    @property
    def W_d(self) -> scipy.sparse.csr_array:
        """Stiffness h B^T B on the displacements."""
        return self.h * (self.B.T @ self.B).tocsr()

    @property
    def matrix(self) -> scipy.sparse.csr_array:
        """A = [[0, S], [K, D]] with M_w K = -S^T W_d."""
        K = scipy.sparse.diags_array(-1.0 / self.M_w) @ (self.S.T @ self.W_d)
        return scipy.sparse.block_array([[None, self.S], [K, self.D]], format="csr")

    @property
    def weight(self) -> scipy.sparse.csr_array:
        """W = diag(W_d, M_w), the energy weight."""
        return scipy.sparse.block_diag((self.W_d, scipy.sparse.diags_array(self.M_w)),
                                       format="csr")

    def energy(self, vec: np.ndarray) -> float:
        """1/2 h (|shear|^2 + (a/b) |slope|^2) + 1/2 sum M_w |w|^2, from the fluxes B d."""
        flux, w = self.B @ vec[:2 * self.N], vec[2 * self.N:]
        return 0.5 * float(np.real(self.h * np.vdot(flux, flux) + np.vdot(w, self.M_w * w)))


def _pack(state: GridState) -> np.ndarray:
    """(u_1, y_1, .., u_N, y_N, v_1, z_1, .., v_N, z_N, eta, gamma)."""
    return np.concatenate([np.stack([state.u[1:], state.y[1:]], axis=-1).ravel(),
                           np.stack([state.v[1:], state.z[1:]], axis=-1).ravel(),
                           [state.eta], [state.gamma]])


def _unpack(vec: np.ndarray, N: int) -> GridState:
    zero = np.zeros((1, 2), dtype=vec.dtype)
    (u, y), (v, z) = (np.concatenate([zero, pairs.reshape(N, 2)]).T
                      for pairs in (vec[:2 * N], vec[2 * N:4 * N]))
    return GridState(N=N, u=u, v=v, y=y, z=z, eta=vec[4 * N], gamma=vec[4 * N + 1])


def _csr(rows, cols, vals, shape) -> scipy.sparse.csr_array:
    index = (np.asarray(rows, dtype=np.int32), np.asarray(cols, dtype=np.int32))
    out = scipy.sparse.coo_array((vals, index), shape=shape).tocsr()
    out.eliminate_zeros()       # zero gains leave no damping entries
    return out


def assemble_generator(p: BeamParams, N: int) -> DiscreteGenerator:
    """Build the four blocks S, B, M_w and D of the generator.

    The tip accelerations v_N, z_N carry the lumped half-cell mass and the
    tip traces eta, gamma the masses 1/k1, 1/k3.  The u_N and y_N transport
    rows use the weight-averaged velocities, which agree with v_N, z_N on
    consistent states (v_N = eta, gamma = sqrt(a/b) z_N), so such states
    stay consistent and dissipate exactly -(k2/k1)|eta|^2 - (k4/k3)|gamma|^2.
    """
    if N < 16:
        raise ResolutionTooLow(f"N = {N} is below the minimum of 16")
    h = 1.0 / N
    a, b = p.a, p.b
    sab = math.sqrt(a / b)
    v_N, z_N, eta, gamma = 2 * N - 2, 2 * N - 1, 2 * N, 2 * N + 1     # indices in w
    mu_v = 0.5 * h + 1.0 / p.k1
    mu_z = 0.5 * h / b + a / (b * p.k3)

    transport = np.ones(2 * N)                  # du_m = v_m, dy_m = z_m away from the tip
    transport[[v_N, z_N]] = (1.0 / mu_v) * (0.5 * h), (1.0 / mu_z) * (0.5 * h / b)
    S = _csr(np.r_[0:2 * N, v_N, z_N], np.r_[0:2 * N, eta, gamma],
             np.r_[transport, (1.0 / mu_v) * (1.0 / p.k1), (1.0 / mu_z) * (sab / p.k3)],
             (2 * N, 2 * N + 2))

    # block bidiagonal: the shear and slope of cell m read nodes m - 1 and m
    B = (scipy.sparse.kron(scipy.sparse.eye_array(N), [[1.0 / h, 0.5], [0.0, sab / h]])
         + scipy.sparse.kron(scipy.sparse.eye_array(N, k=-1), [[-1.0 / h, 0.5], [0.0, -sab / h]])
         ).tocsr()

    M_w = np.r_[np.tile([h, h / b], N), 1.0 / p.k1, 1.0 / p.k3]
    M_w[[v_N, z_N]] = 0.5 * h, 0.5 * h / b

    # the tip traces repeat the damping of v_N and (scaled) z_N
    damp_v = (-1.0 / mu_v) * (p.k2 / p.k1)
    damp_z = sab * p.k4 / p.k3
    D = _csr([v_N, eta, z_N, gamma], [eta, eta, gamma, gamma],
             [damp_v, damp_v, (-1.0 / mu_z) * damp_z, (-sab / mu_z) * damp_z],
             (2 * N + 2, 2 * N + 2))
    return DiscreteGenerator(N=N, params=p, S=S, B=B, M_w=M_w, D=D)


def generator_spectrum(g: DiscreteGenerator, m: int) -> np.ndarray:
    """The m eigenvalues nearest the real axis with Im >= 0, by |Im|.

    The two zero eigenvalues from the duplicated tip rows (directions with
    v_N != eta) are filtered out; everything else is a physical mode.  This
    is the one place the generator is densified.
    """
    n = 4 * g.N + 2
    if m > n:
        raise ValueError(f"asked for {m} of {n} eigenvalues")
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
    final_state: GridState | None = None
    stats: dict = field(default_factory=dict)


def integrate(g: DiscreteGenerator, U0: GridState, T: float, dt: float) -> EnergyTrace:
    """Implicit midpoint march in velocity form: one banded Cholesky, one solve per step.

    The generator is A = [[0, S], [K, D]] on the displacements d = (u, y)
    and the velocities w = (v, z, eta, gamma), and D, the tip damping, is
    non-zero only in the eta and gamma columns.  The midpoint rule on this
    second-order system is Newmark's average-acceleration scheme
    (beta = 1/4, gamma = 1/2), so d1 can be eliminated:

        (C - dt/2 M_w D) w1 = M_w (I + dt/2 D + dt^2/4 KS) w0 + dt M_w K d0,
        d1 = d0 + dt/2 S (w0 + w1),

    with C = M_w (I - dt^2/4 KS).  Since M_w K = -S^T W_d by construction,
    C = M_w + dt^2/4 S^T W_d S is symmetric positive definite.  C is
    reordered once by reverse Cuthill-McKee and factored once with dpbtrf;
    the r tip columns of D go in as a precomputed r x r
    Sherman-Morrison-Woodbury correction (r set-up solves).  A step is one
    fused sparse matvec for the right-hand side, one dpbtrs, the correction
    and the displacement update.  This is the same scheme as the full
    midpoint rule, so it conserves the energy exactly when D = 0 and any
    decay in the samples is boundary feedback.

    Energy is sampled on a stride targeting about one thousand samples; a
    state or an energy sample that is not finite raises SingularSolve
    naming the step and t.
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

    N, nd = g.N, 2 * g.N
    S = g.S
    mass = scipy.sparse.diags_array(g.M_w, format="csr")
    W_d = g.W_d
    MK = -(S.T @ W_d).tocsr()
    MKS = MK @ S
    C = (mass - (0.25 * dt * dt) * MKS).tocsr()

    perm = reverse_cuthill_mckee(abs(C), symmetric_mode=True)
    upper = scipy.sparse.triu(C[perm][:, perm]).tocoo()
    kd = int(np.max(upper.col - upper.row, initial=0))
    nw = perm.size
    band = np.zeros((kd + 1, nw))               # LAPACK upper band storage
    band[kd + upper.row - upper.col, upper.col] = upper.data
    chol, info = dpbtrf(band, overwrite_ab=1)
    if info != 0:
        where = (f"zero pivot at index {info - 1} of the reordered matrix "
                 f"(coordinate {nd + perm[info - 1]})" if info > 0 else f"dpbtrf info = {info}")
        raise SingularSolve(f"M_w (I - dt^2/4 KS) is not positive definite for N = {N}, "
                            f"dt = {dt:.17g}: {where}")

    # tip damping, r = len(tips) columns J of D: with U = dt/2 M_w D[:, J],
    # (C - U E_J^T)^{-1} b = y + Z (I - Z[J])^{-1} y[J], y = C^{-1} b, Z = C^{-1} U
    half_MD = ((0.5 * dt) * (mass @ g.D))[perm][:, perm]
    tips = np.flatnonzero(abs(half_MD).sum(axis=0))
    U = half_MD[:, tips].toarray()
    Z = np.empty_like(U)
    for i in range(tips.size):
        Z[:, i], _ = dpbtrs(chol, U[:, i])
    try:
        tip_gain = np.linalg.solve((np.eye(tips.size) - Z[tips]).T, Z.T).T
    except np.linalg.LinAlgError as exc:
        raise SingularSolve(f"I - dt/2 A is singular for N = {N}, dt = {dt:.17g}: tip correction "
                            f"at coordinates {sorted((nd + perm[tips]).tolist())}") from exc

    right = scipy.sparse.hstack(
        [dt * MK[perm], (mass + (0.25 * dt * dt) * MKS)[perm][:, perm] + half_MD], format="csr")
    half_S = (0.5 * dt) * S[:, perm]
    unpermute = np.argsort(perm)

    def natural(x):
        return np.concatenate([x[:nd], x[nd:][unpermute]])

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
    x[nd:] = x[nd:][perm]                       # w in the factored (RCM) order
    for step in range(1, nsteps + 1):
        y, _ = dpbtrs(chol, right @ x, overwrite_b=1)
        w = y + tip_gain @ y[tips]
        x[:nd] += half_S @ (x[nd:] + w)
        x[nd:] = w
        if not np.all(np.isfinite(x)):
            raise SingularSolve(f"integration blew up at step {step}, t = {step * dt:.17g}")
        if step % stride == 0 or step == nsteps:
            sample(step, natural(x))
    stats = {
        "steps": nsteps,
        "energy_samples": len(energies),
        "factorizations": 1,
        "solves": nsteps + int(tips.size),
        "kd": kd,
        "solve_n": int(nw),
        "nnz_A": int(S.nnz + MK.nnz + g.D.nnz),      # the entries of matrix and weight
        "nnz_W": int(W_d.nnz + nw),
    }
    return EnergyTrace(times=np.array(times), energies=np.array(energies),
                       final_state=_unpack(natural(x), N), stats=stats)


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
    return DecayFit(exponent=float(slope), constant=float(math.exp(intercept)),
                    sup_te=float(np.max(t * e)), window=(float(lo), float(hi)))


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
