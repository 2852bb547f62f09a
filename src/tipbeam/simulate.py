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
derived: the stiffness W_d = h B^T B and the accelerations
M_w K = -S^T W_d.  So A is skew in the energy weight W = diag(W_d, M_w)
up to D by construction, the interior rows reduce to the standard
second-order central stencils, and the only energy drain of the
implicit midpoint integrator is the boundary feedback, which is what the
decay measurements are after.  The energy is read from the fluxes as a sum
of squares, which does not cancel the way x^T W x does on the O(1/h)
entries of W_d.

The midpoint rule on this second-order system is Newmark's
average-acceleration scheme, so the integrator eliminates the
displacements: each step solves the 2N+2 velocity system
M_w (I - dt^2/4 KS) = M_w + dt^2/4 S^T W_d S, symmetric positive definite,
with one banded Cholesky factorization in node order (half-bandwidth
five) plus a rank-two correction for the tip damping.  A step is one
sparse matvec, one banded solve, the correction added in place and an
elementwise displacement update.  Nothing is densified, and A and W are
never assembled as 4N+2 arrays.
"""

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse
from scipy.linalg.blas import daxpy
from scipy.linalg.lapack import dpbtrf, dpbtrs

from .errors import NonPositiveEnergy, ResolutionTooLow, SingularSolve, WindowTooShort
from .model import BeamParams, GridState, _check_same_grid

FIT_WINDOW = (0.25, 1.0)      # the decay fit's share of [0, T], as fractions of T


@dataclass
class DiscreteGenerator:
    """The blocks S, B, M_w, D of the generator on 4N+2 coordinates (CSR, M_w a vector)."""

    N: int
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
    return DiscreteGenerator(N=N, S=S, B=B, M_w=M_w, D=D)


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
    C = M_w + dt^2/4 S^T W_d S is symmetric positive definite, and banded
    in node order: B couples neighbouring nodes only, and S is the identity
    apart from the eta and gamma columns, which sit next to v_N and z_N, so
    the half-bandwidth is five for every N.  C is factored once with dpbtrf;
    the r tip columns of D go in as a precomputed r x r
    Sherman-Morrison-Woodbury correction (r set-up solves).  A step is one
    fused sparse matvec for the right-hand side and one dpbtrs; the
    correction then adds y[J_t] times the t-th gain column to the solution
    y in place, for each tip column, with y[J] read first.  The
    displacement update is elementwise: S is read from g.S once per call
    as its diagonal plus its other entries, the tip entries (v_N, eta) and
    (z_N, gamma), so d += dt/2 diag(S) (w0 + w1) and then one scalar update
    per tip entry, with w kept in its slice of the state.  This is the same
    scheme as the full midpoint rule, so it conserves the energy exactly
    when D = 0 and any decay in the samples is boundary feedback.

    Energy is sampled on a stride targeting about one thousand samples.
    Every step checks one scalar, the sum of the state, which is not
    finite whenever an entry is; a non-finite sum or energy sample raises
    SingularSolve naming the step and t.  U0 on another grid raises
    GridMismatch.
    """
    _check_same_grid(U0, g)
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

    upper = scipy.sparse.triu(C).tocoo()
    kd = int(np.max(upper.col - upper.row, initial=0))
    nw = C.shape[0]
    band = np.zeros((kd + 1, nw))               # LAPACK upper band storage
    band[kd + upper.row - upper.col, upper.col] = upper.data
    chol, info = dpbtrf(band, overwrite_ab=1)
    if info != 0:
        where = (f"zero pivot at index {info - 1} (coordinate {nd + info - 1})"
                 if info > 0 else f"dpbtrf info = {info}")
        raise SingularSolve(f"M_w (I - dt^2/4 KS) is not positive definite for N = {N}, "
                            f"dt = {dt:.17g}: {where}")

    # tip damping, r = len(tips) columns J of D: with U = dt/2 M_w D[:, J],
    # (C - U E_J^T)^{-1} b = y + Z (I - Z[J])^{-1} y[J], y = C^{-1} b, Z = C^{-1} U
    half_MD = (0.5 * dt) * (mass @ g.D)
    tips = np.flatnonzero(abs(half_MD).sum(axis=0))
    U = half_MD[:, tips].toarray()
    Z = np.empty_like(U)
    for i in range(tips.size):
        Z[:, i], _ = dpbtrs(chol, U[:, i])
    try:
        # row t: the gain of tip column t, (Z (I - Z[J])^{-1})[:, t]
        gains = np.linalg.solve((np.eye(tips.size) - Z[tips]).T, Z.T)
    except np.linalg.LinAlgError as exc:
        raise SingularSolve(f"I - dt/2 A is singular for N = {N}, dt = {dt:.17g}: tip correction "
                            f"at coordinates {(nd + tips).tolist()}") from exc

    right = scipy.sparse.hstack(
        [dt * MK, mass + (0.25 * dt * dt) * MKS + half_MD], format="csr")
    # d1 = d0 + dt/2 S (w0 + w1): the diagonal of S elementwise, its other
    # entries one by one; from g.S, which need not be assemble_generator's
    half_diag = (0.5 * dt) * S.diagonal()
    entries = S.tocoo()
    off = entries.row != entries.col
    half_off = [(int(i), int(j), 0.5 * dt * float(s)) for i, j, s
                in zip(entries.row[off], entries.col[off], entries.data[off])]

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
    d, w = x[:nd], x[nd:]
    for step in range(1, nsteps + 1):
        y, _ = dpbtrs(chol, right @ x, overwrite_b=1)
        for y_t, gain in zip(y[tips].tolist(), gains):
            y = daxpy(gain, y, a=y_t)
        w += y                          # w0 + w1 until w[:] = y
        d += half_diag * w[:nd]
        for i, j, half_s in half_off:
            d[i] += half_s * w[j]
        w[:] = y
        if not math.isfinite(x.sum()):
            raise SingularSolve(f"integration blew up at step {step}, t = {step * dt:.17g}")
        if step % stride == 0 or step == nsteps:
            sample(step, x)
    stats = {
        "steps": nsteps,
        "energy_samples": len(energies),
        "solves": nsteps + int(tips.size),
        "kd": kd,
        "solve_n": int(nw),
        # the nonzeros of A = [[0, S], [K, D]] and W = diag(W_d, M_w)
        "nnz_A": int(S.nnz + MK.nnz + g.D.nnz),
        "nnz_W": int(W_d.nnz + nw),
    }
    return EnergyTrace(times=np.array(times), energies=np.array(energies),
                       final_state=_unpack(x, N), stats=stats)


@dataclass(frozen=True)
class DecayFit:
    """Log-log slope of an energy trace plus the t*E(t) boundedness data."""

    exponent: float
    constant: float
    sup_te: float
    window: tuple


def fit_decay(trace: EnergyTrace) -> DecayFit:
    """Least-squares slope of log E against log t over FIT_WINDOW of [0, T].

    Also reports sup t*E(t) there, the quantity that stays bounded for
    smooth initial data when the energy decays like 1/t.  An energy <= 0 in
    the window has no logarithm and raises NonPositiveEnergy at its time.
    """
    t_end = trace.times[-1]
    lo, hi = FIT_WINDOW
    mask = (trace.times >= lo * t_end) & (trace.times <= hi * t_end)
    t = trace.times[mask]
    e = trace.energies[mask]
    if len(t) < 8 or t[0] <= 0.0 or t[-1] < 2.0 * t[0]:
        raise WindowTooShort(
            f"window {FIT_WINDOW} of [0, {t_end}] leaves {len(t)} usable samples")
    bad = np.flatnonzero(e <= 0.0)
    if bad.size:
        raise NonPositiveEnergy(
            f"energy {e[bad[0]]:.3e} <= 0 at t = {t[bad[0]]:.17g} in the fit window")
    slope, intercept = np.polyfit(np.log(t), np.log(e), 1)
    return DecayFit(exponent=float(slope), constant=float(math.exp(intercept)),
                    sup_te=float(np.max(t * e)), window=(float(lo), float(hi)))
