"""Discrete generator structure, integrator exactness, decay measurement."""

import math
import re

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

import tipbeam.simulate
from tipbeam.errors import (
    GridMismatch,
    NonPositiveEnergy,
    ResolutionTooLow,
    SingularSolve,
    WindowTooShort,
)
from tipbeam.model import GridState, solve_static, validate_params
from tipbeam.modes import eigenmode
from tipbeam.simulate import (
    _pack,
    _unpack,
    assemble_generator,
    fit_decay,
    integrate,
)
from tipbeam.spectrum import spectrum_in_strip

from reference import (
    IllConditionedGram,
    generator_matrix,
    generator_spectrum,
    generator_weight,
    grid_inner_product,
    spectral_solution,
    to_grid_state,
)


def smooth_state(p, N, seed=None):
    """Consistent sample (v_N = eta, gamma = sqrt(a/b) z_N) of smooth fields."""
    xs = np.linspace(0.0, 1.0, N + 1)
    if seed is None:
        u = np.sin(1.3 * xs) * xs
        v = xs ** 2 * (1.0 - 0.4 * xs)
        y = np.sin(2.1 * xs)
        z = xs * np.cos(xs)
    else:
        rng = np.random.default_rng(seed)
        u = sum(c * np.sin((i + 1) * math.pi * xs)
                for i, c in enumerate(rng.standard_normal(4)))
        v = sum(c * np.cos((i + 1) * math.pi * xs)
                for i, c in enumerate(rng.standard_normal(4)))
        y = sum(c * np.sin((i + 1) * math.pi * xs)
                for i, c in enumerate(rng.standard_normal(4)))
        z = sum(c * np.cos((i + 1) * math.pi * xs)
                for i, c in enumerate(rng.standard_normal(4)))
        u *= xs
        y *= xs
    return GridState(N=N, u=u, v=v, y=y, z=z, eta=v[-1],
                     gamma=math.sqrt(p.a / p.b) * z[-1])


def h_norm(state, p):
    return math.sqrt(abs(grid_inner_product(state, state, p)))


def h_dist(s1, s2, p):
    d = GridState(N=s1.N, u=s1.u - s2.u, v=s1.v - s2.v, y=s1.y - s2.y,
                  z=s1.z - s2.z, eta=s1.eta - s2.eta, gamma=s1.gamma - s2.gamma)
    return h_norm(d, p)


def test_resolution_floor(params_generic):
    with pytest.raises(ResolutionTooLow):
        assemble_generator(params_generic, 8)


def test_conservative_generator_skew(params_conservative):
    g = assemble_generator(params_conservative, 32)
    A, W = generator_matrix(g), generator_weight(g)
    s = W @ A
    scale = scipy.sparse.linalg.norm(A)
    assert abs(s + s.T).max() <= 1e-12 * scale
    rng = np.random.default_rng(3)
    for _ in range(10):
        x = rng.standard_normal(A.shape[0])
        quad = abs(x @ (s @ x)) / (x @ (W @ x))
        assert quad <= 1e-12 * scale


def test_dissipation_identity_consistent_state(params_generic):
    p = params_generic
    g = assemble_generator(p, 64)
    st = smooth_state(p, 64)
    x = _pack(st)
    drain = x @ ((generator_weight(g) @ generator_matrix(g)) @ x)
    expect = -(p.k2 / p.k1) * st.eta ** 2 - (p.k4 / p.k3) * st.gamma ** 2
    assert abs(drain - expect) <= 1e-12 * max(1.0, abs(expect))


def test_generator_consistent_on_eigenmode(params_generic, fig_low_records):
    lam = [r.lam for r in fig_low_records if 1.0 < r.lam.imag < 2.0][0]
    mode = eigenmode(lam, params_generic)
    res = []
    for n in (64, 128):
        g = assemble_generator(params_generic, n)
        x = _pack(to_grid_state(mode, n))
        r = generator_matrix(g) @ x - lam * x
        res.append(math.sqrt(abs(np.conj(r) @ (generator_weight(g) @ r))))
    assert res[0] / res[1] >= 3.5   # second-order consistency in the energy norm


@pytest.fixture(scope="module")
def fig_low_records(params_generic):
    recs, _ = spectrum_in_strip(params_generic, 12)
    return [r for r in recs if r.lam.imag >= -1e-12]


def test_fd_spectrum_conservative_axis(params_conservative):
    vals = generator_spectrum(assemble_generator(params_conservative, 100), 8)
    assert len(vals) == 8
    assert np.max(np.abs(vals.real)) <= 1e-8 * np.max(np.abs(vals))
    assert np.all(np.diff(np.abs(vals.imag)) >= 0.0)


def test_fd_spectrum_converges_to_roots(params_generic, fig_low_records):
    analytic = np.array([r.lam for r in fig_low_records])
    errs = []
    for n in (100, 200):
        vals = generator_spectrum(assemble_generator(params_generic, n), 5)
        errs.append(np.array([np.min(np.abs(analytic - v)) for v in vals]))
    assert np.all(errs[0] <= 5e-3)
    assert np.all(errs[0] / errs[1] >= 3.0)


def test_fd_count_matches_argument_principle(params_generic, fig_low_records):
    # every analytic root below the k = 9 .. 10 spectral gap appears exactly
    # once in the discrete spectrum (the gap keeps discretization shifts from
    # moving roots across the counting edge)
    edge = 9.5 * math.pi
    band = [r.lam for r in fig_low_records if r.lam.imag <= edge]
    vals = generator_spectrum(assemble_generator(params_generic, 200), 40)
    vals = vals[np.abs(vals.imag) <= edge]
    assert len(vals) == len(band)
    for lam in band:
        assert np.min(np.abs(vals - lam)) <= 5e-2


def test_integrate_validates_step(params_generic):
    g = assemble_generator(params_generic, 32)
    st = smooth_state(params_generic, 32)
    with pytest.raises(ValueError):
        integrate(g, st, 1.0, 1.0 / 32)
    with pytest.raises(ValueError):
        integrate(g, st, -1.0, 0.5 / 32)


def test_integrate_refuses_state_on_another_grid(params_generic):
    g = assemble_generator(params_generic, 16)
    with pytest.raises(GridMismatch, match=r"grids differ: N=32 vs N=16"):
        integrate(g, smooth_state(params_generic, 32), 1.0, 0.5 / 16)


def test_integrate_refuses_horizon_below_half_step(params_generic):
    g = assemble_generator(params_generic, 16)
    st = smooth_state(params_generic, 16)
    with pytest.raises(ValueError, match=r"T = 0\.0001 is shorter than half a step, dt = 0\.03125"):
        integrate(g, st, 1e-4, 1.0 / 32)
    # half a step or more still rounds to one step
    assert integrate(g, st, 0.6 / 32, 1.0 / 32).times[-1] == 1.0 / 32


def test_integrate_conserves_energy(params_conservative):
    g = assemble_generator(params_conservative, 32)
    tr = integrate(g, smooth_state(params_conservative, 32), 5.0, 0.5 / 32)
    drift = abs(tr.energies[-1] - tr.energies[0]) / tr.energies[0]
    assert drift <= 1e-10
    assert tr.final_state is not None


def test_integrate_monotone_decay(params_generic):
    g = assemble_generator(params_generic, 32)
    tr = integrate(g, smooth_state(params_generic, 32), 10.0, 0.5 / 32)
    assert np.all(np.diff(tr.energies) <= 1e-13)
    assert np.all(tr.energies >= 0.0)


def test_integrate_second_order_in_dt(params_generic):
    g = assemble_generator(params_generic, 32)
    st = smooth_state(params_generic, 32)
    h = 1.0 / 32
    finals = [integrate(g, st, 2.0, dt).energies[-1]
              for dt in (0.5 * h, 0.25 * h, 0.125 * h)]
    d1 = abs(finals[0] - finals[1])
    d2 = abs(finals[1] - finals[2])
    assert d1 / d2 >= 3.0


def flux_energy_long_double(state, p):
    """The energy of a grid state from its shear and slope fluxes, summed in long double."""
    L = np.longdouble
    h = L(1) / state.N
    u, v, y, z = (np.asarray(f, dtype=L) for f in (state.u, state.v, state.y, state.z))
    shear = np.diff(u) / h + (y[:-1] + y[1:]) / 2
    slope = np.diff(y) / h
    kinetic = np.sum(v[1:-1] ** 2) + v[-1] ** 2 / 2 + (np.sum(z[1:-1] ** 2) + z[-1] ** 2 / 2) / L(p.b)
    return (h * (np.sum(shear ** 2) + L(p.a) / L(p.b) * np.sum(slope ** 2) + kinetic)
            + L(state.eta) ** 2 / L(p.k1) + L(state.gamma) ** 2 / L(p.k3)) / 2


@pytest.mark.parametrize("T", [0.5, 2.0, 5.0])
def test_energy_is_read_from_the_fluxes(params_generic, params_conservative, T):
    # x^T W x / 2 cancels on the O(1/h) stiffness entries and is off by 9e-14
    # to 5e-12 of the energy on these states; the sum of squared fluxes is not
    N = 400
    for p in (params_generic, params_conservative):
        g = assemble_generator(p, N)
        state = integrate(g, smooth_state(p, N), T, 0.5 / N).final_state
        exact = flux_energy_long_double(state, p)
        assert abs(g.energy(_pack(state)) - exact) <= 1e-15 * exact


def dense_midpoint(g, state, dt, steps):
    """The full 4N+2 implicit midpoint rule, densely: the reference step.

    Each step takes one round of residual refinement: the residual of the
    midpoint equation in long double, solved with the same LU factors.
    Without it the reference's own round-off (up to 7.9e-13 on the examples
    below) would fill most of the 1e-12 bound; with it, 2.6e-14.
    """
    A = generator_matrix(g).toarray()
    left = scipy.linalg.lu_factor(np.eye(A.shape[0]) - 0.5 * dt * A)
    half = 0.5 * dt * A.astype(np.longdouble)
    x = _pack(state).real
    for _ in range(steps):
        rhs = x + half @ x
        y = scipy.linalg.lu_solve(left, rhs.astype(float))
        x = y + scipy.linalg.lu_solve(left, (rhs - (y - half @ y)).astype(float))
    return x


def test_banded_step_matches_dense_reference(params_generic):
    p = params_generic
    N, dt, steps = 32, 0.5 / 32, 100
    g = assemble_generator(p, N)
    st = smooth_state(p, N, seed=1)
    tr = integrate(g, st, steps * dt, dt)
    x = dense_midpoint(g, st, dt, steps)
    diff = _pack(tr.final_state).real - x
    assert math.sqrt(g.energy(diff) / g.energy(x)) <= 1e-12


def test_step_reads_S_from_the_generator(params_generic):
    # the displacement update takes the diagonal and the tip entries of g.S,
    # not assemble_generator's formulas: edit all three kinds of entry
    N, dt, steps = 32, 0.5 / 32, 100
    g = assemble_generator(params_generic, N)
    S = g.S.tolil()
    S[2 * N - 2, 2 * N] *= 1.5                     # (v_N, eta)
    S[2 * N - 1, 2 * N + 1] *= 0.5                 # (z_N, gamma)
    S[N, N] *= 2.0                                 # an interior transport entry
    g.S = S.tocsr()
    st = smooth_state(params_generic, N, seed=1)
    tr = integrate(g, st, steps * dt, dt)
    x = dense_midpoint(g, st, dt, steps)
    diff = _pack(tr.final_state).real - x
    assert math.sqrt(g.energy(diff) / g.energy(x)) <= 1e-12


@settings(max_examples=24, deadline=None, derandomize=True, database=None)
@given(N=st.integers(16, 64), b=st.floats(0.25, 1.25), gains=st.floats(0.25, 1.25),
       damping=st.floats(0.25, 1.25), rank=st.sampled_from(((0, 0), (0, 1), (1, 0), (1, 1))),
       seed=st.integers(0, 3))
@example(N=16, b=0.25, gains=1.25, damping=0.25, rank=(0, 0), seed=0)
@example(N=64, b=1.25, gains=0.25, damping=1.25, rank=(0, 1), seed=1)
@example(N=17, b=1.0, gains=1.0, damping=1.0, rank=(1, 0), seed=2)
@example(N=63, b=0.5, gains=0.75, damping=0.5, rank=(1, 1), seed=3)
def test_velocity_step_matches_dense_reference_for_every_damping_rank(
        N, b, gains, damping, rank, seed):
    # rank 0, 1 and 2 of the tip damping: k2 = k4 = 0, one of them zero, neither
    on2, on4 = rank
    p = validate_params(a=1.0, b=2.0 * b, k1=1.0 * gains, k2=2.0 * damping * on2,
                        k3=3.0 * gains, k4=2.0 * damping * on4)
    g = assemble_generator(p, N)
    dt, steps = 0.5 / N, 60
    state = smooth_state(p, N, seed=seed)
    tr = integrate(g, state, steps * dt, dt)
    x = dense_midpoint(g, state, dt, steps)
    diff = _pack(tr.final_state).real - x
    assert math.sqrt(g.energy(diff) / g.energy(x)) <= 1e-12
    assert tr.stats["solves"] == steps + on2 + on4


def velocity_matrix(g, dt):
    """M_w (I - dt^2/4 KS) = M_w + dt^2/4 S^T W_d S on the velocities w = (v, z, eta, gamma)."""
    return (scipy.sparse.diags_array(g.M_w) + 0.25 * dt * dt * (g.S.T @ (g.W_d @ g.S))).tocsr()


@pytest.mark.parametrize("N", [16, 400])
def test_generator_sparse_and_narrow_band(params_generic, N):
    g = assemble_generator(params_generic, N)
    n = 4 * N + 2
    A, W = generator_matrix(g), generator_weight(g)
    assert A.nnz <= 4 * n and W.nnz <= 4 * n
    dt = 0.5 / N
    C = velocity_matrix(g, dt)
    assert abs(C - C.T).max() <= 1e-15 * abs(C).max()
    # node order: B couples neighbours, and the eta, gamma columns of S sit
    # next to v_N, z_N, so the half-bandwidth is five for every N
    upper = scipy.sparse.triu(C).tocoo()
    kd = int(np.max(upper.col - upper.row))
    stats = integrate(g, smooth_state(params_generic, N), dt, dt).stats
    assert kd == 5 == stats["kd"]
    assert stats["solve_n"] == C.shape[0] == 2 * N + 2
    assert (stats["nnz_A"], stats["nnz_W"]) == (A.nnz, W.nnz)


def test_one_factorization_one_solve_per_step(params_generic, params_conservative,
                                              monkeypatch):
    calls = {}
    for name in ("dpbtrf", "dpbtrs"):
        original = getattr(tipbeam.simulate, name)
        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)
        monkeypatch.setattr(tipbeam.simulate, name, counted)
    # two tip damping columns (k2, k4 > 0): two set-up solves for the
    # correction; the conservative control has no tip columns and none
    for p, tips in ((params_generic, 2), (params_conservative, 0)):
        calls.update(dpbtrf=0, dpbtrs=0)
        g = assemble_generator(p, 32)
        tr = integrate(g, smooth_state(p, 32), 37 * 0.5 / 32, 0.5 / 32)
        assert calls == {"dpbtrf": 1, "dpbtrs": 37 + tips}
        assert tr.stats["steps"] == 37
        assert tr.stats["solves"] == 37 + tips
        assert tr.stats["energy_samples"] == len(tr.energies)


def test_large_grid_is_feasible(params_generic):
    # dense A and W would take 2 x 12.8 GB at N = 10^4
    N = 10_000
    g = assemble_generator(params_generic, N)
    for m in (generator_matrix(g), generator_weight(g)):
        assert m.data.nbytes + m.indices.nbytes + m.indptr.nbytes < 2 * 2 ** 20
    dt = 0.5 / N
    tr = integrate(g, smooth_state(params_generic, N), 20 * dt, dt)
    assert len(tr.energies) == 21
    assert np.all(np.diff(tr.energies) <= 0.0)


def test_singular_midpoint_matrix_names_pivot(params_generic):
    g = assemble_generator(params_generic, 16)
    dt = 0.5 / 16
    # negated kinetic masses: M_w + dt^2/4 S^T W_d S is negative on every
    # diagonal, so the very first Cholesky pivot is not positive
    g.M_w = -g.M_w
    with pytest.raises(SingularSolve, match=r"N = 16, dt = 0\.03125: zero pivot at index 0 \(coordinate 32\)"):
        integrate(g, smooth_state(params_generic, 16), 1.0, dt)


def test_singular_tip_correction_names_coordinates(params_generic):
    N, dt = 16, 0.5 / 16
    g = assemble_generator(params_generic, N)
    eta = 2 * N                                    # its index in w
    S, D = g.S.tolil(), g.D.tolil()
    S[2 * N - 2, eta] = 0.0                        # eta leaves the u_N transport row,
    D[eta, eta] = 2.0 / dt                         # feels no shear, and I - dt/2 A has
    g.S, g.D = S.tocsr(), D.tocsr()                # a zero eta row
    with pytest.raises(SingularSolve, match=r"dt = 0\.03125: tip correction at coordinates \[64, 65\]"):
        integrate(g, smooth_state(params_generic, N), 1.0, dt)


def anti_damped(p, N, dt, margin):
    """Generator whose eta row anti-damps, at (1 - margin) of the singular value.

    The eta diagonal entry, near 2/dt, makes I - dt/2 A singular at
    2 / (dt ((I - dt/2 A_0)^{-1})_{eta eta}), where A_0 has that entry zeroed.
    Just below it each step multiplies the state by about 2/margin.
    """
    g = assemble_generator(p, N)
    D = g.D.tolil()
    D[2 * N, 2 * N] = 0.0                          # eta's entry of D, at 4N in A
    g.D = D.tocsr()
    left = np.eye(4 * N + 2) - 0.5 * dt * generator_matrix(g).toarray()
    unit = np.zeros(4 * N + 2)
    unit[4 * N] = 1.0
    D[2 * N, 2 * N] = (1.0 - margin) * 2.0 / (dt * np.linalg.solve(left, unit)[4 * N])
    g.D = D.tocsr()
    return g


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning",
                            "ignore:invalid value encountered:RuntimeWarning")
def test_blow_up_names_step_and_time(params_generic):
    dt = 0.5 / 16
    g = anti_damped(params_generic, 16, dt, 2.0 ** -40)
    state = smooth_state(params_generic, 16)
    # energy is sampled every 40 steps, so the per-step state check fires first
    with pytest.raises(SingularSolve, match=r"blew up at step \d+, t = ") as info:
        integrate(g, state, 1250.0, dt)
    assert "energy" not in str(info.value)
    # and at the first non-finite step: the march to the step before it does
    # not blow up per step (an energy sample, quadratic in the state, may)
    n = int(re.search(r"step (\d+)", str(info.value)).group(1))
    try:
        integrate(g, state, (n - 1) * dt, dt)
    except SingularSolve as exc:
        assert "energy sample" in str(exc)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning",
                            "ignore:invalid value encountered:RuntimeWarning")
def test_infinite_energy_sample_raises(params_generic):
    # the state grows by about 2^41 a step: after 20 steps it is still
    # finite, but its energy, quadratic in the state, overflowed on the way
    dt = 0.5 / 16
    g = anti_damped(params_generic, 16, dt, 2.0 ** -40)
    with pytest.raises(SingularSolve, match=r"at step \d+, t = .*energy sample (inf|nan)"):
        integrate(g, smooth_state(params_generic, 16), 20 * dt, dt)


def test_fit_decay_conservative_flat(params_conservative):
    g = assemble_generator(params_conservative, 32)
    tr = integrate(g, smooth_state(params_conservative, 32), 40.0, 0.5 / 32)
    fit = fit_decay(tr)
    assert abs(fit.exponent) < 0.02


def test_fit_decay_dissipative_slope(params_generic):
    p = params_generic
    N = 100
    base = smooth_state(p, N, seed=0)
    u0 = solve_static(base, p)
    g = assemble_generator(p, N)
    tr = integrate(g, u0, 60.0, 0.5 / N)
    fit = fit_decay(tr)
    assert fit.exponent <= -0.9
    assert 0.0 < fit.sup_te < 100.0


def test_fit_decay_window_guard():
    from tipbeam.simulate import EnergyTrace
    tr = EnergyTrace(times=np.array([0.0, 1.0, 2.0]),
                     energies=np.array([1.0, 0.5, 0.25]))
    with pytest.raises(WindowTooShort):
        fit_decay(tr)


def test_fit_decay_rejects_nonpositive_energy():
    from tipbeam.simulate import EnergyTrace
    times = np.linspace(0.0, 10.0, 41)
    energies = 1.0 / (1.0 + times)
    energies[[30, 35]] = [0.0, -1e-3]
    tr = EnergyTrace(times=times, energies=energies)
    with pytest.raises(NonPositiveEnergy, match=r"t = 7\.5 "):
        fit_decay(tr)
    # before the window, which starts at 0.25 T = 2.5, a bad sample is never read
    energies = 1.0 / (1.0 + times)
    energies[[5, 8]] = [0.0, -1e-3]
    assert fit_decay(EnergyTrace(times=times, energies=energies)).exponent < 0.0


def test_pack_unpack_roundtrip(params_generic):
    st = smooth_state(params_generic, 32)
    back = _unpack(_pack(st), 32)
    assert np.allclose(back.u, st.u) and np.allclose(back.z, st.z)
    assert back.eta == st.eta and back.gamma == st.gamma
    assert back.u[0] == 0.0 and back.y[0] == 0.0


@pytest.fixture(scope="module")
def expansion_setup(params_generic, fig_low_records):
    p = params_generic
    N = 100
    u0 = solve_static(smooth_state(p, N, seed=0), p)
    upper = sorted(fig_low_records, key=lambda r: abs(r.lam.imag))
    def mode_set(count):
        lams = []
        for rec in upper[:count]:
            lams.append(rec.lam)
            if rec.lam.imag > 1e-10:
                lams.append(np.conj(rec.lam))
        return eigenmode(np.array(lams), p)
    return p, u0, mode_set


def test_spectral_reconstruction_improves(expansion_setup):
    p, u0, mode_set = expansion_setup
    n0 = h_norm(u0, p)
    errs = [h_dist(spectral_solution(u0, mode_set(c), 0.0, p), u0, p) / n0
            for c in (4, 8, 12)]
    assert errs[0] > errs[1] > errs[2]
    assert errs[2] <= 0.05


def test_spectral_solution_matches_integrator(expansion_setup):
    p, u0, mode_set = expansion_setup
    g = assemble_generator(p, u0.N)
    tr = integrate(g, u0, 1.0, 0.5 / u0.N)
    sol = spectral_solution(u0, mode_set(12), 1.0, p)
    assert h_dist(tr.final_state, sol, p) / h_norm(u0, p) <= 0.05


def test_spectral_solution_energy_decays(expansion_setup):
    p, u0, mode_set = expansion_setup
    modes = mode_set(12)
    energies = [abs(grid_inner_product(s, s, p)) for s in
                (spectral_solution(u0, modes, t, p) for t in (0.0, 1.0, 2.0, 4.0))]
    assert np.all(np.diff(energies) <= 0.0)


def test_spectral_solution_rejects_duplicates(expansion_setup):
    p, u0, mode_set = expansion_setup
    modes = mode_set(4)
    with pytest.raises(IllConditionedGram):
        spectral_solution(u0, modes[np.r_[0:len(modes.lam), 0]], 0.0, p)
    with pytest.raises(ValueError, match="at least one mode"):
        spectral_solution(u0, modes[:0], 0.0, p)
