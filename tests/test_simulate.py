"""Discrete generator structure, integrator exactness, decay measurement."""

import math

import numpy as np
import pytest

from tipbeam.errors import (
    IllConditionedGram,
    NonPositiveEnergy,
    ResolutionTooLow,
    WindowTooShort,
)
from tipbeam.model import GridState, grid_inner_product, solve_static
from tipbeam.modes import eigenmode
from tipbeam.simulate import (
    _pack,
    _unpack,
    assemble_generator,
    fit_decay,
    generator_spectrum,
    integrate,
    spectral_solution,
)
from tipbeam.spectrum import spectrum_in_strip


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
    s = g.weight @ g.matrix
    scale = np.linalg.norm(g.matrix)
    assert np.max(np.abs(s + s.T)) <= 1e-12 * scale
    rng = np.random.default_rng(3)
    for _ in range(10):
        x = rng.standard_normal(g.matrix.shape[0])
        quad = abs(x @ (s @ x)) / (x @ (g.weight @ x))
        assert quad <= 1e-12 * scale


def test_dissipation_identity_consistent_state(params_generic):
    p = params_generic
    g = assemble_generator(p, 64)
    st = smooth_state(p, 64)
    x = _pack(st)
    drain = x @ ((g.weight @ g.matrix) @ x)
    expect = -(p.k2 / p.k1) * st.eta ** 2 - (p.k4 / p.k3) * st.gamma ** 2
    assert abs(drain - expect) <= 1e-12 * max(1.0, abs(expect))


def test_generator_consistent_on_eigenmode(params_generic, fig_low_records):
    lam = [r.lam for r in fig_low_records if 1.0 < r.lam.imag < 2.0][0]
    mode = eigenmode(lam, params_generic)
    res = []
    for n in (64, 128):
        g = assemble_generator(params_generic, n)
        x = _pack(mode.to_grid_state(n))
        r = g.matrix @ x - lam * x
        res.append(math.sqrt(abs(np.conj(r) @ (g.weight @ r))))
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


def test_fit_decay_conservative_flat(params_conservative):
    g = assemble_generator(params_conservative, 32)
    tr = integrate(g, smooth_state(params_conservative, 32), 40.0, 0.5 / 32)
    fit = fit_decay(tr)
    assert abs(fit.exponent) < 0.02
    assert tr.fitted_exponent == fit.exponent


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
    # outside the window a bad sample is never read
    assert fit_decay(tr, window=(0.25, 0.7)).exponent < 0.0


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
        modes = []
        for rec in upper[:count]:
            modes.append(eigenmode(rec.lam, p))
            if rec.lam.imag > 1e-10:
                modes.append(eigenmode(np.conj(rec.lam), p))
        return modes
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
        spectral_solution(u0, modes + modes[:1], 0.0, p)
