"""Acceptance gate: the ten headline guarantees, one test and one line each.

Run `pytest tests/test_acceptance.py -v -s` to see a [PASS] line per item.
The items, in order: the high-frequency damping table, its closed-form
limits, generic-regime convergence, exact coefficient identities, the
quartic expansion bound, eigenpair residuals, finite-difference oracle
agreement, argument-principle completeness, Riesz-basis diagnostics, and
polynomial energy decay at desk scale.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest
from reference import f_expansion_terms, generator_spectrum
from test_spectrum import assert_tiled

from tipbeam.asymptotics import asymptotic_coefficients, discriminant_reduced, gamma_coefficients
from tipbeam.charfn import entire_char_fn_and_derivative
from tipbeam.cli import _smooth_domain_state
from tipbeam.model import validate_params
from tipbeam.modes import eigenmode, gram_inner_product, mode_residuals, riesz_closeness
from tipbeam.simulate import EnergyTrace, assemble_generator, fit_decay, integrate
from tipbeam.spectrum import K_MIN, family_roots, frequency_pairs, spectrum_in_strip

TABLE_KS = (200, 400, 600, 800, 1000)


# ---------------------------------------------------------------------------
# shared expensive computations

@pytest.fixture(scope="module")
def table_pairs(params_degenerate):
    """Polished family pairs at the table frequencies, with wall time.

    One batch of all five frequencies, as the `table` command makes it.
    """
    t0 = time.perf_counter()
    pairs = {}
    for k, recs in zip(TABLE_KS, frequency_pairs(params_degenerate, TABLE_KS)):
        pairs[k] = {rec.family: rec for rec in recs}
        assert set(pairs[k]) == {1, 2}, f"missing family at k = {k}"
    return pairs, time.perf_counter() - t0


@pytest.fixture(scope="module")
def strip_generic(params_generic):
    return spectrum_in_strip(params_generic, 200)


@pytest.fixture(scope="module")
def strip_conservative(params_generic):
    p0 = replace(params_generic, k2=0.0, k4=0.0)
    return spectrum_in_strip(p0, 50)


@pytest.fixture(scope="module")
def decay_runs(params_generic):
    """One N=400 march to T=400 plus a conservative control to T=200.

    The T=200 trace is the exact prefix of the T=400 run (same step size,
    same states), so criteria about both horizons share one integration.
    """
    N = 400
    g = assemble_generator(params_generic, N)
    dt = 0.5 * g.h
    u0 = _smooth_domain_state(params_generic, N, 0)
    full = integrate(g, u0, 400.0, dt)
    mask = full.times <= 200.0 + 1e-9
    prefix = EnergyTrace(times=full.times[mask], energies=full.energies[mask])

    p0 = replace(params_generic, k2=0.0, k4=0.0)
    g0 = assemble_generator(p0, N)
    u0c = _smooth_domain_state(p0, N, 0)
    control = integrate(g0, u0c, 200.0, dt)
    return full, prefix, control


# ---------------------------------------------------------------------------
# the ten gates

def test_c01_damping_table_reproduction(table_pairs):
    pairs, elapsed = table_pairs
    for k in TABLE_KS:
        v1 = k * k * pairs[k][1].lam.real
        v2 = k * k * pairs[k][2].lam.real
        assert -0.2032 <= v1 <= -0.2021, f"family 1 at k={k}: {v1}"
        assert -1.0140 <= v2 <= -1.0125, f"family 2 at k={k}: {v2}"
    assert elapsed < 60.0
    print(f"\n[PASS] 01 damping-table: five frequencies in band, {elapsed:.1f}s")


def test_c02_closed_form_limits(table_pairs):
    pairs, _ = table_pairs
    lim1, lim2 = -2.0 / math.pi**2, -10.0 / math.pi**2
    v1 = 1000.0**2 * pairs[1000][1].lam.real
    v2 = 1000.0**2 * pairs[1000][2].lam.real
    rel1 = abs(v1 - lim1) / abs(lim1)
    rel2 = abs(v2 - lim2) / abs(lim2)
    assert rel1 < 1e-3 and rel2 < 1e-3
    print(f"[PASS] 02 closed-form limits: rel errors {rel1:.1e}, {rel2:.1e}")


def test_c03_generic_regime_convergence(params_generic):
    # alpha_j is Im c1_j on the generic set
    c1, c2, _ = asymptotic_coefficients(params_generic)
    k = 500
    worst_a, worst_b = 0.0, 0.0
    for j, (alpha, beta) in enumerate(
            [(c1[0].imag, -c2[0].real), (c1[1].imag, -c2[1].real)], start=1):
        assert beta > 0.0
        lam = family_roots(params_generic, k)[j - 1].lam
        rel_a = abs(k * (lam.imag - k * math.pi) - alpha) / alpha
        rel_b = abs(k * k * lam.real + beta) / beta
        assert rel_a < 1e-2 and rel_b < 5e-2
        worst_a, worst_b = max(worst_a, rel_a), max(worst_b, rel_b)
    print(f"[PASS] 03 generic convergence at k=500: "
          f"alpha rel {worst_a:.1e}, beta rel {worst_b:.1e}")


def test_c04_coefficient_identities():
    rng = np.random.default_rng(20240817)
    for _ in range(100):
        b = rng.uniform(0.5, 60.0)
        k1, k3 = rng.uniform(0.2, 8.0, size=2)
        k2, k4 = rng.uniform(0.05, 6.0, size=2)
        p = validate_params(1.0, b, k1, k2, k3, k4)
        (g1, g2, _), (a1, a2) = gamma_coefficients(p), asymptotic_coefficients(p)[0].imag
        assert abs(a1 + a2 - g1) <= 1e-13 * max(1.0, abs(g1))
        assert abs(a1 * a2 - g2) <= 1e-13 * max(1.0, abs(g2))
        disc = g1 * g1 - 4.0 * g2
        assert abs(disc - discriminant_reduced(p)) <= 1e-12 * max(1.0, g1 * g1)
        # omega1_j = -i (b + 4 k1 + 4 k3 - 8 alpha_j pi)/(4 pi) = -+ i sqrt(disc)
        om11, om12 = (-1j * (p.b + 4.0 * p.k1 + 4.0 * p.k3 - 8.0 * a * math.pi)
                      / (4.0 * math.pi) for a in (a1, a2))
        root = math.sqrt(max(disc, 0.0))
        assert abs(om11 - (-1j) * root) <= 1e-12 * max(1.0, root)
        assert abs(om12 - 1j * root) <= 1e-12 * max(1.0, root)
        # undamped twin: the damping scale and both decay rates vanish
        p0 = replace(p, k2=0.0, k4=0.0)
        assert gamma_coefficients(p0)[2] == 0.0
        for c2 in asymptotic_coefficients(p0)[1]:
            assert abs(c2) <= 1e-15
    print("[PASS] 04 coefficient identities: 100 draws, all exact")


def test_c05_expansion_bound(params_generic, params_degenerate):
    blocks = [(100, 200), (200, 400), (400, 800), (800, 1001)]
    for p in (params_generic, params_degenerate):
        ks = np.arange(100, 1001)
        lams = 1j * ks * math.pi - 0.05
        f0, f1, f2, f3 = f_expansion_terms(lams, p)
        rem = np.abs(entire_char_fn_and_derivative(lams, p)[2]
                     - (f0 + f1 / lams + f2 / lams**2 + f3 / lams**3))
        scaled = ks.astype(float) ** 4 * rem
        assert np.all(np.isfinite(scaled))
        sups = [float(scaled[(ks >= lo) & (ks < hi)].max()) for lo, hi in blocks]
        # the scaled remainder plateaus at the size of the dropped
        # fourth-order term; 2% headroom covers the approach direction
        for a, b in zip(sups, sups[1:]):
            assert b <= 1.02 * a, f"sup grew across dyadic blocks: {sups}"
    print("[PASS] 05 expansion bound: k^4-scaled remainder flat on dyadic blocks")


def test_c06_eigenpair_residuals(params_generic, strip_generic, table_pairs,
                                 params_degenerate):
    pairs, _ = table_pairs
    jobs = [(np.array([rec.lam for rec in strip_generic[0] if rec.lam.imag >= -1e-12]),
             params_generic),
            (np.array([pairs[k][j].lam for k in TABLE_KS for j in (1, 2)]), params_degenerate)]
    worst_mc = worst_res = worst_id = 0.0
    for lam, p in jobs:
        # matrix_residual is ||M c|| for the nullspace vector at largest entry one
        modes = eigenmode(lam, p)
        mc = modes.matrix_residual
        res = mode_residuals(modes, p).max(axis=-1)
        ident = np.abs(lam.real + (p.k2 / p.k1) * np.abs(modes.tip_eta) ** 2
                       + (p.k4 / p.k3) * np.abs(modes.tip_gamma) ** 2)
        assert np.all(mc <= 1e-9)
        assert np.all(res <= 1e-8)
        assert np.all(ident <= 1e-8)
        worst_mc = max(worst_mc, float(mc.max()))
        worst_res = max(worst_res, float(res.max()))
        worst_id = max(worst_id, float(ident.max()))
    print(f"[PASS] 06 eigenpair residuals over {sum(len(lam) for lam, _ in jobs)} modes: "
          f"max ||Mc|| {worst_mc:.1e}, residual {worst_res:.1e}, "
          f"identity {worst_id:.1e}")


def test_c07_finite_difference_oracle(params_generic, params_degenerate):
    worst = math.inf
    for p in (params_generic, params_degenerate):
        recs, _ = spectrum_in_strip(p, 12)
        targets = np.array([r.lam for r in recs if r.lam.imag >= -1e-12])
        errs = {}
        for N in (200, 400):
            vals = generator_spectrum(assemble_generator(p, N), 10)
            errs[N] = np.array([np.min(np.abs(targets - v)) for v in vals])
        ratios = errs[200] / errs[400]
        assert np.all(ratios >= 3.5), f"convergence ratios {ratios}"
        worst = min(worst, float(ratios.min()))
    print(f"[PASS] 07 finite-difference oracle: halving h shrinks the "
          f"lowest-10 errors by >= {worst:.2f}x on both parameter sets")


def test_c08_spectral_completeness(strip_generic, strip_conservative):
    records, report = strip_generic
    assert report.incomplete_boxes == []
    assert_tiled(records, report)
    assert report.k0_effective == 8
    assert all(rec.lam.real < 0.0 for rec in records)
    # every frequency box holds exactly two roots, both half-planes
    for k in range(8, 201):
        for sign in (1, -1):
            center = sign * k * math.pi
            inside = [r for r in records
                      if abs(r.lam.imag - center) <= math.pi / 2]
            count = len(inside)
            assert count == 2, f"box at {sign * k} holds {count} roots"
    ims = sorted(r.lam.imag for r in records)
    mirrored = sorted(-r.lam.imag for r in records)
    assert np.allclose(ims, mirrored, atol=1e-9)

    crecs, crep = strip_conservative
    assert crep.incomplete_boxes == []
    assert_tiled(crecs, crep)
    worst = max(abs(r.lam.real) for r in crecs)
    assert worst <= 1e-9
    print(f"[PASS] 08 completeness: {len(records)} damped records certified, "
          f"conservative |Re| <= {worst:.1e}")


def test_c09_riesz_diagnostics(params_generic):
    diag = riesz_closeness(300, params_generic)
    k = diag.k_values[:, None].astype(float)
    # "bounded" asserted against fixed desk-scale caps well above the
    # measured plateaus (0.007, 0.32, 0.95)
    close_sq = float((diag.closeness * k * k).max())
    tip_e = float((diag.tip_eta * k).max())
    tip_g = float((diag.tip_gamma * k).max())
    assert close_sq <= 1.0
    assert tip_e <= 10.0 and tip_g <= 10.0
    # the Gram of 200 family modes, as the README's library example builds it
    p = params_generic
    modes = eigenmode(np.array([rec.lam for rec in family_roots(p, range(K_MIN, K_MIN + 100))]), p)
    cond = float(np.linalg.cond(gram_inner_product(modes[:, None], modes[None, :], p)))
    assert cond < 100.0
    print(f"[PASS] 09 riesz diagnostics: k^2-closeness {close_sq:.1e}, "
          f"k-scaled tips {tip_e:.2f}/{tip_g:.2f}, Gram condition {cond:.3f}")


def test_c10_polynomial_decay(decay_runs):
    full, prefix, control = decay_runs
    e = prefix.energies
    assert np.all(e[1:] <= e[:-1] * (1.0 + 1e-12)), "energy not monotone"
    fit = fit_decay(prefix)
    assert fit.exponent <= -0.9

    def sup_te(trace, lo, hi):
        m = (trace.times >= lo) & (trace.times <= hi)
        return float((trace.times[m] * trace.energies[m]).max())

    base = sup_te(prefix, 50.0, 200.0)
    extended = sup_te(full, 100.0, 400.0)
    assert extended < 1.1 * base

    ce = control.energies
    drift = float(np.max(np.abs(ce - ce[0]))) / ce[0]
    assert drift <= 1e-10
    print(f"[PASS] 10 polynomial decay: slope {fit.exponent:.2f}, "
          f"sup tE {base:.2e} -> {extended:.2e}, conservative drift {drift:.1e}")
