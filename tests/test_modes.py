"""Closed-form eigenfunctions, exact Gram entries, Riesz diagnostics."""

import math
from dataclasses import replace

import numpy as np
import pytest

from tipbeam.asymptotics import predict_eigenvalue
from tipbeam.charfn import boundary_matrix
from tipbeam.errors import NotAnEigenvalue, ZeroMode
from tipbeam.model import grid_inner_product
from tipbeam.modes import (
    _exp_integral,
    build_mode,
    eigenmode,
    gram_condition,
    gram_inner_product,
    mode_residuals,
    normalize,
    nullspace_coeffs,
    riesz_closeness,
)
from tipbeam.spectrum import refine_root


@pytest.fixture(scope="module")
def root12(params_generic):
    return refine_root(predict_eigenvalue(12, 1, params_generic), params_generic)


@pytest.fixture(scope="module")
def mode12(params_generic, root12):
    return eigenmode(root12.lam, params_generic)


def test_nullspace_annihilates_matrix(params_generic, root12):
    c = nullspace_coeffs(root12, params_generic)
    m = boundary_matrix(root12.lam, params_generic)
    assert np.linalg.norm(m @ c) <= 1e-9
    # rows one and two of the matrix are the clamped-end conditions
    assert abs(np.sum(c)) <= 1e-9
    d = build_mode(root12.lam, c, params_generic).couplings
    assert abs(np.sum(c * d)) <= 1e-9
    # scaling convention: largest-modulus entry is exactly one
    assert np.max(np.abs(c)) == pytest.approx(1.0, abs=1e-14)


def test_nullspace_rejects_non_eigenvalue(params_generic):
    # midpoint between consecutive frequency clusters is spectrum-free
    with pytest.raises(NotAnEigenvalue):
        nullspace_coeffs(12.5j * math.pi - 0.1, params_generic)


def test_mode_residuals_small(params_generic, mode12):
    res = mode_residuals(mode12, params_generic)
    assert res[0] <= 1e-8 * mode12.hnorm
    assert res[1] <= 1e-8 * mode12.hnorm
    assert res[2] <= 1e-9 and res[3] <= 1e-9
    assert res[4] <= 1e-8 and res[5] <= 1e-8


def test_mode_residuals_high_frequency(params_generic):
    rec = refine_root(predict_eigenvalue(100, 2, params_generic), params_generic)
    res = mode_residuals(eigenmode(rec.lam, params_generic), params_generic)
    assert np.all(res <= 1e-7)


def test_norm_positive_and_normalized(params_generic, mode12):
    g = gram_inner_product(mode12, mode12, params_generic)
    assert abs(g.imag) <= 1e-12
    assert g.real > 0.0
    assert abs(mode12.hnorm - 1.0) <= 1e-10


def test_normalize_idempotent_and_projective(params_generic, root12):
    c = nullspace_coeffs(root12, params_generic)
    m1 = normalize(build_mode(root12.lam, c, params_generic), params_generic)
    m2 = normalize(m1, params_generic)
    assert np.allclose(m1.coeffs, m2.coeffs, rtol=0, atol=1e-13)
    scaled = normalize(build_mode(root12.lam, 10.0 * c, params_generic),
                       params_generic)
    phase = scaled.coeffs[0] / m1.coeffs[0]
    assert abs(abs(phase) - 1.0) <= 1e-12
    assert np.allclose(scaled.coeffs, phase * m1.coeffs, rtol=0, atol=1e-12)


def test_normalize_zero_mode(params_generic, mode12):
    with pytest.raises(ZeroMode):
        normalize(replace(mode12, hnorm=0.0), params_generic)


def test_dissipation_identity_on_eigenvector(params_generic, mode12):
    p = params_generic
    lhs = mode12.lam.real
    rhs = -(p.k2 / p.k1) * abs(mode12.tip_eta) ** 2 \
        - (p.k4 / p.k3) * abs(mode12.tip_gamma) ** 2
    assert abs(lhs - rhs) <= 1e-8


def test_conservative_modes_orthonormal(params_conservative):
    p = params_conservative
    recs = [refine_root(predict_eigenvalue(k, j, p, variant="conservative"), p)
            for k in (9, 10) for j in (1, 2)]
    modes = [eigenmode(r.lam, p, variant="conservative") for r in recs]
    for i, mi in enumerate(modes):
        for j, mj in enumerate(modes):
            g = gram_inner_product(mi, mj, p)
            expect = 1.0 if i == j else 0.0
            assert abs(g - expect) <= 1e-8


def test_gram_matches_grid_quadrature(params_generic, mode12):
    exact = gram_inner_product(mode12, mode12, params_generic)
    errs = []
    for n in (128, 256):
        g = mode12.to_grid_state(n)
        approx = grid_inner_product(g, g, params_generic)
        errs.append(abs(approx - exact))
    assert errs[0] <= 1e-3
    assert errs[0] / errs[1] >= 8.0   # fourth-order quadrature convergence


def test_exp_integral_limits():
    vals = _exp_integral(np.array([0.0, 1e-8j, 1e-3, 2.0 + 1.0j]))
    assert vals[0] == pytest.approx(1.0)
    assert vals[1] == pytest.approx(1.0 + 0.5e-8j, abs=1e-15)
    assert vals[2] == pytest.approx((math.e ** 1e-3 - 1.0) / 1e-3, rel=1e-12)
    s = 2.0 + 1.0j
    assert vals[3] == pytest.approx((np.exp(s) - 1.0) / s, rel=1e-14)


def test_exp_integral_keeps_relative_accuracy_near_zero():
    # (e^s - 1)/s by exp and subtraction loses |log10 s| digits: 2e-10 at
    # |s| = 1e-6, the size of t_i + conj(t_j') for a damped mode against its
    # conservative twin at k ~ 240, enough to move riesz closeness by 1e-11
    rng = np.random.default_rng(5)
    s = 10.0 ** rng.uniform(-6.0, -2.0, 400) * np.exp(2j * math.pi * rng.uniform(size=400))
    series = sum(s**n / math.factorial(n + 1) for n in range(9, -1, -1))
    assert np.max(np.abs(_exp_integral(s) / series - 1.0)) <= 1e-15


def test_grid_state_traces(params_generic, mode12):
    g = mode12.to_grid_state(64)
    assert g.v[-1] == pytest.approx(g.eta, rel=1e-12)
    p = params_generic
    assert math.sqrt(p.a / p.b) * g.z[-1] == pytest.approx(g.gamma, rel=1e-12)


@pytest.fixture(scope="module")
def riesz16(params_generic):
    return riesz_closeness(16, params_generic)


def test_riesz_partial_sums_monotone(riesz16):
    assert np.all(riesz16.closeness >= 0.0)
    assert np.all(np.diff(riesz16.partial_sums) >= 0.0)


def test_riesz_quadratic_closeness(riesz16):
    weighted = riesz16.closeness * riesz16.k_values[:, None] ** 2
    assert np.max(weighted) <= 0.05
    aligned = (1.0 - riesz16.alignment) * riesz16.k_values[:, None] ** 2
    assert np.max(aligned) <= 0.025
    assert np.all(riesz16.alignment <= 1.0 + 1e-12)


def test_riesz_tip_traces_decay(riesz16):
    k = riesz16.k_values[:, None]
    assert np.max(riesz16.tip_eta * k) <= 5.0
    assert np.max(riesz16.tip_gamma * k) <= 5.0
    assert np.max(riesz16.pairing_gap * k) <= 1.0


def test_riesz_validates_window(params_generic):
    with pytest.raises(ValueError):
        riesz_closeness(4, params_generic, k_min=8)


def test_gram_condition_near_orthonormal(params_generic):
    cond = gram_condition(params_generic, 8)
    assert 1.0 <= cond <= 10.0
