import math

import numpy as np
import pytest

from tipbeam.asymptotics import (
    alpha_coefficients,
    asymptotic_coefficients,
    discriminant_reduced,
    f_expansion_terms,
    gamma_coefficients,
    omega_beta,
    predict_eigenvalue,
    special_a3,
)
from tipbeam.charfn import char_fn, paired_exponentials
from tipbeam.errors import NegativeRadicand, RegimeMismatch, ZeroOmega1
from tipbeam.model import validate_params

# frozen reference values for the (b=2, k1=1, k2=2, k3=3, k4=2) set,
# cross-checked against measured root locations and the k^3 f limit below
FROZEN = dict(
    gamma1=1.432394487827058,
    gamma2=0.3194687240662573,
    gamma3=100.82470402181427,
    disc=0.7738790724923106,
    alpha1=0.27634525957893763,
    alpha2=1.1560492282481203,
    omega1_mag=0.8797039686691828,
    omega2_1=-0.18247189632868996j,
    omega2_2=0.530589282554699j,
    beta1=0.20742420499106495,
    beta2=0.6031452641476374,
)


def _random_params(rng, conservative=False):
    b = rng.uniform(0.5, 30.0)
    k1, k3 = rng.uniform(0.2, 8.0, 2)
    if conservative:
        k2 = k4 = 0.0
    else:
        k2, k4 = rng.uniform(0.05, 6.0, 2)
    return validate_params(1.0, b, k1, k2, k3, k4)


def test_gamma_frozen_values(params_generic):
    g1, g2, g3 = gamma_coefficients(params_generic)
    assert g1 == pytest.approx(FROZEN["gamma1"], rel=1e-13)
    assert g2 == pytest.approx(FROZEN["gamma2"], rel=1e-13)
    assert g3 == pytest.approx(FROZEN["gamma3"], rel=1e-13)


def test_gamma_special_values(params_degenerate, params_conservative):
    g1, _, _ = gamma_coefficients(params_degenerate)
    assert g1 == pytest.approx(math.pi + 4.0 / math.pi, rel=1e-13)
    assert gamma_coefficients(params_conservative)[2] == 0.0


def test_discriminant_identity_random_draws():
    rng = np.random.default_rng(42)
    for _ in range(100):
        p = _random_params(rng)
        g1, g2, _ = gamma_coefficients(p)
        disc = g1 * g1 - 4.0 * g2
        red = discriminant_reduced(p)
        assert disc == pytest.approx(red, rel=1e-12, abs=1e-14)
        # expanded variant of the same closed form
        sb = math.sqrt(p.b)
        expanded = (
            p.b + 2.0 * (p.k1 - p.k3) ** 2 - p.b * math.cos(sb)
            - 2.0 * sb * (p.k1 - p.k3) * math.sin(sb)
        ) / (2.0 * math.pi**2)
        assert red == pytest.approx(expanded, rel=1e-12, abs=1e-14)
        assert red >= 0.0


def test_alpha_vieta_and_ordering(params_generic):
    rng = np.random.default_rng(5)
    for _ in range(50):
        p = _random_params(rng)
        g1, g2, _ = gamma_coefficients(p)
        a1, a2 = alpha_coefficients(g1, g2)
        assert a1 + a2 == pytest.approx(g1, rel=1e-13)
        assert a1 * a2 == pytest.approx(g2, rel=1e-13)
        assert a1 <= a2
    g1, g2, _ = gamma_coefficients(params_generic)
    a1, a2 = alpha_coefficients(g1, g2)
    assert a1 == pytest.approx(FROZEN["alpha1"], rel=1e-13)
    assert a2 == pytest.approx(FROZEN["alpha2"], rel=1e-13)
    assert a1 < a2


def test_alpha_collision_on_degenerate_set(params_degenerate):
    p = params_degenerate
    g1, g2, _ = gamma_coefficients(p)
    a1, a2 = alpha_coefficients(g1, g2)
    collide = (2.0 * p.k1 + math.pi**2) / (2.0 * math.pi)
    assert a1 == pytest.approx(collide, rel=1e-12)
    assert a2 == pytest.approx(collide, rel=1e-12)


def test_omega_beta_frozen(params_generic):
    p = params_generic
    g1, g2, _ = gamma_coefficients(p)
    alphas = alpha_coefficients(g1, g2)
    (om11, om21, b1), (om12, om22, b2) = omega_beta(p, alphas)
    root = FROZEN["omega1_mag"]
    assert om11 == pytest.approx(-1j * root, rel=1e-12)
    assert om12 == pytest.approx(1j * root, rel=1e-12)
    assert abs(om11) == pytest.approx(math.sqrt(g1 * g1 - 4 * g2), rel=1e-12)
    assert om21 == pytest.approx(FROZEN["omega2_1"], rel=1e-12)
    assert om22 == pytest.approx(FROZEN["omega2_2"], rel=1e-12)
    assert b1 == pytest.approx(FROZEN["beta1"], rel=1e-12)
    assert b2 == pytest.approx(FROZEN["beta2"], rel=1e-12)


def test_omega2_matches_char_fn_limit(params_generic):
    # independent oracle: k^3 f(i k pi + i alpha_j / k) -> omega2_j
    p = params_generic
    g1, g2, _ = gamma_coefficients(p)
    alphas = alpha_coefficients(g1, g2)
    pairs = omega_beta(p, alphas)
    k = 2000
    for aj, (om1, om2, beta) in zip(alphas, pairs):
        measured = k**3 * char_fn(1j * k * np.pi + 1j * aj / k, p)
        assert abs(measured - om2) < 1e-3 * abs(om2)


def test_beta_positive_under_damping():
    rng = np.random.default_rng(99)
    for _ in range(100):
        p = _random_params(rng)
        g1, g2, _ = gamma_coefficients(p)
        alphas = alpha_coefficients(g1, g2)
        for _, _, beta in omega_beta(p, alphas):
            assert beta > 0.0


def test_beta_zero_conservative():
    rng = np.random.default_rng(17)
    for _ in range(20):
        p = _random_params(rng, conservative=True)
        g1, g2, g3 = gamma_coefficients(p)
        assert g3 == 0.0
        for _, om2, beta in omega_beta(p, alpha_coefficients(g1, g2)):
            assert om2 == 0.0 and beta == 0.0


def test_omega_beta_degenerate_raises(params_degenerate):
    p = params_degenerate
    g1, g2, _ = gamma_coefficients(p)
    with pytest.raises(ZeroOmega1):
        omega_beta(p, alpha_coefficients(g1, g2))


def test_asymptotic_coefficients_dispatch(params_generic, params_degenerate):
    ac = asymptotic_coefficients(params_generic)
    assert ac.regime == "generic" and ac.beta1 > 0
    acd = asymptotic_coefficients(params_degenerate)
    assert acd.regime == "case1" and acd.beta1 is None and acd.omega1 is None


def test_special_a3():
    pi2 = math.pi**2
    # k1 = 2, p = 1: radicand is negative, expansion refused
    with pytest.raises(NegativeRadicand):
        special_a3(validate_params(1, 4 * pi2, 2, 1, 2, 1))
    with pytest.raises(RegimeMismatch):
        special_a3(validate_params(1, 2.0, 1, 2, 3, 2))
    # k1 = 20, p = 1: radicand positive
    p = validate_params(1, 4 * pi2, 20, 3, 20, 3)
    a31, a32 = special_a3(p)
    assert a31 < a32
    total = 2 * (-24 * 20**2 - 8 * 20**3 - 36 * 20 * pi2 + 9 * pi2**2)
    assert a31 + a32 == pytest.approx(total, rel=1e-13)


def test_predict_generic(params_generic, params_conservative):
    p = params_generic
    lam = predict_eigenvalue(100, 1, p)
    assert lam.real == pytest.approx(-FROZEN["beta1"] / 100**2, rel=1e-12)
    assert lam.imag == pytest.approx(100 * math.pi + FROZEN["alpha1"] / 100, rel=1e-13)
    lam2 = predict_eigenvalue(100, 2, p)
    assert lam2.imag > lam.imag
    # negative k mirrors by conjugation
    assert predict_eigenvalue(-100, 1, p) == pytest.approx(np.conj(lam), rel=1e-13)
    # conservative: purely imaginary predictions
    lam_c = predict_eigenvalue(50, 2, params_conservative)
    assert lam_c.real == 0.0


def test_predict_case1(params_degenerate):
    p = params_degenerate
    for k in (200, 400, 1000):
        assert k**2 * predict_eigenvalue(k, 1, p).real == pytest.approx(
            -2.0 / math.pi**2, rel=1e-12
        )
        assert k**2 * predict_eigenvalue(k, 2, p).real == pytest.approx(
            -10.0 / math.pi**2, rel=1e-12
        )


def test_predict_case2_and_case3():
    pi2 = math.pi**2
    p2 = validate_params(1, 4 * pi2, 20, 3, 20, 3)
    lam = predict_eigenvalue(50, 1, p2)
    assert lam.real == pytest.approx(-20 * 3 / (50 * math.pi) ** 2, rel=1e-12)
    p3 = validate_params(1, 4 * pi2, 20, 0, 20, 0)
    lam3 = predict_eigenvalue(50, 1, p3)
    assert lam3.real == 0.0
    a31 = special_a3(p3)[0]
    expect = 50 * math.pi + (2 * 20 + pi2) / (2 * 50 * math.pi) + a31 / (24 * 50**3 * math.pi**3)
    assert lam3.imag == pytest.approx(expect, rel=1e-13)


def test_predict_validation(params_generic):
    with pytest.raises(ValueError, match="k != 0"):
        predict_eigenvalue(0, 1, params_generic)
    with pytest.raises(ValueError):
        predict_eigenvalue(100, 3, params_generic)


def test_f_expansion_f0_identity(params_generic):
    p = params_generic
    lam = -0.3 + 47.1j
    f0 = f_expansion_terms(lam, p)[0]
    ep, em, _, _ = paired_exponentials(lam, p.b)
    assert f0 == pytest.approx(0.25 * (ep - 2.0 + em), rel=1e-12)
    # near i k pi the leading term nearly vanishes (double-root structure)
    assert abs(f_expansion_terms(1j * 100 * np.pi, p)[0]) < 1e-5


def test_f_expansion_remainder_bounded(params_generic, params_degenerate):
    # |f - (f0 + f1/lam + f2/lam^2 + f3/lam^3)| = O(1/|lam|^4) along the strip line
    for p, cap in ((params_generic, 0.5), (params_degenerate, 2.0)):
        ks = np.arange(100, 1001)
        lams = 1j * ks * np.pi - 0.05
        f0, f1, f2, f3 = f_expansion_terms(lams, p)
        rem = np.abs(char_fn(lams, p) - (f0 + f1 / lams + f2 / lams**2 + f3 / lams**3))
        assert np.max(ks**4 * rem) < cap


def test_f_expansion_remainder_short_line(params_generic):
    ks = np.arange(50, 501)
    lams = 1j * ks * np.pi - 0.1
    f0, f1, f2, f3 = f_expansion_terms(lams, params_generic)
    rem = np.abs(char_fn(lams, params_generic) - (f0 + f1 / lams + f2 / lams**2 + f3 / lams**3))
    assert np.max(ks**4 * rem) < 0.5
