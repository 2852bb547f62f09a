import math
from dataclasses import replace

import numpy as np
import pytest

import reference
from tipbeam.asymptotics import (
    asymptotic_coefficients,
    discriminant_reduced,
    gamma_coefficients,
    predict_eigenvalue,
    special_a3,
)
from tipbeam.charfn import entire_char_fn_and_derivative
from tipbeam.errors import RegimeMismatch, ZeroOmega1
from tipbeam.model import regime_info, validate_params
from tipbeam.spectrum import frequency_pairs

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


def _omegas(p):
    """(omega1_j, omega2_j, beta_j) per family from the generic series of p:
    omega1_j = -+ i sqrt(gamma1^2 - 4 gamma2) (alpha_2 - alpha_1 = sqrt of
    it, alpha_j = Im c1_j) and beta_j = -c2_j = omega2_j / omega1_j."""
    c1, c2, _ = asymptotic_coefficients(p)
    root = c1[1].imag - c1[0].imag
    return [(om1, -c.real * om1, -c.real) for om1, c in zip((-1j * root, 1j * root), c2)]


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
        (g1, g2, _), (a1, a2) = gamma_coefficients(p), asymptotic_coefficients(p)[0].imag
        assert a1 + a2 == pytest.approx(g1, rel=1e-13)
        assert a1 * a2 == pytest.approx(g2, rel=1e-13)
        assert a1 <= a2
    a1, a2 = asymptotic_coefficients(params_generic)[0].imag
    assert a1 == pytest.approx(FROZEN["alpha1"], rel=1e-13)
    assert a2 == pytest.approx(FROZEN["alpha2"], rel=1e-13)
    assert a1 < a2


def test_alpha_collision_on_degenerate_set(params_degenerate):
    # alpha_j = (gamma1 -+ sqrt(gamma1^2 - 4 gamma2)) / 2 meet where the
    # discriminant vanishes
    p = params_degenerate
    g1, _, _ = gamma_coefficients(p)
    root = math.sqrt(discriminant_reduced(p))
    a1, a2 = 0.5 * (g1 - root), 0.5 * (g1 + root)
    collide = (2.0 * p.k1 + math.pi**2) / (2.0 * math.pi)
    assert a1 == pytest.approx(collide, rel=1e-12)
    assert a2 == pytest.approx(collide, rel=1e-12)


def test_omega_beta_frozen(params_generic):
    g1, g2, _ = gamma_coefficients(params_generic)
    c1, _, c3 = asymptotic_coefficients(params_generic)
    (om11, om21, b1), (om12, om22, b2) = _omegas(params_generic)
    assert np.all(c1.real == 0.0)
    assert np.all(c3 == 0.0)
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
    k = 2000
    for aj, (om1, om2, beta) in zip(asymptotic_coefficients(p)[0].imag, _omegas(p)):
        measured = k**3 * entire_char_fn_and_derivative(1j * k * np.pi + 1j * aj / k, p)[2]
        assert abs(measured - om2) < 1e-3 * abs(om2)


def test_beta_positive_under_damping():
    rng = np.random.default_rng(99)
    for _ in range(100):
        p = _random_params(rng)
        for _, _, beta in _omegas(p):
            assert beta > 0.0


def test_beta_zero_conservative():
    rng = np.random.default_rng(17)
    for _ in range(20):
        p = _random_params(rng, conservative=True)
        assert gamma_coefficients(p)[2] == 0.0
        for _, om2, beta in _omegas(p):
            assert om2 == 0.0 and beta == 0.0


def test_colliding_families_off_the_lattice_raise():
    # sqrt(b) 1e-11 off the p = 1 lattice point is generic, and k1 - k3 =
    # (sqrt(b)/2) sin sqrt(b) cancels the discriminant to about 4e-34:
    # beta_j = omega2_j / omega1_j has no meaning there
    sb = 2.0 * math.pi * (1.0 + 1e-11)
    p = validate_params(1.0, sb * sb, 1.0 + 0.5 * sb * math.sin(sb), 1.0, 1.0, 2.0)
    assert regime_info(p).regime == "generic"
    with pytest.raises(ZeroOmega1):
        predict_eigenvalue(20, 1, p)
    # undamped, the families keep beta = 0 without dividing by omega1
    assert predict_eigenvalue(20, 1, replace(p, k2=0.0, k4=0.0)).real == 0.0


def test_asymptotic_coefficients_dispatch(params_generic, params_degenerate):
    _, c2, c3 = asymptotic_coefficients(params_generic)
    assert regime_info(params_generic).regime == "generic"
    assert np.all(c2.real < 0) and np.all(c3 == 0)
    p = params_degenerate
    c1, c2, c3 = asymptotic_coefficients(p)
    assert regime_info(p).regime == "case1"
    assert np.all(c1 == 1j * (2.0 * p.k1 + math.pi**2) / (2.0 * math.pi))
    assert np.all(c2 == [-p.k1 * p.k2 / math.pi**2, -p.k1 * p.k4 / math.pi**2])
    assert np.all(c3 == 0)


def test_special_a3():
    pi2 = math.pi**2
    # k1 = 2, p = 1: the radicand 4 k1^4 + p^2 pi^2 (2 k1 - p^2 pi^2)^2 is
    # 404.03, so the half-spread is 12 pi sqrt(404.03)
    a31, a32 = special_a3(validate_params(1, 4 * pi2, 2, 1, 2, 1))
    assert (a32 - a31) / 2 == pytest.approx(12 * math.pi * math.sqrt(64 + pi2 * (4 - pi2) ** 2),
                                            rel=1e-14)
    assert math.sqrt(64 + pi2 * (4 - pi2) ** 2) == pytest.approx(20.1005, abs=1e-4)
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


@pytest.mark.parametrize("k2", [1.0, 0.0])     # case 2 and case 3
def test_third_order_split_matches_the_roots(k2, request):
    # the families of k1 = k3 = 2, sqrt(b) = 2 pi part at third order:
    # k^3 (Im lambda_2 - Im lambda_1) tends to (a3_2 - a3_1) / (24 pi^3),
    # and the polished pair agrees within 1/k^2 relative (measured 0.50 to
    # 0.54 / k^2 at k = 50 and 100); each root lies within 1/k^4 of its
    # prediction (measured at most 0.72 / k^4).  The radicand with
    # -43 k1^2 p^2 pi^2 was negative here
    p = request.getfixturevalue("params_case2" if k2 else "params_case3")
    a31, a32 = special_a3(p)
    want = (a32 - a31) / (24 * math.pi**3)
    for k, recs in zip((50, 100), frequency_pairs(p, [50, 100])):
        assert [r.family for r in recs] == [1, 2]
        got = k**3 * (recs[1].lam.imag - recs[0].lam.imag)
        assert abs(got - want) <= want / k**2
        for r in recs:
            assert abs(r.lam - predict_eigenvalue(k, r.family, p)) <= 1 / k**4


@pytest.mark.parametrize("name", ["params_generic", "params_conservative", "params_near_lattice",
                                  "params_degenerate", "params_case2", "params_case3"])
def test_series_matches_the_scalar_oracle(name, request):
    # bit for bit where the terms are the same (generic); the degenerate
    # series divides c_n by k^n where the scalar formulas divide by (k pi)^n,
    # which moves lambda by at most 2 ulp of |lambda|
    p = request.getfixturevalue(name)
    ks = np.arange(1, 1001)
    got = predict_eigenvalue(ks[:, None], np.array([1, 2]), p)
    want = np.array([[reference.predict_eigenvalue(int(k), j, p) for j in (1, 2)] for k in ks])
    if regime_info(p).regime == "generic":
        assert np.array_equal(got, want)
    else:
        assert np.all(np.abs(got - want) <= 2 * np.spacing(np.abs(want)))


@pytest.mark.parametrize("name", ["params_generic", "params_conservative", "params_degenerate",
                                  "params_case2", "params_case3"])
def test_series_is_the_broadcast_form_bit_for_bit(name, request):
    # predict_eigenvalue no longer broadcasts k and j before it checks and
    # evaluates them: its values, their sign of zero and their shape, and
    # its errors, are those of the form that did
    p = request.getfixturevalue(name)
    cases = [(20, 1), (-7, 2), (np.int64(3), np.array(2)), (2.5, 1),
             (np.arange(1, 51)[:, None], np.array([1, 2])), (-np.arange(1, 6), 1),
             (np.arange(-4, 5).reshape(3, 3)[:, :, None] + 0.5, np.array([2, 1])),
             (np.zeros((0, 1)), np.array([1, 3]))]
    for k, j in cases:
        got, want = predict_eigenvalue(k, j, p), reference.predict_eigenvalue_broadcast(k, j, p)
        assert type(got) is type(want) and np.shape(got) == np.shape(want)
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
    for k, j in [(0, 1), (100, 3), (np.arange(1, 3)[:, None], np.array([1, 3])),
                 (np.arange(0, 3), np.array(2)), (np.arange(3), np.arange(2)), (2, 1.5)]:
        with pytest.raises(Exception) as got:
            predict_eigenvalue(k, j, p)
        with pytest.raises(Exception) as want:
            reference.predict_eigenvalue_broadcast(k, j, p)
        assert (type(got.value), str(got.value)) == (type(want.value), str(want.value))


def test_predict_validation(params_generic):
    with pytest.raises(ValueError, match="k != 0"):
        predict_eigenvalue(0, 1, params_generic)
    with pytest.raises(ValueError):
        predict_eigenvalue(100, 3, params_generic)


def test_f_expansion_f0_identity(params_generic):
    p = params_generic
    lam = -0.3 + 47.1j
    f0 = reference.f_expansion_terms(lam, p)[0]
    ep, em, _, _ = reference.paired_exponentials(lam, p.b)
    assert f0 == pytest.approx(0.25 * (ep - 2.0 + em), rel=1e-12)
    # near i k pi the leading term nearly vanishes (double-root structure)
    assert abs(reference.f_expansion_terms(1j * 100 * np.pi, p)[0]) < 1e-5


def test_f_expansion_remainder_bounded(params_generic, params_degenerate):
    # |f - (f0 + f1/lam + f2/lam^2 + f3/lam^3)| = O(1/|lam|^4) along the strip line
    for p, cap in ((params_generic, 0.5), (params_degenerate, 2.0)):
        ks = np.arange(100, 1001)
        lams = 1j * ks * np.pi - 0.05
        f0, f1, f2, f3 = reference.f_expansion_terms(lams, p)
        f = entire_char_fn_and_derivative(lams, p)[2]
        rem = np.abs(f - (f0 + f1 / lams + f2 / lams**2 + f3 / lams**3))
        assert np.max(ks**4 * rem) < cap


def test_f_expansion_remainder_short_line(params_generic):
    ks = np.arange(50, 501)
    lams = 1j * ks * np.pi - 0.1
    f0, f1, f2, f3 = reference.f_expansion_terms(lams, params_generic)
    f = entire_char_fn_and_derivative(lams, params_generic)[2]
    rem = np.abs(f - (f0 + f1 / lams + f2 / lams**2 + f3 / lams**3))
    assert np.max(ks**4 * rem) < 0.5
