"""Closed-form eigenfunctions, exact Gram entries, Riesz diagnostics."""

import math
import re
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference import grid_inner_product, mode_field, to_grid_state
from test_charfn import _REGIME_SETS
from test_spectrum import _polished

import tipbeam.modes
from tipbeam.asymptotics import predict_eigenvalue
from tipbeam.charfn import _matrix
from tipbeam.errors import (
    NotAnEigenvalue,
    RankDeficiencyTwo,
    RegimeMismatch,
    UnpairedFamily,
    ZeroMode,
)
from tipbeam.model import validate_params
from tipbeam.modes import (
    _exp_integral,
    _family_modes,
    eigenmode,
    gram_inner_product,
    mode_residuals,
    riesz_closeness,
)
from tipbeam.spectrum import (
    K_MIN,
    EigenvalueRecord,
    RootSearchReport,
    _beam,
    family_roots,
)


@pytest.fixture(scope="module")
def root12(params_generic):
    return family_roots(params_generic, 12)[0]


@pytest.fixture(scope="module")
def mode12(params_generic, root12):
    return eigenmode(root12.lam, params_generic)


def test_nullspace_annihilates_matrix(params_generic, root12, mode12):
    # the nullspace vector at largest entry one, the scale matrix_residual measures
    c = mode12.coeffs / mode12.coeffs[np.argmax(np.abs(mode12.coeffs))]
    m = _matrix(np.asarray(root12.lam), params_generic)[0]
    assert np.linalg.norm(m @ c) <= 1e-9
    assert mode12.matrix_residual <= 1e-9
    # rows one and two of the matrix are the clamped-end conditions
    assert abs(np.sum(c)) <= 1e-9
    assert abs(np.sum(c * mode12.couplings)) <= 1e-9
    # scaling convention: largest-modulus entry one, then divided by the
    # real energy norm, so it stays real and positive
    big = mode12.coeffs[np.argmax(np.abs(mode12.coeffs))]
    assert big.real > 0.0 and abs(big.imag) <= 1e-14 * big.real


def test_conditioning_flags_the_degenerate_lattice(params_generic):
    # sigma3/sigma1 of M(lambda) is 4.97e-4 / 17.8 on the borderline set at
    # k = 48, j = 2, where one ulp of t_i moves tip_eta by 2e-10 relative;
    # the generic modes up to k = 300 sit at 1e-3 and above
    border = validate_params(1.0, *_REGIME_SETS["borderline"])
    lam = [r.lam for r in family_roots(border, 48) if r.family == 2][0]
    cond = eigenmode(lam, border).conditioning
    assert 2.7e-5 <= cond <= 2.9e-5
    recs = family_roots(params_generic, range(K_MIN, 301))
    generic = eigenmode(np.array([r.lam for r in recs]), params_generic)
    assert np.all(generic.conditioning >= 30.0 * cond)


def test_nullspace_rejects_non_eigenvalue(params_generic):
    # midpoint between consecutive frequency clusters is spectrum-free
    with pytest.raises(NotAnEigenvalue):
        eigenmode(12.5j * math.pi - 0.1, params_generic)


def test_batch_error_names_first_offending_mode(params_generic):
    p = params_generic
    good = [rec.lam for rec in family_roots(p, (10, 14))]
    bad = 12.5j * math.pi - 0.1
    lams = np.array(good[:2] + [bad] + good[2:])
    with pytest.raises(NotAnEigenvalue, match=re.escape(f"mode 2, lambda = {bad}: ")) as info:
        eigenmode(lams, p)
    assert info.value.index == (2,)
    with pytest.raises(NotAnEigenvalue, match=re.escape(f"mode (0, 1), lambda = {bad}: ")):
        eigenmode(lams[1:].reshape(2, 2), p)


def test_riesz_error_names_k_and_j(params_generic, monkeypatch):
    # a damped k = 9, j = 2 root pushed off the spectrum
    real = tipbeam.modes.family_roots

    def shifted(p, ks):
        recs = real(p, ks)
        if not p.is_conservative:
            recs[3] = replace(recs[3], lam=recs[3].lam + 0.3j)
        return recs

    monkeypatch.setattr(tipbeam.modes, "family_roots", shifted)
    with pytest.raises(NotAnEigenvalue, match=r"^family 2 at k = 9: mode 3, lambda = "):
        riesz_closeness(10, params_generic)


def test_riesz_refuses_crossed_families(params_generic, monkeypatch):
    # the conservative twin's two families swapped at every k: each damped
    # root then sits closer to the other conservative family
    real = tipbeam.modes.family_roots

    def swapped(p, ks):
        recs = real(p, ks)
        return [recs[i ^ 1] for i in range(len(recs))] if p.is_conservative else recs

    monkeypatch.setattr(tipbeam.modes, "family_roots", swapped)
    with pytest.raises(UnpairedFamily, match=r"^family 1 at k = 8: damped root "):
        riesz_closeness(10, params_generic)


@settings(max_examples=24, deadline=None, derandomize=True, database=None)
@given(name=st.sampled_from(sorted(_REGIME_SETS)),
       gains=st.floats(0.25, 1.25), damping=st.floats(0.25, 1.25),
       lanes=st.lists(st.tuples(st.integers(K_MIN, 300), st.sampled_from((1, 2))),
                      min_size=1, max_size=8))
def test_mode_lanes_match_single_builds(name, gains, damping, lanes):
    # each lane of a batch is the 0-d build of its lambda; the batched Gram
    # matrix is Hermitian, has unit diagonal and equals the one-pair calls
    b, k1, k2, k3, k4 = _REGIME_SETS[name]
    p = validate_params(1.0, b, gains * k1, damping * k2, gains * k3, damping * k4)
    seeds = [predict_eigenvalue(k, j, p) for k, j in lanes]
    lams = np.array([r.lam for r in _polished(seeds, _beam(p))
                     if isinstance(r, EigenvalueRecord)])
    singles = []
    for lam in lams:
        try:
            singles.append(eigenmode(lam, p))
        except (NotAnEigenvalue, RankDeficiencyTwo) as err:
            singles.append(err)
    failed = [i for i, one in enumerate(singles) if isinstance(one, Exception)]
    if failed:
        with pytest.raises(type(singles[failed[0]])) as info:
            eigenmode(lams, p)
        assert info.value.index == (failed[0],)
    keep = [i for i in range(len(lams)) if i not in failed]
    if not keep:
        return
    batch = eigenmode(lams[keep], p)
    eps = 64 * np.finfo(float).eps
    for lane, i in enumerate(keep):
        one = singles[i]
        assert batch.lam[lane] == one.lam
        for field in ("coeffs", "ts", "tip_eta", "tip_gamma"):
            got, want = getattr(batch, field)[lane], getattr(one, field)
            assert np.max(np.abs(got - want)) <= eps * max(1.0, np.max(np.abs(want))), field
    g = gram_inner_product(batch[:, None], batch[None, :], p)
    assert g.shape == (len(keep), len(keep))
    assert np.max(np.abs(g - g.conj().T)) <= 1e-13
    assert np.max(np.abs(np.diag(g) - 1.0)) <= 1e-12
    paired = np.array([[gram_inner_product(batch[i], batch[j], p) for j in range(len(keep))]
                       for i in range(len(keep))])
    assert np.max(np.abs(g - paired)) <= 1e-13


def test_large_batch_equals_its_chunks(params_generic):
    # from 256 KiB numpy reuses a temporary right operand of `*` for the
    # result and swaps the operands, and the complex product is not
    # commutative in the last bit: 16,384 lanes reach that size for the
    # (n, 4) and (n,) products of eigenmode and gram_inner_product, and for
    # the (n, 22) fields and (n,) tip sums of mode_residuals
    p = params_generic
    lams = np.tile([r.lam for r in family_roots(p, range(8, 12))], 2048)
    whole = eigenmode(lams, p)
    chunks = [eigenmode(lams[i:i + 512], p) for i in range(0, lams.size, 512)]
    for f in fields(whole):
        assert np.array_equal(getattr(whole, f.name),
                              np.concatenate([getattr(m, f.name) for m in chunks])), f.name
    assert np.array_equal(mode_residuals(whole, p),
                          np.concatenate([mode_residuals(m, p) for m in chunks]))


def _residuals_by_field(m, p):
    """mode_residuals from six mode_field calls, one exponential table each,
    and the size of each lane's largest term, |lambda|^2 max(|u|, |y|)."""
    x = np.append(0.5 * (1.0 + np.cos(np.pi * (np.arange(20) + 0.5) / 20.0)), [0.0, 1.0])
    c, cd, t = m.coeffs, m.coeffs * m.couplings, m.ts
    u, y, ux, yx, uxx, yxx = (mode_field(m, x, w) for w in
                              (c, cd, c * t, cd * t, c * t * t, cd * t * t))
    lam = np.asarray(m.lam)
    lx = lam[..., None]
    r1 = np.max(np.abs(uxx + yx - lx * lx * u)[..., :20], axis=-1)
    r2 = np.max(np.abs(p.a * yxx - p.b * (ux + y) - lx * lx * y)[..., :20], axis=-1)
    u1, y1 = u[..., 21], y[..., 21]
    r5 = np.abs(lam * lam * u1 + p.k1 * (ux[..., 21] + y1) + p.k2 * lam * u1)
    r6 = np.abs(lam * lam * y1 + p.k3 * yx[..., 21] + p.k4 * lam * y1)
    size = np.abs(lam) ** 2 * np.max(np.abs(np.stack([u, y])), axis=(0, -1))
    return np.stack([r1, r2, np.abs(u[..., 20]), np.abs(y[..., 20]), r5, r6], axis=-1), size


def test_mode_residuals_match_field_by_field(params_generic, mode12):
    # one table product sums each field in another order than the six
    # separate evaluations: the residuals agree to rounding of their
    # largest term (measured: 1.15 eps at k = 8..100)
    p = params_generic
    batch = _family_modes(family_roots(p, range(8, 101)), p)
    for modes in (mode12, batch):
        want, size = _residuals_by_field(modes, p)
        got = mode_residuals(modes, p)
        assert got.shape == want.shape == np.shape(modes.lam) + (6,)
        tol = 64 * np.finfo(float).eps * np.maximum(1.0, size)[..., None]
        assert np.all(np.abs(got - want) <= tol)


def test_mode_residuals_small(params_generic, mode12):
    res = mode_residuals(mode12, params_generic)
    assert res[0] <= 1e-8 and res[1] <= 1e-8
    assert res[2] <= 1e-9 and res[3] <= 1e-9
    assert res[4] <= 1e-8 and res[5] <= 1e-8


def test_mode_residuals_high_frequency(params_generic):
    rec = family_roots(params_generic, 100)[1]
    res = mode_residuals(eigenmode(rec.lam, params_generic), params_generic)
    assert np.all(res <= 1e-7)


def test_norm_positive_and_normalized(params_generic, mode12):
    # eigenmode divides by the energy norm of its one self-Gram
    g = gram_inner_product(mode12, mode12, params_generic)
    assert abs(g.imag) <= 1e-12
    assert g.real > 0.0
    assert abs(g - 1.0) <= 1e-10
    modes = _family_modes(family_roots(params_generic, range(8, 301)), params_generic)
    assert modes.lam.shape == (586,)
    assert np.max(np.abs(gram_inner_product(modes, modes, params_generic) - 1.0)) <= 1e-12


def test_one_gram_per_mode_batch(params_generic, monkeypatch):
    # eigenmode divides by the norm of its own self-Gram: one self-Gram per
    # eigenmode batch, so riesz_closeness makes two and its cross Gram
    calls = []
    real = tipbeam.modes.gram_inner_product

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(tipbeam.modes, "gram_inner_product", counted)
    eigenmode(np.array([r.lam for r in family_roots(params_generic, range(8, 12))]),
              params_generic)
    assert len(calls) == 1
    calls.clear()
    riesz_closeness(20, params_generic)
    assert len(calls) == 3


def test_eigenmode_zero_norm_names_the_lane(params_generic, mode12, monkeypatch):
    # a lane whose energy norm is zero or not finite cannot be normalized
    real = tipbeam.modes.gram_inner_product
    lams = np.array([mode12.lam, np.conj(mode12.lam)])
    for norm, shown in ((np.nan, "nan"), (0.0, "0.0")):
        def second_lane(m1, m2, p):
            g = real(m1, m2, p)
            g[1] = norm
            return g

        monkeypatch.setattr(tipbeam.modes, "gram_inner_product", second_lane)
        # a missing check then shows as no ZeroMode, not as a warning of the division
        with (np.errstate(divide="ignore", invalid="ignore"),
              pytest.raises(ZeroMode, match=rf"^mode 1, .*of norm {shown}$") as info):
            eigenmode(lams, params_generic)
        assert info.value.index == (1,)


def test_dissipation_identity_on_eigenvector(params_generic, mode12):
    p = params_generic
    lhs = mode12.lam.real
    rhs = -(p.k2 / p.k1) * abs(mode12.tip_eta) ** 2 \
        - (p.k4 / p.k3) * abs(mode12.tip_gamma) ** 2
    assert abs(lhs - rhs) <= 1e-8


def test_conservative_modes_orthonormal(params_conservative):
    p = params_conservative
    modes = eigenmode(np.array([rec.lam for rec in family_roots(p, (9, 10))]), p)
    g = gram_inner_product(modes[:, None], modes[None, :], p)
    assert g.shape == (4, 4)
    assert np.max(np.abs(g - np.eye(4))) <= 1e-8


def test_gram_matches_grid_quadrature(params_generic, mode12):
    # mode12 alone and, sampled as one batch, next to a k = 9 mode
    p = params_generic
    rec9 = family_roots(p, 9)[1]
    pair = eigenmode(np.array([mode12.lam, rec9.lam]), p)
    for modes in (mode12, pair):
        exact = gram_inner_product(modes, modes, p)
        errs = []
        for n in (128, 256):
            g = to_grid_state(modes, n)
            approx = grid_inner_product(g, g, p)
            assert np.shape(approx) == np.shape(modes.lam)
            errs.append(np.abs(approx - exact))
        assert np.all(errs[0] <= 1e-3)
        assert np.all(errs[0] / errs[1] >= 8.0)   # fourth-order quadrature convergence


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
    g = to_grid_state(mode12, 64)
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
        riesz_closeness(4, params_generic)


def test_riesz_refuses_a_conservative_beam(params_conservative):
    # with k2 = k4 = 0 there is no damped beam to compare with its twin
    with pytest.raises(RegimeMismatch, match="k2=0.0, k4=0.0"):
        riesz_closeness(20, params_conservative)


def test_gram_condition_near_orthonormal(params_generic):
    # the Gram of 16 family modes, as the README's library example builds it
    p = params_generic
    modes = _family_modes(family_roots(p, range(K_MIN, K_MIN + 8)), p)
    cond = np.linalg.cond(gram_inner_product(modes[:, None], modes[None, :], p))
    assert 1.0 <= cond <= 10.0
