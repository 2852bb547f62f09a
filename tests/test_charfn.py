import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tipbeam.asymptotics import predict_eigenvalue
from tipbeam.charfn import (
    boundary_matrix,
    branch_roots,
    char_fn,
    entire_char_fn_and_derivative,
    g_functions,
    mode_couplings,
)
from tipbeam.errors import NearBranchPoint, ZeroDenominator, ZeroLambda
from tipbeam.model import regime_info, validate_params
from tipbeam.cli import TABLE_KS
from tipbeam.spectrum import family_roots, refine_root


def _strip_points(rng, n, im_lo=0.5, im_hi=60.0):
    re = rng.uniform(-3.0, -0.05, n)
    im = rng.uniform(im_lo, im_hi, n)
    return re + 1j * im


def test_branch_roots_identities():
    r = branch_roots(1j, 1.0)
    assert abs(r.t1**2 + 2.0) < 1e-14
    assert r.t2 == -r.t1 and r.t4 == -r.t3

    rng = np.random.default_rng(7)
    for lam in _strip_points(rng, 50):
        b = 2.0
        r = branch_roots(lam, b)
        sb = np.sqrt(b)
        assert abs(r.t1**2 - lam * (1j * sb + lam)) <= 1e-14 * abs(r.t1**2)
        assert abs(r.t3**2 - lam * (-1j * sb + lam)) <= 1e-14 * abs(r.t3**2)
        assert abs(r.t1**2 - r.t3**2 - 2j * lam * sb) <= 1e-12 * abs(2j * lam * sb)


def test_branch_roots_zero_lambda():
    with pytest.raises(ZeroLambda):
        branch_roots(0.0, 2.0)


def test_branch_root_large_lambda_expansion():
    # t1 = lambda + i sqrt(b)/2 + b/(8 lambda) + O(1/lambda^2)
    b = 2.0
    errs = []
    for k in (100, 200):
        lam = 1j * k * np.pi
        t1 = branch_roots(lam, b).t1
        errs.append(abs(t1 - (lam + 1j * np.sqrt(b) / 2 + b / (8 * lam))))
    # next term is b^{3/2}/(16 |lambda|^2) ~ 1.8e-6 at k=100
    assert errs[0] < 2.5e-6
    assert errs[0] / errs[1] > 3.5  # next term decays like 1/|lambda|^2


def test_branch_roots_conjugate_swap():
    rng = np.random.default_rng(11)
    for lam in _strip_points(rng, 100):
        r = branch_roots(lam, 2.0)
        rc = branch_roots(np.conj(lam), 2.0)
        assert abs(rc.t1 - np.conj(r.t3)) <= 1e-13 * abs(r.t3)


def test_mode_couplings_antisymmetry_and_value():
    lam = -0.4 + 9.3j
    b = 2.0
    r = branch_roots(lam, b)
    d1, d2, d3, d4 = mode_couplings(lam, r)
    assert d1 + d2 == 0 and d3 + d4 == 0
    # direct difference form, fine at moderate |lambda|
    assert abs(d1 - (lam**2 - r.t1**2) / r.t1) <= 1e-12 * abs(d1)
    assert abs(d3 - (lam**2 - r.t3**2) / r.t3) <= 1e-12 * abs(d3)
    assert abs(d1 - (-1j * lam * np.sqrt(b) / r.t1)) <= 1e-13 * abs(d1)


def test_interior_ode_residual():
    # u = e^{t1 x}, y = d1 e^{t1 x} solve lambda^2 u = u'' + y' identically
    lam = -0.7 + 14.2j
    r = branch_roots(lam, 2.0)
    d1 = mode_couplings(lam, r)[0]
    x = np.linspace(0, 1, 7)
    res = (r.t1**2 + d1 * r.t1 - lam**2) * np.exp(r.t1 * x)
    assert np.max(np.abs(res)) < 1e-10


def test_g_functions(params_generic):
    p = params_generic
    lam = -0.3 + 4.2j
    assert abs(g_functions(lam, lam, p)[0]) < 1e-13
    t = 1.1 - 2.0j
    g1, g2, g3 = g_functions(t, lam, p)
    # independent expression trees
    assert g1 == pytest.approx((lam**2 - t**2) / t, rel=1e-14)
    assert g2 == pytest.approx(p.k2 / lam + (p.k1 + t) / t, rel=1e-14)
    alt3 = ((lam / t) * (p.k3 * t + p.k4 * lam + lam**2) * (1 - (t / lam) ** 2)) / lam
    assert g3 == pytest.approx(alt3, rel=1e-13)
    with pytest.raises(ZeroDenominator):
        g_functions(0.0, lam, p)


def test_g_functions_conservative(params_conservative):
    p = params_conservative
    t, lam = 0.8 + 1.5j, -0.2 + 3.0j
    _, g2, g3 = g_functions(t, lam, p)
    assert g2 == pytest.approx((p.k1 + t) / t, rel=1e-14)
    assert g3 == pytest.approx((-(t**2) + lam**2) * (p.k3 * t + lam**2) / (lam**2 * t), rel=1e-14)


def test_boundary_matrix_structure(params_generic):
    p = params_generic
    lam = -0.5 + 7.7j
    m = boundary_matrix(lam, p)
    assert m.shape == (4, 4)
    assert np.all(m[0] == 1.0)
    r = branch_roots(lam, p.b)
    ts = [r.t1, r.t2, r.t3, r.t4]
    ds = mode_couplings(lam, r)
    for i in range(4):
        g1, g2, g3 = g_functions(ts[i], lam, p)
        assert m[1, i] == pytest.approx(ds[i], rel=1e-12)
        assert m[1, i] == pytest.approx(g1, rel=1e-11)
        assert m[2, i] == pytest.approx(np.exp(ts[i]) * g2, rel=1e-11)
        assert m[3, i] == pytest.approx(np.exp(ts[i]) * g3, rel=1e-11)


def test_boundary_matrix_conjugate_column_swap(params_generic):
    p = params_generic
    lam = -0.8 + 13.7j
    m = boundary_matrix(lam, p)
    mc = boundary_matrix(np.conj(lam), p)
    swapped = mc[:, [2, 3, 0, 1]]
    assert np.max(np.abs(swapped - np.conj(m))) <= 1e-11 * np.max(np.abs(m))


def test_char_fn_definitional_consistency(params_generic):
    p = params_generic
    lam = -0.6 + 9.1j
    det = np.linalg.det(boundary_matrix(lam, p))
    assert char_fn(lam, p) == pytest.approx(-det / (16 * p.b), rel=1e-13)


def test_char_fn_conjugate_symmetry(params_generic):
    p = params_generic
    rng = np.random.default_rng(23)
    lams = _strip_points(rng, 100)
    vals = char_fn(lams, p)
    conj_vals = char_fn(np.conj(lams), p)
    scale = np.abs(vals)
    assert np.max(np.abs(conj_vals - np.conj(vals)) / scale) < 1e-11


def test_char_fn_vectorized_matches_scalar(params_generic):
    p = params_generic
    lams = np.array([-0.1 + 3j, -2.0 + 40j, -0.5 + 0.2j])
    vec = char_fn(lams, p)
    for i, lam in enumerate(lams):
        assert vec[i] == pytest.approx(char_fn(complex(lam), p), rel=1e-14)


def test_determinant_matches_extended_precision(params_degenerate):
    # at the table roots of the degenerate set det M cancels to ~1e-16; the
    # reference is a 60-digit determinant of the very same double entries
    # (partial-pivoted LU errs by 5.2e-19 here, a Laplace expansion of the
    # 4x4 by row pairs by 2.8e-14)
    p = params_degenerate
    lam = np.array([rec.lam for rec in family_roots(p, TABLE_KS)])
    assert lam.shape == (2 * len(TABLE_KS),)
    dets = -16.0 * p.b * char_fn(lam, p)
    with mpmath.workdps(60):
        for m, det in zip(boundary_matrix(lam, p), dets):
            exact = mpmath.det(mpmath.matrix([[mpmath.mpc(x.real, x.imag) for x in row]
                                              for row in m]))
            assert abs(mpmath.mpc(det.real, det.imag) - exact) <= 2e-18


def test_lanes_match_single_point_calls(params_generic):
    # spectrum.polish relies on a lane's arithmetic not depending on the
    # other lanes; numpy's scalar and array loops can round apart, so every
    # lane of a mixed batch must equal the 0-d call bit for bit
    p = params_generic
    rng = np.random.default_rng(41)
    lams = np.concatenate([_strip_points(rng, 17), _strip_points(rng, 12, 60.0, 1000.0),
                           np.conj(_strip_points(rng, 5)), [0.7 + 3.1j, -1.3 + 0j, 2.0 - 40j]])
    batch = entire_char_fn_and_derivative(lams, p)
    values = char_fn(lams, p)
    assert np.array_equal(batch[2], values)
    for i, lam in enumerate(lams):
        assert tuple(v[i] for v in batch) == entire_char_fn_and_derivative(lam, p)
        assert values[i] == char_fn(lam, p)


def test_kernel_peak_memory(params_generic):
    # one contour call evaluates up to 1,024 points; the evaluation must not
    # hold M, its LAPACK copy or the stacked column pieces all at once
    p = params_generic
    lams = _strip_points(np.random.default_rng(43), 1024, im_hi=600.0)
    entire_char_fn_and_derivative(lams, p)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        entire_char_fn_and_derivative(lams, p)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 1.0e6


def entire_char_fn(lam, p):
    return entire_char_fn_and_derivative(lam, p)[0]


def test_entire_char_fn_continuous_across_ray(params_generic):
    # f flips sign across Im(lambda) = sqrt(b) on the left; F = f t1 t3 does not
    p = params_generic
    sb = np.sqrt(p.b)
    for x in (-0.5, -2.0):
        above = x + 1j * (sb + 1e-9)
        below = x + 1j * (sb - 1e-9)
        f_jump = abs(char_fn(above, p) - char_fn(below, p)) / abs(char_fn(above, p))
        fe_jump = abs(entire_char_fn(above, p) - entire_char_fn(below, p)) / abs(
            entire_char_fn(above, p)
        )
        assert f_jump > 0.5
        assert fe_jump < 1e-5


def _central_diff(lam, p, rel_step):
    step = rel_step * max(1.0, abs(lam))
    return (entire_char_fn(lam + step, p) - entire_char_fn(lam - step, p)) / (2 * step)


def test_derivative_conjugate_and_richardson(params_generic):
    p = params_generic
    lam = -0.9 + 11.3j
    _, d, _ = entire_char_fn_and_derivative(lam, p)
    _, dc, _ = entire_char_fn_and_derivative(np.conj(lam), p)
    assert dc == pytest.approx(np.conj(d), rel=1e-12)
    # two central differences a decade apart in step both agree
    assert d == pytest.approx(_central_diff(lam, p, 1e-6), rel=1e-7)
    assert d == pytest.approx(_central_diff(lam, p, 1e-7), rel=1e-6)
    with pytest.raises(NearBranchPoint):
        entire_char_fn_and_derivative(1j * np.sqrt(p.b) + 1e-9, p)
    with pytest.raises(NearBranchPoint):
        entire_char_fn_and_derivative(np.array([2.0j, 1e-9 + 0j]), p)


def test_derivative_finite_at_roots(params_generic, params_degenerate):
    # the Jacobi sum stays finite where det M vanishes; at k = 200 the
    # degenerate families sit Theta(1/k^2) apart
    for p, k in ((params_generic, 12), (params_degenerate, 200)):
        for j in (1, 2):
            lam = refine_root(predict_eigenvalue(k, j, p), p).lam
            fval, d, _ = entire_char_fn_and_derivative(lam, p)
            assert np.isfinite(d) and abs(d) > 0.0
            assert abs(fval) <= 1e-9 * abs(d)
            assert d == pytest.approx(_central_diff(lam, p, 1e-7), rel=1e-5)


def test_zero_free_box_has_zero_winding(params_generic):
    # right half plane: no eigenvalues, F analytic, winding must vanish
    p = params_generic
    corners = [0.5 + 0.5j, 1.5 + 0.5j, 1.5 + 10.5j, 0.5 + 10.5j]
    total = 0.0 + 0.0j
    for a, bb in zip(corners, corners[1:] + corners[:1]):
        zs = a + (bb - a) * np.linspace(0, 1, 201)
        fvals, dvals, _ = entire_char_fn_and_derivative(zs, p)
        assert np.allclose(dvals, [_central_diff(z, p, 1e-6) for z in zs],
                           rtol=1e-6, atol=0.0)
        total += np.trapezoid(dvals / fvals, zs)
    winding = total / (2j * np.pi)
    assert abs(winding) < 1e-3


def test_entire_derivative_matches_char_fn_derivative(params_generic):
    # product rule on F = f t1 t3: f' by central difference of char_fn, and
    # (t1 t3)' from (t1 t3)^2 = lambda^2 (lambda^2 + b)
    p = params_generic
    lam = -0.4 + 6.6j
    fval, d, f = entire_char_fn_and_derivative(lam, p)
    assert f == char_fn(lam, p)
    r = branch_roots(lam, p.b)
    assert fval == pytest.approx(f * r.t1 * r.t3, rel=1e-15)
    t1t3 = fval / f
    assert abs(t1t3) > 1.0
    step = 1e-7 * max(1.0, abs(lam))
    df = (char_fn(lam + step, p) - char_fn(lam - step, p)) / (2 * step)
    dt1t3 = (2 * lam**3 + p.b * lam) / t1t3
    assert d == pytest.approx(df * t1t3 + f * dt1t3, rel=1e-7)


_B_LATTICE = 4.0 * math.pi**2
_REGIME_SETS = {
    "generic": (2.0, 1.0, 2.0, 3.0, 2.0),
    "case1": (_B_LATTICE, 2.0, 1.0, 2.0, 5.0),
    "case2": (_B_LATTICE, 2.0, 1.0, 2.0, 1.0),
    "case3": (_B_LATTICE, 2.0, 0.0, 2.0, 0.0),
    "borderline": (_B_LATTICE * (1 + 1e-7), 2.0, 1.0, 2.0 * (1 + 1e-7), 5.0),
    "conservative": (2.0, 1.0, 0.0, 3.0, 0.0),
}


def test_regime_sets_cover_every_regime():
    infos = {name: regime_info(validate_params(1.0, *vals))
             for name, vals in _REGIME_SETS.items()}
    assert {name: info.regime for name, info in infos.items()} == {
        "generic": "generic", "case1": "case1", "case2": "case2",
        "case3": "case3", "borderline": "generic", "conservative": "generic"}
    assert infos["borderline"].borderline


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(name=st.sampled_from(sorted(_REGIME_SETS)),
       re=st.floats(-4.0, 1.0), im=st.floats(-400.0, 400.0))
def test_derivative_matches_central_difference_property(name, re, im):
    p = validate_params(1.0, *_REGIME_SETS[name])
    lam = complex(re, im)
    sb = math.sqrt(p.b)
    assume(min(abs(lam), abs(lam - 1j * sb), abs(lam + 1j * sb)) > 0.05)
    fval, d, _ = entire_char_fn_and_derivative(lam, p)
    scale = max(abs(d), abs(fval))
    # Richardson-extrapolated central difference as the reference
    coarse = _central_diff(lam, p, 2e-4 / max(1.0, abs(lam)) ** 0.5)
    fine = _central_diff(lam, p, 1e-4 / max(1.0, abs(lam)) ** 0.5)
    assert abs(d - (4 * fine - coarse) / 3) <= 1e-8 * scale
    _, dc, _ = entire_char_fn_and_derivative(lam.conjugate(), p)
    assert abs(dc - d.conjugate()) <= 1e-12 * scale
