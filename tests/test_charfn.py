import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tipbeam.charfn import _columns, _matrix, entire_char_fn_and_derivative
from tipbeam.errors import ZeroLambda
from tipbeam.model import regime_info, validate_params
from tipbeam.cli import TABLE_KS
from tipbeam.spectrum import family_roots

from reference import ZeroDenominator, branch_roots, g_functions, mode_couplings


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
    m = _matrix(np.asarray(lam), p)[0]
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
    m, mc = _matrix(np.array([lam, np.conj(lam)]), p)[0]
    swapped = mc[:, [2, 3, 0, 1]]
    assert np.max(np.abs(swapped - np.conj(m))) <= 1e-11 * np.max(np.abs(m))


def test_char_fn_definitional_consistency(params_generic):
    p = params_generic
    lam = -0.6 + 9.1j
    det = np.linalg.det(_matrix(np.asarray(lam), p)[0])
    f = entire_char_fn_and_derivative(lam, p)[2]
    assert f == pytest.approx(-det / (16 * p.b), rel=1e-13)


def test_char_fn_conjugate_symmetry(params_generic):
    p = params_generic
    rng = np.random.default_rng(23)
    lams = _strip_points(rng, 100)
    vals = entire_char_fn_and_derivative(lams, p)[2]
    conj_vals = entire_char_fn_and_derivative(np.conj(lams), p)[2]
    scale = np.abs(vals)
    assert np.max(np.abs(conj_vals - np.conj(vals)) / scale) < 1e-11


def test_char_fn_vectorized_matches_scalar(params_generic):
    p = params_generic
    lams = np.array([-0.1 + 3j, -2.0 + 40j, -0.5 + 0.2j])
    vec = entire_char_fn_and_derivative(lams, p)[2]
    for i, lam in enumerate(lams):
        one = entire_char_fn_and_derivative(complex(lam), p)[2]
        assert vec[i] == pytest.approx(one, rel=1e-14)


def test_determinant_matches_extended_precision(params_degenerate):
    # at the table roots of the degenerate set det M cancels to ~1e-16; the
    # reference is a 60-digit determinant of the very same double entries
    # (partial-pivoted LU errs by 5.2e-19 here, a Laplace expansion of the
    # 4x4 by row pairs by 2.8e-14)
    p = params_degenerate
    lam = np.array([rec.lam for rec in family_roots(p, TABLE_KS)])
    assert lam.shape == (2 * len(TABLE_KS),)
    dets = -16.0 * p.b * entire_char_fn_and_derivative(lam, p)[2]
    with mpmath.workdps(60):
        for m, det in zip(_matrix(lam, p)[0], dets):
            exact = mpmath.det(mpmath.matrix([[mpmath.mpc(x.real, x.imag) for x in row]
                                              for row in m]))
            assert abs(mpmath.mpc(det.real, det.imag) - exact) <= 2e-18


def test_lanes_match_single_point_calls(params_generic):
    # spectrum's Newton kernel relies on a lane's arithmetic not depending on the
    # other lanes; numpy's scalar and array loops can round apart, so every
    # lane of a mixed batch must equal the 0-d call bit for bit
    p = params_generic
    rng = np.random.default_rng(41)
    lams = np.concatenate([_strip_points(rng, 17), _strip_points(rng, 12, 60.0, 1000.0),
                           np.conj(_strip_points(rng, 5)), [0.7 + 3.1j, -1.3 + 0j, 2.0 - 40j]])
    batch = entire_char_fn_and_derivative(lams, p)
    for i, lam in enumerate(lams):
        assert tuple(v[i] for v in batch) == entire_char_fn_and_derivative(lam, p)


def test_lanes_do_not_depend_on_the_batch_size(params_generic):
    # from 256 KiB on, numpy reuses a temporary right operand for a product's
    # result and swaps the operands, which moves the last bit; a batch of
    # 16,384 lanes crosses that size for the (4, n) column pieces and for
    # the (n,) lanes, and must equal its 1,024-lane chunks bit for bit
    p = params_generic
    rng = np.random.default_rng(47)
    lams = np.concatenate([_strip_points(rng, 8192), _strip_points(rng, 8192, 60.0, 3000.0)])
    whole = entire_char_fn_and_derivative(lams, p)
    chunks = [entire_char_fn_and_derivative(lams[i:i + 1024], p) for i in range(0, lams.size, 1024)]
    for k in range(3):
        assert np.array_equal(whole[k], np.concatenate([c[k] for c in chunks]))


def _traced_peak(fn):
    """Peak traced bytes of one call of fn, above what was allocated before it."""
    fn()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_kernel_peak_memory(params_generic):
    # one contour call evaluates up to 1,024 points; the evaluation must not
    # hold M, its LAPACK copy or the stacked column pieces all at once, and
    # the column pieces are formed without (4, n) temporaries beside them;
    # the bound is the traced peak, 790,216 B, plus 5%
    p = params_generic
    lams = _strip_points(np.random.default_rng(43), 1024, im_hi=600.0)
    assert _traced_peak(lambda: entire_char_fn_and_derivative(lams, p)) < 8.29e5
    returned = sum(piece.nbytes for piece in _columns(lams, lams**2, p))
    assert _traced_peak(lambda: _columns(lams, lams**2, p)) < 1.4 * returned


def entire_char_fn(lam, p):
    return entire_char_fn_and_derivative(lam, p)[0]


def test_entire_char_fn_continuous_across_ray(params_generic):
    # f flips sign across Im(lambda) = sqrt(b) on the left; F = f t1 t3 does not
    p = params_generic
    sb = np.sqrt(p.b)
    for x in (-0.5, -2.0):
        above = x + 1j * (sb + 1e-9)
        below = x + 1j * (sb - 1e-9)
        f_above, f_below = (entire_char_fn_and_derivative(z, p)[2] for z in (above, below))
        f_jump = abs(f_above - f_below) / abs(f_above)
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
    with pytest.raises(ZeroLambda):
        entire_char_fn_and_derivative(np.array([2.0j, 0j]), p)
    # 1e-9 from the origin is evaluated, not refused
    assert np.isfinite(entire_char_fn_and_derivative(1e-9 + 0j, p)[0])


def _ring_reference(center, h, p, radius=0.1, n=64):
    """F and F' at center + h from a Taylor polynomial fitted on a ring of
    n samples at `radius`, with the coefficients summed term by term."""
    m = np.arange(n)
    ring = entire_char_fn(center + radius * np.exp(2j * np.pi * m / n), p)
    coef = np.array([np.mean(ring * np.exp(-2j * np.pi * j * m / n)) for j in range(n)])
    s = np.asarray(h) / radius
    return (np.polyval(coef[::-1], s),
            np.polyval((np.arange(1, n) * coef[1:])[::-1], s) / radius)


@pytest.mark.parametrize("q", [0.5, 8.5, 20.5])
@pytest.mark.parametrize("gains", [(0.0, 0.0), (2.0, 1.0)])
def test_branch_points_match_another_ring(q, gains):
    # F is analytic at +- i sqrt(b): within the switch radius (a tenth of the
    # ring radius 1e-2) F and F' agree with a ring of radius 0.1 and 64
    # samples within the bound the docstring states, 3e-13 of their largest
    # modulus on the disc; f = F/(t1 t3) is infinite at the point itself
    p = validate_params(1.0, (q * math.pi) ** 2, 1.0, gains[0], 3.0, gains[1])
    sb = math.sqrt(p.b)
    rng = np.random.default_rng(5)
    h = np.concatenate([[0.0, 9.99e-4, -9.99e-4j, 1e-12],
                        9.99e-4 * np.sqrt(rng.uniform(0, 1, 40))
                        * np.exp(2j * np.pi * rng.uniform(0, 1, 40))])
    for center in (1j * sb, -1j * sb):
        fval, d, f = entire_char_fn_and_derivative(center + h, p)
        ref_f, ref_d = _ring_reference(center, h, p)
        assert np.max(np.abs(fval - ref_f)) <= 3e-13 * np.max(np.abs(ref_f))
        assert np.max(np.abs(d - ref_d)) <= 3e-13 * np.max(np.abs(ref_d))
        assert np.isinf(f[0]) and np.isfinite(f[1:]).all()
        # a lane inside the disc is the one-point call bit for bit
        one = entire_char_fn_and_derivative(complex(center + h[5]), p)
        assert one == (complex(fval[5]), complex(d[5]), complex(f[5]))
    # just outside the switch radius the direct kernel agrees as well
    outside = 1j * sb + 1.001e-3 * np.exp(2j * np.pi * np.arange(8) / 8)
    fval, d, _ = entire_char_fn_and_derivative(outside, p)
    ref_f, ref_d = _ring_reference(1j * sb, outside - 1j * sb, p)
    assert np.max(np.abs(fval - ref_f)) <= 1e-11 * np.max(np.abs(ref_f))
    assert np.max(np.abs(d - ref_d)) <= 1e-10 * np.max(np.abs(ref_d))


def test_derivative_finite_at_roots(params_generic, params_degenerate):
    # the Jacobi sum stays finite where det M vanishes; at k = 200 the
    # degenerate families sit Theta(1/k^2) apart
    for p, k in ((params_generic, 12), (params_degenerate, 200)):
        for lam in [rec.lam for rec in family_roots(p, k)]:
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
    # product rule on F = f t1 t3: f' by central difference of f, and
    # (t1 t3)' from (t1 t3)^2 = lambda^2 (lambda^2 + b)
    p = params_generic
    lam = -0.4 + 6.6j
    fval, d, f = entire_char_fn_and_derivative(lam, p)
    r = branch_roots(lam, p.b)
    assert fval == pytest.approx(f * r.t1 * r.t3, rel=1e-15)
    t1t3 = fval / f
    assert abs(t1t3) > 1.0
    step = 1e-7 * max(1.0, abs(lam))
    f_plus, f_minus = (entire_char_fn_and_derivative(z, p)[2] for z in (lam + step, lam - step))
    df = (f_plus - f_minus) / (2 * step)
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
    # the borderline set is near the p = 1 lattice point and near equal gains,
    # but on neither
    b, k1, _, k3, _ = _REGIME_SETS["borderline"]
    lattice = abs(math.sqrt(b) / (2.0 * math.pi) - 1.0)
    gains = abs(k1 - k3) / max(k1, k3)
    assert 0.0 < lattice <= 1e-6 and 0.0 < gains <= 1e-6


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
