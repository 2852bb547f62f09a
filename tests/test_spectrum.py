import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_charfn import _REGIME_SETS

import tipbeam.spectrum
from tipbeam.asymptotics import predict_eigenvalue
from tipbeam.charfn import char_fn
from tipbeam.errors import BasinEscape, NegativeRadicand, NoConvergence, RegimeMismatch
from tipbeam.model import regime_info, validate_params
from tipbeam.spectrum import (
    K_MIN,
    EigenvalueRecord,
    RootSearchReport,
    count_roots_in_rect,
    family_roots,
    pair_at_frequency,
    refine_root,
    spectrum_in_strip,
    verify_no_imaginary_roots,
)


@pytest.fixture(scope="module")
def fig_spectrum(params_generic):
    return spectrum_in_strip(params_generic, 20)


@pytest.fixture(scope="module")
def cons_spectrum(params_conservative):
    return spectrum_in_strip(params_conservative, 12, variant="conservative")


def test_count_right_half_plane_empty(params_generic):
    assert count_roots_in_rect((0.3, 2.3, 1.0, 20.0), params_generic) == 0


def test_count_frequency_box_has_two(params_generic):
    k = 12
    rect = (-5.0, 0.2, (k - 0.5) * math.pi, (k + 0.5) * math.pi)
    assert count_roots_in_rect(rect, params_generic) == 2


def test_count_shifts_off_a_branch_point(params_generic):
    # a corner exactly on i sqrt(b), where F' is singular, moves the box;
    # the low-frequency root near -0.49 + 1.48i stays inside
    p = params_generic
    rect = (-1.0, 0.0, math.sqrt(p.b), 3.0)
    report = RootSearchReport()
    assert count_roots_in_rect(rect, p, report) == 1
    assert report.boxes[0][0] != rect


def test_count_splits_consistently(params_generic):
    # halving a two-root box separates the families
    k = 12
    p = params_generic
    lo, hi = (k - 0.5) * math.pi, (k + 0.5) * math.pi
    mid = k * math.pi + (0.2763 + 1.156) / (2 * k)   # between the family offsets
    top = count_roots_in_rect((-5.0, 0.2, mid, hi), p)
    bottom = count_roots_in_rect((-5.0, 0.2, lo, mid), p)
    assert top == 1 and bottom == 1


def test_count_does_not_alias_a_root_near_an_edge():
    # a conservative root at Im = 18.89614 sits 0.0017 below the shared edge;
    # a fixed-rule trapezoid sum of F'/F read 2.02 and -0.02 at 64 points per
    # edge, within 0.05 of the wrong integers
    p = validate_params(1.0, 2.038786616131473, 1.014145822087823, 0.0,
                        2.8841124150393984, 0.0)
    edge = 18.897837103895696
    assert count_roots_in_rect((-0.5, 0.5, 18.180701554930696, edge), p) == 1
    assert count_roots_in_rect((-0.5, 0.5, edge, 19.817250046407196), p) == 1


def test_count_resolves_close_roots_near_the_boundary(params_generic):
    # the generic sweep box has roots at Re ~ -0.003, 0.11 apart, next to its
    # right edge: phase increments alone, without the F'/F step bound, read
    # 17 or 15 here depending on the initial spacing
    rect = (-5.0, -1e-12, -0.3, 8.5 * math.pi)
    report = RootSearchReport()
    assert count_roots_in_rect(rect, params_generic, report) == 19
    assert report.stats["contour_points"] > 0 and report.shifted_boxes == 0


def test_refine_root_from_prediction(params_generic):
    p = params_generic
    k = 30
    rec = refine_root(predict_eigenvalue(k, 2, p), p)
    assert rec.residual <= 1e-10 * max(1.0, abs(rec.lam))
    assert abs(rec.lam.imag - k * math.pi) < 0.1
    assert rec.lam.real < 0
    assert rec.variant == "dissipative"


def test_refine_root_degenerate_table_value(params_degenerate):
    # k = 200, slower family: scaled real part matches the reference table
    p = params_degenerate
    rec = refine_root(predict_eigenvalue(200, 1, p, k_min=1), p)
    assert 200**2 * rec.lam.real == pytest.approx(-0.202667, abs=1e-4)


def test_refine_root_conservative_on_axis(params_conservative):
    p = params_conservative
    rec = refine_root(predict_eigenvalue(12, 1, p, variant="conservative"), p)
    assert abs(rec.lam.real) < 1e-10


def test_refine_root_tol_validation(params_generic):
    with pytest.raises(ValueError):
        refine_root(12j, params_generic, tol=1e-14)


def test_adversarial_midpoint_seed(params_generic):
    # seeding between the two family roots must never produce a silent fake
    p = params_generic
    k = 12
    r1 = refine_root(predict_eigenvalue(k, 1, p), p)
    r2 = refine_root(predict_eigenvalue(k, 2, p), p)
    seed = 0.5 * (r1.lam + r2.lam)
    try:
        rec = refine_root(seed, p)
    except (NoConvergence, BasinEscape):
        return
    assert min(abs(rec.lam - r1.lam), abs(rec.lam - r2.lam)) < 1e-6


def test_pair_at_frequency(params_generic):
    recs, complete = pair_at_frequency(params_generic, 50)
    assert complete and len(recs) == 2
    assert {r.family for r in recs} == {1, 2}
    for r in recs:
        pred = predict_eigenvalue(50, r.family, params_generic)
        assert abs(r.lam - pred) < 1e-3


def test_family_roots_in_family_order(params_generic):
    p = params_generic
    recs = family_roots(p, 30)
    assert [(r.k_index, r.family) for r in recs] == [(30, 1), (30, 2)]
    for r in recs:
        direct = refine_root(predict_eigenvalue(30, r.family, p), p)
        assert r.lam == direct.lam and r.iterations == direct.iterations


@pytest.fixture
def family_two_seeded_off(monkeypatch):
    # family 2 seeded at the root-free midpoint between frequency clusters
    real_predict = tipbeam.spectrum.predict_eigenvalue

    def predict(k, j, p, **kwargs):
        if j == 2:
            return (k + 0.5) * math.pi * 1j - 0.1
        return real_predict(k, j, p, **kwargs)

    monkeypatch.setattr(tipbeam.spectrum, "predict_eigenvalue", predict)


def test_family_roots_failure_names_k_and_j(params_generic, family_two_seeded_off):
    with pytest.raises(BasinEscape, match=r"family 2 at k = 12") as info:
        family_roots(params_generic, 12)
    assert [r.family for r in info.value.records] == [1]


def test_pair_at_frequency_keeps_surviving_family(params_generic,
                                                  family_two_seeded_off):
    report = RootSearchReport()
    recs, complete = pair_at_frequency(params_generic, 12, report=report)
    assert not complete
    assert [r.family for r in recs] == [1]
    assert report.incomplete_boxes[0][1:] == (2, 1)


def test_spectrum_validation_errors(params_generic, params_conservative):
    with pytest.raises(ValueError):
        spectrum_in_strip(params_generic, 5)
    with pytest.raises(RegimeMismatch):
        spectrum_in_strip(params_generic, 15, variant="conservative")
    with pytest.raises(RegimeMismatch):
        spectrum_in_strip(params_conservative, 15, variant="dissipative")


def test_spectrum_strip_containment(params_generic, fig_spectrum):
    recs, _ = fig_spectrum
    p = params_generic
    assert len(recs) > 0
    for r in recs:
        assert r.lam.real < 0.0
        assert r.lam.real >= -(p.k2 + p.k4) - 1e-8
        assert r.residual <= 1e-10 * max(1.0, abs(r.lam))


def test_spectrum_conjugate_closure(fig_spectrum):
    recs, _ = fig_spectrum
    for r in recs:
        twin = r.lam.conjugate()
        assert any(abs(s.lam - twin) <= 1e-8 * max(1.0, abs(twin)) for s in recs)


def test_spectrum_completeness_report(fig_spectrum):
    recs, report = fig_spectrum
    assert report.incomplete_boxes == []
    assert report.k0_effective == 8
    assert report.newton_iterations


def test_spectrum_families_present(fig_spectrum):
    recs, _ = fig_spectrum
    for k in range(8, 21):
        pair = [r for r in recs if r.k_index == k]
        assert len(pair) == 2
        assert {r.family for r in pair} == {1, 2}


def test_spectrum_low_frequency_members(fig_spectrum):
    recs, _ = fig_spectrum
    # two purely real overdamped eigenvalues, cross-validated by the outer
    # box count and their residuals
    real_roots = sorted(r.lam.real for r in recs if abs(r.lam.imag) < 1e-10)
    assert len(real_roots) == 2
    assert real_roots[0] == pytest.approx(-1.1164302697801272, abs=1e-6)
    assert real_roots[1] == pytest.approx(-0.37856, abs=1e-3)
    low_pair = [r for r in recs if 1.0 < r.lam.imag < 2.0]
    assert len(low_pair) == 1
    assert low_pair[0].lam == pytest.approx(-0.4871 + 1.4759j, abs=1e-3)


def test_spectrum_sorted_by_height(fig_spectrum):
    recs, _ = fig_spectrum
    ims = [r.lam.imag for r in recs]
    assert ims == sorted(ims)


def test_spectrum_prediction_convergence(params_generic, fig_spectrum):
    recs, _ = fig_spectrum
    p = params_generic
    errs = {}
    for k in (10, 20):
        for r in recs:
            if r.k_index == k:
                errs[(k, r.family)] = k**2 * abs(r.lam - predict_eigenvalue(k, r.family, p))
    for j in (1, 2):
        assert errs[(20, j)] < errs[(10, j)]
        assert errs[(10, j)] < 0.5


def test_spectrum_conservative_axis(cons_spectrum):
    recs, report = cons_spectrum
    assert report.incomplete_boxes == []
    assert len(recs) > 0
    for r in recs:
        assert abs(r.lam.real) <= 1e-9 * max(1.0, abs(r.lam))
        assert abs(r.lam) > 1e-6   # origin is in the resolvent set
        assert r.variant == "conservative"


def test_verify_no_imaginary_roots(params_generic, params_conservative,
                                   fig_spectrum, cons_spectrum):
    recs, _ = fig_spectrum
    assert verify_no_imaginary_roots(params_generic, 30.0, records=recs)
    crecs, _ = cons_spectrum
    assert not verify_no_imaginary_roots(params_conservative, 25.0, records=crecs)


def test_real_roots_sort_by_real_part(fig_spectrum):
    # Im = +-1e-16 is rounding noise of Newton on the real axis; its sign
    # must not decide the order of the two real roots in spectrum.csv
    rec = lambda lam, fam: EigenvalueRecord(lam, None, fam, 0.0, 1, "dissipative")
    recs = [rec(complex(-0.3786, 1e-16), 1), rec(complex(-1.1164, -1e-16), 2),
            rec(complex(-0.5, 3.0), 1), rec(complex(-0.5, -3.0), 1)]
    recs.sort(key=tipbeam.spectrum._record_order)
    assert [r.lam for r in recs] == [complex(-0.5, -3.0), complex(-1.1164, -1e-16),
                                     complex(-0.3786, 1e-16), complex(-0.5, 3.0)]
    assert recs[1].lam.imag == -1e-16        # stored values are left as they are
    records, _ = fig_spectrum
    real = [r.lam.real for r in records if abs(r.lam.imag) <= 1e-12]
    assert len(real) >= 2 and real == sorted(real)


# b, k1, k3 of five jittered copies of the conservative set (k2 = k4 = 0)
# on which the conservative strip was once left incomplete: the sweep box
# counted 18 windings and recovered 17 roots
_JITTERED_CONSERVATIVE = [
    (2.0250190933209335, 1.0397213800969576, 2.9175621569971772),
    (2.013383367775873, 0.9930744145490186, 2.9544238651307984),
    (1.9840757591458522, 1.0425869344816705, 2.868014581236758),
    (2.038786616131473, 1.014145822087823, 2.8841124150393984),
    (1.9886501907751102, 1.0099639506949123, 2.9151875029627625),
]


@pytest.mark.parametrize("b, k1, k3", _JITTERED_CONSERVATIVE)
def test_jittered_conservative_strip_complete(b, k1, k3):
    p = validate_params(1.0, b, k1, 0.0, k3, 0.0)
    recs, report = spectrum_in_strip(p, 50, variant="conservative")
    assert report.incomplete_boxes == []
    assert report.k0_effective == K_MIN
    assert len(recs) == 204
    assert all(abs(r.lam.real) <= 1e-9 * max(1.0, abs(r.lam)) for r in recs)


def test_conservative_boxes_avoid_root_locus(cons_spectrum):
    # every conservative root lies on Re = 0; no vertical edge may sit there
    _, report = cons_spectrum
    for (re_lo, re_hi, _, _), _ in report.boxes:
        width = re_hi - re_lo
        assert min(abs(re_lo), abs(re_hi)) >= 0.01 * width
    assert report.stats["shifted_boxes"] == 0
    assert report.stats["boxes"] == len(report.boxes)


def test_spectrum_stats_count_the_search(fig_spectrum):
    _, report = fig_spectrum
    stats = report.stats
    assert stats["boxes"] == len(report.boxes)
    assert stats["newton_iterations"] == sum(it for _, it in report.newton_iterations)
    assert stats["newton_calls"] >= len(report.newton_iterations)
    assert stats["contour_points"] >= 64 * stats["boxes"]


@settings(max_examples=16, deadline=None, derandomize=True, database=None)
@given(name=st.sampled_from(sorted(_REGIME_SETS)),
       gains=st.floats(0.25, 1.25), damping=st.floats(0.25, 1.25))
# both families once polished onto one root at k = 8..12 and the box was
# taken for a double root, though its roots lie 0.005 apart
@example(name="case1", gains=0.25, damping=0.8)
# colliding families with a real third-order expansion (k1 = 0.5)
@example(name="case2", gains=0.25, damping=1.0)
@example(name="case3", gains=0.25, damping=1.0)
def test_spectrum_properties_across_regimes(name, gains, damping):
    # k1, k3 and k2, k4 scale in pairs, which keeps each set in its regime
    b, k1, k2, k3, k4 = _REGIME_SETS[name]
    p = validate_params(1.0, b, gains * k1, damping * k2, gains * k3, damping * k4)
    variant = "conservative" if p.is_conservative else "dissipative"
    k_max = 12
    try:
        recs, report = spectrum_in_strip(p, k_max, variant=variant)
    except NegativeRadicand:
        # the documented refusal of the third-order degenerate expansion
        assert regime_info(p).regime in ("case2", "case3")
        return
    assert report.incomplete_boxes == []
    for k in range(K_MIN, k_max + 1):
        for center in (k * math.pi, -k * math.pi):
            near = [r for r in recs if abs(r.lam.imag - center) <= math.pi / 2]
            assert sum(r.multiplicity for r in near) == 2, (k, center)
    for r in recs:
        twin = r.lam.conjugate()
        assert any(abs(s.lam - twin) <= 1e-8 * max(1.0, abs(twin)) for s in recs)
        assert r.lam.real >= -(p.k2 + p.k4) - 1e-8 * max(1.0, abs(r.lam))
    if variant == "dissipative":
        assert verify_no_imaginary_roots(p, k_max * math.pi, records=recs)
