import math

import numpy as np
import pytest

import tipbeam.spectrum
from tipbeam.asymptotics import predict_eigenvalue
from tipbeam.charfn import char_fn
from tipbeam.errors import BasinEscape, NoConvergence, RegimeMismatch
from tipbeam.model import validate_params
from tipbeam.spectrum import (
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
