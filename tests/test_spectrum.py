import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_charfn import _REGIME_SETS

import tipbeam.spectrum
from tipbeam.asymptotics import predict_eigenvalue
from tipbeam.errors import (
    BasinEscape,
    BoundaryTooCloseToRoot,
    NearBranchPoint,
    NegativeRadicand,
    NoConvergence,
    NonConvergentContour,
)
from tipbeam.model import regime_info, validate_params
from tipbeam.spectrum import (
    K_MIN,
    EigenvalueRecord,
    RootSearchReport,
    count_roots_in_rect,
    family_roots,
    frequency_pairs,
    polish,
    refine_root,
    spectrum_in_strip,
)


@pytest.fixture(scope="module")
def fig_spectrum(params_generic):
    return spectrum_in_strip(params_generic, 20)


@pytest.fixture(scope="module")
def cons_spectrum(params_conservative):
    return spectrum_in_strip(params_conservative, 12)


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
    # a low-frequency box of the generic set up to 8.5 pi holds the k = 8
    # roots at Re ~ -0.003, 0.11 apart, next to its right edge: phase
    # increments alone, without the F'/F step bound, read 17 or 15 here
    # depending on the initial spacing
    rect = (-5.0, -1e-12, -0.3, 8.5 * math.pi)
    report = RootSearchReport()
    assert count_roots_in_rect(rect, params_generic, report) == 19
    assert report.stats["contour_points"] > 0 and report.shifted_boxes == 0


def _batch(rects, target):
    """Counter outcomes of rects counted in one batch on target, and its evaluation calls."""
    report = RootSearchReport()
    counter = tipbeam.spectrum._Counter(target, report)
    return counter.outcomes_of(counter.submit(rects)), report.contour_rounds


def test_batched_counts_match_one_box_counts(params_generic):
    # the branch-point corner, a zero box, a frequency box and the near-edge
    # box of the test above, on the generic set; the near-edge conservative
    # pair with a zero box and a frequency box: each count, rect used and
    # sample total equals the box's one-box count, and only the branch-point
    # box shifts
    cons = validate_params(1.0, 2.038786616131473, 1.014145822087823, 0.0,
                           2.8841124150393984, 0.0)
    edge = 18.897837103895696
    branch = (-1.0, 0.0, math.sqrt(params_generic.b), 3.0)
    cases = [
        (params_generic, [branch, (0.3, 2.3, 1.0, 20.0), (-5.0, 0.2, 11.5 * math.pi,
                                                           12.5 * math.pi),
                          (-5.0, -1e-12, -0.3, 8.5 * math.pi)]),
        (cons, [(-0.5, 0.5, 18.180701554930696, edge), (-0.5, 0.5, edge, 19.817250046407196),
                (0.3, 2.3, 1.0, 20.0), (-0.5, 0.5, 29.5 * math.pi, 30.5 * math.pi)]),
    ]
    for p, rects in cases:
        batch, rounds = _batch(rects, tipbeam.spectrum._beam(p))
        alone, alone_rounds = [], []
        for rect in rects:
            report = RootSearchReport()
            count = count_roots_in_rect(rect, p, report)
            ((used, winding),) = report.boxes
            assert winding == count
            alone.append((count, used, report.contour_points, report.shifted_boxes == 1))
            alone_rounds.append(report.contour_rounds)
        assert batch == alone
        assert [shifted for *_, shifted in batch] == [rect == branch for rect in rects]
        # the boxes refine side by side: the batch takes the calls of its slowest box
        assert rounds == max(alone_rounds) < sum(alone_rounds)
    assert [count for count, *_ in batch] == [1, 1, 0, 2]


def test_batch_errors_name_the_rect(params_generic):
    p = params_generic
    beam = tipbeam.spectrum._beam(p)
    branch = (-1.0, 0.0, math.sqrt(p.b), 3.0)
    frequency = (-5.0, 0.2, 11.5 * math.pi, 12.5 * math.pi)
    zero = (0.3, 2.3, 1.0, 20.0)
    # a disc of radius 0.05 excluded around the branch point i sqrt(b): every
    # shift of the box with that corner still has a sample in it, so that box
    # cannot be counted; the others can
    fenced = beam._replace(excluded=lambda z: np.abs(z - 1j * math.sqrt(p.b)) < 0.05)
    outcomes, _ = _batch([zero, branch, frequency], fenced)
    assert [o[0] for o in outcomes[::2]] == [0, 2]
    assert isinstance(outcomes[1], BoundaryTooCloseToRoot)
    with pytest.raises(BoundaryTooCloseToRoot, match=re.escape(f"boundary of {branch}")):
        tipbeam.spectrum._logged(outcomes, RootSearchReport())

    # F conjugated on the frequency box only: it winds -2 and is refused by name
    def mirrored(lam):
        f, d, fval = beam.evaluate(lam)
        on_box = (lam.imag > 11.4 * math.pi) & (lam.imag < 12.6 * math.pi)
        return np.where(on_box, f.conj(), f), np.where(on_box, d.conj(), d), fval

    outcomes, _ = _batch([zero, frequency], beam._replace(evaluate=mirrored))
    assert outcomes[0][0] == 0
    assert isinstance(outcomes[1], NonConvergentContour)
    assert str(outcomes[1]).startswith(f"phase increments around {frequency} sum to -2")
    with pytest.raises(NonConvergentContour, match=re.escape(str(frequency))):
        tipbeam.spectrum._logged(outcomes, RootSearchReport())


@pytest.mark.parametrize("rect", [
    (math.nan, 0.2, 1.0, 2.0),
    (-5.0, math.inf, 1.0, 2.0),
    (-5.0, 0.2, 12 * math.pi, 12 * math.pi),     # zero height
    (0.2, 0.2, 1.0, 2.0),                        # zero width
    (0.2, -5.0, 1.0, 2.0),                       # inverted
    (-5.0, 0.2, 2.0, 1.0),
])
def test_count_refuses_a_degenerate_rect(params_generic, rect):
    with pytest.raises(ValueError, match=re.escape(f"rect {rect} ")):
        count_roots_in_rect(rect, params_generic)


def _known_zeros(roots):
    """Target of F(z) = prod (z - r)^m over (r, m) in roots, with exact F' and f = F."""
    def evaluate(z):
        factors = [(z - r) ** m for r, m in roots]
        f = np.prod(factors, axis=0)
        d = sum(m * (z - r) ** (m - 1) * np.prod(factors[:i] + factors[i + 1:], axis=0)
                for i, (r, m) in enumerate(roots))
        return f, d, f

    return tipbeam.spectrum._Target(evaluate, lambda z: np.zeros(z.shape, dtype=bool))


_UNIT = (-1.0, 1.0, -1.0, 1.0)


@pytest.mark.parametrize("roots, rects", [
    # a pair 1e-6 apart, 0.005 inside an edge between two initial samples,
    # and one inside beside a simple root
    ([(0.995 + 0.0625j, 1), (0.995 + 0.0625j + 1e-6j, 1)], [_UNIT, (0.0, 0.5, 0.0, 0.5)]),
    ([(0.3 + 0.2j, 1), (0.3 + 0.2j + 1e-6j, 1), (-0.6 - 0.4j, 1)],
     [_UNIT, (-1.0, 0.0, -1.0, 0.0)]),
    # a triple root 0.01 inside an edge, and a simple one
    ([(0.06 - 0.99j, 3), (0.3, 1)], [_UNIT, (-0.5, 0.5, -0.5, 0.5)]),
    # roots 1e-9 inside and outside the midpoints of the unit box's edges
    ([(1.0 - 1e-9, 1), (0.2j - 0.3, 1)], [_UNIT]),
    ([(1j * (1.0 + 1e-9), 1), (-0.4 + 0.1j, 1)], [_UNIT]),
    ([(-1.0 + 1e-9, 1), (-1j * (1.0 - 1e-9), 1), (0.5, 1)], [_UNIT]),
])
def test_counter_and_newton_on_known_zeros(roots, rects):
    # the count equals the known zeros inside the rect the counter used, or
    # the box is refused by name; a wrong integer is never allowed.  Phase
    # increments alone, without the F'-bounded turn, read 1 for the edge pair
    # and 3 for the triple root with its neighbour
    target = _known_zeros(roots)
    outcomes, _ = _batch(rects, target)
    for rect, outcome in zip(rects, outcomes):
        if isinstance(outcome, Exception):
            assert isinstance(outcome, (BoundaryTooCloseToRoot, NonConvergentContour))
            assert str(rect) in str(outcome)
            continue
        count, used, _, _ = outcome
        assert count == sum(m for r, m in roots if tipbeam.spectrum._inside(r, used))
    # Newton from 0.01 off each simple root, away from its nearest neighbour,
    # lands on that root
    simple = [r for r, m in roots if m == 1]
    seeds = []
    for r in simple:
        away = r - min((s for s, _ in roots if s != r), key=lambda s: abs(s - r))
        seeds.append(r + 0.01 * away / abs(away))
    polished = tipbeam.spectrum._newton(np.array(seeds), target, 1e-13, RootSearchReport())
    for r, rec in zip(simple, polished):
        assert isinstance(rec, EigenvalueRecord)
        assert abs(rec.lam - r) <= 1e-12


@pytest.mark.parametrize("rect", [(math.nan, 1.0, -1.0, 1.0), (-1.0, math.inf, -1.0, 1.0), _UNIT])
def test_counter_refuses_non_finite_samples(rect):
    # a NaN or infinite corner, or F NaN on part of the boundary: the winding
    # is not a number, and the error names the rect
    known = _known_zeros([(0.1j, 1)])

    def holed(z):
        f, d, fval = known.evaluate(z)
        return np.where(z.real > 0.9, np.nan, f), d, fval

    with np.errstate(invalid="ignore"):
        ((outcome,), _) = _batch([rect], known._replace(evaluate=holed))
    assert isinstance(outcome, (NonConvergentContour, BoundaryTooCloseToRoot))
    assert str(rect) in str(outcome)


def test_refine_root_from_prediction(params_generic):
    p = params_generic
    k = 30
    rec = refine_root(predict_eigenvalue(k, 2, p), p)
    assert rec.residual <= 1e-10 * max(1.0, abs(rec.lam))
    assert abs(rec.lam.imag - k * math.pi) < 0.1
    assert rec.lam.real < 0


def test_refine_root_degenerate_table_value(params_degenerate):
    # k = 200, slower family: scaled real part matches the reference table
    p = params_degenerate
    rec = refine_root(predict_eigenvalue(200, 1, p), p)
    assert 200**2 * rec.lam.real == pytest.approx(-0.202667, abs=1e-4)


def test_refine_root_conservative_on_axis(params_conservative):
    p = params_conservative
    rec = refine_root(predict_eigenvalue(12, 1, p), p)
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
    recs, complete = frequency_pairs(params_generic, [50])[0]
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


def _alone(seed, p):
    """refine_root on one seed: its record, or the error it raised."""
    try:
        return refine_root(seed, p)
    except (NoConvergence, BasinEscape, NearBranchPoint) as exc:
        return exc


def _scalar_newton(seed, p, tol=1e-13):
    """The one-seed Newton loop polish replaced, on 0-d evaluations.

    Returns (lam, iterations) or the error type.  Its arithmetic differs
    from a batch lane's in the last bits (0-d NumPy and Python complex
    division), so lambdas are compared within a tolerance.
    """
    lam = seed = complex(seed)
    step, iterations, best = math.inf, 0, None
    while True:
        try:
            surrogate, slope, fval = tipbeam.spectrum.entire_char_fn_and_derivative(lam, p)
        except NearBranchPoint:
            return NearBranchPoint
        residual, scale = abs(fval), max(1.0, abs(lam))
        if best is not None:
            if residual >= best[1]:
                return best[0], best[2]
            best = (lam, residual, best[2])
            if iterations == best[2] + 3:
                return best[0], best[2]
        elif step <= 1e-12 * scale and residual <= tol * scale:
            best = (lam, residual, iterations)
        elif iterations == 50:
            return NoConvergence
        if slope == 0:
            return (best[0], best[2]) if best is not None else NoConvergence
        delta = surrogate / slope
        if abs(lam - delta - seed) > 0.5:
            return (best[0], best[2]) if best is not None else BasinEscape
        lam, step, iterations = lam - delta, abs(delta), iterations + 1


@settings(max_examples=24, deadline=None, derandomize=True, database=None)
@given(name=st.sampled_from(sorted(_REGIME_SETS)),
       gains=st.floats(0.25, 1.25), damping=st.floats(0.25, 1.25),
       lanes=st.lists(st.tuples(st.integers(K_MIN, 400), st.sampled_from((1, 2)),
                                st.sampled_from((0.0, 0.05j, -0.02 + 0.3j, 0.6j,
                                                 0.5 * math.pi * 1j))),
                      min_size=1, max_size=8))
def test_polish_lanes_match_single_seeds(name, gains, damping, lanes):
    # seeds from several k, some pushed off their root or out of its basin:
    # each lane of the batch ends exactly as refine_root does on its seed alone
    b, k1, k2, k3, k4 = _REGIME_SETS[name]
    p = validate_params(1.0, b, gains * k1, damping * k2, gains * k3, damping * k4)
    try:
        seeds = [predict_eigenvalue(k, j, p) + shift for k, j, shift in lanes]
    except NegativeRadicand:
        assert regime_info(p).regime in ("case2", "case3")
        return
    report = RootSearchReport()
    batch = polish(np.array(seeds), p, report=report)
    assert report.newton_calls == len(seeds) and report.newton_rounds <= 54
    for seed, got in zip(seeds, batch):
        want = _alone(seed, p)
        assert type(got) is type(want)
        if isinstance(want, EigenvalueRecord):
            assert got.lam == want.lam and got.iterations == want.iterations
            assert got.residual == want.residual
        else:
            assert str(got) == str(want)
        # the scalar loop: same outcome and step count, lambda to 64 ulp
        ref = _scalar_newton(seed, p)
        if isinstance(got, EigenvalueRecord):
            assert got.iterations == ref[1]
            assert abs(got.lam - ref[0]) <= 64 * np.finfo(float).eps * max(1.0, abs(ref[0]))
        else:
            assert type(got) is ref


def test_polish_fails_only_the_affected_lanes(params_generic):
    p = params_generic
    seeds = [predict_eigenvalue(12, 1, p), (12 + 0.5) * math.pi * 1j - 0.1,
             1j * math.sqrt(p.b) + 1e-9, predict_eigenvalue(30, 2, p)]
    out = polish(np.array(seeds), p)
    assert [type(o) for o in out] == [EigenvalueRecord, BasinEscape, NearBranchPoint,
                                      EigenvalueRecord]
    assert "left the basin of seed" in str(out[1])
    assert str(out[2]).endswith("within 1e-6 of a branch point")
    for seed, rec in zip(seeds[::3], out[::3]):
        assert rec.lam == refine_root(seed, p).lam
        assert rec.residual <= 1e-13 * abs(rec.lam)
    with pytest.raises(NearBranchPoint, match="branch point"):
        refine_root(seeds[2], p)


def test_polish_makes_one_evaluation_per_round(params_generic, monkeypatch):
    p = params_generic
    real = tipbeam.spectrum.entire_char_fn_and_derivative
    sizes = []

    def counted(lam, params):
        sizes.append(np.size(lam))
        return real(lam, params)

    monkeypatch.setattr(tipbeam.spectrum, "entire_char_fn_and_derivative", counted)
    seeds = [predict_eigenvalue(k, j, p) for k in range(K_MIN, 108) for j in (1, 2)]
    alone = []
    for seed in seeds[:6]:
        sizes.clear()
        polish(np.array([seed]), p)
        alone.append(len(sizes))
    rounds = []
    for batch in (seeds[:6], seeds):
        sizes.clear()
        report = RootSearchReport()
        polish(np.array(batch), p, report=report)
        # one call per round on the lanes still running, never one per seed
        assert len(sizes) == report.newton_rounds <= 54
        assert sizes[0] == len(batch) and sizes == sorted(sizes, reverse=True)
        rounds.append(len(sizes))
    assert report.newton_calls == 200
    assert rounds[0] == max(alone)     # a batch takes the rounds of its slowest seed


@pytest.fixture
def family_two_seeded_off(monkeypatch):
    # family 2 seeded at the root-free midpoint between frequency clusters
    real_predict = tipbeam.spectrum.predict_eigenvalue

    def predict(k, j, p):
        if j == 2:
            return (k + 0.5) * math.pi * 1j - 0.1
        return real_predict(k, j, p)

    monkeypatch.setattr(tipbeam.spectrum, "predict_eigenvalue", predict)


def test_family_roots_failure_names_k_and_j(params_generic, family_two_seeded_off):
    with pytest.raises(BasinEscape, match=r"family 2 at k = 12"):
        family_roots(params_generic, 12)


def test_pair_at_frequency_keeps_surviving_family(params_generic,
                                                  family_two_seeded_off):
    report = RootSearchReport()
    recs, complete = frequency_pairs(params_generic, [12], report=report)[0]
    assert not complete
    assert [r.family for r in recs] == [1]
    assert report.incomplete_boxes[0][1:] == (2, 1)


def test_spectrum_validation_errors(params_generic):
    with pytest.raises(ValueError):
        spectrum_in_strip(params_generic, 5)


def test_spectrum_strip_containment(params_generic, fig_spectrum):
    recs, _ = fig_spectrum
    p = params_generic
    assert len(recs) > 0
    for r in recs:
        assert r.lam.real < 0.0
        assert r.lam.real >= -max(p.k2, p.k4)      # the dissipation identity
        assert r.residual <= 1e-10 * max(1.0, abs(r.lam))


def test_spectrum_conjugate_closure(fig_spectrum):
    recs, _ = fig_spectrum
    for r in recs:
        twin = r.lam.conjugate()
        assert any(abs(s.lam - twin) <= 1e-8 * max(1.0, abs(twin)) for s in recs)


def assert_tiled(records, report):
    """The sweep box, logged first, ends where frequency box K_MIN begins, and
    no two records lie within 1e-8 max(1, |lambda|) of each other."""
    sweep = report.boxes[0][0]
    box = next(rect for rect, _ in report.boxes if rect[2] < K_MIN * math.pi < rect[3])
    assert sweep[3] == box[2] == (K_MIN - 0.5) * math.pi
    lam = np.array([r.lam for r in records])
    gap = np.abs(lam[:, None] - lam[None, :]) + np.diag(np.full(lam.size, np.inf))
    assert (gap > 1e-8 * np.maximum(1.0, np.abs(lam))).all()


def test_spectrum_completeness_report(fig_spectrum):
    recs, report = fig_spectrum
    assert report.incomplete_boxes == []
    assert_tiled(recs, report)
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
    assert_tiled(recs, report)
    assert len(recs) > 0
    for r in recs:
        assert abs(r.lam.real) <= 1e-9 * max(1.0, abs(r.lam))
        assert abs(r.lam) > 1e-6   # origin is in the resolvent set


def test_verify_no_imaginary_roots(params_generic, params_conservative,
                                   fig_spectrum, cons_spectrum):
    # the union of the generic strip reaches Re = +0.2: its certified count
    # equals the roots recovered in it, and every root lies left of the axis
    recs, report = fig_spectrum
    p = params_generic
    union = (-max(p.k2, p.k4) - 1.0, 0.2, -0.3, 20.5 * math.pi)
    assert report.global_count == sum(r.multiplicity for r in recs
                                      if tipbeam.spectrum._inside(r.lam, union))
    assert all(r.lam.real < -1e-12 * max(1.0, abs(r.lam)) for r in recs)
    # a box of the same kind sees the conservative roots on the axis
    crecs, _ = cons_spectrum
    on_axis = sum(r.multiplicity for r in crecs if 0.01 <= r.lam.imag <= 25.0)
    assert on_axis > 0
    assert count_roots_in_rect((-0.5, 0.2, 0.01, 25.0), params_conservative) == on_axis


def test_real_roots_sort_by_real_part(fig_spectrum):
    # Im = +-1e-16 is rounding noise of Newton on the real axis; its sign
    # must not decide the order of the two real roots in spectrum.csv
    rec = lambda lam, fam: EigenvalueRecord(lam, None, fam, 0.0, 1)
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
    recs, report = spectrum_in_strip(p, 50)
    assert report.incomplete_boxes == []
    assert_tiled(recs, report)
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


def test_generic_strip_batches_its_evaluations(params_generic):
    # k <= 200: the strip's 428 boxes share their evaluation calls, and the
    # sweep's leaves share their polishes
    recs, report = spectrum_in_strip(params_generic, 200)
    stats = report.stats
    assert report.incomplete_boxes == []
    assert_tiled(recs, report)
    assert stats["contour_rounds"] <= 120
    assert stats["newton_rounds"] <= 45
    assert stats["global_count"] == 403 == sum(r.multiplicity for r in recs
                                               if r.lam.imag > -0.3)


def test_global_count_mismatch_is_reported(params_generic, monkeypatch):
    p = params_generic
    union = (-3.0, 0.2, -0.3, 12.5 * math.pi)
    # a sweep root lost before the conjugate closure: the union counts 27
    real_label = tipbeam.spectrum._label_low_frequency

    def drop_one(records, params):
        records.remove(next(r for r in records if 1.0 < r.lam.imag < 2.0))
        real_label(records, params)

    monkeypatch.setattr(tipbeam.spectrum, "_label_low_frequency", drop_one)
    _, report = spectrum_in_strip(p, 12)
    assert report.global_count == 27
    assert (union, 27, 26) in report.incomplete_boxes

    # the same root recorded twice, as overlapping boxes would: the union
    # recovers 28
    def record_twice(records, params):
        records.append(replace(next(r for r in records if 1.0 < r.lam.imag < 2.0)))
        real_label(records, params)

    monkeypatch.setattr(tipbeam.spectrum, "_label_low_frequency", record_twice)
    _, report = spectrum_in_strip(p, 12)
    assert report.global_count == 27
    assert (union, 27, 28) in report.incomplete_boxes
    monkeypatch.undo()
    # |F| collapsed on the union's right edge below the frequency boxes, in
    # every shift: the union cannot be counted, the search still returns
    real = tipbeam.spectrum.entire_char_fn_and_derivative

    def dip(lam, params):
        f, d, fval = real(lam, params)
        off = (lam.real > 0.1) & (lam.imag < 7.4 * math.pi)
        return np.where(off, 1e-30 * f, f), d, fval

    monkeypatch.setattr(tipbeam.spectrum, "entire_char_fn_and_derivative", dip)
    recs, report = spectrum_in_strip(p, 12)
    assert report.global_count is None
    assert report.incomplete_boxes == [(union, None, 27)]
    assert len(recs) == 2 * 27 - 2     # two real roots


def test_strip_with_strong_damping_completes():
    # with the boxes' left edge at -(k2 + k4) - 1 = -15, |F| on the initial
    # samples of the sweep box fell to 5.8e-8 of their median, under the dip
    # floor, with no root near the edge, and every shift failed
    # (BoundaryTooCloseToRoot); the dissipation identity puts every root
    # right of -max(k2, k4) = -8, and the edge at -9 counts
    p = validate_params(1.0, 2.0, 1.0, 8.0, 3.0, 6.0)
    recs, report = spectrum_in_strip(p, 60)
    assert report.incomplete_boxes == []
    assert report.global_count == 124 and len(recs) == 244
    assert all(-8.0 <= r.lam.real < 0.0 for r in recs)
    assert_tiled(recs, report)


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
# a subdivision half that could only be counted shifted left a gap beside
# its sibling, and a sweep root (-0.0664 + 10.1645i on the first) fell in it
@example(name="borderline", gains=1.0, damping=1.25)
@example(name="borderline", gains=0.85, damping=1.05)
@example(name="borderline", gains=0.85, damping=1.25)
@example(name="case1", gains=0.85, damping=1.05)
@example(name="case1", gains=0.85, damping=1.25)
def test_spectrum_properties_across_regimes(name, gains, damping):
    # k1, k3 and k2, k4 scale in pairs, which keeps each set in its regime
    b, k1, k2, k3, k4 = _REGIME_SETS[name]
    p = validate_params(1.0, b, gains * k1, damping * k2, gains * k3, damping * k4)
    k_max = 12
    try:
        recs, report = spectrum_in_strip(p, k_max)
    except NegativeRadicand:
        # the documented refusal of the third-order degenerate expansion
        assert regime_info(p).regime in ("case2", "case3")
        return
    assert report.incomplete_boxes == []
    assert_tiled(recs, report)
    for k in range(K_MIN, k_max + 1):
        for center in (k * math.pi, -k * math.pi):
            near = [r for r in recs if abs(r.lam.imag - center) <= math.pi / 2]
            assert sum(r.multiplicity for r in near) == 2, (k, center)
    for r in recs:
        twin = r.lam.conjugate()
        assert any(abs(s.lam - twin) <= 1e-8 * max(1.0, abs(twin)) for s in recs)
        assert r.lam.real >= -max(p.k2, p.k4) - 1e-8 * max(1.0, abs(r.lam))
    if not p.is_conservative:
        assert report.global_count is not None
        assert all(r.lam.real < 0 for r in recs)
