import math
import re
from dataclasses import replace

import numpy as np
import pytest
import reference
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from test_charfn import _REGIME_SETS, _traced_peak

import tipbeam.spectrum
from tipbeam.asymptotics import asymptotic_coefficients, predict_eigenvalue
from tipbeam.errors import (
    BasinEscape,
    BoundaryTooCloseToRoot,
    NoConvergence,
    NonConvergentContour,
)
from tipbeam.model import validate_params
from tipbeam.modes import riesz_closeness
from tipbeam.spectrum import (
    K_MIN,
    EigenvalueRecord,
    RootSearchReport,
    _beam,
    family_roots,
    frequency_pairs,
    spectrum_in_strip,
)


@pytest.fixture(scope="module")
def fig_spectrum(params_generic):
    return spectrum_in_strip(params_generic, 20)


@pytest.fixture(scope="module")
def cons_spectrum(params_conservative):
    return spectrum_in_strip(params_conservative, 12)


def _alone(rect, p):
    """The counter outcome of rect counted alone on the beam: (count, rect,
    samples), or the error that refused it."""
    return _batch([rect], _beam(p))[0][0]


def test_count_right_half_plane_empty(params_generic):
    assert _alone((0.3, 2.3, 1.0, 20.0), params_generic)[0] == 0


def test_count_frequency_box_has_two(params_generic):
    k = 12
    rect = (-5.0, 0.2, (k - 0.5) * math.pi, (k + 0.5) * math.pi)
    assert _alone(rect, params_generic)[0] == 2


def test_count_on_a_branch_point(params_generic):
    # a corner exactly on i sqrt(b), where the direct F' is singular: F is
    # analytic there, so the box is counted as it stands, and holds the one
    # root near -0.4871 + 1.4759i, as do boxes 0.01 lower and higher
    p = params_generic
    for im_lo in (math.sqrt(p.b), math.sqrt(p.b) - 0.01, math.sqrt(p.b) + 0.01):
        rect = (-1.0, 0.0, im_lo, 3.0)
        assert _alone(rect, p)[:2] == (1, rect)


def test_count_refuses_an_edge_through_a_real_root(params_generic):
    # the bottom edge lies on the real axis through the root near -0.3786:
    # refinement closes in on it until an interval has no floating-point
    # midpoint, and the box is refused by name; on the sample budget alone
    # this took 4,697 evaluation calls
    rect = (-0.5, -0.2, 0.0, 1.0)
    ((outcome,), rounds) = _batch([rect], _beam(params_generic))
    assert isinstance(outcome, BoundaryTooCloseToRoot)
    assert f"boundary of {rect} cannot be refined" in str(outcome)
    assert rounds <= 50


def test_count_splits_consistently(params_generic):
    # halving a two-root box separates the families
    k = 12
    p = params_generic
    lo, hi = (k - 0.5) * math.pi, (k + 0.5) * math.pi
    mid = k * math.pi + (0.2763 + 1.156) / (2 * k)   # between the family offsets
    top = _alone((-5.0, 0.2, mid, hi), p)[0]
    bottom = _alone((-5.0, 0.2, lo, mid), p)[0]
    assert top == 1 and bottom == 1


def test_count_does_not_alias_a_root_near_an_edge():
    # a conservative root at Im = 18.89614 sits 0.0017 below the shared edge;
    # a fixed-rule trapezoid sum of F'/F read 2.02 and -0.02 at 64 points per
    # edge, within 0.05 of the wrong integers
    p = validate_params(1.0, 2.038786616131473, 1.014145822087823, 0.0,
                        2.8841124150393984, 0.0)
    edge = 18.897837103895696
    assert _alone((-0.5, 0.5, 18.180701554930696, edge), p)[0] == 1
    assert _alone((-0.5, 0.5, edge, 19.817250046407196), p)[0] == 1


def test_count_resolves_close_roots_near_the_boundary(params_generic):
    # a low-frequency box of the generic set up to 8.5 pi holds the k = 8
    # roots at Re ~ -0.003, 0.11 apart, next to its right edge: phase
    # increments alone, without the F'/F step bound, read 17 or 15 here
    # depending on the initial spacing
    rect = (-5.0, -1e-12, -0.3, 8.5 * math.pi)
    count, box, samples = _alone(rect, params_generic)
    assert (count, box) == (19, rect) and samples > 0


@pytest.mark.parametrize("re_lo", [-15.0, -30.0])
def test_count_far_left_of_strong_damping(re_lo):
    # |F| varies by many orders of magnitude around a box reaching far left
    # of the roots; a fixed dip floor relative to the median of the initial
    # samples once refused this box from re_lo = -15 on, with no root near
    # its boundary
    p = validate_params(1.0, 2.0, 1.0, 8.0, 3.0, 6.0)
    rect = (re_lo, -1e-12, -0.3, 7.5 * math.pi)
    assert _alone(rect, p)[:2] == (18, rect)


def _batch(rects, target):
    """Counter outcomes of rects counted in one batch on target, and its evaluation calls."""
    report = RootSearchReport()
    counter = tipbeam.spectrum._Counter(target, report)
    return counter.outcomes_of(counter.submit(rects)), report.contour_rounds


def _polished(seeds, evaluate, report=None):
    """The ends of Newton lanes from seeds, polished on a counter of their own."""
    counter = tipbeam.spectrum._Counter(evaluate, report or RootSearchReport())
    return counter.records_of(counter.newton(seeds))


def _moments(rects, target):
    """The moments of rects counted in one batch on target."""
    counter = tipbeam.spectrum._Counter(target, RootSearchReport())
    tickets = counter.submit(rects, moments=True)
    counter.outcomes_of(tickets)
    return [counter.moments(t) for t in tickets]


def _batched_cases(params_generic):
    """The branch-point corner, a zero box, a frequency box and the near-edge
    box of test_count_resolves_close_roots_near_the_boundary, on the generic
    set; the near-edge conservative pair with a zero box and a frequency box."""
    cons = validate_params(1.0, 2.038786616131473, 1.014145822087823, 0.0,
                           2.8841124150393984, 0.0)
    edge = 18.897837103895696
    branch = (-1.0, 0.0, math.sqrt(params_generic.b), 3.0)
    return [
        (params_generic, [branch, (0.3, 2.3, 1.0, 20.0), (-5.0, 0.2, 11.5 * math.pi,
                                                           12.5 * math.pi),
                          (-5.0, -1e-12, -0.3, 8.5 * math.pi)]),
        (cons, [(-0.5, 0.5, 18.180701554930696, edge), (-0.5, 0.5, edge, 19.817250046407196),
                (0.3, 2.3, 1.0, 20.0), (-0.5, 0.5, 29.5 * math.pi, 30.5 * math.pi)]),
    ]


def _one_box_counts(p, rects):
    """(count, rect, samples) and evaluation calls of each rect counted alone."""
    alone, alone_rounds = [], []
    for rect in rects:
        ((outcome,), rounds) = _batch([rect], _beam(p))
        alone.append(outcome)
        alone_rounds.append(rounds)
    return alone, alone_rounds


def test_batched_counts_match_one_box_counts(params_generic):
    # each count, rect and sample total of a batch equals the box's one-box count
    counts = []
    for p, rects in _batched_cases(params_generic):
        batch, rounds = _batch(rects, tipbeam.spectrum._beam(p))
        alone, alone_rounds = _one_box_counts(p, rects)
        assert batch == alone
        # the boxes refine side by side: the batch takes the calls of its slowest box
        assert rounds == max(alone_rounds) < sum(alone_rounds)
        counts.append([count for count, *_ in batch])
    assert counts == [[1, 0, 2, 19], [1, 1, 0, 2]]


@pytest.mark.parametrize("chunk", [16, 64, 4096])
def test_counts_do_not_depend_on_scheduling(params_generic, chunk, monkeypatch):
    # whether an interval is halved depends on its two ends alone: with at
    # most 64 samples per call, or every pending sample in one call, each box
    # of a batch gets the samples and the count it gets alone at the default
    # chunk.  With e^{115 z} the unit box's last level, 1,024 midpoints whose
    # halves are all fine, spans sixteen calls of 64; the box is submitted
    # first, so it refines last, and the batch ends as soon as it resolves.
    # A chunk of 16 is below one 64-sample ring: a call with no Newton lane
    # still takes the newest ring, so counting goes on
    cases = [(tipbeam.spectrum._beam(p), rects) for p, rects in _batched_cases(params_generic)]
    cases.append((_known_zeros([(0.3 + 0.2j, 1), (-0.4 - 0.5j, 2)], 115.0),
                  [_UNIT, (0.2, 0.4, 0.1, 0.3)]))
    alone = [[_batch([rect], target)[0][0] for rect in rects] for target, rects in cases]
    alone_moments = [[_moments([rect], target)[0] for rect in rects] for target, rects in cases]
    monkeypatch.setattr(tipbeam.spectrum, "_CHUNK", chunk)
    for (target, rects), expected, moments in zip(cases, alone, alone_moments):
        batch, rounds = _batch(rects, target)
        assert batch == expected
        if chunk < 1024:
            assert rounds >= sum(samples for *_, samples in expected) / 64
        # the same samples, summed in another order
        for got, want in zip(_moments(rects, target), moments):
            assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(1.0, np.abs(want)))
    assert [count for count, *_ in alone[-1]] == [3, 1]


def test_sample_budget_refuses_by_name(monkeypatch):
    # with e^{115 z} every edge of the unit box refines to 512 samples, 2,048
    # in all: over a budget of 1,024 the box is refused by name, alone and
    # in a batch, and its smaller neighbours, one around the root and one
    # beside it, still count
    monkeypatch.setattr(tipbeam.spectrum, "_SAMPLE_BUDGET", 1024)
    target = _known_zeros([(0.3 + 0.2j, 1)], c=115.0)
    around, beside = (0.2, 0.4, 0.1, 0.3), (-0.4, -0.2, 0.1, 0.3)
    expected = f"boundary of {_UNIT} needs over 1024 samples"
    ((alone,), _) = _batch([_UNIT], target)
    assert isinstance(alone, BoundaryTooCloseToRoot) and str(alone) == expected
    outcomes, _ = _batch([around, _UNIT, beside], target)
    assert isinstance(outcomes[1], BoundaryTooCloseToRoot) and str(outcomes[1]) == expected
    assert [(o[0], o[1]) for o in outcomes[::2]] == [(1, around), (0, beside)]
    assert all(o[2] <= 1024 for o in outcomes[::2])


def test_batch_errors_name_the_rect(params_generic):
    p = params_generic
    beam = tipbeam.spectrum._beam(p)
    branch = (-1.0, 0.0, math.sqrt(p.b), 3.0)
    frequency = (-5.0, 0.2, 11.5 * math.pi, 12.5 * math.pi)
    zero = (0.3, 2.3, 1.0, 20.0)
    # F exactly 0 at the corner i sqrt(b), one of the initial samples: the
    # box with that corner cannot be counted; the others can
    corner = 1j * math.sqrt(p.b)

    def zeroed(lam):
        f, d, fval = beam(lam)
        return np.where(lam == corner, 0.0, f), d, fval

    outcomes, _ = _batch([zero, branch, frequency], zeroed)
    assert [o[0] for o in outcomes[::2]] == [0, 2]
    assert isinstance(outcomes[1], BoundaryTooCloseToRoot)
    assert str(outcomes[1]) == f"boundary of {branch} passes through a zero of F at {corner}"
    with pytest.raises(BoundaryTooCloseToRoot, match=re.escape(f"boundary of {branch}")):
        tipbeam.spectrum._logged(outcomes[1], RootSearchReport())

    # F conjugated on the frequency box only: it winds -2 and is refused by name
    def mirrored(lam):
        f, d, fval = beam(lam)
        on_box = (lam.imag > 11.4 * math.pi) & (lam.imag < 12.6 * math.pi)
        return np.where(on_box, f.conj(), f), np.where(on_box, d.conj(), d), fval

    outcomes, _ = _batch([zero, frequency], mirrored)
    assert outcomes[0][0] == 0
    assert isinstance(outcomes[1], NonConvergentContour)
    assert str(outcomes[1]).startswith(f"phase increments around {frequency} sum to -2")
    with pytest.raises(NonConvergentContour, match=re.escape(str(frequency))):
        tipbeam.spectrum._logged(outcomes[1], RootSearchReport())


def _known_zeros(roots, c=0.0):
    """evaluate of F(z) = e^{cz} prod (z - r)^m over (r, m) in roots, with exact F' and f = F."""
    def evaluate(z):
        factors = [(z - r) ** m for r, m in roots]
        prod = np.prod(factors, axis=0)
        d = sum(m * (z - r) ** (m - 1) * np.prod(factors[:i] + factors[i + 1:], axis=0)
                for i, (r, m) in enumerate(roots))
        scale = np.exp(c * z)
        f = scale * prod
        return f, scale * (c * prod + d), f

    return evaluate


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
    # a root exactly on an edge sample, one on a corner, and one 1e-12
    # outside an edge, between two initial samples
    ([(1.0, 1), (0.1j, 1)], [_UNIT]),
    ([(1 + 1j, 1), (0.1j, 1)], [_UNIT]),
    ([(1.0 + 1e-12 + 0.3j, 1), (0.1j, 1)], [_UNIT]),
    # pairs 1e-4 to 1e-8 apart, 0.005 inside an edge and next to a corner,
    # with a third root
    *[([(0.995 + 0.0625j, 1), (0.995 + 0.0625j + gap * 1j, 1), (-0.3 + 0.2j, 1)], [_UNIT])
      for gap in (1e-4, 1e-6, 1e-8)],
    *[([(0.995 + 0.995j, 1), (0.995 + 0.995j - gap * 1j, 1), (-0.3 + 0.2j, 1)], [_UNIT])
      for gap in (1e-4, 1e-6, 1e-8)],
    # fifty roots in the box
    ([(complex(x, y), 1) for x, y in np.random.default_rng(0).uniform(-0.9, 0.9, (50, 2))],
     [_UNIT]),
    # (c, roots): F times e^{cz}, whose |F'/F| near |c| refines every edge to
    # 512 samples, over a simple and a double root, and over a pair 1e-6 apart
    *[((c, [(0.3 + 0.2j, 1), (-0.4 - 0.5j, 2)]), [_UNIT]) for c in (115.0, 115j, -115.0)],
    ((115.0, [(0.3 + 0.2j, 1), (0.3 + 0.2j + 1e-6j, 1)]), [_UNIT]),
])
def test_counter_and_newton_on_known_zeros(roots, rects):
    # the count equals the known zeros inside the rect as submitted, or, when
    # a root lies on its boundary, the box is refused by name; a wrong integer
    # is never allowed.  Phase increments alone, without the F'-bounded turn,
    # read 1 for the first edge pair, 2 for the later edge pairs, 38 for the
    # fifty roots and 24, 23 and 25 for the three e^{cz} sets with a double root
    c, roots = roots if isinstance(roots, tuple) else (0.0, roots)
    target = _known_zeros(roots, c)
    outcomes, rounds = _batch(rects, target)
    assert rounds <= 50
    for rect, outcome in zip(rects, outcomes):
        if any(tipbeam.spectrum._inside(r, rect) and (r.real in rect[:2] or r.imag in rect[2:])
               for r, _ in roots):
            assert isinstance(outcome, BoundaryTooCloseToRoot)
            assert str(outcome).startswith(f"boundary of {rect} ")
            continue
        count, used, _ = outcome
        assert used == rect
        assert count == sum(m for r, m in roots if tipbeam.spectrum._inside(r, rect))
    # Newton from 0.01 off each simple root at least 0.05 from every other
    # root, away from its nearest neighbour, lands on that root; with e^{cz},
    # from at most 0.25 / |c| off, where its step contracts the error
    offset = 0.01 / max(1.0, 0.04 * abs(c))
    simple, seeds = [], []
    for r, m in roots:
        nearest = min((s for s, _ in roots if s != r), key=lambda s: abs(s - r))
        if m == 1 and abs(nearest - r) >= 0.05:
            simple.append(r)
            seeds.append(r + offset * (r - nearest) / abs(r - nearest))
    polished = _polished(np.array(seeds), target)
    for r, rec in zip(simple, polished):
        assert isinstance(rec, EigenvalueRecord)
        assert abs(rec.lam - r) <= 1e-12


# a point of each edge of the unit box, at t in [-1, 1] along it, and the
# inward normal there
_EDGES = ((lambda t: complex(1.0, t), -1.0), (lambda t: complex(t, 1.0), -1j),
          (lambda t: complex(-1.0, t), 1.0), (lambda t: complex(t, -1.0), 1j))


@st.composite
def _near_edge_zeros(draw):
    """Up to four roots 1e-12 to 1e-2 inside or outside an edge of the unit
    box, each of multiplicity 1 to 3 and maybe with a partner 1e-9 to 1e-3
    away, plus one root well inside."""
    roots = []
    for _ in range(draw(st.integers(1, 4))):
        point, inward = _EDGES[draw(st.integers(0, 3))]
        depth = draw(st.sampled_from((-1.0, 1.0))) * 10.0 ** draw(st.floats(-12.0, -2.0))
        r = point(draw(st.floats(-1.0, 1.0))) + inward * depth
        roots.append((r, draw(st.integers(1, 3))))
        if draw(st.booleans()):
            partner = 10.0 ** draw(st.floats(-9.0, -3.0)) * np.exp(1j * draw(st.floats(0.0, 6.3)))
            roots.append((r + complex(partner), draw(st.integers(1, 3))))
    roots.append((complex(draw(st.floats(-0.9, 0.9)), draw(st.floats(-0.9, 0.9))), 1))
    return roots


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(roots=_near_edge_zeros(), c=st.complex_numbers(max_magnitude=85.0))
def test_counter_is_exact_or_refuses_property(roots, c):
    # close pairs, multiple roots and e^{cz} next to the boundary: the count
    # is the known one, or the box is refused by name, never a wrong integer.
    # Phase increments alone, without the F'-bounded turn, read a wrong
    # integer in most examples of this strategy (72 of 100 in one draw)
    ((outcome,), _) = _batch([_UNIT], _known_zeros(roots, c))
    if isinstance(outcome, (BoundaryTooCloseToRoot, NonConvergentContour)):
        assert str(_UNIT) in str(outcome)
    else:
        assert outcome[0] == sum(m for r, m in roots if tipbeam.spectrum._inside(r, _UNIT))


@pytest.mark.parametrize("rect", [(math.nan, 1.0, -1.0, 1.0), (-1.0, math.inf, -1.0, 1.0), _UNIT])
def test_counter_refuses_non_finite_samples(rect):
    # a NaN or infinite corner, or F NaN on part of the boundary: the winding
    # is not a number, and the error names the rect
    known = _known_zeros([(0.1j, 1)])

    def holed(z):
        f, d, fval = known(z)
        return np.where(z.real > 0.9, np.nan, f), d, fval

    with np.errstate(invalid="ignore"):
        ((outcome,), _) = _batch([rect], holed)
    assert isinstance(outcome, (NonConvergentContour, BoundaryTooCloseToRoot))
    assert str(rect) in str(outcome)


def test_refine_root_from_prediction(params_generic):
    p = params_generic
    k = 30
    rec = family_roots(p, k)[1]
    assert rec.residual <= 1e-10 * max(1.0, abs(rec.lam))
    assert abs(rec.lam.imag - k * math.pi) < 0.1
    assert rec.lam.real < 0


def test_refine_root_degenerate_table_value(params_degenerate):
    # k = 200, slower family: scaled real part matches the reference table
    p = params_degenerate
    rec = family_roots(p, 200)[0]
    assert 200**2 * rec.lam.real == pytest.approx(-0.202667, abs=1e-4)


def test_refine_root_conservative_on_axis(params_conservative):
    p = params_conservative
    rec = family_roots(p, 12)[0]
    assert abs(rec.lam.real) < 1e-10


def test_adversarial_midpoint_seed(params_generic):
    # seeding between the two family roots must never produce a silent fake
    p = params_generic
    k = 12
    r1, r2 = family_roots(p, k)
    (rec,) = _polished([0.5 * (r1.lam + r2.lam)], _beam(p))
    if isinstance(rec, (NoConvergence, BasinEscape)):
        return
    assert min(abs(rec.lam - r1.lam), abs(rec.lam - r2.lam)) < 1e-6


def test_pair_at_frequency(params_generic):
    report = RootSearchReport()
    recs = frequency_pairs(params_generic, [50], report=report)[0]
    assert len(recs) == 2 and report.boxes[0][1] == 2
    assert {r.family for r in recs} == {1, 2}
    for r in recs:
        pred = predict_eigenvalue(50, r.family, params_generic)
        assert abs(r.lam - pred) < 1e-3


def test_family_roots_in_family_order(params_generic):
    p = params_generic
    recs = family_roots(p, 30)
    assert [(r.k_index, r.family) for r in recs] == [(30, 1), (30, 2)]
    for r in recs:
        (direct,) = _polished([predict_eigenvalue(30, r.family, p)], _beam(p))
        assert r.lam == direct.lam and r.iterations == direct.iterations


def _scalar_newton(seed, p):
    """The one-seed Newton loop the batched kernel replaced, on 0-d evaluations.

    Returns (lam, iterations, evaluations) or the error type.  Its
    arithmetic differs from a batch lane's in the last bits (0-d NumPy and
    Python complex division), so lambdas are compared within a tolerance.
    A converged lane stops polishing once the step that reached its iterate
    is within 4 ulps of it.
    """
    lam = seed = complex(seed)
    step, iterations, best = math.inf, 0, None
    while True:
        surrogate, slope, fval = tipbeam.spectrum.entire_char_fn_and_derivative(lam, p)
        residual, scale = abs(fval), max(1.0, abs(lam))
        if best is not None:
            if residual >= best[1]:
                return best[0], best[2], iterations + 1
            best = (lam, residual, best[2])
        elif step <= 1e-12 * scale:
            best = (lam, residual, iterations)
        elif iterations == 50:
            return NoConvergence
        if best is not None and (step <= 4 * np.finfo(float).eps * scale
                                 or iterations == best[2] + 3):
            return best[0], best[2], iterations + 1
        if slope == 0:
            return (best[0], best[2], iterations + 1) if best is not None else NoConvergence
        delta = surrogate / slope
        if abs(lam - delta - seed) > 0.5:
            return (best[0], best[2], iterations + 1) if best is not None else BasinEscape
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
    # each lane of the batch ends exactly as a batch of its seed alone does
    b, k1, k2, k3, k4 = _REGIME_SETS[name]
    p = validate_params(1.0, b, gains * k1, damping * k2, gains * k3, damping * k4)
    seeds = [predict_eigenvalue(k, j, p) + shift for k, j, shift in lanes]
    report = RootSearchReport()
    batch = _polished(seeds, _beam(p), report)
    assert report.newton_calls == len(seeds) and report.newton_rounds <= 54
    for seed, got in zip(seeds, batch):
        alone = RootSearchReport()
        (want,) = _polished([seed], _beam(p), alone)
        assert type(got) is type(want)
        if isinstance(want, EigenvalueRecord):
            assert got.lam == want.lam and got.iterations == want.iterations
            assert got.residual == want.residual
        else:
            assert str(got) == str(want)
        # the scalar loop: same outcome, step count and evaluations, lambda to 64 ulp
        ref = _scalar_newton(seed, p)
        if isinstance(got, EigenvalueRecord):
            assert (got.iterations, alone.evaluation_calls) == ref[1:]
            assert abs(got.lam - ref[0]) <= 64 * np.finfo(float).eps * max(1.0, abs(ref[0]))
        else:
            assert type(got) is ref


def test_polish_fails_only_the_affected_lanes(params_generic):
    p = params_generic
    seeds = [predict_eigenvalue(12, 1, p), (12 + 0.5) * math.pi * 1j - 0.1,
             1j * math.sqrt(p.b) + 1e-9, predict_eigenvalue(30, 2, p)]
    out = _polished(seeds, _beam(p))
    # the seed 1e-9 from i sqrt(b) is evaluated there, and its first step
    # lands 0.507 away, beside the root near -0.4871 + 1.4759i
    assert [type(o) for o in out] == [EigenvalueRecord, BasinEscape, BasinEscape,
                                      EigenvalueRecord]
    assert "left the basin of seed" in str(out[1])
    assert str(out[2]).startswith("iterate (-0.50612")
    for seed, rec in zip(seeds[::3], out[::3]):
        assert rec.lam == _polished([seed], _beam(p))[0].lam
        assert rec.residual <= 1e-13 * abs(rec.lam)
    (alone,) = _polished([seeds[2]], _beam(p))
    assert isinstance(alone, BasinEscape) and str(alone) == str(out[2])


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
        _polished([seed], _beam(p))
        alone.append(len(sizes))
    rounds = []
    for batch in (seeds[:6], seeds):
        sizes.clear()
        report = RootSearchReport()
        _polished(batch, _beam(p), report)
        # one call per round on the lanes still running, never one per seed
        assert len(sizes) == report.newton_rounds <= 54
        assert sizes[0] == len(batch) and sizes == sorted(sizes, reverse=True)
        rounds.append(len(sizes))
    assert report.newton_calls == 200
    assert rounds[0] == max(alone)     # a batch takes the rounds of its slowest seed


def _evaluation_sizes(monkeypatch) -> list:
    """The number of points of each characteristic-function call from now on."""
    real = tipbeam.spectrum.entire_char_fn_and_derivative
    sizes = []

    def counted(lam, params):
        sizes.append(np.size(lam))
        return real(lam, params)

    monkeypatch.setattr(tipbeam.spectrum, "entire_char_fn_and_derivative", counted)
    return sizes


@pytest.mark.parametrize("name, k_max, most, points", [
    ("conservative", 50, 11, (248, 1056)), ("generic", 200, 29, (837, 4146))])
def test_strip_counts_its_evaluation_calls(name, k_max, most, points, request, monkeypatch):
    # Newton lanes ride the counter's calls: evaluation_calls is the number
    # of calls the search made, none over _CHUNK points here, and each box
    # takes the samples it takes alone.  With Newton in calls of its own, the
    # strips took 22 and 40 calls for the same samples; with every converged
    # lane polishing on past a step at the rounding floor, 16 and 30; with
    # the conservative sweep's moment seeds waiting for its last known
    # lanes to end, 14 and 29
    sizes = _evaluation_sizes(monkeypatch)
    _, report = spectrum_in_strip(request.getfixturevalue(f"params_{name}"), k_max)
    stats = report.stats
    assert stats["evaluation_calls"] == len(sizes) <= most
    assert max(sizes) <= tipbeam.spectrum._CHUNK
    assert (stats["contour_points"], stats["global_points"]) == points
    assert (max(stats["contour_rounds"], stats["newton_rounds"]) <= stats["evaluation_calls"]
            < stats["contour_rounds"] + stats["newton_rounds"])     # some calls carried both


def test_family_roots_takes_five_calls(params_generic, monkeypatch):
    # the 586 lanes of k = 8 .. 300 converge within four steps, and the
    # slowest end on their convergence step, which was at the rounding
    # floor: polishing on after it took two calls more
    sizes = _evaluation_sizes(monkeypatch)
    report = RootSearchReport()
    recs = family_roots(params_generic, range(8, 301), report)
    assert max(rec.iterations for rec in recs) == 4
    assert report.evaluation_calls == report.newton_rounds == len(sizes) == 5
    assert sizes[0] == 2 * 293


def _scripted(steps, residuals):
    """evaluate(z) for one lane whose i-th call gives the Newton step
    steps[i] (F = steps[i], F' = 1) and |f| = residuals[i], then steps of 0
    at the last residual; and the points it was called at."""
    calls = []

    def evaluate(z):
        i = len(calls)
        calls.append(complex(z[0]))
        return (np.array([steps[i] if i < len(steps) else 0.0], complex), np.ones(1, complex),
                np.array([residuals[min(i, len(residuals) - 1)]], complex))

    return evaluate, calls


@pytest.mark.parametrize("steps, residuals, evaluations", [
    # converged on a step of 2 ulps: no polish step
    ((0.1, 2 * np.finfo(float).eps), (1.0, 1e-10, 1e-15), 3),
    # converged on a step above the floor: polishing stops after its first
    # step, which was at the floor
    ((0.1, 1e-13, 1e-16), (1.0, 1e-10, 1e-15, 5e-16), 4),
    # every step above the floor: three polish steps that lower |f|
    ((0.1, 1e-13, 1e-14, 1e-14, 1e-14, 1e-14), (1.0, 1e-10, 1e-15, 8e-16, 6e-16, 4e-16), 6),
])
def test_lane_ends_at_the_rounding_floor(steps, residuals, evaluations):
    # a converged lane whose iterate was reached by a step of at most 4 ulps
    # of it ends with that iterate, without a further evaluation
    evaluate, calls = _scripted(steps, residuals)
    report = RootSearchReport()
    (rec,) = _polished([1.0], evaluate, report)
    assert len(calls) == report.evaluation_calls == evaluations
    assert (rec.lam, rec.residual, rec.iterations) == (calls[-1], residuals[evaluations - 1], 2)


@pytest.mark.parametrize("name", ["generic", "conservative", "degenerate"])
def test_lanes_beside_ring_samples_match_lanes_alone(name, request, monkeypatch):
    # a lane's arithmetic does not depend on the other points of its calls:
    # lanes polished in calls that also carry the rings and midpoints of a
    # count end bit for bit as each lane polished alone.  The last seed lies
    # within the switch radius of i sqrt(b), where F and F' come from the
    # Taylor polynomial on a ring around it
    p = request.getfixturevalue(f"params_{name}")
    seeds = [predict_eigenvalue(k, j, p) for k in (K_MIN, 30) for j in (1, 2)]
    seeds.append(1j * math.sqrt(p.b) + 2e-4 - 3e-4j)
    sizes = _evaluation_sizes(monkeypatch)
    counter = tipbeam.spectrum._Counter(_beam(p), RootSearchReport())
    counter.submit([tipbeam.spectrum._sweep_box(p)])
    ridden = counter.records_of(counter.newton(seeds))
    assert sizes[0] == len(seeds) + 4 * tipbeam.spectrum._EDGE_POINTS
    for seed, got in zip(seeds, ridden):
        (want,) = _polished([seed], _beam(p))
        assert type(got) is type(want)
        assert got == want if isinstance(want, EigenvalueRecord) else str(got) == str(want)


@pytest.fixture
def family_two_seeded_off(monkeypatch):
    # family 2 seeded at the root-free midpoint between frequency clusters
    real_predict = tipbeam.spectrum.predict_eigenvalue

    def predict(k, j, p):
        return np.where(j == 2, (k + 0.5) * math.pi * 1j - 0.1, real_predict(k, j, p))

    monkeypatch.setattr(tipbeam.spectrum, "predict_eigenvalue", predict)


def test_one_prediction_call_per_batch(params_generic, monkeypatch):
    # the strip's seeds for k = 1 .. 200, which also label the sweep's
    # roots, and each subdivided box's labels predict every (k, j) they
    # need in one call
    sizes, labelled = [], []
    real_predict, real_label = tipbeam.spectrum.predict_eigenvalue, tipbeam.spectrum._label_pair

    def predict(k, j, p):
        sizes.append(np.broadcast(k, j).size)
        return real_predict(k, j, p)

    def label(recs, p, k):
        labelled.append(k)
        real_label(recs, p, k)

    monkeypatch.setattr(tipbeam.spectrum, "predict_eigenvalue", predict)
    monkeypatch.setattr(tipbeam.spectrum, "_label_pair", label)
    spectrum_in_strip(params_generic, 200)
    assert sizes == [2 * 200] + [2] * len(labelled)
    sizes.clear()
    family_roots(params_generic, range(8, 301))
    assert sizes == [2 * 293]


@pytest.mark.parametrize("eps", [1e-8, 1e-9])
def test_near_lattice_sets_are_searched(params_near_lattice, eps):
    # sqrt(b) a relative eps/2 off the p = 2 lattice point with k1 = k3 is
    # generic, but gamma1^2 - 4 gamma2 cancels to 0.0 in floating point
    # there (true value 1.6e-14 at eps = 1e-8), which made the families'
    # predictions collide and raise ZeroOmega1
    p = replace(params_near_lattice, b=(4.0 * math.pi) ** 2 * (1.0 + eps))
    coef = asymptotic_coefficients(p)
    assert coef.regime == "generic"
    assert coef.alpha2 - coef.alpha1 == pytest.approx(1.2566e-7 * eps / 1e-8, rel=1e-3)
    records, report = spectrum_in_strip(p, 20)
    assert report.incomplete_boxes == [] and report.k0_effective == K_MIN
    assert [(r.k_index, r.family) for r in records if r.k_index == 20] == [(20, 1), (20, 2)]
    assert np.all(np.isfinite(riesz_closeness(100, p).closeness))


def test_family_roots_failure_names_k_and_j(params_generic, family_two_seeded_off):
    with pytest.raises(BasinEscape, match=r"family 2 at k = 12"):
        family_roots(params_generic, 12)


def test_pair_at_frequency_keeps_surviving_family(params_generic,
                                                  family_two_seeded_off):
    # family 2's seed misses, so the box counts 2 where one record was
    # polished: the box is subdivided, and both roots come back in family order
    report = RootSearchReport()
    recs = frequency_pairs(params_generic, [12], report=report)[0]
    assert [(r.k_index, r.family) for r in recs] == [(12, 1), (12, 2)]
    assert report.incomplete_boxes == []
    for r in recs:
        assert abs(r.lam - predict_eigenvalue(12, r.family, params_generic)) < 1e-3


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
    # the union of the generic strip reaches Re = +2: its certified count
    # equals the roots recovered in it, and every root lies left of the axis
    recs, report = fig_spectrum
    p = params_generic
    union = (-max(p.k2, p.k4) - 1.0, 2.0, -0.3, 20.5 * math.pi)
    assert report.global_count == sum(tipbeam.spectrum._inside(r.lam, union) for r in recs)
    assert all(r.lam.real < -1e-12 * max(1.0, abs(r.lam)) for r in recs)
    # a box of the same kind sees the conservative roots on the axis
    crecs, _ = cons_spectrum
    on_axis = sum(0.01 <= r.lam.imag <= 25.0 for r in crecs)
    assert on_axis > 0
    assert _alone((-0.5, 0.2, 0.01, 25.0), params_conservative)[0] == on_axis


def test_real_roots_sort_by_real_part(fig_spectrum):
    # Im = +-1e-16 is rounding noise of Newton on the real axis; its sign
    # must not decide the order of the two real roots in spectrum.csv
    rec = lambda lam, fam: EigenvalueRecord(lam, None, fam, 0.0)
    recs = [rec(complex(-0.3786, 1e-16), 1), rec(complex(-1.1164, -1e-16), 2),
            rec(complex(-0.5, 3.0), 1), rec(complex(-0.5, -3.0), 1)]
    recs = tipbeam.spectrum._in_order(recs)
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
    assert report.stats["resplits"] == 0
    assert report.stats["boxes"] == len(report.boxes)


def test_generic_strip_batches_its_evaluations(params_generic):
    # k <= 200: the strip's counted boxes and its union share their
    # evaluation calls, and the sweep's leaves share their polishes.  The
    # sweep keeps the roots that the seeds of k = 1 .. 7 reach; when it
    # split down to one leaf per root it took 117 derived boxes and 22,528
    # contour points.  The frequency boxes are certified by the union's
    # count: when each was counted the search took 15,108 contour points,
    # and the union, with its right edge at Re = 0.2, 6,084
    recs, report = spectrum_in_strip(params_generic, 200)
    stats = report.stats
    assert report.incomplete_boxes == []
    assert_tiled(recs, report)
    assert stats["contour_rounds"] <= 30
    assert stats["newton_rounds"] <= 20
    assert stats["derived_boxes"] <= 40 and stats["contour_points"] < 1000
    assert stats["band_boxes"] == 193 and stats["global_points"] < 4500
    assert stats["matched_boxes"] > 0
    assert stats["global_count"] == 403 == sum(r.lam.imag > -0.3 for r in recs)


def test_generic_strip_certifies_past_a_thousand(params_generic):
    # the union's samples grow with k_max: 32,812 at k_max = 1,200, over the
    # 32,768 a box may take at least, so it is refused unless its budget
    # grows with its perimeter
    recs, report = spectrum_in_strip(params_generic, 1200)
    assert report.incomplete_boxes == []
    assert report.global_count == 2 * 1200 + 3 == sum(r.lam.imag > -0.3 for r in recs)
    assert report.global_points > tipbeam.spectrum._SAMPLE_BUDGET


def test_sample_budget_grows_with_the_perimeter(params_generic):
    # F = 1 with |F'/F| = D halves every interval down to pi / (4 D).  A
    # frequency box of the generic set, perimeter 12.7, needs 65,536
    # samples at D = 3,000 and is refused at 32,768; the union of the
    # k <= 1,200 strip, perimeter 7,554, needs 65,600 at D = 4 and may take
    # 16 per unit of its perimeter
    def flat(d):
        return lambda z: (np.ones_like(z), np.full_like(z, d), np.ones_like(z))

    box = tipbeam.spectrum._validation_rect(params_generic, 12)
    ((outcome,), _) = _batch([box], flat(3000.0))
    assert str(outcome) == f"boundary of {box} needs over 32768 samples"
    union = tipbeam.spectrum._union_box(params_generic, 1200)
    ((outcome,), _) = _batch([union], flat(4.0))
    assert outcome[0] == 0 and outcome[2] == 65600


_BAND_SETS = {
    "generic": ((1.0, 2.0, 1.0, 2.0, 3.0, 2.0), 60),
    "degenerate": ((1.0, 4.0 * math.pi**2, 2.0, 1.0, 2.0, 5.0), 60),
    "case2": ((1.0, 4.0 * math.pi**2, 2.0, 1.0, 2.0, 1.0), 60),
    "case3": ((1.0, 4.0 * math.pi**2, 2.0, 0.0, 2.0, 0.0), 60),
    "lattice": ((1.0, 16.0 * math.pi**2, 1.0, 1.0, 1.0, 2.0), 24),
    "near-lattice": ((1.0, 16.0 * math.pi**2 * (1.0 + 1e-8), 1.0, 1.0, 1.0, 2.0), 24),
    "conservative": ((1.0, 2.0, 1.0, 0.0, 3.0, 0.0), 60),
    "large-b": ((1.0, (20.5 * math.pi) ** 2, 1.0, 0.0, 3.0, 0.0), 30),
}


def _labelled(recs):
    return [(r.lam, r.k_index, r.family) for r in tipbeam.spectrum._in_order(list(recs))]


@pytest.mark.parametrize("name", sorted(_BAND_SETS))
def test_band_certified_records_equal_counted_ones(name):
    # the frequency boxes the union's count certifies hold the records, with
    # their labels, that counting every box gives (frequency_pairs); on the
    # other sets no seeded box is odd, and on the lattice and large-b sets
    # every one is, so each is counted.  A box of more than two roots has no
    # family in either: the low-frequency predictions label the sweep's
    # records only
    args, k_max = _BAND_SETS[name]
    p = validate_params(*args)
    recs, report = spectrum_in_strip(p, k_max)
    assert report.incomplete_boxes == []
    counted = frequency_pairs(p, range(K_MIN, k_max + 1))
    strip = _labelled(r for r in recs if (r.k_index or 0) >= K_MIN)
    ref = _labelled(r for pair in counted for r in pair)
    assert strip == ref
    assert report.band_boxes == (0 if name in ("lattice", "near-lattice", "large-b")
                                 else k_max - K_MIN + 1)


@pytest.mark.parametrize("name", ["generic", "case2", "conservative"])
def test_strip_records_do_not_depend_on_k_max(name):
    # the records below (k + 1/2) pi are the same whether the strip, and
    # the union that certifies it, ends there or 37 boxes higher
    args, k_max = _BAND_SETS[name]
    p = validate_params(*args)
    top = (k_max + 0.5) * math.pi
    recs, _ = spectrum_in_strip(p, k_max)
    taller, report = spectrum_in_strip(p, k_max + 37)
    assert report.incomplete_boxes == [] and report.band_boxes > 37
    assert _labelled(recs) == _labelled(r for r in taller if abs(r.lam.imag) <= top)


def test_label_pair_breaks_a_tie_by_height():
    # both roots of box 24 of (1, (20.5 pi)^2, 1, 0, 3, 0) lie on the axis
    # below both predictions, so both assignments have one total distance;
    # the labels must not follow the order in which the roots were found
    p = validate_params(1.0, (20.5 * math.pi) ** 2, 1.0, 0.0, 3.0, 0.0)
    (pair,) = frequency_pairs(p, [24])
    preds = predict_eigenvalue(24, np.array([1, 2]), p)
    assert all(abs(r.lam.real) < 1e-12 and r.lam.imag < preds.imag.min() for r in pair)
    labels = []
    for order in (pair, pair[::-1]):
        recs = [replace(r, family=None) for r in order]
        tipbeam.spectrum._label_pair(recs, p, 24)
        labels.append(sorted((r.lam.imag, r.family) for r in recs))
    assert labels[0] == labels[1] and [j for _, j in labels[0]] == [1, 2]


def test_conservative_sweep_keeps_its_polished_roots(params_conservative):
    # the k <= 50 strip took 8,493 contour points when its sweep split down
    # to one leaf per root, and 20 contour rounds when it split until its two
    # unknown roots, 0.637i and 1.526i, were each alone in a 0.25-wide leaf;
    # the sweep's moments seed them
    recs, report = spectrum_in_strip(params_conservative, 50)
    assert report.incomplete_boxes == []
    assert report.stats["contour_points"] < 5000
    assert report.stats["contour_rounds"] <= 10


def test_lattice_boxes_are_isolated_in_one_pass():
    # on the p = 2 lattice point every frequency box from K_MIN on is odd;
    # isolated one box after another, k <= 60 took 1,624 contour rounds and
    # 551 Newton rounds.  Counted without moments and split before they were
    # seeded, its boxes took 514 boxes and 19,558 contour points.  With
    # Newton in calls of its own, it took 45 contour and 29 Newton rounds,
    # 74 calls
    p = validate_params(1.0, 16.0 * math.pi**2, 1.0, 1.0, 1.0, 2.0)
    recs, report = spectrum_in_strip(p, 60)
    assert report.incomplete_boxes == []
    assert report.global_count == 123 == sum(r.lam.imag > -0.3 for r in recs)
    stats = report.stats
    assert stats["contour_rounds"] <= 60 and stats["evaluation_calls"] <= 60
    assert stats["boxes"] <= 100 and stats["contour_points"] <= 8000


def test_large_b_boxes_are_seeded_from_their_moments():
    # below sqrt(b)/pi + 1 the frequency boxes of (1, (20.5 pi)^2, 1, 2, 3, 1)
    # hold one to six roots each; split before they were seeded, k <= 30
    # took 286 boxes and 11,513 contour points
    p = validate_params(1.0, (20.5 * math.pi) ** 2, 1.0, 2.0, 3.0, 1.0)
    recs, report = spectrum_in_strip(p, 30)
    assert report.incomplete_boxes == []
    assert report.global_count == sum(r.lam.imag > -0.3 for r in recs)
    assert report.stats["boxes"] <= 100 and report.stats["contour_points"] <= 6000


def test_strip_peak_memory(params_generic):
    # the counter keeps the intervals still too coarse, not the samples of
    # every box: the k <= 200 strip once peaked at 1,406,152 B traced, when
    # each box kept its whole boundary until it was counted
    assert _traced_peak(lambda: spectrum_in_strip(params_generic, 200)) < 1.2e6


def test_global_count_mismatch_is_reported(params_generic, monkeypatch):
    p = params_generic
    union = (-3.0, 2.0, -0.3, 12.5 * math.pi)
    real_isolate = tipbeam.spectrum._isolate

    def sweep_altered(change):
        """_isolate with change(sweep's lanes, the lane of its root at 1 < Im < 2)
        applied to what the strip's first pass returns for the sweep."""
        def isolate(tickets, given, counter, more=None):
            counts, found = real_isolate(tickets, given, counter, more)
            if more is not None:
                sweep = found[0]
                change(sweep, next(j for j in sweep if 1.0 < counter.records[j].lam.imag < 2.0))
            return counts, found
        return isolate

    # a sweep root lost before the conjugate closure: the union counts 27
    monkeypatch.setattr(tipbeam.spectrum, "_isolate", sweep_altered(list.remove))
    _, report = spectrum_in_strip(p, 12)
    assert report.global_count == 27
    assert (union, 27, 26) in report.incomplete_boxes

    # the same root recorded twice, as overlapping boxes would: the union
    # recovers 28
    monkeypatch.setattr(tipbeam.spectrum, "_isolate", sweep_altered(list.append))
    _, report = spectrum_in_strip(p, 12)
    assert report.global_count == 27
    assert (union, 27, 28) in report.incomplete_boxes
    monkeypatch.undo()
    # |F| collapsed on the union's right edge below the frequency boxes: the
    # F'-bounded turn refines there past the sample budget, so the union
    # cannot be counted, and the search still returns
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


def test_a_root_the_band_misses_makes_every_box_count(params_generic, monkeypatch):
    # F with one more root, inside frequency box 15 beside its two: the
    # seeds still find those two, so the box is not odd, but the union
    # counts one root more than the records.  So every frequency box is
    # counted, box 15 is isolated, and its third root is recorded
    extra = -1.5 + 15.2j * math.pi
    real = tipbeam.spectrum.entire_char_fn_and_derivative

    def with_extra(lam, params):
        f, d, fval = real(lam, params)
        return f * (lam - extra), d * (lam - extra) + f, fval * (lam - extra)

    monkeypatch.setattr(tipbeam.spectrum, "entire_char_fn_and_derivative", with_extra)
    recs, report = spectrum_in_strip(params_generic, 20)
    assert report.band_boxes == 0 and report.global_count == 2 * 20 + 3 + 1
    assert report.incomplete_boxes == []
    box = [r for r in recs if r.k_index == 15]
    assert len(box) == 3 and min(abs(r.lam - extra) for r in box) < 1e-9
    assert (tipbeam.spectrum._validation_rect(params_generic, 15), 3) in report.boxes


def test_strip_with_strong_damping_completes():
    # the dissipation identity puts every root right of -max(k2, k4) = -8,
    # and the boxes' left edge is at -9
    p = validate_params(1.0, 2.0, 1.0, 8.0, 3.0, 6.0)
    recs, report = spectrum_in_strip(p, 60)
    assert report.incomplete_boxes == []
    assert report.global_count == 124 and len(recs) == 244
    assert all(-8.0 <= r.lam.real < 0.0 for r in recs)
    assert_tiled(recs, report)
    # Newton once stalled at the real root near -7.0124, where |f| cannot
    # fall to 1e-13 |lambda|: the leaf split down to 1e-6 and its centre was
    # recorded with residual 6.7e-3, after 1,895 Newton rounds
    (real,) = [r for r in recs if abs(r.lam + 7.0124) < 1e-3]
    assert real.residual <= 1e-10 and real.iterations > 0
    assert report.newton_rounds <= 45


def test_low_gain_strip_union_completes():
    # a top-level box once shifted by 1% of its height, and the union over
    # the strip counted 402 roots where 398 were recovered
    p = validate_params(1.0, 0.5, 0.3, 0.05, 0.4, 0.02)
    recs, report = spectrum_in_strip(p, 200)
    assert report.incomplete_boxes == []
    assert report.global_count == 402
    assert_tiled(recs, report)


def _assert_strip_complete(sqrt_b, gains, k_max):
    """The strip of (1, sqrt_b^2, 1, k2, 3, k4) is counted box by box with no
    re-split, its records equal the count over the whole strip, and a
    counted box has i sqrt(b) on its boundary."""
    p = validate_params(1.0, sqrt_b**2, 1.0, gains[0], 3.0, gains[1])
    recs, report = spectrum_in_strip(p, k_max)
    assert report.incomplete_boxes == []
    assert report.stats["resplits"] == 0
    assert report.global_count == sum(r.lam.imag > -0.3 for r in recs)
    assert_tiled(recs, report)
    assert any(sqrt_b in rect[2:] for rect, _ in report.boxes)


def test_branch_point_on_a_split_line_or_a_box_edge():
    # F is evaluated at the branch point like anywhere else.  sqrt(b) on the
    # sweep's first split line puts a sample on i sqrt(b), and nothing is
    # split again; sqrt(b) = 8.5 pi is the top edge of frequency box 8,
    # which once refused the whole search
    _assert_strip_complete(-0.3 + 0.4382 * (7.5 * math.pi + 0.3), (0.0, 0.0), 12)
    _assert_strip_complete(8.5 * math.pi, (0.0, 0.0), 12)


@pytest.mark.parametrize("q", [8.5, 9.5, 20.5])
@pytest.mark.parametrize("gains", [(0.0, 0.0), (2.0, 1.0)], ids=["conservative", "damped"])
def test_branch_point_on_a_shared_box_edge(q, gains):
    # sqrt(b) = q pi is the edge that frequency boxes q - 1/2 and q + 1/2
    # share, with a sample on i sqrt(b); for k >> sqrt(b) the seeds miss and
    # those boxes are subdivided
    _assert_strip_complete(q * math.pi, gains, 24)


def _strip_with_derived_boxes_counted(p, k_max):
    """spectrum_in_strip(p, k_max), asserting that each derived or
    band-certified box, one logged to report.boxes but never submitted to
    the counter, has the winding it has when counted.  Those boxes are
    counted in one batch, whose counts are the one-box counts
    (test_batched_counts_match_one_box_counts)."""
    submitted = set()
    real = tipbeam.spectrum._Counter.submit

    def spy(counter, rects, moments=False):
        submitted.update(tuple(float(v) for v in rect) for rect in rects)
        return real(counter, rects, moments)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tipbeam.spectrum._Counter, "submit", spy)
        recs, report = spectrum_in_strip(p, k_max)
    derived = [(rect, w) for rect, w in report.boxes if rect not in submitted]
    assert len(derived) == report.stats["derived_boxes"] + report.stats["band_boxes"]
    outcomes, _ = _batch([rect for rect, _ in derived], tipbeam.spectrum._beam(p))
    assert [o[0] for o in outcomes] == [w for _, w in derived]
    return recs, report


def test_derived_boxes_on_the_lattice_set():
    # every frequency box of the p = 2 lattice point, and those below
    # sqrt(b)/pi + 1 of the large-b sets, are odd, so they split where their
    # moments fail: the five strips derive 89 boxes together
    derived = 0
    for args, k_max in [((1.0, 16.0 * math.pi**2, 1.0, 1.0, 1.0, 2.0), 28),
                        *[((1.0, (q * math.pi) ** 2, 1.0, k2, 3.0, k4), k_max)
                          for q, k_max in ((20.5, 30), (8.5, 24))
                          for k2, k4 in ((0.0, 0.0), (2.0, 1.0))]]:
        recs, report = _strip_with_derived_boxes_counted(validate_params(*args), k_max)
        assert report.incomplete_boxes == []
        assert report.global_count == sum(r.lam.imag > -0.3 for r in recs)
        derived += report.stats["derived_boxes"]
    assert derived > 80


def _isolated_boxes(boxes, counter):
    """_isolate on the (rect, known records) boxes, submitted to counter with
    moments, each box's known records given as lanes of counter that ended
    with them: the counts and, per box, its records."""
    given = []
    for _, known in boxes:
        given.append(np.arange(len(counter.records), len(counter.records) + len(known)))
        counter.records += known
    counts, found = tipbeam.spectrum._isolate(
        counter.submit([rect for rect, _ in boxes], moments=True), given, counter)
    return counts, [counter.records_of(box) for box in found]


def test_first_half_counting_more_than_its_box_raises(monkeypatch):
    # both roots lie in the first half, but the box's count is forged to one
    outer = (-1.0, 1.0, -1.0, 1.0)
    first = tipbeam.spectrum._halves(outer, tipbeam.spectrum._SPLITS[0])[0]
    real = tipbeam.spectrum._Counter._count

    def forged(counter, ticket):
        k, rect, samples = real(counter, ticket)
        return (1 if rect == outer else k), rect, samples

    monkeypatch.setattr(tipbeam.spectrum._Counter, "_count", forged)
    counter = tipbeam.spectrum._Counter(_known_zeros([(-0.5 + 0.2j, 1), (-0.5 - 0.3j, 1)]),
                                        RootSearchReport())
    with pytest.raises(NonConvergentContour) as err:
        _isolated_boxes([(outer, [])], counter)
    assert str(err.value) == (f"first half {first} counts 2 roots, "
                              f"more than the 1 of its box {outer}")


_OUTSIDE = [(1.5 + 0.5j, 1), (-0.2 - 1.7j, 1)]     # roots beside the unit box


@pytest.mark.parametrize("roots, known", [
    ([0.3 + 0.2j], []),
    ([0.3 + 0.2j, -0.4 - 0.5j], []),
    ([0.3 + 0.2j, -0.4 - 0.5j, -0.6 + 0.55j], [-0.6 + 0.55j]),
])
def test_isolate_closes_a_box_from_its_moments(roots, known):
    # the count's moments, less the known roots', seed Newton on the one or
    # two roots left: the box closes from one Newton batch, unsplit
    report = RootSearchReport()
    counter = tipbeam.spectrum._Counter(_known_zeros([(r, 1) for r in roots] + _OUTSIDE), report)
    known = [EigenvalueRecord(r, None, None, 0.0) for r in known]
    (count,), (recs,) = _isolated_boxes([(_UNIT, known)], counter)
    assert report.derived_boxes == 0 and report.moment_boxes == 1
    assert len(recs) == len(roots) == count
    for r in roots:
        assert sum(abs(rec.lam - r) <= 1e-12 for rec in recs) == 1


def test_a_pair_closer_than_newton_resolution_is_seeded_once(params_case2):
    # the families of case 2 lie 3.2e-8 apart at k = 400, closer than Newton
    # resolves: seeded as a pair they polish onto one root.  Seeding every
    # half that still held both took 799 Newton rounds
    report = RootSearchReport()
    (pair,) = frequency_pairs(params_case2, [400], report)
    assert len(pair) == 2 and 0 < abs(pair[0].lam - pair[1].lam) < 1e-7
    assert report.newton_rounds <= 60


@pytest.mark.parametrize("rect", [_UNIT, (-0.7, 0.9, 8.0, 11.0)])
def test_second_half_moments_are_its_power_sums(rect):
    # a split's second half takes the box's moments less its first half's,
    # each re-centred to its own centre
    roots = [complex(x, y) for x, y in np.random.default_rng(1).uniform(-1.0, 1.0, (12, 2))]
    roots = [0.5 * (rect[0] + rect[1]) + 0.5 * (rect[1] - rect[0]) * r.real
             + 1j * (0.5 * (rect[2] + rect[3]) + 0.5 * (rect[3] - rect[2]) * r.imag)
             for r in roots]
    first, second = tipbeam.spectrum._halves(rect, tipbeam.spectrum._SPLITS[0])

    def power_sums(box):
        z = np.array([r for r in roots if tipbeam.spectrum._inside(r, box)])
        z = z - tipbeam.spectrum._centre(box)
        return np.array([z.size, z.sum(), (z * z).sum()], dtype=complex)

    derived = tipbeam.spectrum._second_moments(rect, power_sums(rect), first,
                                               power_sums(first), second)
    exact = power_sums(second)
    assert np.all(np.abs(derived - exact) <= 1e-12 * np.maximum(1.0, np.abs(exact)))
    # the counter's moments are those power sums to within the error of its
    # quadrature, 1e-4 here, so a derived half agrees with its count to that
    target = _known_zeros([(r, 1) for r in roots])
    whole, one, two = _moments([rect, first, second], target)
    derived = tipbeam.spectrum._second_moments(rect, whole, first, one, second)
    assert abs(two[0] - exact[0]) <= 1e-12 * abs(exact[0])
    assert np.all(np.abs(derived - two) <= 1e-3 * np.maximum(1.0, np.abs(exact)))


def _lattice_odd_boxes():
    """The evaluate of the p = 2 lattice set and its frequency boxes up to
    k = 20, all odd, as (rect, seeded records), seeded from one counter's
    lanes."""
    p = validate_params(1.0, 16.0 * math.pi**2, 1.0, 1.0, 1.0, 2.0)
    evaluate, ks = tipbeam.spectrum._beam(p), range(K_MIN, 21)
    counter = tipbeam.spectrum._Counter(evaluate, RootSearchReport())
    lanes = np.reshape(counter.newton(tipbeam.spectrum._predictions(p, ks)), (-1, 2))
    tipbeam.spectrum._families(counter, ks, lanes.ravel())
    rects = [tipbeam.spectrum._validation_rect(p, k) for k in ks]
    kept = tipbeam.spectrum._distinct(counter.where(lanes), rects)
    boxes = [(rect, counter.records_of(pair[keep]))
             for rect, pair, keep in zip(rects, lanes, kept) if keep.sum() != 2]
    assert len(boxes) == len(ks)
    return evaluate, boxes


def _known_zero_boxes():
    """Fifteen roots in three boxes that tile (-3, 3) x (-1, 1), with the
    first two roots of the middle box known."""
    roots = [complex(x, y) for x, y in np.random.default_rng(2).uniform((-2.9, -0.9), (2.9, 0.9),
                                                                         (15, 2))]
    rects = [(-3.0, -1.0, -1.0, 1.0), (-1.0, 1.0, -1.0, 1.0), (1.0, 3.0, -1.0, 1.0)]
    known = [EigenvalueRecord(r, None, None, 0.0)
             for r in [r for r in roots if tipbeam.spectrum._inside(r, rects[1])][:2]]
    return _known_zeros([(r, 1) for r in roots]), [(rect, known) for rect in rects]


@pytest.mark.parametrize("boxes", [_known_zero_boxes, _lattice_odd_boxes],
                         ids=["known-zeros", "lattice"])
def test_one_isolate_pass_equals_box_by_box(boxes):
    # each box of one _isolate call gets the count and the records it gets
    # alone: only the order in which its moments are summed differs, so its
    # seeds differ in the last bits, and Newton lands within 1e-15
    evaluate, boxes = boxes()

    def isolate(boxes):
        return _isolated_boxes(boxes, tipbeam.spectrum._Counter(evaluate, RootSearchReport()))

    counts, found = isolate(boxes)
    assert sum(counts) > sum(len(known) for _, known in boxes)     # roots left to locate
    for box, count, recs in zip(boxes, counts, found):
        (alone_count,), (alone,) = isolate([box])
        assert count == alone_count == len(recs) == len(alone)
        for a, b in zip(tipbeam.spectrum._in_order(recs), tipbeam.spectrum._in_order(alone)):
            assert abs(a.lam - b.lam) <= 1e-15 * max(1.0, abs(b.lam))


def _isolated(roots):
    """The records `_isolate` returns for the simple roots in the unit box."""
    counter = tipbeam.spectrum._Counter(_known_zeros([(r, 1) for r in roots]),
                                        RootSearchReport())
    (count,), (recs,) = _isolated_boxes([(_UNIT, [])], counter)
    assert count == len(roots)
    return recs


def _assert_one_record_per_root(recs, roots):
    assert len(recs) == len(roots)
    for r in roots:
        matches = [rec for rec in recs if abs(rec.lam - r) <= 4 * np.finfo(float).eps]
        assert len(matches) == 1, (r, [rec.lam for rec in recs])


def test_isolate_separates_a_pair_closer_than_any_floor():
    # two roots 1.6e-8 apart beside a third: a floor on the box diameter
    # recorded one double root 4.2e-8 off both, and a leaf whose Newton
    # record could land outside it returned a2 twice
    a1 = -0.15361947115979258 + 0.42207042921971294j
    a2 = -0.15361945672837368 + 0.4220704226555521j
    b = -0.6931212600943707 + 0.4122272107373569j
    _assert_one_record_per_root(_isolated([a1, a2, b]), [a1, a2, b])


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(x=st.floats(-0.8, 0.8), y=st.floats(-0.8, 0.8), log_gap=st.floats(-11.0, -3.0),
       angle=st.floats(0.0, 6.3), third=st.tuples(st.floats(-0.9, 0.9), st.floats(-0.9, 0.9)))
def test_isolate_returns_each_of_a_close_pair_property(x, y, log_gap, angle, third):
    # a pair 1e-11 to 1e-3 apart and a third root: subdivision alone parts
    # the pair, and each leaf's record is the one root inside it
    a1 = complex(x, y)
    a2 = a1 + 10.0**log_gap * np.exp(1j * angle)
    b = complex(*third)
    assume(min(abs(b - a1), abs(b - a2)) > 1e-3)
    _assert_one_record_per_root(_isolated([a1, a2, b]), [a1, a2, b])


def test_isolate_refuses_a_known_record_across_a_split_line():
    # a known record 1e-13 across the first split line from its root a: the
    # second half, which holds one root b, would take it for b, so b would be
    # missed and a recorded twice, with every count met.  The box holds three
    # roots besides its known one, too many to seed from its moments, so it
    # splits
    line = -1.0 + 2.0 * tipbeam.spectrum._SPLITS[0]
    a, b, c, d = complex(line - 2e-14, 0.3), 0.5 - 0.4j, -0.6 + 0.5j, -0.5 - 0.5j
    known = EigenvalueRecord(a + 1e-13, None, None, 0.0)
    counter = tipbeam.spectrum._Counter(_known_zeros([(a, 1), (b, 1), (c, 1), (d, 1)]),
                                        RootSearchReport())
    with pytest.raises(BoundaryTooCloseToRoot) as err:
        _isolated_boxes([(_UNIT, [known])], counter)
    named = [complex(z) for z in re.findall(r"\(([^()]*j)\)", str(err.value))]
    assert len(named) == 2 and known.lam in named
    assert min(abs(z - a) for z in named) <= 4 * np.finfo(float).eps


def test_isolate_refuses_a_double_root_by_name():
    # no subdivision parts a double root: a box around it is refused, named
    a = -0.15361947115979258 + 0.42207042921971294j
    counter = tipbeam.spectrum._Counter(_known_zeros([(a, 2), (-0.5 - 0.5j, 1)]),
                                        RootSearchReport())
    with pytest.raises(BoundaryTooCloseToRoot) as err:
        _isolated_boxes([(_UNIT, [])], counter)
    named = re.match(r"boundary of \(([^)]*)\) ", str(err.value))
    assert named
    re_lo, re_hi, im_lo, im_hi = map(float, named.group(1).split(","))
    assert re_lo <= a.real <= re_hi and im_lo <= a.imag <= im_hi


def test_spectrum_stats_count_the_search(fig_spectrum):
    _, report = fig_spectrum
    stats = report.stats
    assert stats["boxes"] == len(report.boxes)
    assert stats["newton_iterations"] == sum(it for _, it in report.newton_iterations)
    assert stats["newton_calls"] >= len(report.newton_iterations)
    # a derived or band-certified box is counted on no samples of its own
    assert 0 < stats["derived_boxes"] < stats["boxes"]
    assert 0 < stats["band_boxes"] < stats["boxes"]
    counted = stats["boxes"] - stats["derived_boxes"] - stats["band_boxes"]
    assert stats["contour_points"] >= 64 * counted
    assert stats["global_points"] >= 64


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
    recs, report = _strip_with_derived_boxes_counted(p, k_max)
    assert report.incomplete_boxes == []
    assert_tiled(recs, report)
    for k in range(K_MIN, k_max + 1):
        for center in (k * math.pi, -k * math.pi):
            near = [r for r in recs if abs(r.lam.imag - center) <= math.pi / 2]
            assert len(near) == 2, (k, center)
    for r in recs:
        twin = r.lam.conjugate()
        assert any(abs(s.lam - twin) <= 1e-8 * max(1.0, abs(twin)) for s in recs)
        assert r.lam.real >= -max(p.k2, p.k4) - 1e-8 * max(1.0, abs(r.lam))
    if not p.is_conservative:
        assert report.global_count is not None
        assert all(r.lam.real < 0 for r in recs)


_TOL = tipbeam.spectrum._COINCIDENCE_RTOL
_SWEEP_PREDS = predict_eigenvalue(np.arange(1, K_MIN)[:, None], np.array([1, 2]),
                                  validate_params(1.0, 2.0, 1.0, 2.0, 3.0, 2.0)).ravel()


@st.composite
def _bookkeeping_records(draw):
    """Records at the edges of the strip's bookkeeping: pairs at the
    coincidence tolerance _TOL * max(1, |lambda|) from each other and just
    inside or outside it, repeated values, Im noise at 1e-12 * max(1,
    |lambda|) on both sides of that threshold, and roots at 0.5 from a
    sweep prediction; each with a family or none, and known or not."""
    lams = []
    for _ in range(draw(st.integers(1, 10))):
        a = complex(draw(st.floats(-3.0, 0.5)), draw(st.floats(-40.0, 40.0)))
        kind = draw(st.sampled_from(["plain", "pair", "same", "axis", "prediction"]))
        side = draw(st.sampled_from([1.0, 1.0 - 1e-15, 1.0 + 1e-15, 0.5, 2.0]))
        turn = np.exp(1j * math.pi * draw(st.sampled_from([0.0, 0.25, 0.5, 1.0, 1.5])))
        if kind == "pair":
            lams += [a, a + side * _TOL * max(1.0, abs(a)) * turn]
        elif kind == "same":
            lams += [a, a]
        elif kind == "axis":
            lams.append(complex(a.real, turn.real * side * 1e-12 * max(1.0, abs(a.real))))
        elif kind == "prediction":
            lams.append(complex(draw(st.sampled_from(list(_SWEEP_PREDS))) + 0.5 * side * turn))
        else:
            lams.append(a)
    families = [draw(st.sampled_from([None, 1, 2])) for _ in lams]
    known = [draw(st.booleans()) for _ in lams]
    recs = [EigenvalueRecord(lam, None, j, 0.0) for lam, j in zip(lams, families)]
    # a rect over all of them, or one whose edges pass through some of them
    edges = draw(st.lists(st.sampled_from(lams), min_size=2, max_size=2))
    rect = draw(st.sampled_from([
        (-4.0, 1.0, -50.0, 50.0),
        (min(z.real for z in edges), max(z.real for z in edges),
         min(z.imag for z in edges), max(z.imag for z in edges))]))
    return recs, np.array(known), rect


def _ids(recs):
    return [id(rec) for rec in recs]


def _assert_bookkeeping_matches(recs, known, rect):
    """The array bookkeeping of spectrum gives, on recs, what the per-record
    forms of tests/reference.py give: the same records, in the same order."""
    lam = np.array([rec.lam for rec in recs], dtype=complex)
    inside = [rec for rec in recs if reference.inside(rec.lam, rect)]
    kept = tipbeam.spectrum._distinct(lam, rect)
    assert _ids(np.array(recs, dtype=object)[kept]) == _ids(reference.distinct(inside))
    assert int(tipbeam.spectrum._inside(lam, rect).sum()) == reference.recovered(recs, rect)
    for order in (recs, recs[::-1]):
        assert (_ids(tipbeam.spectrum._in_order(order))
                == _ids(sorted(order, key=reference.record_order)))
    coinciding = reference.refuse_coincident(recs, [rec for rec, k in zip(recs, known) if k])
    if coinciding is None:
        tipbeam.spectrum._refuse_coincident(lam, known)
    else:
        with pytest.raises(BoundaryTooCloseToRoot, match="coincide"):
            tipbeam.spectrum._refuse_coincident(lam, known)
    labelled = [replace(rec) for rec in recs]
    tipbeam.spectrum._label_low_frequency(labelled, _SWEEP_PREDS)
    expected = [replace(rec) for rec in recs]
    reference.label_low_frequency(expected, _SWEEP_PREDS)
    assert [(r.k_index, r.family) for r in labelled] == [(r.k_index, r.family) for r in expected]


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(case=_bookkeeping_records())
def test_array_bookkeeping_matches_the_per_record_forms(case):
    # coincidence, inside masks, the record order, the refusal of coinciding
    # records and the sweep's labels run on arrays; they pick the records,
    # and the order, that the per-record loops they replaced pick
    _assert_bookkeeping_matches(*case)


@pytest.mark.parametrize("args, k_max", [
    ((1.0, 2.0, 1.0, 2.0, 3.0, 2.0), 20), ((1.0, 2.0, 1.0, 0.0, 3.0, 0.0), 20),
    ((1.0, 4.0 * math.pi**2, 2.0, 1.0, 2.0, 5.0), 20),
    ((1.0, 16.0 * math.pi**2, 1.0, 1.0, 1.0, 2.0), 28)],
    ids=["generic", "conservative", "degenerate", "lattice"])
def test_strip_bookkeeping_matches_the_per_record_forms(args, k_max):
    p = validate_params(*args)
    recs, report = spectrum_in_strip(p, k_max)
    assert report.incomplete_boxes == []
    union = tipbeam.spectrum._union_box(p, k_max)
    assert reference.recovered(recs, union) == report.global_count
    known = np.array([rec.k_index is not None for rec in recs])
    for rect in (tipbeam.spectrum._sweep_box(p), union):
        _assert_bookkeeping_matches(recs, known, rect)


def test_sweep_closes_on_the_final_records_of_its_known_lanes(params_conservative, monkeypatch):
    # the conservative sweep's count is in while its known lanes still step,
    # and its moment seeds start from their iterates.  Here the lane of
    # (k, j) = (1, 2) then goes flat, on the call after the seeds started,
    # before it converged: it fails, so its root is not a known one after
    # all.  The sweep must not close on the known roots it was seeded with:
    # it splits, locates that root, and the strip is still certified
    p = params_conservative
    clean, clean_report = spectrum_in_strip(p, 50)
    assert clean_report.derived_boxes == 0
    root = family_roots(p, 1)[1].lam
    seeded_at, calls, hits = [], [], []
    real_seeds, real_beam = tipbeam.spectrum._moment_seeds, tipbeam.spectrum._beam

    def seeds(*args):
        seeded_at.append(len(calls))
        return real_seeds(*args)

    def beam(p):
        evaluate = real_beam(p)

        def scripted(z):
            calls.append(z.size)
            f, d, fval = evaluate(z)
            if seeded_at and len(calls) == seeded_at[0] + 1:
                near = np.abs(z - root) < 1e-6
                hits.append(int(near.sum()))
                d = np.where(near, 0.0, d)
            return f, d, fval

        return scripted

    monkeypatch.setattr(tipbeam.spectrum, "_moment_seeds", seeds)
    monkeypatch.setattr(tipbeam.spectrum, "_beam", beam)
    recs, report = spectrum_in_strip(p, 50)
    assert seeded_at[0] == 5 and hits == [1]
    assert report.incomplete_boxes == [] and report.derived_boxes > 0
    assert len(recs) == len(clean)
    for rec in clean:
        assert min(abs(r.lam - rec.lam) for r in recs) <= 1e-12 * max(1.0, abs(rec.lam))
