"""Eigenvalue search in the horizontal strip of the complex plane.

The strip is tiled by boxes that share their edges: a low-frequency sweep
box from Im = -0.3 up to (K_MIN - 1/2) pi, searched by argument-principle
counting with recursive box subdivision (robust, no a-priori location
knowledge), and one frequency box per k >= K_MIN from (k - 1/2) pi to
(k + 1/2) pi, whose two roots are Newton-polished from the closed-form
predictions and validated by the box's winding count.  Each root is
recorded by the one box that holds it; a count over the union of the boxes
certifies the whole strip, so a root found twice or missed shows there.
The negative half comes from conjugate closure.  The left edge of the
dissipative boxes is -max(k2, k4) - 1: for an energy-normalized mode,
Re lambda = -(k2/k1)|eta|^2 - (k4/k3)|gamma|^2 with |eta|^2/k1 +
|gamma|^2/k3 <= 1, so Re lambda >= -max(k2, k4).  All contour work uses the
single-valued surrogate F = f * t1 * t3 from charfn, which has the same
zeros as f off the branch points but no sheet jumps.

The counter and the Newton kernel see only a _Target: evaluate(z) -> (F, F',
f) and an excluded(z) mask.  Each beam-facing entry point binds the beam's
pair once, in `_beam`; other analytic functions use the same seam.

A winding count sums the phase increments arg F(z_{i+1})/F(z_i) around the
box (Kravanja & Van Barel, Computing the Zeros of Analytic Functions, 2000;
Johnson & Tucker, Enclosing all zeros of an analytic function, 2009).  An
interval is refined until its increment and its F'-bounded turn
max |F'/F| * |z_{i+1} - z_i| at its two ends both stay within pi/4; the
F' bound catches a close pair of roots whose 2 pi turn the wrapped
increment alone would hide.  The sum is then an integer up to rounding.
Boxes split off centre, so no edge of the conservative sweep lands on the
root locus Re lambda = 0.  When a half cannot be counted unshifted, its
parent splits again at another fraction: the split line moves, not the half.

Counting is batched.  A search submits all its boxes to one counter, and
every box refines in the same rounds: each call of the characteristic
function takes at most _CHUNK = 1024 new samples of the live boxes, the most
recently submitted first, which keeps the working set small.  The checks
stay per box.  The frequency boxes and the union of the strip count in the
background while the sweep subdivides, and a box's halves start as soon as
its own count is in, so the k <= 200 strip takes about a hundred calls.  Per
box the samples, and so the counts, are those of counting the box alone.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .asymptotics import predict_eigenvalue
from .charfn import _near_branch_point, entire_char_fn_and_derivative
from .errors import (
    BasinEscape,
    BoundaryTooCloseToRoot,
    NearBranchPoint,
    NoConvergence,
    NonConvergentContour,
)
from .model import BeamParams, require_unit_speed

K_MIN = 8                     # boundary between contour sweep and seeded Newton
_COINCIDENCE_RTOL = 1e-10     # Newton resolution; scale of a genuine double root
_DIP_FACTOR = 1e-6            # |F| dip threshold relative to boundary median
_SPLITS = (0.4382, 0.4182, 0.4582, 0.3982, 0.4782)   # off centre, tried in turn
_EDGE_POINTS = 16             # initial samples per box edge
_MAX_TURN = math.pi / 4       # bound on an interval's increment and its F'-bounded turn
_SAMPLE_BUDGET = 4 * 8192     # samples per boundary before the box is shifted
_INTEGER_TOL = 1e-9           # rounding slack of the increment sum
_SHIFTS = ((0.01, 0.0), (-0.01, 0.0), (0.0, 0.01), (0.0, -0.01), (0.01, 0.01))
_CHUNK = 1024                 # points per contour evaluation call; bounds the working set


@dataclass
class EigenvalueRecord:
    """One located eigenvalue with its search provenance."""

    lam: complex
    k_index: int | None
    family: int | None
    residual: float
    multiplicity: int
    iterations: int = 0          # Newton steps to convergence


@dataclass
class RootSearchReport:
    """Boxes examined, Newton effort, and completeness diagnostics."""

    boxes: list = field(default_factory=list)            # (rect, winding)
    newton_iterations: list = field(default_factory=list)  # (lam, iterations)
    k0_effective: int | None = None
    duplicates_merged: int = 0   # always 0: the boxes tile; kept for perfbench/layers.py
    # (rect, winding or None when the box could not be counted, recovered)
    incomplete_boxes: list = field(default_factory=list)
    shifted_boxes: int = 0       # counts made on a shifted box, plus re-splits
    contour_points: int = 0      # F evaluations in counting, refinements included
    contour_rounds: int = 0      # (F, F') evaluation calls made by counting
    newton_calls: int = 0        # Newton polishes started, converged or not
    newton_rounds: int = 0       # batched (F, F', f) evaluations of those polishes
    global_count: int | None = None   # winding over the union of the strip's boxes

    @property
    def stats(self) -> dict:
        """Deterministic effort counts; newton_iterations sums the converged polishes.

        boxes, shifted_boxes and contour_points cover the search boxes; the
        global count of a strip is not among them, but its evaluation calls,
        shared with the frequency boxes, are in contour_rounds.
        """
        return {"boxes": len(self.boxes), "shifted_boxes": self.shifted_boxes,
                "contour_points": self.contour_points, "contour_rounds": self.contour_rounds,
                "newton_calls": self.newton_calls,
                "newton_iterations": sum(it for _, it in self.newton_iterations),
                "newton_rounds": self.newton_rounds, "global_count": self.global_count}


class _Target(NamedTuple):
    """evaluate(z) -> (F, F', f) on a 1-d array: the function counted and
    polished, its exact derivative and the residual |f| reported at a root.
    excluded(z) marks where evaluate must not go: a boundary sample there
    shifts its box, a Newton iterate there ends its lane (NearBranchPoint).
    """

    evaluate: Callable
    excluded: Callable


def _beam(p: BeamParams) -> _Target:
    """The beam's surrogate F = f t1 t3, with f, away from its branch points."""
    require_unit_speed(p)
    return _Target(lambda z: entire_char_fn_and_derivative(z, p),
                   lambda z: _near_branch_point(z, p.b))


def _boundary(rect) -> np.ndarray:
    """The closed boundary, counter-clockwise: each corner once, _EDGE_POINTS per edge."""
    re_lo, re_hi, im_lo, im_hi = rect
    corners = np.array([complex(re_lo, im_lo), complex(re_hi, im_lo),
                        complex(re_hi, im_hi), complex(re_lo, im_hi)])
    t = np.arange(_EDGE_POINTS) / _EDGE_POINTS
    return (corners[:, None] + (np.roll(corners, -1) - corners)[:, None] * t).ravel()


class _Boundary:
    """One box boundary under refinement, at a shift attempt of the base rect.

    zfd holds the samples z, F and F' in boundary order as rows, closed by a
    copy of the first column.  pending holds the samples of the current
    round, evaluated in chunks (send, receive), and slots the columns they
    are inserted before.  samples counts the evaluations of every attempt.
    """

    def __init__(self, base, attempt: int = 0, samples: int = 0):
        self.base, self.attempt, self.samples = base, attempt, samples
        if attempt:
            re_lo, re_hi, im_lo, im_hi = base
            w, h = re_hi - re_lo, im_hi - im_lo
            sx, sy = _SHIFTS[attempt - 1]
            self.rect = (re_lo + sx * w, re_hi + sx * w, im_lo + sy * h, im_hi + sy * h)
        else:
            self.rect = base
        self.slots = None            # None until the initial samples are evaluated
        self.winding = None
        self._queue(_boundary(self.rect))

    def _queue(self, samples):
        self.pending, self.sent, self.parts = samples, 0, []

    def send(self, room: int) -> np.ndarray:
        """The next at most `room` pending samples to evaluate."""
        chunk = self.pending[self.sent:self.sent + room]
        self.sent += chunk.size
        return chunk

    def receive(self, f, d) -> bool:
        """Keep F, F' at sent samples; True once the whole round is in."""
        self.parts.append((f, d))
        return self.sent == self.pending.size

    def absorb(self) -> bool:
        """Take in the round; True when midpoints are pending again.

        Otherwise the box is finished: winding is the sum of the phase
        increments over 2 pi, or None when |F| dipped below _DIP_FACTOR of the
        median of the initial samples or refinement needs more than
        _SAMPLE_BUDGET samples.
        """
        f = np.concatenate([part[0] for part in self.parts])
        d = np.concatenate([part[1] for part in self.parts])
        self.samples += f.size
        new = np.stack([self.pending, f, d])
        if self.slots is None:
            self.zfd = np.concatenate([new, new[:, :1]], axis=1)
            self.floor = _DIP_FACTOR * np.median(np.abs(f))
        else:
            self.zfd = np.insert(self.zfd, self.slots, new, axis=1)
        if np.abs(f).min() < self.floor:
            return False
        z, fz, dz = self.zfd
        turn = np.angle(fz[1:] / fz[:-1])
        slope = np.abs(dz / fz)
        bound = np.maximum(slope[:-1], slope[1:]) * np.abs(z[1:] - z[:-1])
        coarse = np.flatnonzero((np.abs(turn) > _MAX_TURN) | (bound > _MAX_TURN))
        if coarse.size == 0:
            self.winding = turn.sum() / (2.0 * math.pi)
            return False
        if turn.size + coarse.size > _SAMPLE_BUDGET:
            return False
        self._queue(0.5 * (z[coarse] + z[coarse + 1]))
        self.slots = coarse + 1
        return True


class _Counter:
    """Winding counts of many boxes that share their evaluation calls.

    Boxes join with `submit` and refine round by round (see _Boundary).  Each
    call evaluates at most _CHUNK pending samples, those of the most recently
    submitted boxes first, so a subdivision goes ahead of boxes still counting
    in the background; a box's round may span calls.  Pending samples are
    screened by the target's excluded mask before they are queued, so such a
    box shifts without raising for the others.  A box that fails restarts shifted by the
    next entry of _SHIFTS.  A rect already submitted keeps its ticket, so a
    search can start boxes early and collect them later.
    """

    def __init__(self, target: _Target, report: RootSearchReport):
        self.target, self.report = target, report
        self.tickets = {}     # base rect -> ticket
        self.boxes = []       # per ticket, the current attempt
        self.outcomes = {}    # ticket -> (count, rect used, samples, shifted) or the error
        self.live = []        # unresolved tickets, in submission order

    def submit(self, rects) -> list:
        """Tickets of rects; counting starts for those not yet submitted."""
        tickets = []
        for rect in rects:
            base = tuple(float(v) for v in rect)
            if base not in self.tickets:
                self.tickets[base] = len(self.boxes)
                self.boxes.append(None)
                self.live.append(self.tickets[base])
                self._screen(self.tickets[base], _Boundary(base))
            tickets.append(self.tickets[base])
        return tickets

    def outcomes_of(self, tickets) -> list:
        """The outcomes of the tickets, in order, once all are resolved."""
        while any(t not in self.outcomes for t in tickets):
            self._call()
        return [self.outcomes[t] for t in tickets]

    def first_resolved(self, groups) -> list:
        """Indices of the groups of tickets wholly resolved, once at least one is."""
        while not any(all(t in self.outcomes for t in g) for g in groups):
            self._call()
        return [i for i, g in enumerate(groups) if all(t in self.outcomes for t in g)]

    def _screen(self, ticket: int, box: _Boundary):
        """Make box the ticket's; shift it if a pending sample is excluded."""
        self.boxes[ticket] = box
        if self.target.excluded(box.pending).any():
            self._shift(ticket)

    def _shift(self, ticket: int):
        box = self.boxes[ticket]
        if box.attempt < len(_SHIFTS):
            self._screen(ticket, _Boundary(box.base, box.attempt + 1, box.samples))
        else:
            self._resolve(ticket, BoundaryTooCloseToRoot(
                f"boundary of {box.base} grazes a root or needs over {_SAMPLE_BUDGET} "
                f"samples after {len(_SHIFTS)} shifts"))

    def _resolve(self, ticket: int, outcome):
        self.outcomes[ticket] = outcome
        self.boxes[ticket] = None     # its samples are no longer needed
        self.live.remove(ticket)

    def _finish(self, ticket: int):
        box = self.boxes[ticket]
        if box.winding is None:
            self._shift(ticket)      # grazes a root or over budget
            return
        k = np.rint(box.winding)
        if not abs(box.winding - k) <= _INTEGER_TOL or k < 0:     # NaN fails too
            self._resolve(ticket, NonConvergentContour(
                f"phase increments around {box.rect} sum to {float(box.winding)!r} turns"))
        else:
            self._resolve(ticket, (int(k), box.rect, box.samples, box.attempt > 0))

    def _call(self):
        """One evaluation of at most _CHUNK pending samples, newest boxes first."""
        room, sent = _CHUNK, []
        for ticket in reversed(self.live):
            chunk = self.boxes[ticket].send(room)
            if chunk.size:
                sent.append((ticket, chunk))
                room -= chunk.size
                if not room:
                    break
        f, d, _ = self.target.evaluate(np.concatenate([c for _, c in sent]))
        self.report.contour_rounds += 1
        start = 0
        for ticket, chunk in sent:
            end = start + chunk.size
            box = self.boxes[ticket]
            if box.receive(f[start:end], d[start:end]):
                if box.absorb():
                    self._screen(ticket, box)
                else:
                    self._finish(ticket)
            start = end


def _logged(outcomes, report: RootSearchReport):
    """(count, rect used) of each counter outcome, logged to report; the first
    error, in the given order, is raised."""
    for outcome in outcomes:
        if isinstance(outcome, Exception):
            raise outcome
    for k, used, samples, shifted in outcomes:
        report.boxes.append((used, k))
        report.shifted_boxes += int(shifted)
        report.contour_points += samples
    return [outcome[:2] for outcome in outcomes]


def count_roots_in_rect(rect, p: BeamParams, report: RootSearchReport | None = None) -> int:
    """Number of eigenvalues (with multiplicity) inside an axis-aligned box.

    rect = (re_lo, re_hi, im_lo, im_hi).  This is the one-box use of the
    batched counter, which refines many boxes in shared rounds: each
    evaluation call takes at most 1024 new samples of the live boxes.  The
    boundary starts with each corner and 16 points per edge; an interval
    whose phase increment exceeds pi/4, or whose length times the larger
    |F'/F| at its ends exceeds pi/4, gets its midpoint, round by round.  The
    winding is the sum of the increments over 2 pi, an integer up to
    rounding; a sum off an integer by more than 1e-9, or negative, raises
    NonConvergentContour.  If |F| on the boundary dips below 1e-6 of the
    median of the initial samples, a sample comes within 1e-6 of a branch
    point, or refinement needs more than 4 * 8192 samples, the box is shifted
    by 1% of its size, up to five deterministic attempts, then
    BoundaryTooCloseToRoot.  Both errors name the rectangle, as does the
    ValueError for a rect not finite with re_lo < re_hi, im_lo < im_hi.
    """
    re_lo, re_hi, im_lo, im_hi = rect
    if not (np.isfinite(rect).all() and re_lo < re_hi and im_lo < im_hi):
        raise ValueError(f"rect {tuple(rect)} is not finite with re_lo < re_hi, im_lo < im_hi")
    counter = _Counter(_beam(p), report or RootSearchReport())
    return _logged(counter.outcomes_of(counter.submit([rect])), counter.report)[0][0]


def polish(seeds, p: BeamParams, tol: float = 1e-13,
           report: RootSearchReport | None = None) -> list:
    """Newton on the surrogate F from each seed of a 1-d array, all lanes at once.

    Each round evaluates (F, F', f) once, on the lanes still running.  A
    lane converges when |f(lam)| <= tol * max(1, |lam|) and its last step
    fell below 1e-12 * max(1, |lam|) (so already-small seeds are still
    refined); at most 50 iterations, each iterate within 0.5 of its seed.
    The step test scales with |lam|, so a root whose derivative is depressed
    by a neighbor Theta(1/k^2) away can keep one productive step: up to 3
    more follow while they stay in the basin and strictly lower |f|, landing
    on the evaluation floor of the determinant.  ``iterations`` counts the
    steps up to convergence.  Returns, per seed, an EigenvalueRecord or the
    NoConvergence, BasinEscape or NearBranchPoint (an iterate within 1e-6 of
    a branch point) that ended the lane.  A lane's arithmetic does not
    depend on the other lanes.
    """
    return _newton(seeds, _beam(p), tol, report or RootSearchReport())


def _newton(seeds, target: _Target, tol: float, report: RootSearchReport) -> list:
    """The kernel of `polish`, on the zeros of target's F."""
    if tol < 1e-13:
        raise ValueError(f"tol must be >= 1e-13, got {tol}")
    seeds = np.asarray(seeds, dtype=complex)
    n = seeds.size
    out = [None] * n
    lam, best, best_res, step = seeds.copy(), seeds.copy(), np.full(n, np.inf), np.full(n, np.inf)
    its, conv = np.zeros(n, dtype=int), np.full(n, -1)   # conv: its at convergence
    live = np.arange(n)
    while live.size:
        near = target.excluded(lam[live])
        for i in live[near]:
            out[i] = NearBranchPoint(f"lambda={complex(lam[i])} within 1e-6 of a branch point")
        live = live[~near]
        if not live.size:
            break
        z = lam[live]
        surrogate, slope, fval = target.evaluate(z)
        report.newton_rounds += 1
        residual, scale = np.abs(fval), np.maximum(1.0, np.abs(z))
        polishing = conv[live] >= 0        # floor polish keeps strict drops only
        keep = np.where(polishing, residual < best_res[live],
                        (step[live] <= 1e-12 * scale) & (residual <= tol * scale))
        conv[live[keep & ~polishing]] = its[live[keep & ~polishing]]
        best[live[keep]], best_res[live[keep]] = z[keep], residual[keep]
        found = conv[live] >= 0
        done = polishing & (~keep | (its[live] == conv[live] + 3))
        stuck = ~found & (its[live] == 50)
        with np.errstate(divide="ignore", invalid="ignore"):
            delta = surrogate / slope
            new = z - delta
        flat = ~done & ~stuck & (slope == 0)
        escaped = ~done & ~stuck & ~flat & (np.abs(new - seeds[live]) > 0.5)
        for i in live[stuck]:
            out[i] = NoConvergence(f"Newton did not converge from seed {complex(seeds[i])}")
        for i in live[flat & ~found]:
            out[i] = NoConvergence(f"flat surrogate at {complex(lam[i])}")
        for i, it in zip(live[escaped & ~found], new[escaped & ~found]):
            out[i] = BasinEscape(f"iterate {complex(it)} left the basin of seed "
                                 f"{complex(seeds[i])}")
        # a converged lane that goes flat or leaves its basin keeps its record
        go = ~(done | stuck | flat | escaped)
        live = live[go]
        lam[live], step[live] = new[go], np.abs(delta[go])
        its[live] += 1
    report.newton_calls += n
    # every lane that ended without an error had converged
    return [rec if rec is not None else
            EigenvalueRecord(complex(best[i]), None, None, float(best_res[i]), 1, int(conv[i]))
            for i, rec in enumerate(out)]


def refine_root(seed: complex, p: BeamParams, tol: float = 1e-13) -> EigenvalueRecord:
    """Polish one root: `polish` on a one-element batch, its failure raised."""
    (rec,) = polish(np.array([complex(seed)]), p, tol)
    if isinstance(rec, Exception):
        raise rec
    return rec


def family_roots(p: BeamParams, k, tol: float = 1e-13, report: RootSearchReport | None = None):
    """Both family roots near i k pi, Newton-polished from their predictions.

    k is one frequency index or a sequence of them; all seeds go through
    one Newton batch.  Records come in (k, family) order with k_index and
    family set, and are logged to report when given.  A failed lane is
    raised again naming k and j, after every lane was tried (the first
    failure in that order).
    """
    recs, failure = _families(p, _beam(p), k, tol, report or RootSearchReport())
    if failure is not None:
        raise failure
    return recs


def _families(p: BeamParams, target: _Target, k, tol: float, report: RootSearchReport):
    """family_roots on target: the records and the first failure, or None."""
    ks = [int(k)] if np.ndim(k) == 0 else [int(v) for v in k]
    lanes = [(kk, j) for kk in ks for j in (1, 2)]
    seeds = [predict_eigenvalue(kk, j, p) for kk, j in lanes]
    recs, failure = [], None
    for (kk, j), rec in zip(lanes, _newton(np.array(seeds, dtype=complex), target, tol, report)):
        if isinstance(rec, Exception):
            failure = failure or type(rec)(f"family {j} at k = {kk}: {rec}")
            continue
        rec.k_index, rec.family = kk, j
        recs.append(rec)
    report.newton_iterations.extend((rec.lam, rec.iterations) for rec in recs)
    return recs, failure


def _validation_rect(p: BeamParams, k: int):
    im_lo, im_hi = (k - 0.5) * math.pi, (k + 0.5) * math.pi
    if p.is_conservative:
        return (-0.5, 0.5, im_lo, im_hi)
    # right edge slightly into the right half plane: no roots there, and it
    # keeps high-k roots (Re ~ -1/k^2) safely off the contour
    return (-max(p.k2, p.k4) - 1.0, 0.2, im_lo, im_hi)


def _inside(lam: complex, rect) -> bool:
    return rect[0] <= lam.real <= rect[1] and rect[2] <= lam.imag <= rect[3]


def frequency_pairs(p: BeamParams, ks, report: RootSearchReport | None = None) -> list:
    """(records, complete) of each frequency k in ks: both family roots near
    i k pi from one Newton batch, jointly validated by one batch of box counts.

    The records of k are those inside the rect its box was counted on,
    (k - 1/2) pi <= Im lambda <= (k + 1/2) pi unless the box was shifted, so
    adjacent boxes never report one root twice.  complete means the winding
    count over that rect equals their multiplicity.  When both families
    polish onto one root (agreeing to Newton resolution) while the box
    counts 2, the box is subdivided (see _isolate) until its roots isolate:
    two distinct roots, as with unequal damping gains and degenerate sqrt(b)
    at Theta(1/k^2) apart, come back as two records in family order; only an
    unresolvable cluster comes back as one record of multiplicity 2.
    """
    counter = _Counter(_beam(p), report or RootSearchReport())
    return _frequency_pairs(p, ks, counter)


def _frequency_pairs(p: BeamParams, ks, counter: _Counter):
    """frequency_pairs with the boxes counted on `counter`."""
    ks = list(ks)
    by_k = {}
    for rec in _families(p, counter.target, ks, 1e-13, counter.report)[0]:
        by_k.setdefault(rec.k_index, []).append(rec)
    rects = counter.submit([_validation_rect(p, k) for k in ks])
    counts = _logged(counter.outcomes_of(rects), counter.report)
    return [_check_pair(p, k, by_k.get(k, []), count, rect, counter)
            for k, (count, rect) in zip(ks, counts)]


def _check_pair(p: BeamParams, k: int, recs, count: int, rect, counter: _Counter):
    """The polished recs of frequency box k that lie inside rect, and whether
    their multiplicity equals its count over rect."""
    inside = [r for r in recs if _inside(r.lam, rect)]
    coincident = len(inside) == 2 and abs(inside[0].lam - inside[1].lam) <= \
        _COINCIDENCE_RTOL * max(1.0, abs(inside[0].lam))
    if coincident and count == 2:
        inside = _isolate(rect, count, counter)
        _label_pair(inside, p, k)
    complete = count == sum(r.multiplicity for r in inside)
    if not complete:
        counter.report.incomplete_boxes.append(
            (rect, count, sum(r.multiplicity for r in inside)))
    return inside, complete


def _label_pair(recs, p: BeamParams, k: int):
    """Tag the roots of frequency box k, in place, in family order: the
    assignment to the two predictions with the smaller total distance."""
    preds = [predict_eigenvalue(k, j, p) for j in (1, 2)]
    if len(recs) == 2 and (abs(recs[0].lam - preds[1]) + abs(recs[1].lam - preds[0])
                           < abs(recs[0].lam - preds[0]) + abs(recs[1].lam - preds[1])):
        recs.reverse()
    for j, rec in enumerate(recs, start=1):
        rec.k_index, rec.family = k, j


def _sweep_box(p: BeamParams):
    top = (K_MIN - 0.5) * math.pi     # the bottom edge of frequency box K_MIN
    if p.is_conservative:
        return (-0.5, 0.5, -0.3, top)
    return (-max(p.k2, p.k4) - 1.0, -1e-12, -0.3, top)


def _halves(rect, fraction: float):
    """The two halves of rect, its longer side split at `fraction` of its length."""
    re_lo, re_hi, im_lo, im_hi = rect
    w, h = re_hi - re_lo, im_hi - im_lo
    if w >= h:
        mid = re_lo + fraction * w
        return [(re_lo, mid, im_lo, im_hi), (mid, re_hi, im_lo, im_hi)]
    mid = im_lo + fraction * h
    return [(re_lo, re_hi, im_lo, mid), (re_lo, re_hi, mid, im_hi)]


def _isolate(outer, total: int, counter: _Counter):
    """Records of the `total` roots in `outer`, by recursive subdivision.

    Each box splits its longer side at the fraction _SPLITS[0], not at the
    centre: halving the symmetric conservative box would put an edge on
    Re lambda = 0, where every conservative root lies.  The halves of a box
    go to the counter as soon as its own count is in, so boxes of every
    depth share evaluation calls.  Once both are in, a half counted only
    shifted (or not at all) drops both, and the box splits again at the next
    fraction, so the halves tile it; each re-split adds one to
    report.shifted_boxes.  The last fraction's halves are taken as counted.
    A box with one root and diameter at most 0.25 waits as a leaf.  Whenever
    no count of the subdivision is pending, all waiting leaves are
    Newton-polished from their centres in one Newton batch; a leaf whose
    polish fails or lands outside it splits in turn.
    """
    report, target = counter.report, counter.target
    records, leaves, splits = [], [], []     # splits: (rect, count, attempt, tickets)

    def split(rect, cnt: int, attempt: int = 0):
        splits.append((rect, cnt, attempt, counter.submit(_halves(rect, _SPLITS[attempt]))))

    boxes = [(outer, total)] if total else []
    visited = 0
    while boxes or splits or leaves:
        for rect, cnt in boxes:
            visited += 1
            if visited > 10000:
                raise NoConvergence(f"subdivision of {outer} exploded")
            re_lo, re_hi, im_lo, im_hi = rect
            diam = max(re_hi - re_lo, im_hi - im_lo)
            center = complex(0.5 * (re_lo + re_hi), 0.5 * (im_lo + im_hi))
            if diam < 1e-6:
                # unresolvable cluster: record as a multiple root at the center
                residual = float(abs(target.evaluate(np.array([center]))[2][0]))
                records.append(EigenvalueRecord(center, None, None, residual, cnt))
            elif cnt == 1 and diam <= 0.25:
                leaves.append((rect, center))
            else:
                split(rect, cnt)
        boxes = []
        if splits:
            done = counter.first_resolved([tickets for *_, tickets in splits])
            ready = [splits[i] for i in done]
            splits = [s for i, s in enumerate(splits) if i not in done]
            for rect, cnt, attempt, tickets in ready:
                halves = counter.outcomes_of(tickets)
                if attempt + 1 < len(_SPLITS) and any(isinstance(h, Exception) or h[3]
                                                      for h in halves):
                    report.shifted_boxes += 1
                    report.contour_points += sum(h[2] for h in halves
                                                 if not isinstance(h, Exception))
                    split(rect, cnt, attempt + 1)
                else:
                    boxes += [(used, c) for c, used in _logged(halves, report) if c]
        elif leaves:
            polished = _newton([center for _, center in leaves], target, 1e-13, report)
            for (rect, _), rec in zip(leaves, polished):
                re_lo, re_hi, im_lo, im_hi = rect
                if isinstance(rec, EigenvalueRecord) and _inside(
                        rec.lam, (re_lo - 1e-6, re_hi + 1e-6, im_lo - 1e-6, im_hi + 1e-6)):
                    records.append(rec)
                    report.newton_iterations.append((rec.lam, rec.iterations))
                else:
                    split(rect, 1)   # polishing misbehaved: split
            leaves = []
    return records


def _label_low_frequency(records, p: BeamParams):
    """Assign family tags to sweep roots by nearest closed-form prediction."""
    todo = [rec for rec in records if rec.family is None and rec.lam.imag >= 0]
    if not todo:
        return
    preds = [(predict_eigenvalue(k, j, p), j) for k in range(1, K_MIN) for j in (1, 2)]
    for rec in todo:
        pred, j = min(preds, key=lambda pj: abs(pj[0] - rec.lam))   # min keeps the first of equals
        if abs(pred - rec.lam) < 0.5:
            rec.family = j


def spectrum_in_strip(p: BeamParams, k_max: int):
    """All eigenvalues with |Im lambda| <= (k_max + 1/2) pi, plus search report.

    The sweep box below (K_MIN - 1/2) pi and the frequency boxes K_MIN to
    k_max tile the strip: the sweep subdivides until its roots isolate, each
    frequency box keeps its Newton-polished pair, and each root is recorded
    by the box holding it.  Conjugate closure then mirrors the records above
    the line Im = -im_lo of the sweep rect used, whose conjugates no box
    searched; the sweep holds both members of every pair below it.  Sweep
    roots get family labels from the nearest prediction.  The sweep box,
    every frequency box and the union of them all are counted in one batch;
    the union's count is report.global_count and must equal the multiplicity
    of the records inside it, so a root recorded twice or missed, for
    instance where a shifted box overlaps its neighbour or leaves a gap,
    shows as an incomplete union.  Im lambda below Newton's resolution is
    stored as 0.0.  Incomplete boxes, including a union that disagrees or
    cannot be counted (winding None), are reported, never silently dropped.
    """
    if k_max < 10:
        raise ValueError(f"k_max must be >= 10, got {k_max}")

    report = RootSearchReport()
    counter = _Counter(_beam(p), report)
    ks = range(K_MIN, k_max + 1)
    outer, top = _sweep_box(p), _validation_rect(p, k_max)
    union = (min(outer[0], top[0]), max(outer[1], top[1]), outer[2], top[3])
    # the frequency boxes and the union count in the background of the sweep
    counter.submit([_validation_rect(p, k) for k in ks] + [union, outer])
    ((outer_count, outer),) = _logged(counter.outcomes_of(counter.submit([outer])), report)
    records = _isolate(outer, outer_count, counter)
    pairs = _frequency_pairs(p, ks, counter)
    (union_out,) = counter.outcomes_of(counter.submit([union]))
    failed_k = []
    for k, (recs, complete) in zip(ks, pairs):
        if len(recs) < 2 and not (len(recs) == 1 and recs[0].multiplicity == 2):
            failed_k.append(k)
        records.extend(recs)
    report.k0_effective = max(failed_k) + 1 if failed_k else K_MIN

    _label_low_frequency(records, p)

    # conjugate closure: below Im = -outer[2] the sweep holds both members
    records += [EigenvalueRecord(rec.lam.conjugate(),
                                 -rec.k_index if rec.k_index is not None else None,
                                 rec.family, rec.residual, rec.multiplicity)
                for rec in records if rec.lam.imag > -outer[2]]
    for rec in records:
        if _on_real_axis(rec.lam):
            rec.lam = complex(rec.lam.real, 0.0)

    def recovered(rect):
        return sum(r.multiplicity for r in records if _inside(r.lam, rect))

    if recovered(outer) != outer_count:
        report.incomplete_boxes.append((outer, outer_count, recovered(outer)))
    if isinstance(union_out, Exception):
        report.incomplete_boxes.append((union, None, recovered(union)))
    else:
        report.global_count, union = union_out[:2]
        if recovered(union) != report.global_count:
            report.incomplete_boxes.append((union, report.global_count, recovered(union)))

    records.sort(key=_record_order)
    return records, report


def _on_real_axis(lam: complex) -> bool:
    """Im lambda below Newton's resolution: rounding noise on a real root."""
    return abs(lam.imag) <= 1e-12 * max(1.0, abs(lam))


def _record_order(rec: EigenvalueRecord):
    """Sort key: Im lambda with rounding noise on the real axis read as 0, then
    Re lambda, then family, so real roots keep their order on ulp-level changes."""
    lam = rec.lam
    im = 0.0 if _on_real_axis(lam) else lam.imag
    return (im, lam.real, rec.family if rec.family is not None else 0)
