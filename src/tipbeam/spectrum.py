"""Eigenvalue search in the horizontal strip of the complex plane.

The strip is tiled by boxes that share their edges: a low-frequency sweep
box from Im = -0.3 up to (K_MIN - 1/2) pi, and one frequency box per
k >= K_MIN from (k - 1/2) pi to (k + 1/2) pi.  Newton lanes polish the
two closed-form predictions of every k = 1 .. k_max; the roots they
reach are each box's known roots.  Roots are counted by the argument
principle (Kravanja & Van Barel, Computing the Zeros of Analytic Functions,
2000: count the roots of a box, then locate them), once over the union of
all boxes, which certifies the whole strip, so a root found twice or missed
shows there.  The sweep is counted, and so is each odd frequency box, one
whose known roots are not two distinct roots, all in one pass of _isolate.
Those boxes locate the roots their known ones miss from the contour that
counted them (Delves & Lyness, A numerical method for locating the zeros
of an analytic function, Math. Comp. 21, 1967): the moments
(1/2 pi i) oint (z - c)^q F'/F dz, q <= 4, are the power sums of the roots
inside about the box's centre c, so less the known roots' they give up to
four unknown roots, by Newton's identities and the roots of the polynomial
they define, which Newton polishes.  A box with more unknown roots or
seeds that failed is subdivided, all such boxes in one pass, until each
root is known or located.  So subdivision and the moments locate only the
roots Newton left unfound.  The other frequency boxes are not counted: the
union's count less the sweep's is the count of the frequency band, and
when it equals the band's known roots, each box holds just its two.
Otherwise they are counted and isolated like the odd ones, in a second
pass.  Each root is recorded by the one
box that holds it.  The negative half comes from conjugate closure.  The
left edge of the dissipative boxes is -max(k2, k4) - 1: for an
energy-normalized mode, Re lambda = -(k2/k1)|eta|^2 - (k4/k3)|gamma|^2
with |eta|^2/k1 + |gamma|^2/k3 <= 1, so Re lambda >= -max(k2, k4).  All
contour work uses the single-valued surrogate F = f * t1 * t3 from charfn,
which has the same zeros as f but no sheet jumps.  It is evaluated through
its removable points +- i sqrt(b) too, so boxes and Newton iterates avoid
no point but lambda = 0 itself (ZeroLambda).

The counter and its Newton lanes see only evaluate(z) -> (F, F', f).  Each
beam-facing entry point binds it to the beam once, in `_beam`; other
analytic functions use the same seam.

A winding count sums the phase increments arg F(z_{i+1})/F(z_i) around the
box (Kravanja & Van Barel 2000; Johnson & Tucker, Enclosing all zeros of
an analytic function, 2009).  An interval is refined until its increment
and its F'-bounded turn max |F'/F| * |z_{i+1} - z_i| at its two ends both
stay within pi/4; the
F' bound catches a close pair of roots whose 2 pi turn the wrapped
increment alone would hide.  The sum is then an integer up to rounding.
The same fine intervals give the moments of the boxes that take them
(every box a search isolates and every first half of a split, but not the
union), by a fourth-order rule on the log F increment and F'/F at each
interval's two ends (see _Counter.moments).
Every box is counted on the rect it was submitted with, or refused by name
(BoundaryTooCloseToRoot) when a sample is an exact zero of F, when an
interval still too coarse has no floating-point midpoint, or when
refinement exceeds its sample budget; boxes never shift.  The budget grows
with the perimeter past _SAMPLE_BUDGET, so the union's count scales with
k_max.  Boxes split off centre, so no edge of the conservative sweep lands
on the root locus Re lambda = 0.  Only the first, smaller half of a split is counted: the
halves tile the parent, so the second half's count is the parent's less
the first's.  When the first half is refused, its parent splits again at
another fraction: the split line moves, and the halves still tile the
parent.

Counting and Newton share one evaluation loop.  A search submits all its
boxes and its Newton lanes to one counter.  The counter keeps the
intervals still too coarse, over all boxes, in one table written at a
cursor and compacted in place; the lanes still stepping in another; and
the position of every lane in one array, its iterate while it steps and
its record's lambda once it ended, which the search reads to seed and
close its boxes.
Each call of the characteristic function takes every live lane and new
samples up to _CHUNK = 1024 points in all, those of the most recently
submitted boxes first, which keeps the working set small; every lane
takes one Newton step, and every interval the call completes is checked
in one vectorised pass.  Whether an interval is halved depends on its two
ends alone, so per counted box the samples, and so the counts, are those
of counting the box alone, in any batch and at any _CHUNK; a lane's
arithmetic does not depend on the other points of its call either.  The
union of the strip and the sweep count while the lanes of k = 1 .. k_max
polish, the union goes on while the sweep and the odd frequency boxes
subdivide, a box's first half starts as soon as its own count is in, and
moment seeds polish while counts go on; a lane stops polishing once its
step is at the rounding floor.  The sweep is taken up as soon as its
count is in: its moment seeds start from the current positions of its
known lanes, ended or still stepping, and polish beside them, and it
closes only on their final records.  So the k <= 200 strip takes 18
calls and the conservative k <= 50 strip 10.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field, fields

import numpy as np

from .asymptotics import predict_eigenvalue
from .charfn import entire_char_fn_and_derivative
from .errors import BasinEscape, BoundaryTooCloseToRoot, NoConvergence, NonConvergentContour
from .model import BeamParams, require_unit_speed

K_MIN = 8                     # boundary between contour sweep and seeded Newton
_COINCIDENCE_RTOL = 1e-10     # Newton resolution: lanes this close found one root
_SPLITS = (0.4382, 0.4182, 0.4582, 0.3982, 0.4782)   # off centre, tried in turn
_EDGE_POINTS = 16             # initial samples per box edge
_MAX_TURN = math.pi / 4       # bound on an interval's increment and its F'-bounded turn
_SAMPLE_BUDGET = 4 * 8192     # samples per boundary before the box is refused, at least
_SAMPLES_PER_LENGTH = 16      # or per unit of perimeter, if more; a strip's union takes 3 to 6
_INTEGER_TOL = 1e-9           # rounding slack of the increment sum
_CHUNK = 1024                 # points per evaluation call, Newton lanes included; bounds memory
_FLOOR = 4 * np.finfo(float).eps   # a Newton step this small, relative, ends its converged lane
_ALONG = np.arange(_EDGE_POINTS) / _EDGE_POINTS   # initial samples' fractions of an edge
_ORDER = 4                    # highest contour moment: a box seeds up to this many unknown roots
_POWERS = np.arange(_ORDER + 1)[:, None]     # q = 0 .. _ORDER, one row each
# the fields of a Newton lane still stepping: its index, seed, best iterate
# and its |f|, last step, steps, and steps at convergence or -1; its iterate
# is its position (see _Counter)
_LANE = np.dtype([("lane", int), ("seed", complex), ("best", complex), ("best_res", float),
                  ("moved", float), ("its", int), ("conv", int)])


@dataclass
class EigenvalueRecord:
    """One located eigenvalue with its search provenance; the Newton steps
    that reached it are in its search's report.newton_iterations."""

    lam: complex
    k_index: int | None
    family: int | None
    residual: float


@dataclass
class RootSearchReport:
    """Boxes examined, Newton effort, and completeness diagnostics."""

    boxes: list = field(default_factory=list)            # (rect, winding)
    # (lam, iterations) of each converged polish, in the order the lanes end
    newton_iterations: list = field(default_factory=list)
    k0_effective: int | None = None
    duplicates_merged: int = 0   # always 0: the boxes tile; kept for perfbench/layers.py
    # (rect, winding or None when the box could not be counted, recovered)
    incomplete_boxes: list = field(default_factory=list)
    resplits: int = 0            # subdivisions split again at another fraction
    derived_boxes: int = 0       # second halves of splits: the box's count less the first's
    matched_boxes: int = 0       # boxes closed because the records inside met their count
    band_boxes: int = 0          # frequency boxes certified by the strip's count, on no samples
    moment_boxes: int = 0        # boxes closed by the records polished from their moment seeds
    contour_points: int = 0      # F evaluations in counting, refinements included
    evaluation_calls: int = 0    # (F, F', f) evaluation calls the search made
    contour_rounds: int = 0      # of those calls, the ones that carried contour samples
    newton_calls: int = 0        # Newton polishes started, converged or not
    newton_rounds: int = 0       # of those calls, the ones that carried Newton lanes
    global_count: int | None = None   # winding over the union of the strip's boxes
    global_points: int = 0       # F evaluations in counting that union

    @property
    def stats(self) -> dict:
        """Deterministic effort counts: every count field, the number of
        boxes, and newton_iterations summed over the converged polishes.

        boxes, derived_boxes, band_boxes, resplits and contour_points cover
        the search boxes; the union a strip's global count is taken over is
        not among them: its samples are global_points, and its evaluation
        calls, shared with the search boxes, are in contour_rounds.  A call
        that carried contour samples and Newton lanes counts in both
        contour_rounds and newton_rounds, and once in evaluation_calls.
        """
        return {**{f.name: getattr(self, f.name) for f in fields(self)
                   if f.name not in ("k0_effective", "duplicates_merged", "incomplete_boxes")},
                "boxes": len(self.boxes),
                "newton_iterations": sum(it for _, it in self.newton_iterations)}


def _beam(p: BeamParams) -> Callable:
    """evaluate(z) -> (F, F', f) on a 1-d array for the beam: the surrogate
    F = f t1 t3 counted and polished, its exact derivative, and the residual
    |f| reported at a root."""
    require_unit_speed(p)
    return lambda z: entire_char_fn_and_derivative(z, p)


def _rings(rects) -> np.ndarray:
    """The rects' closed boundaries, one after another, each counter-clockwise:
    each corner once, _EDGE_POINTS per edge."""
    corners = np.array([[complex(re_lo, im_lo), complex(re_hi, im_lo), complex(re_hi, im_hi),
                         complex(re_lo, im_hi), complex(re_lo, im_lo)]
                        for re_lo, re_hi, im_lo, im_hi in rects]).reshape(-1, 5)
    edges = (corners[:, 1:] - corners[:, :-1])[:, :, None]
    return (corners[:, :-1, None] + edges * _ALONG).ravel()


def _centre(rect) -> complex:
    return complex(0.5 * (rect[0] + rect[1]), 0.5 * (rect[2] + rect[3]))


def _grown(a: np.ndarray, size: int) -> np.ndarray:
    """a with zero columns (its last axis) appended up to size."""
    return np.concatenate([a, np.zeros(a.shape[:-1] + (size - a.shape[-1],), a.dtype)], axis=-1)


class _Counter:
    """Winding counts of many boxes, and Newton lanes, that share their evaluation calls.

    Boxes join with `submit`, lanes with `newton`.  The coarse intervals of
    all boxes still counting, with z, F and F'/F at both ends and the
    ticket that owns each, are the first `queued` columns of one table
    (`queued` is its write cursor), in the order they were found; the
    midpoint of each is a sample still to evaluate.  The table is kept from call to call and only
    grows, to fit.  Each call evaluates every live lane and, beside them,
    samples up to _CHUNK points in all, those of the most recently
    submitted boxes first, so a subdivision goes ahead of boxes still
    counting in the background: whole initial rings of boxes just
    submitted, and queued midpoints.  A call that takes every queued
    midpoint moves the cursor back to 0; one that takes some moves those
    past the cursor, and the rest up to the start of the table, in order.
    Lanes are never split, so a call takes at most max(_CHUNK, live lanes)
    points; one with no lane takes the newest ring or midpoint even when
    that alone exceeds _CHUNK, so counting always goes on.  Each lane takes
    one Newton step (see `newton`).  Every interval the call completes is
    checked at once: a fine one adds its phase increment to its box and is
    dropped, a coarse one is written at the cursor.  Whether an interval is
    split depends on its two ends alone, so each box gets the samples, and
    the count, of counting it alone, whatever the batch or _CHUNK.  A box
    with nothing queued is resolved: counted on the rect it was submitted
    with, or refused with a BoundaryTooCloseToRoot naming it, without
    raising for the others; a refused box's intervals leave the table.  A
    box submitted to take moments also sums, over the same fine intervals,
    its low moments (see `moments`).

    The lanes still stepping are one table, a column per field of _LANE,
    in the order they started; a lane that ends leaves it.  Beside it the
    counter keeps the position of every lane in one array, `at`: the
    iterate of a lane that steps, which `newton` starts at the seed and
    each Newton step updates, its record's lambda once it ended with one,
    and NaN if it failed.
    """

    def __init__(self, evaluate: Callable, report: RootSearchReport):
        self.evaluate, self.report = evaluate, report
        self.rects = []       # per ticket, its rect
        self.outcomes = {}    # ticket -> (count, rect, samples) or the error
        self.fresh = []       # tickets whose ring is not yet evaluated, in submission order
        self.turns = np.zeros(0)                # per ticket, the increments of its fine intervals
        self.samples = np.zeros(0, dtype=int)   # per ticket, its samples evaluated
        self.budget = np.zeros(0, dtype=int)    # per ticket, the samples it may take
        self.taking = np.zeros(0, dtype=bool)   # per ticket, whether it takes moments
        self.centre = np.zeros(0, dtype=complex)      # per ticket, its rect's centre
        self.sums = np.zeros((_ORDER + 1, 0), dtype=complex)   # per ticket, 2 pi i its moments
        self.queue = np.zeros((6, 0), dtype=complex)  # per coarse interval: z, F, F'/F, both ends
        self.owner = np.zeros(0, dtype=int)     # per coarse interval, its ticket
        self.queued = 0       # the table's columns in use
        self.records = []     # per lane, its EigenvalueRecord or the error that ended it, or None
        self.at = np.zeros(0, dtype=complex)    # per lane, its position
        self.live = {name: np.zeros(0, _LANE[name]) for name in _LANE.names}   # lanes stepping

    def submit(self, rects, moments: bool = False) -> list:
        """Tickets of rects, whose counting starts now; they take moments
        when asked to."""
        first = len(self.rects)
        for t, rect in enumerate((tuple(float(v) for v in rect) for rect in rects), start=first):
            self.fresh.append(t)
            self.rects.append(rect)
            if t == self.turns.size:
                self.turns, self.samples, self.budget, self.taking, self.centre, self.sums = (
                    _grown(a, 2 * t + len(rects)) for a in
                    (self.turns, self.samples, self.budget, self.taking, self.centre, self.sums))
            perimeter = 2.0 * (rect[1] - rect[0] + rect[3] - rect[2])
            self.budget[t] = (max(_SAMPLE_BUDGET, int(_SAMPLES_PER_LENGTH * perimeter))
                              if math.isfinite(perimeter) else _SAMPLE_BUDGET)
            self.taking[t], self.centre[t] = moments, _centre(rect)
        return list(range(first, len(self.rects)))

    def newton(self, seeds) -> np.ndarray:
        """Lanes of Newton on the zeros of F, one from each seed, which step
        from the next call on.

        A lane converges when its last step fell to at most 1e-12 * max(1,
        |lam|) (so already-small seeds are still refined); at most 50
        iterations, each iterate within 0.5 of its seed.  The step test
        scales with |lam|, so a root whose derivative is depressed by a
        neighbor Theta(1/k^2) away can keep one productive step: up to 3
        more follow while they stay in the basin and strictly lower |f|,
        landing where rounding in the determinant stops |f| from falling;
        the residual reported is |f| there.  A converged lane whose iterate
        was reached by a step of at most _FLOOR * max(1, |lam|), 4 ulps, is
        at the rounding level already: it ends there, with that iterate
        and its |f|, as further steps would only sample rounding noise
        (Dennis & Schnabel, Numerical Methods for Unconstrained Optimization
        and Nonlinear Equations, 1983, 7.2).  A lane ends with an
        EigenvalueRecord, whose lambda is logged to report.newton_iterations
        then with the steps up to convergence, or with the NoConvergence or
        BasinEscape that stopped it (see `records_of`).
        A lane's arithmetic does not depend on the other points of its calls.
        """
        lanes = np.zeros(np.size(seeds), _LANE)
        lanes["lane"] = np.arange(len(self.records), len(self.records) + lanes.size)
        lanes["seed"] = np.ravel(seeds)
        lanes["best_res"], lanes["moved"], lanes["conv"] = np.inf, np.inf, -1
        self.live = {name: np.concatenate([a, lanes[name]]) for name, a in self.live.items()}
        self.at = np.concatenate([self.at, lanes["seed"]])
        self.records += [None] * lanes.size
        self.report.newton_calls += lanes.size
        return lanes["lane"]

    def moments(self, ticket: int):
        """The power sums s_q = sum (r - c)^q, q = 0 .. _ORDER, over the roots r
        of a counted box submitted to take moments, c its rect's centre.

        They are the contour moments (1/2 pi i) oint (z - c)^q F'/F dz of
        Delves & Lyness (A numerical method for locating the zeros of an
        analytic function, 1967), on the samples of the count, by a
        fourth-order rule that needs nothing the count does not evaluate.
        On a fine interval [a, b], Delta = b - a, with L = log(F_b / F_a) and
        g = F'/F at its ends, integration by parts and the corrected
        trapezoid rule (Euler-Maclaurin) on (z - c)^(q-1) log(F / F_a) give
        (b - c)^q L - q [Delta/2 (b - c)^(q-1) L + Delta^2/12 ((a - c)^(q-1)
        g_a - (q - 1) (b - c)^(q-2) L - (b - c)^(q-1) g_b)].
        """
        return self.sums[:, ticket] / (2j * math.pi)

    def outcomes_of(self, tickets) -> list:
        """The outcomes of the tickets, in order, once all are resolved."""
        while any(t not in self.outcomes for t in tickets):
            self.call()
        return [self.outcomes[t] for t in tickets]

    def records_of(self, lanes) -> list:
        """The ends of the lanes, in order, once all are in."""
        while any(self.records[i] is None for i in lanes):
            self.call()
        return [self.records[i] for i in lanes]

    def call(self):
        """One evaluation of the live lanes and at most _CHUNK points in all,
        newest boxes first; one Newton step of each lane, and the check of
        every interval the call completes.

        A box is refused when F is 0 at a sample, else when an interval
        still too coarse has no floating-point midpoint, else when its
        samples and queued midpoints exceed its budget: _SAMPLE_BUDGET, or
        _SAMPLES_PER_LENGTH per unit of its perimeter if that is more.
        """
        lam = self.at[self.live["lane"]]      # the lanes' iterates
        ring, lanes, n = 4 * _EDGE_POINTS, lam.size, self.queued
        if ring * len(self.fresh) + n <= max(_CHUNK - lanes, 0):
            rings, self.fresh, self.queued = self.fresh, [], 0
        else:
            fresh = np.array(self.fresh, dtype=int)
            units = np.argsort(-np.concatenate([fresh, self.owner[:n]]), kind="stable")
            taken = np.cumsum(np.where(units < fresh.size, ring, 1)) <= _CHUNK - lanes
            taken[0] |= not lanes      # without lanes, the newest unit however large
            units = units[taken]
            rings = fresh[units[units < fresh.size]].tolist()
            mids = units[units >= fresh.size] - fresh.size
            del self.fresh[len(self.fresh) - len(rings):]     # the newest are taken
            self._keep(np.flatnonzero(np.bincount(mids, minlength=n) == 0), mids)
        # the midpoints taken, past the cursor: read before the table is written
        split, owner = self.queue[:, self.queued:n], self.owner[self.queued:n]

        z = lam if not (rings or owner.size) else np.concatenate(
            [_rings([self.rects[t] for t in rings]), 0.5 * (split[0] + split[3]), lam])
        f, d, fval = self.evaluate(z)
        self.report.evaluation_calls += 1
        m = z.size - lanes
        if lanes:
            self.report.newton_rounds += 1
            self._step(lam, f[m:], d[m:], fval[m:])
        if not m:
            return
        self.report.contour_rounds += 1
        z, f, d = z[:m], f[:m], d[:m]

        on_ring = np.array(rings, dtype=int).repeat(ring)
        sampled = np.concatenate([on_ring, owner])
        refused, zeros = {}, (f == 0).nonzero()[0]
        for i in zeros:
            refused.setdefault(int(sampled[i]), f"passes through a zero of F at {complex(z[i])}")
        if zeros.size:
            f = np.where(f == 0, 1.0, f)      # such a box is refused; this spares the division

        # the new intervals in boundary order, as rows z, F, F'/F at the
        # start, then at the end: each ring sample to the next, and both
        # halves of each split interval
        zfs = np.array([z, f, d / f])
        closed = zfs[:, :on_ring.size].reshape(3, len(rings), ring)
        closed = np.concatenate([closed, closed[:, :, :1]], axis=2)
        mid = zfs[:, on_ring.size:]
        ends = np.concatenate([
            np.concatenate([closed[:, :, :-1], closed[:, :, 1:]]).reshape(6, -1),
            np.concatenate([split[:3], mid, mid, split[3:]]).reshape(2, 6, -1)
            .transpose(1, 2, 0).reshape(6, -1)], axis=1)
        box = np.concatenate([on_ring, owner.repeat(2)])
        ratio = ends[4] / ends[1]
        turn = np.angle(ratio)
        bound = np.abs(ends[2::3]).max(axis=0) * np.abs(ends[3] - ends[0])
        is_coarse = np.fmax(np.abs(turn), bound) > _MAX_TURN     # fmax skips a NaN
        coarse = is_coarse.nonzero()[0]
        n, c = self.queued, self.queued + coarse.size       # the columns they go to
        if c > self.owner.size:       # the table grows to fit
            self.queue, self.owner = _grown(self.queue[:, :n], c), _grown(self.owner[:n], c)
        new, self.owner[n:c], self.queued = ends.take(coarse, axis=1), box.take(coarse), c
        self.queue[:, n:c] = new
        halfway = 0.5 * (new[0] + new[3])
        stuck = ((halfway == new[0]) | (halfway == new[3])).nonzero()[0]
        for i in stuck:
            refused.setdefault(int(box[coarse[i]]), "cannot be refined in floating point "
                                                    f"at {complex(halfway[i])}")

        turn[coarse] = 0.0      # only fine intervals add their increment
        self.turns += np.bincount(box, turn, self.turns.size)
        fine = (~is_coarse & self.taking[box]).nonzero()[0]    # of the boxes taking moments
        if fine.size:
            self._sum_moments(box.take(fine), ends.take(fine, axis=1), np.log(ratio.take(fine)))
        count = np.bincount(sampled, minlength=self.samples.size)
        self.samples += count
        # the tickets the call sampled, and the midpoints each has in the table
        touched = count.nonzero()[0]
        queued = np.bincount(self.owner[:self.queued], minlength=count.size)[touched]
        for t in touched[self.samples[touched] + queued > self.budget[touched]].tolist():
            refused.setdefault(t, f"needs over {self.budget[t]} samples")
        resolved = touched[queued == 0]
        if refused:
            self._keep(np.flatnonzero(~np.isin(self.owner[:self.queued], list(refused))), [])
            for t, reason in refused.items():
                self.outcomes[t] = BoundaryTooCloseToRoot(f"boundary of {self.rects[t]} {reason}")
            resolved = resolved[~np.isin(resolved, list(refused))]
        for t in resolved.tolist():
            self.outcomes[t] = self._count(t)

    def _sum_moments(self, box, ends, log):
        """Add to the moment sums of each interval's box the integrals of
        (z - c)^q F'/F over the fine intervals [a, b] given by ends (rows z,
        F, F'/F at a, then at b), log = log(F_b / F_a) on each, c its box's
        centre, by the rule of `moments`."""
        uv = ends[3::-3] - self.centre[box]       # rows b - c, a - c
        step = uv[0] - uv[1]
        w = step * step / 12.0
        powers = np.empty((_ORDER + 1,) + uv.shape, complex)    # (b - c)^q, (a - c)^q
        powers[0], powers[1] = 1.0, uv
        for q in range(2, _ORDER + 1):
            np.multiply(powers[q - 1], uv, out=powers[q])
        up = powers[:, 0]
        terms = log * up
        terms[1:] += _POWERS[1:] * ((w * ends[5] - 0.5 * step * log) * up[:-1]
                                    - (w * ends[2]) * powers[:-1, 1])
        terms[2:] += _POWERS[2:] * _POWERS[1:-1] * ((w * log) * up[:-2])
        np.add.at(self.sums.T, box, terms.T)

    def _keep(self, kept, taken):
        """Move the queued intervals at the indices kept to the start of the
        table, in order, and those at taken after them, past the cursor."""
        order = np.concatenate([kept, taken]).astype(int)
        self.queue[:, :order.size] = self.queue.take(order, axis=1)
        self.owner[:order.size], self.queued = self.owner.take(order), kept.size

    def _step(self, z, surrogate, slope, fval):
        """One Newton step of each live lane from its iterate z, where F, F'
        and f are given, which moves its position; a lane that ends leaves
        its record or error, and its position is then the record's lambda or
        NaN."""
        lane, seeds, best, best_res, moved, its, conv = self.live.values()
        residual, scale = np.abs(fval), np.maximum(1.0, np.abs(z))
        polishing = conv >= 0        # the extra steps keep strict drops only
        keep = np.where(polishing, residual < best_res, moved <= 1e-12 * scale)
        np.copyto(conv, its, where=keep > polishing)
        np.copyto(best, z, where=keep)
        np.copyto(best_res, residual, where=keep)
        flat = slope == 0         # such a lane ends; this spares the division
        delta = surrogate / np.where(flat, 1.0, slope)
        new = z - delta
        # a lane ends on a step at the rounding level of its iterate, which
        # converged (_FLOOR < 1e-12), on a polishing step that does not lower
        # |f|, 3 steps past convergence or 50 without it, flat, or astray
        go = ~((moved <= _FLOOR * scale) | (polishing > keep) | flat
               | (its == np.where(conv >= 0, conv + 3, 50)) | (np.abs(new - seeds) > 0.5))
        self.live.update(moved=np.abs(delta), its=its + 1)
        self.at[lane] = new
        if go.all():
            return
        found, stop = conv >= 0, ~go
        # a converged lane that goes flat or leaves its basin keeps its
        # record; records are built from whole arrays, not one numpy scalar
        # at a time
        self.at[lane[stop]] = np.where(found[stop], best[stop], np.nan)
        ended = (stop & found).nonzero()[0]
        lams, steps = best[ended].tolist(), conv[ended].tolist()
        for i, lam, res in zip(lane[ended].tolist(), lams, best_res[ended].tolist()):
            self.records[i] = EigenvalueRecord(lam, None, None, res)
        self.report.newton_iterations += zip(lams, steps)
        for j in (stop > found).nonzero()[0]:
            self.records[lane[j]] = (
                NoConvergence(f"Newton did not converge from seed {complex(seeds[j])}")
                if its[j] == 50 else NoConvergence(f"flat surrogate at {complex(z[j])}")
                if flat[j] else BasinEscape(f"iterate {complex(new[j])} left the basin "
                                            f"of seed {complex(seeds[j])}"))
        self.live = {name: a[go] for name, a in self.live.items()}

    def _count(self, ticket: int):
        """The outcome of a box with every interval fine: the sum of its
        increments over 2 pi, rounded, or NonConvergentContour when that is
        off an integer or negative."""
        rect, winding = self.rects[ticket], float(self.turns[ticket]) / (2.0 * math.pi)
        k = round(winding) if math.isfinite(winding) else -1
        if not abs(winding - k) <= _INTEGER_TOL or k < 0:
            return NonConvergentContour(
                f"phase increments around {rect} sum to {winding!r} turns")
        return k, rect, int(self.samples[ticket])


def _logged(outcome, report: RootSearchReport) -> int:
    """The count of a counter outcome, logged to report; an error is raised."""
    if isinstance(outcome, Exception):
        raise outcome
    k, rect, samples = outcome
    report.boxes.append((rect, k))
    report.contour_points += samples
    return k


def family_roots(p: BeamParams, k, report: RootSearchReport | None = None):
    """Both family roots near i k pi, Newton-polished from their predictions.

    k is one frequency index or a sequence of them; all seeds are lanes of
    one counter.  Records come in (k, family) order with k_index and family
    set; report, when given, logs them as their lanes end.  A failed lane
    is raised again naming k and j, after every lane was tried (the first
    failure in that order).
    """
    counter = _Counter(_beam(p), report or RootSearchReport())
    ks = np.atleast_1d(np.asarray(k, dtype=int))
    recs, failure = _families(counter, ks, counter.newton(_predictions(p, ks)))
    if failure is not None:
        raise failure
    return recs


def _predictions(p: BeamParams, ks) -> np.ndarray:
    """Both family predictions of each k in ks, in (k, family) order."""
    return predict_eigenvalue(np.asarray(ks)[:, None], np.array([1, 2]), p).ravel()


def _families(counter: _Counter, ks, lanes):
    """The ends of lanes, seeded from _predictions of ks, once in: the
    records, labelled with their k and family, and the first failure or
    None, in (k, family) order.  The lanes logged their records to report
    as they ended (see _Counter.newton)."""
    recs, failure = [], None
    for rec, kk, j in zip(counter.records_of(lanes), np.repeat(ks, 2).tolist(), [1, 2] * len(ks)):
        if isinstance(rec, Exception):
            failure = failure or type(rec)(f"family {j} at k = {kk}: {rec}")
            continue
        rec.k_index, rec.family = kk, j
        recs.append(rec)
    return recs, failure


def _validation_rect(p: BeamParams, k: int):
    # damped, the right edge lies slightly into the right half plane: no
    # roots there, and it keeps high-k roots (Re ~ -1/k^2) off the contour
    re_lo, re_hi = (-0.5, 0.5) if p.is_conservative else (-max(p.k2, p.k4) - 1.0, 0.2)
    return (re_lo, re_hi, (k - 0.5) * math.pi, (k + 0.5) * math.pi)


def _inside(z, rect):
    """Whether z, a number or an array, lies in the closed rect."""
    return (rect[0] <= z.real) & (z.real <= rect[1]) & (rect[2] <= z.imag) & (z.imag <= rect[3])


def _distinct(at, rects) -> np.ndarray:
    """The mask of the positions at that lie inside rects and coincide with
    no other inside it to Newton resolution, |a - b| <= _COINCIDENCE_RTOL *
    max(1, |a|): two polishes that found one root, or roots closer than
    Newton resolution, leave them to subdivision.  at lies along one rect,
    or has a row per rect; a NaN is never distinct."""
    at = np.where(_inside(at, np.transpose(rects)[..., None]), at, np.nan)
    near = np.abs(at[..., :, None] - at[..., None, :])
    return (near <= _COINCIDENCE_RTOL * np.maximum(1.0, np.abs(at))[..., None]).sum(axis=-1) == 1


def _refuse_coincident(lam, known):
    """Raise BoundaryTooCloseToRoot naming two records, at lam, that
    coincide, one of them known (a mask over lam).  A known record just
    across a split line or a shared box edge from its root can be taken for
    a root of the box it lies in: that root is missed and the other
    recorded twice, and no count shows it.  Two records found by
    subdivision that coincide are a close pair, each inside its own box, as
    a box's records are distinct."""
    order = np.argsort(lam.imag, kind="stable")
    lam, known = lam[order], known[order]
    scale = _COINCIDENCE_RTOL * np.maximum(1.0, np.abs(lam))
    # only records within the tolerance in Im can coincide: each with the next d
    reach = np.searchsorted(lam.imag, lam.imag + scale, side="right") - np.arange(lam.size)
    for d in range(1, reach.max(initial=1)):
        i = np.flatnonzero((reach[:-d] > d) & (known[:-d] | known[d:])
                           & (np.abs(lam[:-d] - lam[d:]) <= scale[:-d]))
        if i.size:
            raise BoundaryTooCloseToRoot(
                f"records {complex(lam[i[0]])} and {complex(lam[i[0] + d])} coincide: a known "
                "record across a box edge from its root was taken for a root of that box")


def frequency_pairs(p: BeamParams, ks, report: RootSearchReport | None = None) -> list:
    """The records of each frequency k in ks: both family roots near i k pi
    from Newton lanes, validated and completed by one call of _isolate.  The
    boxes count on the same counter while the lanes polish.

    The records of k are those inside its box, (k - 1/2) pi <= Im lambda <=
    (k + 1/2) pi, so adjacent boxes never report one root twice; a box that
    cannot be counted raises BoundaryTooCloseToRoot naming it.  A box keeps
    its records when they are as many as its winding count, those that
    coincide to Newton resolution (both families polished onto one root, or
    a pair closer than that) left out.  Every other box (a seed missed or
    left its box, or records were left out) locates the roots they miss
    from the moments of its count, subdividing only where those fail (see
    _isolate), and gets one record per root, labelled by _label_pair.  Two
    roots come back as two records in family order however close,
    Theta(1/k^3) apart in cases 2 and 3; a pair no subdivision parts raises
    BoundaryTooCloseToRoot naming a box.
    """
    counter = _Counter(_beam(p), report or RootSearchReport())
    ks = list(ks)
    rects = [_validation_rect(p, k) for k in ks]
    tickets = counter.submit(rects, moments=True)
    lanes = counter.newton(_predictions(p, ks)).reshape(-1, 2)     # per k, its families'
    _families(counter, ks, lanes.ravel())
    found = [counter.records_of(box) for box in _isolate(tickets, list(lanes), counter)[1]]
    for k, pair, kept, recs in zip(ks, lanes, _distinct(counter.at[lanes], rects), found):
        if recs != counter.records_of(pair[kept]):
            _label_pair(recs, p, k)
    return found


def _label_pair(recs, p: BeamParams, k: int):
    """Tag the roots of frequency box k, in place: a pair in family order (the
    assignment to the two predictions with the smaller total distance, and
    on a tie the lower root, by Im then Re lambda, in family 1), a lone
    record as family 1, and more than two roots with no family."""
    preds = predict_eigenvalue(k, np.array([1, 2]), p)
    recs.sort(key=lambda rec: (rec.lam.imag, rec.lam.real))
    if len(recs) == 2 and (abs(recs[0].lam - preds[1]) + abs(recs[1].lam - preds[0])
                           < abs(recs[0].lam - preds[0]) + abs(recs[1].lam - preds[1])):
        recs.reverse()
    for j, rec in enumerate(recs, start=1):
        rec.k_index, rec.family = k, (j if len(recs) <= 2 else None)


def _sweep_box(p: BeamParams):
    re_lo, re_hi = (-0.5, 0.5) if p.is_conservative else (-max(p.k2, p.k4) - 1.0, -1e-12)
    return (re_lo, re_hi, -0.3, (K_MIN - 0.5) * math.pi)     # up to frequency box K_MIN


def _union_box(p: BeamParams, k_max: int):
    """The rect of the strip's one count: the sweep and frequency boxes and,
    beside them, a margin out to Re = 2 that holds no root, as no root has
    Re lambda > 0 and a conservative one has Re lambda = 0.  Its edges stay
    far from the roots near the axis, so they take fewer samples; a root in
    the margin only raises the count."""
    re_lo = -2.0 if p.is_conservative else -max(p.k2, p.k4) - 1.0
    return (re_lo, 2.0, -0.3, (k_max + 0.5) * math.pi)


def _halves(rect, fraction: float):
    """The two halves of rect, its longer side split at `fraction` of its length."""
    re_lo, re_hi, im_lo, im_hi = rect
    w, h = re_hi - re_lo, im_hi - im_lo
    if w >= h:
        mid = re_lo + fraction * w
        return [(re_lo, mid, im_lo, im_hi), (mid, re_hi, im_lo, im_hi)]
    mid = im_lo + fraction * h
    return [(re_lo, re_hi, im_lo, mid), (re_lo, re_hi, mid, im_hi)]


def _moment_seeds(rect, moments, known, unknown: int) -> np.ndarray:
    """Seeds for the `unknown` roots, one to _ORDER, of rect that are not
    among the known roots, an array: the roots whose power sums about
    rect's centre are its moments less the known roots' (see
    _Counter.moments).  Newton's identities turn those power sums into the
    coefficients of the monic polynomial in z - c with those roots, and
    `np.roots`, the eigenvalues of its companion matrix, finds its roots."""
    c = _centre(rect)
    sums = (moments[:unknown + 1]
            - (np.subtract.outer(known, c) ** _POWERS[:unknown + 1]).sum(axis=1)).tolist()
    e = [1.0]       # the elementary symmetric functions, by Newton's identities
    for k in range(1, unknown + 1):
        e.append(sum((-1) ** (i - 1) * e[k - i] * sums[i] for i in range(1, k + 1)) / k)
    return c + np.roots([(-1) ** k * e[k] for k in range(unknown + 1)])


def _recentred(sums, d) -> list:
    """The power sums sum (r - c + d)^q of the roots whose sum (r - c)^q,
    q = 0, 1, .., are sums: the binomial expansion of (r - c + d)^q."""
    return [sum(math.comb(q, j) * d ** (q - j) * sums[j] for j in range(q + 1))
            for q in range(len(sums))]


def _second_moments(rect, moments, first, first_moments, second) -> np.ndarray:
    """The moments of `second`, the half of rect beside `first`: rect's less
    first's, each re-centred to second's centre (see _recentred)."""
    c = _centre(second)
    return np.subtract(_recentred(moments, _centre(rect) - c),
                       _recentred(first_moments, _centre(first) - c))


def _isolate(tickets, given, counter: _Counter, more=None):
    """Each box's count and the lanes on counter whose records are the roots
    in it, all boxes subdivided in one pass.

    The boxes are those of `tickets`, submitted to `counter` with moments;
    given holds, per box, the lanes of its known roots, Newton lanes
    started on counter before the pass.  A lane's position is its record
    once it ended with one, else its iterate (see _Counter); the
    known roots of a box are the positions inside its rect that coincide
    with no other (see _distinct).  `more(tickets, given)`, if given, is
    called once every lane started before the pass has ended, and returns
    both with the tickets and lanes of further boxes appended, which join
    the pass after the others.  The boxes are taken up in their order, each
    as soon as its count and those of the boxes before it are in: its count
    is logged to report.boxes, and the first box the counter refuses, in
    that order, is raised.  A box with one to _ORDER = 4 roots more than its
    known ones is seeded from its moments (see _moment_seeds; Delves & Lyness,
    1967: the contour that counts the roots also locates them), less its
    known roots' positions even while their lanes step; the seeds are Newton
    lanes on the counter at once, so they polish in the calls of the counts
    and lanes still going on.  Every box is closed or split by one rule,
    once its known lanes and its seed lanes have all ended: when its
    distinct records inside it, the known ones and the seeds that landed in
    it, meet its count, it is closed with them (report.moment_boxes if it
    was seeded, else report.matched_boxes); else it splits, with those
    records as its known ones.  Below a seeded box that splits, only a lone
    unknown root is seeded: a half holding the roots of failed seeds has
    their moments, and its seeds would fail alike.  So a known lane that
    fails or ends elsewhere costs a split, never a wrong record.

    A box splits its longer side at the fraction _SPLITS[0], not at
    the centre: halving the symmetric conservative box would put an edge on
    Re lambda = 0, where every conservative root lies.  A known root goes to
    the first half when it lies inside it, else to the second, and a half
    that counts 0 drops its roots.  Only the first, smaller half of a split
    is counted, and it takes moments; the halves tile the box, so the
    second half's winding is the box's count less the first's, logged to
    report.boxes with no samples and to report.derived_boxes, and its
    moments are the box's less the first half's (see _second_moments).  The
    count is exact when both counts are: the second half's boundary is the
    box's counted edges and the split line, which the first half's count
    certified.  A first half that counts more than its box raises
    NonConvergentContour naming both.  The first half goes to the counter as
    soon as its box's count is in, so boxes of every depth share evaluation
    calls.  A first half the counter refuses (a root on or next to the split
    line) derives nothing, and the box splits again at the next fraction, so
    the halves always tile it; each re-split adds one to report.resplits.  A
    refusal at the last fraction is raised.  Roots however close part by
    subdivision alone: two polishes closer than Newton resolution are not
    distinct, so their box splits.  A pair no split parts (a double root, or
    two at rounding level) raises BoundaryTooCloseToRoot naming a box, as do
    two records that coincide (see _refuse_coincident).
    """
    report, before = counter.report, len(counter.records)
    counts, found, visited, unseeded = [], [], {}, np.zeros(0, dtype=int)
    # pending: (box index, rect, count, lanes, moments, most unknown roots to
    # seed, seed lanes); splits: (pending entry, index in _SPLITS, ticket)
    pending, splits = [], []

    def split(box, at: int = 0):
        splits.append((box, at, *counter.submit(_halves(box[1], _SPLITS[at])[:1], moments=True)))

    while len(counts) < len(tickets) or pending or splits or more:
        if more and not (counter.live["lane"] < before).any():
            (tickets, given), more = more(tickets, given), None
        while len(counts) < len(tickets) and tickets[len(counts)] in counter.outcomes:
            i, ticket = len(counts), tickets[len(counts)]
            rect, cnt = counter.rects[ticket], _logged(counter.outcomes[ticket], report)
            counts.append(cnt)
            found.append([])
            if cnt:
                pending.append((i, rect, cnt, given[i], counter.moments(ticket), _ORDER,
                                unseeded))
        pending, taken = [], pending
        for box in taken:
            i, rect, cnt, lanes, moments, most, seeds = box
            visited[i] = visited.get(i, 0) + 1
            if visited[i] > 10000:
                raise NoConvergence(f"subdivision of {counter.rects[tickets[i]]} exploded")
            if not seeds.size:
                known = lanes[_distinct(counter.at[lanes], rect)]
                if 0 < cnt - known.size <= most:
                    seeds = counter.newton(_moment_seeds(
                        rect, moments, counter.at[known], cnt - known.size))
                    box = (*box[:-1], seeds)
            if any(counter.records[j] is None for j in lanes.tolist() + seeds.tolist()):
                pending.append(box)     # wait for them
                continue
            if seeds.size:      # read again: known lanes' final records, seeds that landed
                known = np.concatenate([lanes[_distinct(counter.at[lanes], rect)],
                                        seeds[_inside(counter.at[seeds], rect)]])
                known = known[_distinct(counter.at[known], rect)]
            if known.size == cnt:
                found[i] += known.tolist()
                if seeds.size:
                    report.moment_boxes += 1
                else:
                    report.matched_boxes += 1
            else:
                split((i, rect, cnt, known, moments, 1 if seeds.size else most, unseeded))
        ready = [s for s in splits if s[2] in counter.outcomes]
        if ready:
            splits = [s for s in splits if s[2] not in counter.outcomes]
            for box, at, ticket in ready:
                i, rect, cnt, lanes, moments, most, _ = box
                outcome = counter.outcomes[ticket]
                if at + 1 < len(_SPLITS) and isinstance(outcome, Exception):
                    report.resplits += 1
                    split(box, at + 1)
                    continue
                first_cnt = _logged(outcome, report)
                first, second = _halves(rect, _SPLITS[at])
                rest = cnt - first_cnt
                if rest < 0:
                    raise NonConvergentContour(f"first half {first} counts {first_cnt} roots, "
                                               f"more than the {cnt} of its box {rect}")
                report.boxes.append((second, rest))
                report.derived_boxes += 1
                first_moments = counter.moments(ticket)
                second_moments = _second_moments(rect, moments, first, first_moments, second)
                in_first = _inside(counter.at[lanes], first)
                pending += [(i, *half, most, unseeded) for half in (
                    (first, first_cnt, lanes[in_first], first_moments),
                    (second, rest, lanes[~in_first], second_moments)) if half[1]]
        elif len(counts) < len(tickets) or pending or splits or more:
            counter.call()
    chosen = np.array([j for box in found for j in box], dtype=int)
    _refuse_coincident(counter.at[chosen], chosen < before)     # known: a given lane's
    return counts, found


def _label_low_frequency(records, preds):
    """Tag the sweep's roots: no k_index, and those with Im >= 0 the family
    of the nearest closed-form prediction, if within 0.5; preds holds the
    predictions of k = 1 .. K_MIN - 1 in (k, family) order."""
    lam = np.array([rec.lam for rec in records], dtype=complex)
    gap = np.abs(preds - lam[:, None])
    # argmin keeps the first of equals; 0 is no family
    family = np.where((lam.imag >= 0) & (gap.min(axis=1) < 0.5), gap.argmin(axis=1) % 2 + 1, 0)
    for rec, j in zip(records, family.tolist()):
        rec.k_index, rec.family = None, j or None


def spectrum_in_strip(p: BeamParams, k_max: int):
    """All eigenvalues with |Im lambda| <= (k_max + 1/2) pi, plus search report.

    The sweep box below (K_MIN - 1/2) pi and the frequency boxes K_MIN to
    k_max tile the strip.  Newton lanes polish the predictions of k = 1 ..
    k_max while the union and the sweep count (both are submitted to the
    counter first), and the lanes seed the boxes: those of k < K_MIN are
    the sweep's known roots, and those of each k >= K_MIN, inside its box
    and distinct, its frequency box's.  The
    sweep locates the roots they miss from its contour moments, subdividing
    only where those fail, and so does every odd frequency box, one whose
    records are not two distinct roots: the sweep and the odd boxes are
    counted and isolated in one call of _isolate.  The sweep is taken up
    as soon as its count is in, seeded from the lanes' current positions
    while they still step, and the odd boxes join once every lane has
    ended.  The union of all boxes
    and a margin beside them (see _union_box) is counted too,
    report.global_count.  The other frequency boxes are not counted: when
    global_count less the sweep's count equals the records of all frequency
    boxes, each holds just its two records, as the records are roots and
    the boxes are disjoint, so each box counts at least its records.  They
    are logged with winding 2 and no samples (report.band_boxes).
    Otherwise, or when the union cannot be counted, they are counted and
    isolated like the odd ones, in a second call of _isolate.  Each root is
    recorded by the box holding it.  The sweep's records, and only they, get
    family labels from the nearest prediction of the same lanes; a
    frequency box keeps its seeds' labels, or, when its records are not its
    seeded ones, is labelled by _label_pair.  Conjugate closure then mirrors
    the records above the line Im = -im_lo of the sweep box, whose
    conjugates no box searched; the sweep holds both members of every pair
    below it.  All counts share one batch, each on its own rect: no box
    shifts.  Each record is one simple root.  global_count must equal the
    number of records inside the union, so a root recorded twice or missed
    shows as an incomplete union.  A known root that coincides with another
    record raises BoundaryTooCloseToRoot naming both: it was taken for a
    root across a box edge from its own, which no count shows.  Im lambda
    below Newton's resolution is stored as 0.0.  Incomplete boxes, including
    a union that disagrees or cannot be counted (winding None), are
    reported, never silently dropped.  A sweep, subdivision or counted
    frequency box that cannot be counted raises BoundaryTooCloseToRoot
    naming it.
    """
    if k_max < 10:
        raise ValueError(f"k_max must be >= 10, got {k_max}")

    report = RootSearchReport()
    counter = _Counter(_beam(p), report)
    ks = range(K_MIN, k_max + 1)
    outer, union = _sweep_box(p), _union_box(p, k_max)
    # the union and the sweep count in the background of the Newton lanes
    union_ticket, sweep_ticket = counter.submit([union]) + counter.submit([outer], moments=True)
    preds = _predictions(p, range(1, k_max + 1))
    lanes = counter.newton(preds).reshape(-1, 2)      # per k, its families'
    pairs, rects, kept = lanes[K_MIN - 1:], np.array([_validation_rect(p, k) for k in ks]), None

    def odd_boxes(tickets, given):   # once the lanes are in: boxes not seeded with two roots
        nonlocal kept
        _families(counter, range(1, k_max + 1), lanes.ravel())
        kept = _distinct(counter.at[pairs], rects)
        odd = np.flatnonzero(~kept.all(axis=1))
        return tickets + counter.submit(rects[odd], moments=True), given + list(pairs[odd])

    (outer_count, *_), (chosen, *found) = _isolate(
        [sweep_ticket], [lanes[:K_MIN - 1].ravel()], counter, odd_boxes)
    _label_low_frequency(counter.records_of(chosen), preds[:2 * (K_MIN - 1)])
    band, counted = np.flatnonzero(kept.all(axis=1)), np.flatnonzero(~kept.all(axis=1)).tolist()
    (union_out,) = counter.outcomes_of([union_ticket])
    report.global_points = int(counter.samples[union_ticket])
    report.global_count = None if isinstance(union_out, Exception) else union_out[0]
    if (report.global_count is not None
            and report.global_count - outer_count == 2 * band.size + sum(map(len, found))):
        report.boxes += [(rect, 2) for rect in map(tuple, rects[band].tolist())]
        report.band_boxes = band.size
        chosen += pairs[band].ravel().tolist()
    else:
        counted += band.tolist()
        found += _isolate(counter.submit(rects[band], moments=True), list(pairs[band]), counter)[1]
    for i, box in zip(counted, found):
        if box != pairs[i][kept[i]].tolist():
            _label_pair(counter.records_of(box), p, ks[i])
        chosen += box
    failed_k = [ks[i] for i, box in zip(counted, found) if len(box) < 2]
    report.k0_effective = max(failed_k) + 1 if failed_k else K_MIN
    chosen = np.array(chosen, dtype=int)
    _refuse_coincident(counter.at[chosen], chosen < lanes.size)
    records = counter.records_of(chosen)

    # conjugate closure: below Im = -outer[2] the sweep holds both members
    records += [EigenvalueRecord(rec.lam.conjugate(), rec.k_index and -rec.k_index, rec.family,
                                 rec.residual) for rec in records if rec.lam.imag > -outer[2]]
    lam = np.array([rec.lam for rec in records], dtype=complex)
    # Im below Newton's resolution is rounding noise on a real root
    for i in np.flatnonzero(np.abs(lam.imag) <= 1e-12 * np.maximum(1.0, np.abs(lam))).tolist():
        records[i].lam = lam[i] = complex(lam[i].real, 0.0)
    for rect, count in ((outer, outer_count), (union, report.global_count)):
        recovered = int(_inside(lam, rect).sum())
        if recovered != count:      # the union's is None when it was refused
            report.incomplete_boxes.append((rect, count, recovered))
    return _in_order(records), report


def _in_order(records) -> list:
    """records by Im lambda, then Re lambda, then family (none first); as
    spectrum_in_strip stores rounding noise on the real axis as Im = 0, real
    roots keep their order on ulp-level changes."""
    lam = np.array([rec.lam for rec in records], dtype=complex)
    return [records[i] for i in np.lexsort(([rec.family or 0 for rec in records], lam.real,
                                            lam.imag))]
