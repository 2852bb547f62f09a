"""Eigenvalue search in the horizontal strip of the complex plane.

Low frequencies are handled by argument-principle counting with recursive
box subdivision (robust, no a-priori location knowledge); high frequencies
by Newton polishing of the closed-form predictions, each validated by a
winding count of exactly 2 per frequency box.  All contour work uses the
single-valued surrogate F = f * t1 * t3 from charfn, which has the same
zeros as f off the branch points but no sheet jumps.

A winding count sums the phase increments arg F(z_{i+1})/F(z_i) around the
box (Kravanja & Van Barel, Computing the Zeros of Analytic Functions, 2000;
Johnson & Tucker, Enclosing all zeros of an analytic function, 2009).  An
interval is refined until its increment and its F'-bounded turn
max |F'/F| * |z_{i+1} - z_i| at its two ends both stay within pi/4; the
F' bound catches a close pair of roots whose 2 pi turn the wrapped
increment alone would hide.  The sum is then an integer up to rounding.
Boxes split off centre, so no edge of the conservative sweep lands on the
root locus Re lambda = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .asymptotics import predict_eigenvalue
from .charfn import char_fn, entire_char_fn_and_derivative
from .errors import (
    BasinEscape,
    BoundaryTooCloseToRoot,
    NearBranchPoint,
    NoConvergence,
    NonConvergentContour,
    RegimeMismatch,
)
from .model import BeamParams, require_unit_speed

K_MIN = 8                     # boundary between contour sweep and seeded Newton
DEDUPE_RTOL = 1e-8
_COINCIDENCE_RTOL = 1e-10     # Newton resolution; scale of a genuine double root
_DIP_FACTOR = 1e-6            # |F| dip threshold relative to boundary median
_SPLIT = 0.5 - 0.0618         # off-centre split fraction: no edge on Re = 0 in the sweep
_EDGE_POINTS = 16             # initial samples per box edge
_MAX_TURN = math.pi / 4       # bound on an interval's increment and its F'-bounded turn
_SAMPLE_BUDGET = 4 * 8192     # samples per boundary before the box is shifted
_INTEGER_TOL = 1e-9           # rounding slack of the increment sum
_SHIFTS = ((0.01, 0.0), (-0.01, 0.0), (0.0, 0.01), (0.0, -0.01), (0.01, 0.01))


@dataclass
class EigenvalueRecord:
    """One located eigenvalue with its search provenance."""

    lam: complex
    k_index: int | None
    family: int | None
    residual: float
    multiplicity: int
    variant: str


@dataclass
class RootSearchReport:
    """Boxes examined, Newton effort, and completeness diagnostics."""

    boxes: list = field(default_factory=list)            # (rect, winding)
    newton_iterations: list = field(default_factory=list)  # (lam, iterations)
    k0_effective: int | None = None
    duplicates_merged: int = 0
    incomplete_boxes: list = field(default_factory=list)  # (rect, winding, recovered)
    shifted_boxes: int = 0       # counts made on a shifted box
    contour_points: int = 0      # F evaluations in counting, refinements included
    newton_calls: int = 0        # Newton polishes started, converged or not

    @property
    def stats(self) -> dict:
        """Deterministic effort counts; newton_iterations sums the converged polishes."""
        return {"boxes": len(self.boxes), "shifted_boxes": self.shifted_boxes,
                "contour_points": self.contour_points, "newton_calls": self.newton_calls,
                "newton_iterations": sum(it for _, it in self.newton_iterations)}


def _boundary(rect) -> np.ndarray:
    """The closed boundary, counter-clockwise: each corner once, _EDGE_POINTS per edge."""
    re_lo, re_hi, im_lo, im_hi = rect
    corners = np.array([complex(re_lo, im_lo), complex(re_hi, im_lo),
                        complex(re_hi, im_hi), complex(re_lo, im_hi)])
    t = np.arange(_EDGE_POINTS) / _EDGE_POINTS
    return (corners[:, None] + (np.roll(corners, -1) - corners)[:, None] * t).ravel()


def _phase_winding(rect, p: BeamParams, report: RootSearchReport | None):
    """Winding of F around rect by summed phase increments.

    Returns None when the boundary grazes a root (|F| dips below _DIP_FACTOR
    of the median of the initial samples) or needs more than _SAMPLE_BUDGET
    samples.  All midpoints of one refinement round go in one evaluation.
    """
    z = _boundary(rect)
    fz, dz, _ = entire_char_fn_and_derivative(z, p)
    floor = _DIP_FACTOR * np.median(np.abs(fz))
    new_f = fz
    while True:
        if report is not None:
            report.contour_points += new_f.size
        if np.abs(new_f).min() < floor:
            return None
        turn = np.angle(np.roll(fz, -1) / fz)
        slope = np.abs(dz / fz)
        bound = np.maximum(slope, np.roll(slope, -1)) * np.abs(np.roll(z, -1) - z)
        coarse = np.flatnonzero((np.abs(turn) > _MAX_TURN) | (bound > _MAX_TURN))
        if coarse.size == 0:
            return turn.sum() / (2.0 * math.pi)
        if z.size + coarse.size > _SAMPLE_BUDGET:
            return None
        mid = 0.5 * (z[coarse] + z[(coarse + 1) % z.size])
        new_f, new_d, _ = entire_char_fn_and_derivative(mid, p)
        z = np.insert(z, coarse + 1, mid)
        fz = np.insert(fz, coarse + 1, new_f)
        dz = np.insert(dz, coarse + 1, new_d)


def _perturbed(rect, attempt: int):
    re_lo, re_hi, im_lo, im_hi = rect
    w, h = re_hi - re_lo, im_hi - im_lo
    sx, sy = _SHIFTS[attempt]
    return (re_lo + sx * w, re_hi + sx * w, im_lo + sy * h, im_hi + sy * h)


def _count_rect(rect, p: BeamParams, report: RootSearchReport | None = None):
    """Winding count plus the rectangle actually used (possibly perturbed)."""
    base = tuple(float(v) for v in rect)
    for cur in [base] + [_perturbed(base, i) for i in range(len(_SHIFTS))]:
        try:
            wind = _phase_winding(cur, p, report)
        except NearBranchPoint:
            wind = None
        if wind is None:
            continue    # boundary grazes a root or a branch point; next shift
        k = round(wind)
        if abs(wind - k) > _INTEGER_TOL or k < 0:
            raise NonConvergentContour(f"phase increments around {cur} sum to {wind!r} turns")
        if report is not None:
            report.boxes.append((cur, k))
            report.shifted_boxes += int(cur != base)
        return k, cur
    raise BoundaryTooCloseToRoot(
        f"boundary of {rect} grazes a root or needs over {_SAMPLE_BUDGET} samples "
        f"after {len(_SHIFTS)} shifts")


def count_roots_in_rect(rect, p: BeamParams, report: RootSearchReport | None = None) -> int:
    """Number of eigenvalues (with multiplicity) inside an axis-aligned box.

    rect = (re_lo, re_hi, im_lo, im_hi).  The boundary starts with each
    corner and 16 points per edge; an interval whose phase increment
    exceeds pi/4, or whose length times the larger |F'/F| at its ends
    exceeds pi/4, gets its midpoint, round by round.  The winding is the
    sum of the increments over 2 pi, an integer up to rounding; a sum off
    an integer by more than 1e-9, or negative, raises NonConvergentContour.
    If |F| on the boundary dips below 1e-6 of the median of the initial
    samples, a sample comes within 1e-6 of a branch point, or refinement
    needs more than 4 * 8192 samples, the box is shifted by 1% of its size,
    up to five deterministic attempts, then BoundaryTooCloseToRoot.
    """
    require_unit_speed(p)
    return _count_rect(rect, p, report)[0]


def refine_root(seed: complex, p: BeamParams, tol: float = 1e-13) -> EigenvalueRecord:
    """Polish a root by Newton iteration on the surrogate F.

    One evaluation of (F, F', f) per iteration.  Converged when |f(lam)| <=
    tol * max(1, |lam|) and the last step fell below 1e-12 * max(1, |lam|)
    (so already-small seeds are still refined); at most 50 iterations, each
    iterate within 0.5 of the seed.  The step test scales with |lam|, so a
    root whose derivative is depressed by a neighbor Theta(1/k^2) away can
    keep one productive step: up to 3 more follow while they stay in the
    basin and strictly lower |f|, landing on the evaluation floor of the
    determinant.  ``iterations`` counts the steps up to convergence.  An
    iterate within 1e-6 of a branch point raises NearBranchPoint.
    """
    if tol < 1e-13:
        raise ValueError(f"tol must be >= 1e-13, got {tol}")
    require_unit_speed(p)
    variant = "conservative" if p.is_conservative else "dissipative"
    lam = seed = complex(seed)
    step, iterations, rec = math.inf, 0, None
    while True:
        surrogate, slope, fval = entire_char_fn_and_derivative(lam, p)
        residual, scale = abs(fval), max(1.0, abs(lam))
        if rec is not None:                 # floor polish: keep strict drops only
            if residual >= rec.residual:
                return rec
            rec.lam, rec.residual = lam, residual
            if iterations == rec.iterations + 3:
                return rec
        elif step <= 1e-12 * scale and residual <= tol * scale:
            rec = EigenvalueRecord(lam, None, None, residual, 1, variant)
            rec.iterations = iterations
        elif iterations == 50:
            raise NoConvergence(f"Newton did not converge from seed {seed}")
        if slope == 0:
            if rec is not None:
                return rec
            raise NoConvergence(f"flat surrogate at {lam}")
        delta = surrogate / slope
        if abs(lam - delta - seed) > 0.5:
            if rec is not None:
                return rec
            raise BasinEscape(f"iterate {lam - delta} left the basin of seed {seed}")
        lam, step, iterations = lam - delta, abs(delta), iterations + 1


def family_roots(p: BeamParams, k: int, variant: str = "dissipative", tol: float = 1e-13):
    """Both family roots near i k pi, Newton-polished from their predictions.

    Records come in family order with k_index and family set.  A failed
    family is raised again naming k and j, after the other was tried; the
    records that converged ride along on the error as ``records``.
    """
    recs, failure = [], None
    for j in (1, 2):
        seed = predict_eigenvalue(k, j, p, variant=variant, k_min=1)
        try:
            rec = refine_root(seed, p, tol=tol)
        except (NoConvergence, BasinEscape, NearBranchPoint) as exc:
            failure = failure or type(exc)(f"family {j} at k = {k}: {exc}")
            continue
        rec.k_index, rec.family = k, j
        recs.append(rec)
    if failure is not None:
        failure.records = recs
        raise failure
    return recs


def _validation_rect(p: BeamParams, k: int, variant: str):
    im_lo, im_hi = (k - 0.5) * math.pi, (k + 0.5) * math.pi
    if variant == "conservative":
        return (-0.5, 0.5, im_lo, im_hi)
    # right edge slightly into the right half plane: no roots there, and it
    # keeps high-k roots (Re ~ -1/k^2) safely off the contour
    return (-(p.k2 + p.k4) - 1.0, 0.2, im_lo, im_hi)


def _inside(lam: complex, rect) -> bool:
    return rect[0] <= lam.real <= rect[1] and rect[2] <= lam.imag <= rect[3]


def pair_at_frequency(p: BeamParams, k: int, variant: str = "dissipative",
                      report: RootSearchReport | None = None):
    """Both family roots near i k pi, each polished and jointly box-validated.

    Returns (records, complete) where complete means the winding count over
    the frequency box equals the recovered multiplicity.  When both families
    polish onto one root (agreeing to Newton resolution) while the box
    counts 2, the box is subdivided until its roots isolate: two distinct
    roots, as with unequal damping gains and degenerate sqrt(b) at Theta(1/k^2)
    apart, come back as two records in family order; only an unresolvable
    cluster comes back as one record of multiplicity 2.
    """
    if report is None:
        report = RootSearchReport()
    try:
        recs = family_roots(p, k, variant)
    except (NoConvergence, BasinEscape, NearBranchPoint) as exc:
        recs = exc.records
    report.newton_calls += 2                # family_roots polishes both families
    report.newton_iterations.extend((rec.lam, rec.iterations) for rec in recs)

    rect = _validation_rect(p, k, variant)
    count, rect = _count_rect(rect, p, report)
    inside = [r for r in recs if _inside(r.lam, rect)]
    coincident = len(inside) == 2 and abs(inside[0].lam - inside[1].lam) <= \
        _COINCIDENCE_RTOL * max(1.0, abs(inside[0].lam))
    if coincident and count == 2:
        recs = inside = _isolate(rect, count, p, report)
        _label_pair(recs, p, k, variant)
    complete = count == sum(r.multiplicity for r in inside)
    if not complete:
        report.incomplete_boxes.append((rect, count, sum(r.multiplicity for r in inside)))
    return recs, complete


def _label_pair(recs, p: BeamParams, k: int, variant: str):
    """Tag the roots of frequency box k, in place, in family order: the
    assignment to the two predictions with the smaller total distance."""
    preds = [predict_eigenvalue(k, j, p, variant=variant, k_min=1) for j in (1, 2)]
    if len(recs) == 2 and (abs(recs[0].lam - preds[1]) + abs(recs[1].lam - preds[0])
                           < abs(recs[0].lam - preds[0]) + abs(recs[1].lam - preds[1])):
        recs.reverse()
    for j, rec in enumerate(recs, start=1):
        rec.k_index, rec.family = k, j


def _sweep_box(p: BeamParams, variant: str):
    top = (K_MIN + 0.5) * math.pi
    if variant == "conservative":
        return (-0.5, 0.5, -0.3, top)
    return (-(p.k2 + p.k4) - 1.0, -1e-12, -0.3, top)


def _low_frequency_sweep(p: BeamParams, variant: str, report: RootSearchReport):
    """Count the low-frequency box and isolate its roots."""
    outer = _sweep_box(p, variant)
    total, outer = _count_rect(outer, p, report)
    return _isolate(outer, total, p, report), outer, total


def _isolate(outer, total: int, p: BeamParams, report: RootSearchReport):
    """Records of the `total` roots in `outer`, by recursive subdivision.

    A box with one root and diameter at most 0.25 is Newton-polished from
    its centre.  Each box splits its longer side at the fraction _SPLIT,
    not at the centre: halving the symmetric conservative box would put an
    edge on Re lambda = 0, where every conservative root lies.
    """
    records = []
    stack = [(outer, total)]
    visited = 0
    while stack:
        rect, cnt = stack.pop()
        visited += 1
        if visited > 10000:
            raise NoConvergence(f"subdivision of {outer} exploded")
        if cnt == 0:
            continue
        re_lo, re_hi, im_lo, im_hi = rect
        w, h = re_hi - re_lo, im_hi - im_lo
        diam = max(w, h)
        if diam < 1e-6:
            # unresolvable cluster: record as a multiple root at the center
            center = complex(0.5 * (re_lo + re_hi), 0.5 * (im_lo + im_hi))
            variant_tag = "conservative" if p.is_conservative else "dissipative"
            records.append(
                EigenvalueRecord(center, None, None, abs(char_fn(center, p)), cnt, variant_tag)
            )
            continue
        if cnt == 1 and diam <= 0.25:
            center = complex(0.5 * (re_lo + re_hi), 0.5 * (im_lo + im_hi))
            report.newton_calls += 1
            try:
                rec = refine_root(center, p)
            except (NoConvergence, BasinEscape, NearBranchPoint):
                rec = None
            if rec is not None and _inside(rec.lam, (re_lo - 1e-6, re_hi + 1e-6,
                                                     im_lo - 1e-6, im_hi + 1e-6)):
                records.append(rec)
                report.newton_iterations.append((rec.lam, rec.iterations))
                continue
            # fall through to subdivision when polishing misbehaves
        if w >= h:
            mid = re_lo + _SPLIT * w
            halves = [(re_lo, mid, im_lo, im_hi), (mid, re_hi, im_lo, im_hi)]
        else:
            mid = im_lo + _SPLIT * h
            halves = [(re_lo, re_hi, im_lo, mid), (re_lo, re_hi, mid, im_hi)]
        for half in halves:
            c, used = _count_rect(half, p, report)
            if c:
                stack.append((used, c))
    return records


def _dedupe(records):
    """Merge records that coincide within tolerance; keep the best residual."""
    records = sorted(records, key=lambda r: (r.lam.imag, r.lam.real))
    out = []
    merged = 0
    for rec in records:
        for kept in out:
            if abs(rec.lam - kept.lam) <= DEDUPE_RTOL * max(1.0, abs(rec.lam)):
                merged += 1
                if rec.residual < kept.residual:
                    kept.lam, kept.residual = rec.lam, rec.residual
                if kept.k_index is None:
                    kept.k_index = rec.k_index
                if kept.family is None:
                    kept.family = rec.family
                kept.multiplicity = max(kept.multiplicity, rec.multiplicity)
                break
        else:
            out.append(rec)
    return out, merged


def _label_low_frequency(records, p: BeamParams, variant: str):
    """Assign family tags to sweep roots by nearest closed-form prediction."""
    for rec in records:
        if rec.family is not None or rec.lam.imag < 0:
            continue
        best = (np.inf, None)
        for k in range(1, K_MIN + 2):
            for j in (1, 2):
                pred = predict_eigenvalue(k, j, p, variant=variant, k_min=1)
                dist = abs(pred - rec.lam)
                if dist < best[0]:
                    best = (dist, j)
        if best[0] < 0.5:
            rec.family = best[1]


def spectrum_in_strip(p: BeamParams, k_max: int, variant: str = "dissipative"):
    """All eigenvalues with |Im lambda| <= (k_max + 1/2) pi, plus search report.

    Low-frequency sweep below (K_MIN + 1/2) pi, seeded Newton with per-box
    validation from K_MIN to k_max, conjugate closure, dedupe, family labels.
    Im lambda below Newton's resolution is stored as 0.0.  Incomplete boxes
    are reported, never silently dropped.
    """
    if k_max < 10:
        raise ValueError(f"k_max must be >= 10, got {k_max}")
    if (variant == "conservative") != p.is_conservative:
        raise RegimeMismatch(f"variant {variant!r} inconsistent with k2={p.k2}, k4={p.k4}")
    require_unit_speed(p)

    report = RootSearchReport()
    records, outer, outer_count = _low_frequency_sweep(p, variant, report)

    failed_k = []
    for k in range(K_MIN, k_max + 1):
        recs, complete = pair_at_frequency(p, k, variant, report)
        if len(recs) < 2 and not (len(recs) == 1 and recs[0].multiplicity == 2):
            failed_k.append(k)
        records.extend(recs)
    report.k0_effective = max(failed_k) + 1 if failed_k else K_MIN

    _label_low_frequency(records, p, variant)

    # conjugate closure (only Im > 0 was searched)
    mirrored = []
    for rec in records:
        if rec.lam.imag > 1e-8:
            twin = EigenvalueRecord(
                rec.lam.conjugate(),
                -rec.k_index if rec.k_index is not None else None,
                rec.family,
                rec.residual,
                rec.multiplicity,
                rec.variant,
            )
            mirrored.append(twin)
    records, merged = _dedupe(records + mirrored)
    report.duplicates_merged = merged
    for rec in records:
        if _on_real_axis(rec.lam):
            rec.lam = complex(rec.lam.real, 0.0)

    in_outer = sum(r.multiplicity for r in records if _inside(r.lam, outer))
    if in_outer != outer_count:
        report.incomplete_boxes.append((outer, outer_count, in_outer))

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


def verify_no_imaginary_roots(p: BeamParams, h_max: float, records=None) -> bool:
    """Check the damped spectrum stays strictly off the imaginary axis.

    Combines the located roots (all must have Re < 0) with a dense sampling
    of |f(i h)| for h in [0.01, h_max], which must stay above a fraction of
    its median except near the imaginary parts of actual roots.
    """
    if records is None:
        records, _ = spectrum_in_strip(p, max(10, int(math.ceil(h_max / math.pi)) + 1))
    relevant = [r for r in records if abs(r.lam.imag) <= h_max]
    if any(r.lam.real >= -1e-12 * max(1.0, abs(r.lam)) for r in relevant):
        return False
    hs = np.linspace(0.01, h_max, max(2000, int(20 * h_max)))
    mags = np.abs(char_fn(1j * hs, p))
    near_root = np.zeros(hs.shape, dtype=bool)
    for r in relevant:
        near_root |= np.abs(hs - r.lam.imag) < 0.3
    floor = _DIP_FACTOR * np.median(mags)
    return bool(np.all(mags[~near_root] > floor))
