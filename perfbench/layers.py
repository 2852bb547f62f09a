"""Spans around calls into tipbeam's layers, and the per-layer metrics from them.

The package binds names at import (`from .charfn import entire_char_fn`), so
a wrapper goes on every consuming module's attribute, never on the defining
module alone.  Calls a module makes to its own functions resolve through its
globals, so the wrapper on tipbeam.spectrum.refine_root also sees the calls
from pair_at_frequency and the low-frequency sweep.  A site the package no
longer has is skipped: no call can go through it.
"""

import importlib
import inspect
import json
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from statistics import median

import numpy as np


@dataclass
class Span:
    """One traced call: name, start, end, enclosing span, run id, counts."""

    name: str
    start: float
    end: float
    parent: int          # index of the enclosing span in Tracer.spans, -1 at the root
    run: int
    ok: bool = True      # False when the call raised
    info: dict | None = None


class Tracer:
    """Keeps spans in memory; `run` tags every span opened until it changes."""

    def __init__(self):
        self.spans = []
        self.run = 0
        self._open = []

    def wrap(self, name, fn, info=None):
        """fn with a span around each call; info(bound_args, result) -> counts."""
        signature = inspect.signature(fn) if info is not None else None
        spans, stack = self.spans, self._open

        def traced(*args, **kwargs):
            span = Span(name, 0.0, 0.0, stack[-1] if stack else -1, self.run)
            spans.append(span)
            stack.append(len(spans) - 1)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.ok = False
                raise
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if info is not None:
                span.info = info(signature.bind(*args, **kwargs).arguments, result)
            return result

        return traced

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for index, span in enumerate(self.spans):
                fh.write(json.dumps({"id": index, **asdict(span)}) + "\n")


def _points(args, result):
    return {"points": int(np.size(args["lam"]))}


def _iterations(args, result):
    return {"iterations": int(getattr(result, "iterations", 0))}


def _search_report(args, result):
    report = result[1]
    return {"boxes": len(report.boxes), "incomplete_boxes": len(report.incomplete_boxes),
            "duplicates_merged": int(report.duplicates_merged)}


def _storage_bytes(obj) -> int:
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    # scipy.sparse storage: the arrays that hold entries and their positions
    return sum(getattr(obj, part).nbytes for part in ("data", "indices", "indptr", "offsets")
               if isinstance(getattr(obj, part, None), np.ndarray))


def _generator_bytes(args, result):
    return {"bytes": sum(_storage_bytes(v) for v in vars(result).values())}


def _steps(args, result):
    return {"steps": max(1, int(round(args["T"] / args["dt"])))}


# (module, class or None, attribute, span name, counts taken at the boundary)
SITES = (
    ("tipbeam.spectrum", None, "entire_char_fn", "charfn.entire_char_fn", _points),
    ("tipbeam.spectrum", None, "char_fn", "charfn.char_fn", _points),
    ("tipbeam.modes", None, "boundary_matrix", "charfn.boundary_matrix", _points),
    ("tipbeam.cli", None, "boundary_matrix", "charfn.boundary_matrix", _points),
    ("tipbeam.spectrum", None, "predict_eigenvalue", "asymptotics.predict_eigenvalue", None),
    ("tipbeam.modes", None, "predict_eigenvalue", "asymptotics.predict_eigenvalue", None),
    ("tipbeam.cli", None, "predict_eigenvalue", "asymptotics.predict_eigenvalue", None),
    ("tipbeam.spectrum", None, "refine_root", "spectrum.refine_root", _iterations),
    ("tipbeam.modes", None, "refine_root", "spectrum.refine_root", _iterations),
    ("tipbeam.cli", None, "refine_root", "spectrum.refine_root", _iterations),
    ("tipbeam.spectrum", None, "pair_at_frequency", "spectrum.pair_at_frequency", None),
    ("tipbeam.cli", None, "spectrum_in_strip", "spectrum.spectrum_in_strip", _search_report),
    ("tipbeam.modes", None, "eigenmode", "modes.eigenmode", None),
    ("tipbeam.cli", None, "eigenmode", "modes.eigenmode", None),
    ("tipbeam.modes", None, "nullspace_coeffs", "modes.nullspace_coeffs", None),
    ("tipbeam.cli", None, "nullspace_coeffs", "modes.nullspace_coeffs", None),
    ("tipbeam.modes", None, "gram_inner_product", "modes.gram_inner_product", None),
    ("tipbeam.cli", None, "mode_residuals", "modes.mode_residuals", None),
    ("tipbeam.cli", None, "riesz_closeness", "modes.riesz_closeness", None),
    ("tipbeam.cli", None, "solve_static", "model.solve_static", None),
    ("tipbeam.cli", None, "assemble_generator", "simulate.assemble_generator", _generator_bytes),
    ("tipbeam.cli", None, "integrate", "simulate.integrate", _steps),
    ("tipbeam.simulate", "DiscreteGenerator", "energy", "simulate.energy", None),
    ("tipbeam.cli", None, "fit_decay", "simulate.fit_decay", None),
)


def install(tracer: Tracer):
    """Put the wrappers in place; returns (restore callable, skipped sites)."""
    saved, skipped = [], []
    for module, cls, attr, name, info in SITES:
        owner = importlib.import_module(module)
        if cls is not None:
            owner = getattr(owner, cls, None)
        original = getattr(owner, attr, None) if owner is not None else None
        if original is None:
            skipped.append(f"{module}.{cls + '.' if cls else ''}{attr}")
            continue
        saved.append((owner, attr, original))
        setattr(owner, attr, tracer.wrap(name, original, info))

    def restore():
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)

    return restore, skipped


# ---------------------------------------------------------------------------
# per-layer metrics: (name, unit, better, deterministic count?)

PER_LAYER = (
    ("charfn.calls", "count", "lower", True),
    ("charfn.points", "count", "lower", True),
    ("charfn.scalar_calls", "count", "lower", True),
    ("charfn.self_s", "s", "lower", False),
    ("charfn.us_per_point", "us", "lower", False),
    ("charfn.newton_points", "count", "lower", True),
    ("charfn.contour_points", "count", "lower", True),
    ("charfn.mode_points", "count", "lower", True),
    ("asymptotics.predict_calls", "count", "lower", True),
    ("asymptotics.self_s", "s", "lower", False),
    ("spectrum.newton_calls", "count", "lower", True),
    ("spectrum.newton_iterations", "count", "lower", True),
    ("spectrum.newton_failures", "count", "lower", True),
    ("spectrum.newton_useful_ratio", "ratio", "higher", True),
    ("spectrum.newton_self_s", "s", "lower", False),
    ("spectrum.boxes", "count", "lower", True),
    ("spectrum.incomplete_boxes", "count", "lower", True),
    ("spectrum.duplicates_merged", "count", "lower", True),
    ("spectrum.strip_self_s", "s", "lower", False),
    ("modes.eigenmode_calls", "count", "lower", True),
    ("modes.eigenmode_self_s", "s", "lower", False),
    ("modes.nullspace_calls", "count", "lower", True),
    ("modes.gram_calls", "count", "lower", True),
    ("modes.gram_self_s", "s", "lower", False),
    ("modes.residual_self_s", "s", "lower", False),
    ("model.solve_static_s", "s", "lower", False),
    ("simulate.assemble_s", "s", "lower", False),
    ("simulate.generator_bytes", "bytes", "lower", True),
    ("simulate.steps", "count", "lower", True),
    ("simulate.us_per_step", "us", "lower", False),
    ("simulate.energy_calls", "count", "lower", True),
    ("simulate.us_per_energy", "us", "lower", False),
    ("simulate.fit_s", "s", "lower", False),
    ("cli.spectrum_s", "s", "lower", False),
    ("cli.riesz_s", "s", "lower", False),
    ("cli.modes_s", "s", "lower", False),
    ("cli.decay_s", "s", "lower", False),
    ("cli.artifact_bytes", "bytes", "lower", True),
    ("tracing_overhead_s", "s", "lower", False),
)
COUNTS = tuple(name for name, _, _, count in PER_LAYER if count)
TIMES = tuple(name for name, _, _, count in PER_LAYER if not count)
UNITS = {name: unit for name, unit, _, _ in PER_LAYER}


def _ratio(num, den, scale=1.0):
    return scale * num / den if den else 0.0


def run_metrics(spans, run: int) -> dict:
    """Per-layer metrics of one traced repeat (tracing_overhead_s excluded)."""
    index = [i for i, s in enumerate(spans) if s.run == run]
    self_s = {i: spans[i].end - spans[i].start for i in index}
    for i in index:
        if spans[i].parent >= 0:
            self_s[spans[i].parent] -= spans[i].end - spans[i].start

    calls, total, own = {}, {}, {}
    for i in index:
        name = spans[i].name
        calls[name] = calls.get(name, 0) + 1
        total[name] = total.get(name, 0.0) + spans[i].end - spans[i].start
        own[name] = own.get(name, 0.0) + self_s[i]

    def info(i, key):   # a call that raised has no counts
        return (spans[i].info or {}).get(key, 0)

    def info_sum(name, key):
        return sum(info(i, key) for i in index if spans[i].name == name)

    charfn = [i for i in index if spans[i].name.startswith("charfn.")]
    points = {"newton": 0, "contour": 0, "mode": 0}
    for i in charfn:
        parent = spans[spans[i].parent].name if spans[i].parent >= 0 else ""
        if parent == "spectrum.refine_root":
            points["newton"] += info(i, "points")
        elif parent in ("spectrum.spectrum_in_strip", "spectrum.pair_at_frequency"):
            points["contour"] += info(i, "points")
        elif parent.startswith("modes.") or parent == "cli.modes":
            points["mode"] += info(i, "points")

    all_points = sum(info(i, "points") for i in charfn)
    newton = [i for i in index if spans[i].name == "spectrum.refine_root"]
    roots = sum(1 for i in newton if spans[i].ok)
    steps = info_sum("simulate.integrate", "steps")
    energy_calls = calls.get("simulate.energy", 0)
    charfn_self = sum(self_s[i] for i in charfn)
    bytes_seen = [info(i, "bytes") for i in index
                  if spans[i].name == "simulate.assemble_generator"]
    return {
        "charfn.calls": len(charfn),
        "charfn.points": all_points,
        "charfn.scalar_calls": sum(1 for i in charfn if info(i, "points") == 1),
        "charfn.self_s": charfn_self,
        "charfn.us_per_point": _ratio(charfn_self, all_points, 1e6),
        "charfn.newton_points": points["newton"],
        "charfn.contour_points": points["contour"],
        "charfn.mode_points": points["mode"],
        "asymptotics.predict_calls": calls.get("asymptotics.predict_eigenvalue", 0),
        "asymptotics.self_s": own.get("asymptotics.predict_eigenvalue", 0.0),
        "spectrum.newton_calls": len(newton),
        "spectrum.newton_iterations": info_sum("spectrum.refine_root", "iterations"),
        "spectrum.newton_failures": len(newton) - roots,
        "spectrum.newton_useful_ratio": _ratio(roots, len(newton)),
        "spectrum.newton_self_s": own.get("spectrum.refine_root", 0.0),
        "spectrum.boxes": info_sum("spectrum.spectrum_in_strip", "boxes"),
        "spectrum.incomplete_boxes": info_sum("spectrum.spectrum_in_strip", "incomplete_boxes"),
        "spectrum.duplicates_merged": info_sum("spectrum.spectrum_in_strip", "duplicates_merged"),
        "spectrum.strip_self_s": (own.get("spectrum.spectrum_in_strip", 0.0)
                                  + own.get("spectrum.pair_at_frequency", 0.0)),
        "modes.eigenmode_calls": calls.get("modes.eigenmode", 0),
        "modes.eigenmode_self_s": own.get("modes.eigenmode", 0.0),
        "modes.nullspace_calls": calls.get("modes.nullspace_coeffs", 0),
        "modes.gram_calls": calls.get("modes.gram_inner_product", 0),
        "modes.gram_self_s": own.get("modes.gram_inner_product", 0.0),
        "modes.residual_self_s": own.get("modes.mode_residuals", 0.0),
        "model.solve_static_s": total.get("model.solve_static", 0.0),
        "simulate.assemble_s": total.get("simulate.assemble_generator", 0.0),
        "simulate.generator_bytes": max(bytes_seen, default=0),
        "simulate.steps": steps,
        "simulate.us_per_step": _ratio(own.get("simulate.integrate", 0.0), steps, 1e6),
        "simulate.energy_calls": energy_calls,
        "simulate.us_per_energy": _ratio(total.get("simulate.energy", 0.0), energy_calls, 1e6),
        "simulate.fit_s": total.get("simulate.fit_decay", 0.0),
        "cli.spectrum_s": total.get("cli.spectrum", 0.0),
        "cli.riesz_s": total.get("cli.riesz", 0.0),
        "cli.modes_s": total.get("cli.modes", 0.0),
        "cli.decay_s": total.get("cli.decay", 0.0),
    }


def combine(per_run: list) -> dict:
    """Counts from the first traced repeat, times as the median over repeats."""
    out = dict(per_run[0])
    for name in TIMES:
        if name in out:
            out[name] = median(m[name] for m in per_run)
    return out
