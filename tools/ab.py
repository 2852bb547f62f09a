"""In-process A/B timing of two tipbeam checkouts, with an A/A control.

    python tools/ab.py PARENT CHANGE

PARENT and CHANGE are the roots of two checkouts.  Both load side by side in
one process, as packages tb_a and tb_b, and PARENT once more as tb_aa, so
that the control times two copies of one code.  Each side runs a fixed menu
on the benchmark's fixture (perfbench/workloads.py, seed 0): its two strips
(generic k <= 200, conservative k <= 50), `family_roots` at k = 8..300 on
the generic set, and each workload of perfbench/workloads.py, its CLI
commands run in-process as perfbench/run.py runs them.

It first compares CHANGE's outcome of every item with PARENT's.  For a
strip or `family_roots` that is its records (lambda, (k, family) labels,
residual), its report's newton_iterations (the lambda and steps of every
converged Newton polish), the counts the search certified (the union's
count, k0_effective and the incomplete boxes) and `stats`.  The item is
`identical` when all of these are, bit for bit.  It `differs` when only
the lambdas moved, each by at most 8 ulps of max(1, |lambda|) (Newton ends
a lane within 4 of them), and residuals, iterations or `stats` changed:
its check line gives the largest relative |d lambda| and the `stats` keys
that moved.  Any other difference (the number of records, a label, a
certified count, a lambda moved further) is refused.  A workload's outcome
is the sha256 of each artifact, and perfbench's `check_step` runs on every
step's artifacts: the item is `identical` when every digest is, `differs`
when some changed and every check passed (its line names the changed
artifacts), and is refused when a check failed on either side, by the
check's name.  A refusal names the first such item and stops.

It then times PAIRS interleaved pairs of each item, the order of the two
sides flipped each pair, with one BLAS thread; of a workload only its
commands are timed, as in perfbench's wall_s.  Per item it prints its
label, the median ratio CHANGE / PARENT, its quartiles, and the pairs
CHANGE was faster in; the A/A line is the same for tb_aa against tb_a.  It
only reports: it applies no bound.  Each item runs 4 * PAIRS times; at
`decay`'s 0.64 s a run, its 800 take about 8.5 minutes.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import contextlib  # noqa: E402
import importlib  # noqa: E402
import importlib.util  # noqa: E402
import io  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import unittest.mock  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

PAIRS = 200
ROOT = Path(__file__).resolve().parents[1]


def load_workloads():
    """perfbench/workloads.py of this checkout, read without writing bytecode."""
    spec = importlib.util.spec_from_file_location("ab_workloads",
                                                  ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    with unittest.mock.patch.object(sys, "dont_write_bytecode", True):
        spec.loader.exec_module(module)
    return module


def load(name: str, root) -> dict:
    """The modules of the checkout at root, imported as package `name`."""
    package = Path(root).resolve() / "src" / "tipbeam"
    spec = importlib.util.spec_from_file_location(
        name, package / "__init__.py", submodule_search_locations=[str(package)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return {sub: importlib.import_module(f"{name}.{sub}") for sub in ("model", "spectrum", "cli")}


def outcome(lams, labels, rest, counts, stats) -> dict:
    """What the check compares of a strip's or `family_roots`' run: its
    records' lambdas and (k, family) labels, the rest of its records and
    report (residuals and Newton iterations), the counts the search
    certified and its stats."""
    return {"lams": list(lams), "labels": list(labels), "rest": list(rest), "counts": counts,
            "stats": stats}


def menu(side: dict, scratch: Path) -> dict:
    """Item name -> a function of no arguments that runs the item on side and
    returns its outcome; a workload's function keeps the seconds its
    commands took as its `seconds`."""
    workloads = load_workloads()
    spectrum, fixture = side["spectrum"], workloads.make_params(0)
    generic = side["model"].validate_params(**fixture)
    conservative = side["model"].validate_params(**dict(fixture, k2=0.0, k4=0.0))
    out = scratch / side["spectrum"].__name__.split(".")[0]
    out.mkdir()
    workloads.write_params(out / "params.txt", fixture, 0)

    def records(recs, report):
        return outcome([r.lam for r in recs], [(r.k_index, r.family) for r in recs],
                       ([r.residual for r in recs], report.newton_iterations),
                       (report.global_count, report.k0_effective, report.incomplete_boxes),
                       report.stats)

    def family():
        report = spectrum.RootSearchReport()
        return records(spectrum.family_roots(generic, range(8, 301), report), report)

    def workload(name, steps):
        artifacts = out / name

        def run():
            shutil.rmtree(artifacts, ignore_errors=True)
            start = time.perf_counter()
            with contextlib.redirect_stdout(io.StringIO()):
                for step in steps:
                    side["cli"].main([step.command, "--params", str(out / "params.txt"),
                                      "--out", str(artifacts / step.out), *step.flags])
            run.seconds = time.perf_counter() - start
            # a command that failed left its artifacts missing, which its checks name
            return {"digests": workloads.digests(artifacts),
                    "failed": [check for step in steps
                               for check, ok, _ in workloads.check_step(step, artifacts) if not ok]}

        return run

    return {"strip generic k<=200": lambda: records(*spectrum.spectrum_in_strip(generic, 200)),
            "strip conservative k<=50": lambda: records(
                *spectrum.spectrum_in_strip(conservative, 50)),
            "family_roots k=8..300": family,
            **{name: workload(name, steps) for name, steps in workloads.WORKLOADS.items()}}


def moved(first: dict, second: dict) -> str:
    """The keys whose values differ between two dicts, sorted and joined, or 'none'."""
    return ", ".join(sorted(key for key in first.keys() | second.keys()
                            if first.get(key) != second.get(key))) or "none"


def verdict(first: dict, second: dict) -> tuple[str, str]:
    """(label, detail) of second's outcome against first's: identical,
    differs (the largest relative |d lambda| and the stats keys that moved,
    or the artifacts whose digest changed) or refused (why).  repr keeps
    every bit of a float, and tells -0.0 from 0.0."""
    failed = [f"{who} {check}" for who, side in (("PARENT", first), ("CHANGE", second))
              for check in side.get("failed", ())]
    if failed:
        return "refused", f"failed checks: {', '.join(failed)}"
    if repr(first) == repr(second):
        return "identical", ""
    if "digests" in first:
        return "differs", "artifacts changed: " + moved(first["digests"], second["digests"])
    a, b = (np.array(side["lams"], dtype=complex) for side in (first, second))
    if a.size != b.size:
        return "refused", f"{a.size} records against {b.size}"
    if first["labels"] != second["labels"]:
        return "refused", "the (k, family) labels differ"
    if repr(first["counts"]) != repr(second["counts"]):
        return "refused", f"certified counts {first['counts']!r} against {second['counts']!r}"
    shift = np.abs(b - a)
    ulps = np.max(shift / np.spacing(np.maximum(1.0, np.abs(a))), initial=0.0)
    if ulps > 8.0:
        return "refused", f"a lambda moved by {ulps:.1f} ulps"
    return "differs", (f"largest relative |d lambda| {np.max(shift / np.abs(a), initial=0.0):.2e},"
                       f" stats moved: {moved(first['stats'], second['stats'])}")


def pairs(first, second, count: int) -> np.ndarray:
    """count (first, second) wall times of interleaved runs, in seconds: a
    run's `seconds` if it keeps them, else the whole call; the side that
    runs first alternates."""
    times = np.zeros((count, 2))
    for i in range(count):
        for side in ((0, 1) if i % 2 == 0 else (1, 0)):
            run = (first, second)[side]
            start = time.perf_counter()
            run()
            times[i, side] = getattr(run, "seconds", time.perf_counter() - start)
    return times


def line(label: str, times: np.ndarray) -> str:
    ratio = times[:, 1] / times[:, 0]
    q1, median, q3 = np.percentile(ratio, [25, 50, 75])
    a, b = 1e3 * np.median(times, axis=0)
    return (f"{label:58s} {a:8.3f} -> {b:8.3f} ms  ratio {median:.3f} [{q1:.3f}, {q3:.3f}]"
            f"  faster {int((ratio < 1).sum())}/{len(ratio)}")


def main(argv) -> int:
    if len(argv) != 2:
        print("usage: python tools/ab.py PARENT CHANGE", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as scratch:
        sides = [menu(load(name, root), Path(scratch))
                 for name, root in (("tb_a", argv[0]), ("tb_b", argv[1]), ("tb_aa", argv[0]))]
        labels = {}
        for name in sides[0]:
            labels[name], detail = verdict(sides[0][name](), sides[1][name]())
            print(f"{name}: {labels[name]}" + (f": {detail}" if detail else ""))
            if labels[name] == "refused":
                return 1
        print(f"{PAIRS} pairs each, medians of PARENT -> CHANGE")
        for name in sides[0]:
            a, b, aa = (side[name] for side in sides)
            print(line(f"{name} [{labels[name]}]", pairs(a, b, PAIRS)))
            print(line(f"  A/A {name}", pairs(a, aa, PAIRS)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
