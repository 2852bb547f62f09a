"""In-process A/B timing of two tipbeam checkouts, with an A/A control.

    python tools/ab.py PARENT CHANGE

PARENT and CHANGE are the roots of two checkouts.  Both load side by side in
one process, as packages tb_a and tb_b, and PARENT once more as tb_aa, so
that the control times two copies of one code.  Each side runs a fixed menu:
the benchmark's two strips (generic k <= 200, conservative k <= 50),
`family_roots` at k = 8..300 on the generic set, and the benchmark's two
`spectrum` commands (generic k <= 200, conservative k <= 50), in-process.

It first compares CHANGE's outcome of every item with PARENT's: its
records (lambda, (k, family) labels, residual), its report's
newton_iterations (the lambda and steps of every converged Newton polish),
the counts the search certified (the union's count, k0_effective and the
incomplete boxes), `stats` and, for a command, the bytes of its artifacts.
An item is `identical` when all of these are, bit for bit.  It `differs`
when only the lambdas moved, each by at most 8 ulps of max(1, |lambda|)
(Newton ends a lane within 4 of them), and residuals, iterations, `stats`
or bytes changed: its check line gives the largest relative |d lambda|
and the `stats` keys that moved.  Any other difference (the number of
records, a label, a certified count, a lambda moved further) is refused:
it names the first such item and stops.  It then times PAIRS interleaved
pairs of each item, the order of the two sides flipped each pair, with one
BLAS thread.  Per item it prints its label, the median ratio CHANGE /
PARENT, its quartiles, and the pairs CHANGE was faster in; the A/A line is
the same for tb_aa against tb_a.  It only reports: it applies no bound.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import contextlib  # noqa: E402
import importlib  # noqa: E402
import importlib.util  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

PAIRS = 200
GENERIC = (1.0, 2.0, 1.0, 2.0, 3.0, 2.0)      # perfbench's fixture, seed 0
CONSERVATIVE = (1.0, 2.0, 1.0, 0.0, 3.0, 0.0)


def load(name: str, root) -> dict:
    """The modules of the checkout at root, imported as package `name`."""
    package = Path(root).resolve() / "src" / "tipbeam"
    spec = importlib.util.spec_from_file_location(
        name, package / "__init__.py", submodule_search_locations=[str(package)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return {sub: importlib.import_module(f"{name}.{sub}") for sub in ("model", "spectrum", "cli")}


def outcome(lams, labels, rest, counts, stats, artifacts=()) -> dict:
    """What the check compares of one item's run: its records' lambdas and
    (k, family) labels, the rest of its records and report (residuals and
    Newton iterations), the counts the search certified, its stats and the
    bytes of its artifacts."""
    return {"lams": list(lams), "labels": list(labels), "rest": list(rest), "counts": counts,
            "stats": stats, "artifacts": list(artifacts)}


def menu(side: dict, scratch: Path) -> dict:
    """Item name -> a function of no arguments that runs the item on side and
    returns its outcome."""
    spectrum, params = side["spectrum"], side["model"].validate_params
    generic, conservative = params(*GENERIC), params(*CONSERVATIVE)
    out = scratch / side["spectrum"].__name__.split(".")[0]
    out.mkdir()
    (out / "params.txt").write_text("".join(f"{key}={value!r}\n" for key, value in zip(
        ("a", "b", "k1", "k2", "k3", "k4"), GENERIC)), encoding="utf-8")

    def records(recs, report):
        return outcome([r.lam for r in recs], [(r.k_index, r.family) for r in recs],
                       ([r.residual for r in recs], report.newton_iterations),
                       (report.global_count, report.k0_effective, report.incomplete_boxes),
                       report.stats)

    def family():
        report = spectrum.RootSearchReport()
        return records(spectrum.family_roots(generic, range(8, 301), report), report)

    def command(*flags):
        argv = ["spectrum", "--params", str(out / "params.txt"), *flags,
                "--out", str(out / "-".join(flags))]

        def run():
            with contextlib.redirect_stdout(io.StringIO()):
                if side["cli"].main(argv) != 0:
                    raise RuntimeError(f"{side['cli'].__name__}: {' '.join(argv)} failed")
            paths = sorted(Path(argv[-1]).glob("spectrum*"))
            rows = [line.split(",") for line in paths[0].read_text(encoding="utf-8").splitlines()
                    if not line.startswith("#")][1:]
            report = json.loads(paths[1].read_text(encoding="utf-8"))
            return outcome([complex(float(re), float(im)) for _, _, re, im, *_ in rows],
                           [(k, j) for k, j, *_ in rows],
                           ([row[4:] for row in rows], report["newton"]),
                           (report["stats"]["global_count"], report["k0_effective"],
                            report["incomplete_boxes"]), report["stats"],
                           [(path.name, path.read_bytes()) for path in paths])

        return run

    return {"strip generic k<=200": lambda: records(*spectrum.spectrum_in_strip(generic, 200)),
            "strip conservative k<=50": lambda: records(
                *spectrum.spectrum_in_strip(conservative, 50)),
            "family_roots k=8..300": family,
            "spectrum --kmax 200": command("--kmax", "200"),
            "spectrum --kmax 50 --conservative": command("--kmax", "50", "--conservative")}


def verdict(first: dict, second: dict) -> tuple[str, str]:
    """(label, detail) of second's outcome against first's: identical,
    differs (the largest relative |d lambda| and the stats keys that moved)
    or refused (why).  repr keeps every bit of a float, and tells -0.0 from
    0.0."""
    if repr(first) == repr(second):
        return "identical", ""
    a, b = (np.array(side["lams"], dtype=complex) for side in (first, second))
    if a.size != b.size:
        return "refused", f"{a.size} records against {b.size}"
    if first["labels"] != second["labels"]:
        return "refused", "the (k, family) labels differ"
    if repr(first["counts"]) != repr(second["counts"]):
        return "refused", f"certified counts {first['counts']!r} against {second['counts']!r}"
    moved = np.abs(b - a)
    ulps = np.max(moved / np.spacing(np.maximum(1.0, np.abs(a))), initial=0.0)
    if ulps > 8.0:
        return "refused", f"a lambda moved by {ulps:.1f} ulps"
    keys = sorted(key for key in first["stats"].keys() | second["stats"].keys()
                  if first["stats"].get(key) != second["stats"].get(key))
    return "differs", (f"largest relative |d lambda| {np.max(moved / np.abs(a), initial=0.0):.2e},"
                       f" stats moved: {', '.join(keys) or 'none'}")


def pairs(first, second, count: int) -> np.ndarray:
    """count (first, second) wall times of interleaved runs, in seconds; the
    side that runs first alternates."""
    times = np.zeros((count, 2))
    for i in range(count):
        for side in ((0, 1) if i % 2 == 0 else (1, 0)):
            run = (first, second)[side]
            start = time.perf_counter()
            run()
            times[i, side] = time.perf_counter() - start
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
