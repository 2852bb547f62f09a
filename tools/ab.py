"""In-process A/B timing of two tipbeam checkouts, with an A/A control.

    python tools/ab.py PARENT CHANGE

PARENT and CHANGE are the roots of two checkouts.  Both load side by side in
one process, as packages tb_a and tb_b, and PARENT once more as tb_aa, so
that the control times two copies of one code.  Each side runs a fixed menu:
the benchmark's two strips (generic k <= 200, conservative k <= 50),
`family_roots` at k = 8..300 on the generic set, and the conservative
`spectrum` command of the benchmark, in-process.

It first checks that CHANGE gives bit-identical records and `stats` to
PARENT on every item (and byte-identical artifacts for the command), and
stops naming the first item that differs.  It then times PAIRS interleaved
pairs of each item, the order of the two sides flipped each pair, with one
BLAS thread.  Per item it prints the median ratio CHANGE / PARENT, its
quartiles, and the pairs CHANGE was faster in; the A/A line is the same for
tb_aa against tb_a.  It only reports: it applies no bound.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import contextlib  # noqa: E402
import importlib  # noqa: E402
import importlib.util  # noqa: E402
import io  # noqa: E402
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


def menu(side: dict, scratch: Path) -> dict:
    """Item name -> a function of no arguments that runs the item on side and
    returns what the identity check compares."""
    spectrum, params = side["spectrum"], side["model"].validate_params
    generic, conservative = params(*GENERIC), params(*CONSERVATIVE)
    out = scratch / side["spectrum"].__name__.split(".")[0]
    out.mkdir()
    (out / "params.txt").write_text("".join(f"{key}={value!r}\n" for key, value in zip(
        ("a", "b", "k1", "k2", "k3", "k4"), GENERIC)), encoding="utf-8")
    argv = ["spectrum", "--params", str(out / "params.txt"), "--kmax", "50", "--conservative",
            "--out", str(out)]

    def records(recs):
        return [(r.lam, r.k_index, r.family, r.residual, r.iterations) for r in recs]

    def strip(p, k_max):
        recs, report = spectrum.spectrum_in_strip(p, k_max)
        return records(recs), report.stats

    def family():
        report = spectrum.RootSearchReport()
        return records(spectrum.family_roots(generic, range(8, 301), report)), report.stats

    def command():
        with contextlib.redirect_stdout(io.StringIO()):
            if side["cli"].main(argv) != 0:
                raise RuntimeError(f"{side['cli'].__name__}: {' '.join(argv)} failed")
        return [(path.name, path.read_bytes()) for path in sorted(out.glob("spectrum*"))]

    return {"strip generic k<=200": lambda: strip(generic, 200),
            "strip conservative k<=50": lambda: strip(conservative, 50),
            "family_roots k=8..300": family,
            "spectrum --kmax 50 --conservative": command}


def identical(first: dict, second: dict) -> str | None:
    """The name of the first item whose output differs, bit for bit, or None.
    repr keeps every bit of a float, and tells -0.0 from 0.0."""
    for name, run in first.items():
        if repr(run()) != repr(second[name]()):
            return name
    return None


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
    return (f"{label:44s} {a:8.3f} -> {b:8.3f} ms  ratio {median:.3f} [{q1:.3f}, {q3:.3f}]"
            f"  faster {int((ratio < 1).sum())}/{len(ratio)}")


def main(argv) -> int:
    if len(argv) != 2:
        print("usage: python tools/ab.py PARENT CHANGE", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as scratch:
        sides = [menu(load(name, root), Path(scratch))
                 for name, root in (("tb_a", argv[0]), ("tb_b", argv[1]), ("tb_aa", argv[0]))]
        differs = identical(sides[0], sides[1])
        if differs is not None:
            print(f"not identical: {differs}")
            return 1
        print(f"identical records and stats on {len(sides[0])} items; {PAIRS} pairs each, "
              "medians of PARENT -> CHANGE")
        for name in sides[0]:
            a, b, aa = (side[name] for side in sides)
            print(line(name, pairs(a, b, PAIRS)))
            print(line(f"  A/A {name}", pairs(a, aa, PAIRS)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
