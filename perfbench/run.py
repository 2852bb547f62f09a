"""tipbeam benchmark: one workload of in-process CLI commands, every artifact verified.

    python3 perfbench/run.py --workload spectral-damped --seed 0 --seconds 10 --trace 0

Run it from the root of a tipbeam checkout; the program is imported from
./src and writes only under ./.perfbench_out.  The last line of standard
output is one JSON object: correct, attempted, failed and metrics.  With
--trace 0 the metrics are the end-to-end ones, medians over repeats run
within --seconds (at least three), times scaled to the reference host speed
of hostspeed.py; with --trace 1 one untraced repeat and two
traced repeats give the per-layer metrics, and the counts of the two traced
repeats must agree exactly.  See perfbench/README.md.
"""

import os

THREAD_CAP = 1   # BLAS/OpenMP threads; one client, one process, closed loop
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = str(THREAD_CAP)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from statistics import mean, median  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import hostspeed  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
OUT = ".perfbench_out"
MIN_REPEATS = 3
SETUP_PROBES = 7
END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


class Ledger:
    """Attempted and failed operations: CLI commands, artifact and identity checks."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def record(self, op: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failures.append({"op": op, "detail": detail})
            print(f"FAILED {op}: {detail}", file=sys.stderr)


def _cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def _call(main, argv):
    """Run one CLI command with its stdout captured; (ok, detail)."""
    captured = io.StringIO()
    try:
        with contextlib.redirect_stdout(captured):
            rc = main(argv)
    except (Exception, SystemExit):
        return False, traceback.format_exc(limit=-3)
    return rc == 0, "" if rc == 0 else f"exit {rc}: {captured.getvalue().strip()[-300:]}"


def run_repeat(cli, steps, out: Path, params: dict, ledger: Ledger, tracer=None,
               sample=False) -> dict:
    """Every step of the workload once; timing stops when the last artifact is written.

    With `sample`, wall_s and cpu_s are scaled to the reference host speed
    sampled during the repeat (hostspeed.py); raw_wall_s and raw_cpu_s are
    as measured, and so are the times of a repeat without it.
    """
    artifacts = out / "artifacts"
    shutil.rmtree(artifacts, ignore_errors=True)
    outcomes, marks = [], []
    with hostspeed.Sampler() if sample else contextlib.nullcontext() as speed:
        wall0, cpu0 = time.perf_counter(), _cpu_s()
        for step in steps:
            argv = [step.command, "--params", str(params[step.fixture]),
                    "--out", str(artifacts / step.out), *step.flags]
            main = cli.main if tracer is None else tracer.wrap(f"cli.{step.command}", cli.main)
            outcomes.append(_call(main, argv))
            marks.append(time.perf_counter())
        wall, cpu = marks[-1] - wall0, _cpu_s() - cpu0
    for step, (ok, detail) in zip(steps, outcomes):
        ledger.record(f"command:{step.out}/{step.command}", ok, detail)
        for name, ok, detail in workloads.check_step(step, artifacts):
            ledger.record(f"check:{name}", ok, detail)
    return {"wall_s": speed.scale(wall) if sample else wall,
            "cpu_s": speed.scale(cpu) if sample else cpu,
            "raw_wall_s": wall, "raw_cpu_s": cpu,
            "kernel_s": mean(speed.samples) if sample else None,
            "steps_s": [b - a for a, b in zip([wall0] + marks, marks)],
            "digests": workloads.digests(artifacts),
            "artifact_bytes": sum(p.stat().st_size for p in artifacts.rglob("*") if p.is_file())}


def check_identity(reps, ledger: Ledger) -> None:
    """Identical inputs must give byte-identical artifacts in every repeat."""
    first = reps[0]["digests"]
    for rep in reps[1:]:
        for name in sorted(set(first) | set(rep["digests"])):
            ledger.record(f"identity:{name}", rep["digests"].get(name) == first.get(name),
                          "sha256 differs from the first repeat")


def measure_setup(step, params: Path, ledger: Ledger) -> tuple:
    """Seconds from a fresh process's start until tipbeam is imported and config built.

    Each probe's time is scaled, as the repeats' are, to the reference host
    speed, here from five kernel runs just before it; the raw times come second.
    """
    cmd = [sys.executable, str(HERE / "setup_probe.py"), step.command, str(params)]
    if "--conservative" in step.flags:
        cmd.append("--conservative")
    scaled, raw = [], []
    for _ in range(SETUP_PROBES):
        kernel = mean(hostspeed.kernel_s() for _ in range(5))
        start = time.clock_gettime(time.CLOCK_MONOTONIC)
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
        ledger.record("setup:probe", proc.returncode == 0, proc.stderr[-300:])
        if proc.returncode == 0:
            raw.append(float(proc.stdout.split()[-1]) - start)
            scaled.append(raw[-1] * hostspeed.REFERENCE_S / kernel)
    return scaled, raw


def git_sha(root: Path) -> str:
    """HEAD read from .git without running git; 'unknown' outside a repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def untraced(cli, steps, out, params, ledger, seconds) -> tuple:
    """End-to-end metrics: set-up probes, then repeats within `seconds`, medians.

    No repeat starts that the last one's time says would end after `seconds`,
    but there are always MIN_REPEATS.
    """
    setup, raw_setup = measure_setup(steps[0], params[steps[0].fixture], ledger)
    reps = []
    start = time.perf_counter()
    while (len(reps) < MIN_REPEATS
           or time.perf_counter() - start + reps[-1]["raw_wall_s"] <= seconds):
        reps.append(run_repeat(cli, steps, out, params, ledger, sample=True))
    metrics = {
        "wall_s": median(r["wall_s"] for r in reps),
        "cpu_s": median(r["cpu_s"] for r in reps),
        "setup_s": median(setup or [0.0]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return metrics, END_TO_END_UNITS, reps, {"setup_probes_s": setup,
                                             "raw_setup_probes_s": raw_setup}


def traced(cli, steps, out, params, ledger) -> tuple:
    """Per-layer metrics: one untraced repeat, then two traced ones that must agree."""
    plain = run_repeat(cli, steps, out, params, ledger)
    tracer = layers.Tracer()
    restore, skipped = layers.install(tracer)
    reps = []
    try:
        for run_id in (1, 2):
            tracer.run = run_id
            reps.append(run_repeat(cli, steps, out, params, ledger, tracer))
    finally:
        restore()
    per_run = [dict(layers.run_metrics(tracer.spans, run_id), **{
        "cli.artifact_bytes": rep["artifact_bytes"]}) for run_id, rep in zip((1, 2), reps)]
    diff = {name: [m[name] for m in per_run] for name in layers.COUNTS
            if per_run[0][name] != per_run[1][name]}
    ledger.record("trace:counts_repeat", not diff, json.dumps(diff))
    metrics = layers.combine(per_run)
    metrics["tracing_overhead_s"] = median(r["wall_s"] for r in reps) - plain["wall_s"]
    tracer.write(out / "spans.jsonl")
    return metrics, layers.UNITS, [plain] + reps, {"trace_sites_absent": skipped}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "tipbeam" / "__init__.py").is_file():
        print(f"no tipbeam sources under {src}: run from the root of a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import tipbeam
    from tipbeam import cli
    from tipbeam.model import regime_info, validate_params
    if not Path(tipbeam.__file__).resolve().is_relative_to(src.resolve()):
        print(f"tipbeam imported from {tipbeam.__file__}, not {src}", file=sys.stderr)
        return 2

    out = root / OUT / args.workload
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    provenance = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_sha": git_sha(root), "nproc": os.cpu_count(),
        "thread_cap": THREAD_CAP, "python": platform.python_version(),
        "numpy": np.__version__, "scipy": scipy.__version__,
        "loadavg_start": list(os.getloadavg()),
    }
    print(json.dumps({"provenance": provenance}, sort_keys=True), flush=True)

    ledger = Ledger()
    steps = workloads.WORKLOADS[args.workload]
    values, params = {}, {}
    for fixture in dict.fromkeys(step.fixture for step in steps):
        name = "fixture" if fixture else "seed"
        values[name] = workloads.make_params(args.seed, fixture)
        params[fixture] = out / f"params-{name}.txt"
        workloads.write_params(params[fixture], values[name], args.seed)
        regime = regime_info(validate_params(**values[name])).regime
        ledger.record(f"inputs:regime_generic:{name}", regime == "generic", f"regime {regime}")

    if args.trace:
        metrics, units, reps, details = traced(cli, steps, out, params, ledger)
    else:
        metrics, units, reps, details = untraced(cli, steps, out, params, ledger, args.seconds)
    check_identity(reps, ledger)

    report = {"provenance": provenance, "params": values, "metrics": metrics,
              "repeats": [{k: r[k] for k in ("wall_s", "cpu_s", "raw_wall_s", "raw_cpu_s",
                                            "kernel_s", "steps_s", "artifact_bytes")}
                          for r in reps],
              **details, "attempted": ledger.attempted, "failures": ledger.failures}
    (out / "report.json").write_text(json.dumps(report, indent=2, sort_keys=True) + "\n",
                                     encoding="utf-8")
    result = {
        "correct": not ledger.failures,
        "attempted": ledger.attempted,
        "failed": len(ledger.failures),
        "metrics": {name: {"value": float(metrics[name]), "unit": units[name]}
                    for name in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
