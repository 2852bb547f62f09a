"""Workloads of the tipbeam benchmark: seeded inputs, CLI steps, artifact checks.

Every bound below is one of the fixed bounds of the acceptance gates in
tests/test_acceptance.py (c06, c08, c09, c10).  Checks read what they need
(kmax, conservative) from the configuration each artifact embeds.
"""

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# params_generic of tests/conftest.py; seed 0 reproduces it exactly
FIXTURE = {"a": 1.0, "b": 2.0, "k1": 1.0, "k2": 2.0, "k3": 3.0, "k4": 2.0}
JITTER = 0.05            # seeds >= 1 scale b, k1..k4 by factors in [0.95, 1.05]
GRID_N = 400
DT = 0.5 / GRID_N        # dt = h/2, as in the decay_runs acceptance fixture
HORIZON = 10.0
K0 = 8                   # first seeded-Newton frequency, spectrum.K_MIN


@dataclass(frozen=True)
class Step:
    """One CLI invocation of a workload, on the seed's parameters or the fixture's."""

    command: str
    out: str             # subdirectory the step writes its artifacts to
    flags: tuple = ()
    fixture: bool = False


_DECAY = ("--grid-n", str(GRID_N), "--dt", repr(DT), "--horizon", repr(HORIZON))

WORKLOADS = {
    # scalar Newton (strip, Riesz pairs, modes) plus moderate contour work
    "spectral-damped": (
        Step("spectrum", "damped", ("--kmax", "200")),
        Step("riesz", "damped", ("--kmax", "300")),
        Step("modes", "damped", ("--kmax", "100")),
    ),
    # batched contour evaluation, almost all in the low-frequency sweep.  On
    # the fixture only: jittered draws often leave the low-frequency box
    # uncertified (winding 18, 17 roots recovered; ROADMAP item 4)
    "spectral-conservative": (
        Step("spectrum", "conservative", ("--kmax", "50", "--conservative"), fixture=True),
    ),
    # assembly, one LU, stepping and energy samples; no characteristic function
    "decay": (
        Step("decay", "damped", _DECAY),
        Step("decay", "conservative", _DECAY + ("--conservative",)),
    ),
}

ARTIFACTS = {
    "spectrum": ("spectrum.csv", "spectrum_report.json"),
    "riesz": ("riesz.csv",),
    "modes": ("modes.json",),
    "decay": ("energy.csv", "decay_fit.json"),
}


def make_params(seed: int, fixture: bool = False) -> dict:
    """Beam parameters: the fixture for seed 0 or `fixture`, else the seed's jitter of it."""
    values = dict(FIXTURE)
    if seed and not fixture:
        factors = np.random.default_rng(seed).uniform(1.0 - JITTER, 1.0 + JITTER, 5)
        for key, factor in zip(("b", "k1", "k2", "k3", "k4"), factors):
            values[key] *= float(factor)
    return values


def write_params(path: Path, values: dict, seed: int) -> None:
    """The only input the program sees; `seed` is the decay initial data seed."""
    lines = [f"{key}={value!r}" for key, value in values.items()]
    lines.append(f"seed={seed}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def digests(root: Path) -> dict:
    """sha256 of every artifact under root, keyed by relative path."""
    return {str(path.relative_to(root)): hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(root.rglob("*")) if path.is_file()}


# ---------------------------------------------------------------------------
# artifact checks: each returns [(criterion, ok, detail)]

def _read_csv(path: Path):
    config, header, rows = {}, None, []
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition("=")
            config[key] = value
        elif header is None:
            header = line.split(",")
        else:
            rows.append(dict(zip(header, line.split(","))))
    return config, rows


def _bounded(name: str, values, bound: float):
    """All values <= bound; NaN fails.  Detail gives the count over and the worst value."""
    bad = [v for v in values if not v <= bound]
    worst = max((math.inf if math.isnan(v) else v for v in values), default=0.0)
    return name, not bad, f"{len(bad)} of {len(values)} above {bound:g}, worst {worst:.3e}"


def _check_spectrum_csv(path: Path):
    config, rows = _read_csv(path)
    kmax = int(config["kmax"])
    lams = [(float(r["re"]), float(r["im"]), int(r["multiplicity"])) for r in rows]
    off = []
    for k in range(K0, kmax + 1):
        for sign in (1, -1):
            center = sign * k * math.pi
            count = sum(m for _, im, m in lams if abs(im - center) <= math.pi / 2)
            if count != 2:
                off.append(f"{sign * k}:{count}")
    out = [("two_roots_per_box", not off, "boxes off: " + (" ".join(off[:8]) or "none"))]
    if config["conservative"] == "true":
        out.append(_bounded("abs_re", [abs(re) for re, _, _ in lams], 1e-9))
    else:
        pos = [re for re, _, _ in lams if not re < 0.0]
        out.append(("re_negative", not pos, f"{len(pos)} of {len(lams)} with Re >= 0"))
    return out


def _check_spectrum_report(path: Path):
    report = json.loads(path.read_text(encoding="utf-8"))
    incomplete = report["incomplete_boxes"]
    return [
        ("no_incomplete_boxes", not incomplete, json.dumps(incomplete)[:300]),
        ("k0_effective", report["k0_effective"] == K0, f"k0_effective={report['k0_effective']}"),
    ]


def _check_riesz(path: Path):
    _, rows = _read_csv(path)
    ks = [float(r["k"]) for r in rows]
    close = [k * k * float(r["closeness"]) for k, r in zip(ks, rows)]
    tips = [k * float(r[col]) for k, r in zip(ks, rows) for col in ("tip_eta", "tip_gamma")]
    return [_bounded("k2_closeness", close, 1.0), _bounded("k_scaled_tips", tips, 10.0)]


def _check_modes(path: Path):
    modes = json.loads(path.read_text(encoding="utf-8"))["modes"]
    return [
        _bounded("matrix_residual", [m["matrix_residual"] for m in modes], 1e-9),
        _bounded("residuals", [max(m["residuals"].values()) for m in modes], 1e-8),
        _bounded("dissipation_identity", [m["dissipation_identity"] for m in modes], 1e-8),
    ]


def _check_energy(path: Path):
    config, rows = _read_csv(path)
    e = [float(r["energy"]) for r in rows]
    if config["conservative"] == "true":
        return [_bounded("conservative_drift", [abs(x - e[0]) / e[0] for x in e], 1e-10)]
    rises = [i for i in range(1, len(e)) if not e[i] <= e[i - 1] * (1.0 + 1e-12)]
    return [("energy_monotone", not rises, f"{len(rises)} rising samples of {len(e)}")]


def _check_decay_fit(path: Path):
    exponent = json.loads(path.read_text(encoding="utf-8"))["exponent"]
    return [("exponent_finite", math.isfinite(exponent), f"exponent={exponent}")]


CHECKS = {
    "spectrum.csv": _check_spectrum_csv,
    "spectrum_report.json": _check_spectrum_report,
    "riesz.csv": _check_riesz,
    "modes.json": _check_modes,
    "energy.csv": _check_energy,
    "decay_fit.json": _check_decay_fit,
}


def check_step(step: Step, out_root: Path):
    """Checks of every artifact a step should have written, named out/file:criterion."""
    results = []
    for name in ARTIFACTS[step.command]:
        path = out_root / step.out / name
        label = f"{step.out}/{name}"
        if not path.is_file():
            results.append((f"{label}:exists", False, "artifact missing"))
            continue
        try:
            checks = CHECKS[name](path)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            checks = [("parses", False, f"{type(exc).__name__}: {exc}")]
        results.extend((f"{label}:{crit}", ok, detail) for crit, ok, detail in checks)
    return results
