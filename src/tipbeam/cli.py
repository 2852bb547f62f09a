"""Command line front end: artifact files for spectra, predictions and decay runs.

Configuration comes from a flat key=value file named by --params; individual
flags override file entries.  One table, `_SETTINGS`, names every run
setting with its cast and default: `build_config` resolves each from its
flag, else the file, else the default, through the same cast, so a flag
and a file value are parsed and refused alike, and `RunConfig` and the
artifact headers list the settings in its order.  Every artifact embeds
the resolved configuration (CSV and the human table as leading comment
lines, JSON under a "config" key, SVG as leading XML comments) and is
formatted deterministically, so identical configurations produce
byte-identical files.  A JSON artifact is one line of sorted-key JSON
(`python -m json.tool` indents it).

Only `decay` needs `simulate`, and with it scipy, so the spectral commands
start without them: `assemble_generator`, `integrate` and `fit_decay` are
attributes of this module that import `simulate` on first access, and
`decay` calls them through the module, so a wrapper set on one of them is
the one that runs.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .asymptotics import predict_eigenvalue
from .errors import ConfigError, IncompleteBox, TipbeamError
from .model import BeamParams, GridState, regime_info, solve_static, validate_params
from .modes import _family_modes, mode_residuals, riesz_closeness
from .spectrum import K_MIN, RootSearchReport, family_roots, frequency_pairs, spectrum_in_strip

_SIMULATE_NAMES = ("assemble_generator", "integrate", "fit_decay")


def __getattr__(name: str):
    if name not in _SIMULATE_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import simulate
    return getattr(simulate, name)


TABLE_KS = (200, 400, 600, 800, 1000)
SVG_WIDTH, SVG_HEIGHT = 640, 480

_PARAM_KEYS = ("a", "b", "k1", "k2", "k3", "k4")


def _as_float(raw, key: str) -> float:
    try:
        return float(raw)
    except ValueError as exc:
        raise ConfigError(f"key {key!r}: not a number: {raw!r}") from exc


def _as_finite(raw, key: str) -> float:
    value = _as_float(raw, key)
    if not math.isfinite(value):
        raise ConfigError(f"key {key!r}: not a finite number: {raw!r}")
    return value


def _as_int(raw, key: str) -> int:
    try:
        return int(str(raw))
    except ValueError as exc:
        raise ConfigError(f"key {key!r}: not an integer: {raw!r}") from exc


def _as_bool(raw, key: str) -> bool:
    low = str(raw).strip().lower()
    if low in ("1", "true", "yes"):
        return True
    if low in ("0", "false", "no"):
        return False
    raise ConfigError(f"key {key!r}: not a boolean: {raw!r}")


# every run setting, in header order: key -> (cast of a flag or file string, default)
_SETTINGS = {
    "kmax": (_as_int, 40),
    "grid_n": (_as_int, 200),
    "horizon": (_as_finite, 60.0),
    "dt": (_as_finite, None),
    "conservative": (_as_bool, False),
    "seed": (_as_int, 0),
}


@dataclass(frozen=True)
class RunConfig:
    """Resolved settings for one invocation; the fields after params are _SETTINGS."""

    command: str
    params: BeamParams
    kmax: int
    grid_n: int
    horizon: float
    dt: float | None
    conservative: bool
    seed: int
    out_dir: Path

    @property
    def effective_params(self) -> BeamParams:
        if self.conservative:
            return replace(self.params, k2=0.0, k4=0.0)
        return self.params

    def header_items(self):
        """Ordered (key, value-string) pairs covering the full configuration."""
        return ([("command", self.command)]
                + [(k, _g17(getattr(self.params, k))) for k in _PARAM_KEYS]
                + [(k, _setting_str(getattr(self, k))) for k in _SETTINGS])


def _setting_str(value) -> str:
    if value is None:
        return "auto"
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value) if isinstance(value, int) else _g17(value)


def _g17(x) -> str:
    return f"{float(x):.17g}"


def _pairs(z: np.ndarray) -> list:
    """Nested [re, im] lists of a complex array, as Python floats."""
    return np.stack([z.real, z.imag], -1).tolist()


def load_params_file(path) -> dict:
    """Parse a flat key=value file; '#' starts a comment, blank lines skipped."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read params file {path}: {exc}") from exc
    data = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _PARAM_KEYS and key not in _SETTINGS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        if key in data:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        data[key] = value
    return data


def build_config(args) -> RunConfig:
    """Merge the params file with flag overrides and validate everything.

    Each setting is its flag if given, else its file value, else its
    default; flag strings and file values go through the same cast.
    """
    file_data = load_params_file(args.params)
    missing = [k for k in _PARAM_KEYS if k not in file_data]
    if missing:
        raise ConfigError(f"params file lacks required keys: {', '.join(missing)}")
    params = validate_params(*(_as_float(file_data[k], k) for k in _PARAM_KEYS))
    settings = {}
    for key, (cast, default) in _SETTINGS.items():
        # a flag the Namespace lacks, or an unset store_true, is not given
        flag = getattr(args, key, None)
        raw = file_data.get(key) if flag is None or flag is False else flag
        settings[key] = default if raw is None else cast(raw, key)

    # flags a command would ignore; file keys stay accepted (one file, all commands)
    if args.conservative and args.command == "riesz":
        raise ConfigError("--conservative does not apply to 'riesz' (it compares both variants)")

    cfg = RunConfig(command=args.command, params=params, out_dir=Path(args.out), **settings)
    floor = 10 if cfg.command in ("spectrum", "plot") else K_MIN
    if cfg.kmax < floor:
        raise ConfigError(f"kmax = {cfg.kmax} is below the floor {floor} "
                          f"for command {cfg.command!r}")
    if cfg.grid_n < 16:
        raise ConfigError(f"grid_n = {cfg.grid_n} is below the minimum of 16")
    if cfg.horizon <= 0.0:
        raise ConfigError(f"horizon must be positive, got {cfg.horizon}")
    if cfg.dt is not None and cfg.dt <= 0.0:
        raise ConfigError(f"dt must be positive, got {cfg.dt}")
    return cfg


# ---------------------------------------------------------------------------
# deterministic writers

def _write_text(path: Path, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _write_rows(path: Path, cfg: RunConfig, header: str, row: str, rows) -> None:
    """The `# key=value` lines, the header, then the line `row % values`
    for each tuple of Python values in rows; a CSV row formats floats with
    %.17g, as _g17 does."""
    lines = [f"# {k}={v}" for k, v in cfg.header_items()]
    lines.append(header)
    lines.extend(row % values for values in rows)
    _write_text(path, "\n".join(lines) + "\n")


def _write_json(path: Path, cfg: RunConfig, payload: dict) -> None:
    payload = dict(payload)
    payload["config"] = {k: v for k, v in cfg.header_items()}
    # no indent: CPython's C encoder only runs without one
    text = json.dumps(payload, sort_keys=True, ensure_ascii=False)
    _write_text(path, text + "\n")


# ---------------------------------------------------------------------------
# commands

def _cmd_spectrum(cfg: RunConfig) -> list:
    records, report = spectrum_in_strip(cfg.effective_params, cfg.kmax)
    rows = [("" if rec.k_index is None else rec.k_index, "" if rec.family is None else rec.family,
             rec.lam.real, rec.lam.imag, rec.residual) for rec in records]
    csv_path = cfg.out_dir / "spectrum.csv"
    _write_rows(csv_path, cfg, "k,j,re,im,residual,multiplicity", "%s,%s,%.17g,%.17g,%.17g,1",
                rows)

    # the rects hold Python floats and the lambdas are Python complex numbers:
    # no numpy scalar is converted per element
    report_payload = {
        "k0_effective": report.k0_effective,
        "eigenvalue_count": len(records),
        "boxes": [{"rect": list(rect), "winding": int(w)} for rect, w in report.boxes],
        "newton": [{"lambda": [lam.real, lam.imag], "iterations": int(it)}
                   for lam, it in report.newton_iterations],
        "incomplete_boxes": [
            {"rect": [float(v) for v in rect], "winding": None if w is None else int(w),
             "recovered": int(r)}
            for rect, w, r in report.incomplete_boxes
        ],
        "stats": report.stats,
    }
    json_path = cfg.out_dir / "spectrum_report.json"
    _write_json(json_path, cfg, report_payload)
    for box in report_payload["incomplete_boxes"]:
        print(f"tipbeam spectrum: incomplete box {box['rect']}: winding "
              f"{json.dumps(box['winding'])}, {box['recovered']} roots recovered", file=sys.stderr)
    return [csv_path, json_path]


def _cmd_predict(cfg: RunConfig) -> list:
    p = cfg.effective_params
    regime = regime_info(p).regime
    ks = np.arange(K_MIN, cfg.kmax + 1)
    lams = predict_eigenvalue(ks[:, None], np.array([1, 2]), p)
    rows = zip(np.repeat(ks, 2).tolist(), [1, 2] * ks.size,
               lams.real.ravel().tolist(), lams.imag.ravel().tolist())
    path = cfg.out_dir / "predictions.csv"
    _write_rows(path, cfg, "k,j,re,im,regime", f"%d,%d,%.17g,%.17g,{regime}", rows)
    return [path]


def _cmd_modes(cfg: RunConfig) -> list:
    p = cfg.effective_params
    names = ("interior_u", "interior_y", "clamp_u", "clamp_y", "tip_u", "tip_y")
    report = RootSearchReport()
    recs = family_roots(p, range(K_MIN, cfg.kmax + 1), report=report)
    modes = _family_modes(recs, p)
    # each field's whole column as a Python list, so no numpy scalar is indexed per element
    columns = {
        "k": [rec.k_index for rec in recs],
        "j": [rec.family for rec in recs],
        "lambda": _pairs(modes.lam),
        "coefficients": _pairs(modes.coeffs),
        "branch_roots": _pairs(modes.ts),
        "tip_eta": _pairs(modes.tip_eta),
        "tip_gamma": _pairs(modes.tip_gamma),
        "matrix_residual": modes.matrix_residual.tolist(),
        "conditioning": modes.conditioning.tolist(),
        "residuals": [dict(zip(names, r)) for r in mode_residuals(modes, p).tolist()],
        "dissipation_identity": np.abs(modes.lam.real
                                       + (p.k2 / p.k1) * np.abs(modes.tip_eta) ** 2
                                       + (p.k4 / p.k3) * np.abs(modes.tip_gamma) ** 2).tolist(),
    }
    entries = [dict(zip(columns, row)) for row in zip(*columns.values())]
    stats = {key: report.stats[key]
             for key in ("newton_calls", "newton_iterations", "newton_rounds")}
    path = cfg.out_dir / "modes.json"
    _write_json(path, cfg, {"modes": entries, "stats": stats})
    return [path]


def _cmd_riesz(cfg: RunConfig) -> list:
    diag = riesz_closeness(cfg.kmax, cfg.params)
    # (k, j) rows in k order: the (k, 2) arrays raveled, the per-k ones repeated
    rows = zip(np.repeat(diag.k_values, 2).tolist(), [1, 2] * len(diag.k_values),
               *(a.ravel().tolist() for a in (diag.closeness, diag.alignment, diag.tip_eta,
                                               diag.tip_gamma, diag.pairing_gap)),
               np.repeat(diag.partial_sums, 2).tolist())
    path = cfg.out_dir / "riesz.csv"
    _write_rows(path, cfg, "k,j,closeness,alignment,tip_eta,tip_gamma,pairing_gap,partial_sum",
                "%d,%d" + ",%.17g" * 6, rows)
    return [path]


def _smooth_domain_state(p: BeamParams, N: int, seed: int) -> GridState:
    """Seeded smooth profile pushed into the operator domain via solve_static."""
    rng = np.random.default_rng(seed)
    xs = np.linspace(0.0, 1.0, N + 1)
    # u, v, y, z in turn; the xs factor clamps every component at x = 0
    u, v, y, z = (sum(c * np.sin((m + 1) * np.pi * xs / 2.0)
                      for m, c in enumerate(rng.standard_normal(4))).astype(complex) * xs
                  for _ in range(4))
    return solve_static(GridState(N, u, v, y, z, v[-1], math.sqrt(p.a / p.b) * z[-1]), p)


def _cmd_decay(cfg: RunConfig) -> list:
    this = sys.modules[__name__]
    p = cfg.effective_params
    g = this.assemble_generator(p, cfg.grid_n)
    dt = cfg.dt if cfg.dt is not None else 0.4 * g.h
    u0 = _smooth_domain_state(p, cfg.grid_n, cfg.seed)
    trace = this.integrate(g, u0, cfg.horizon, dt)
    fit = this.fit_decay(trace)
    rows = zip(trace.times.tolist(), trace.energies.tolist())
    csv_path = cfg.out_dir / "energy.csv"
    _write_rows(csv_path, cfg, "t,energy", "%.17g,%.17g", rows)
    payload = {
        "exponent": float(fit.exponent),
        "constant": float(fit.constant),
        "sup_te": float(fit.sup_te),
        "window": [float(fit.window[0]), float(fit.window[1])],
        "samples": int(len(trace.times)),
        "initial_energy": float(trace.energies[0]),
        "final_energy": float(trace.energies[-1]),
        "dt": float(dt),
        "stats": trace.stats,
    }
    json_path = cfg.out_dir / "decay_fit.json"
    _write_json(json_path, cfg, payload)
    return [csv_path, json_path]


def _cmd_table(cfg: RunConfig) -> list:
    rows = []
    for k, recs in zip(TABLE_KS, frequency_pairs(cfg.effective_params, TABLE_KS)):
        by_family = {rec.family: rec for rec in recs}
        if 1 not in by_family or 2 not in by_family:
            raise IncompleteBox(f"could not certify both families at k = {k}")
        rows.append((k, k * k * by_family[1].lam.real, k * k * by_family[2].lam.real))
    path = cfg.out_dir / "table.txt"
    _write_rows(path, cfg, "%6s  %16s  %16s" % ("k", "k^2 Re lambda_1", "k^2 Re lambda_2"),
                "%6d  %16.6g  %16.6g", rows)
    return [path]


def _cmd_plot(cfg: RunConfig) -> list:
    records, _ = spectrum_in_strip(cfg.effective_params, cfg.kmax)
    width, height = float(SVG_WIDTH), float(SVG_HEIGHT)
    margin = 40.0
    im_hi = (cfg.kmax + 0.5) * math.pi
    span = max(max(-rec.lam.real for rec in records), 1e-3)
    re_lo, re_hi = -1.15 * span, 0.15 * span

    def to_x(re: float) -> float:
        return margin + (re - re_lo) / (re_hi - re_lo) * (width - 2 * margin)

    def to_y(im: float) -> float:
        return margin + (im_hi - im) / (2 * im_hi) * (height - 2 * margin)

    fmt = lambda v: f"{v:.3f}"
    parts = ['<?xml version="1.0" encoding="UTF-8"?>']
    parts.extend(f"<!-- {k}={v} -->" for k, v in cfg.header_items())
    parts.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{SVG_WIDTH}" height="{SVG_HEIGHT}" '
        f'viewBox="0 0 {SVG_WIDTH} {SVG_HEIGHT}">'
    )
    parts.append(f'<rect x="0" y="0" width="{SVG_WIDTH}" height="{SVG_HEIGHT}" '
                 f'fill="white"/>')

    label_step = max(1, round(cfg.kmax / 8))
    parts.append('<g stroke="#cccccc" stroke-width="0.5">')
    for k in range(-cfg.kmax, cfg.kmax + 1):
        y = fmt(to_y(k * math.pi))
        parts.append(f'<line x1="{fmt(margin)}" y1="{y}" '
                     f'x2="{fmt(width - margin)}" y2="{y}"/>')
    parts.append("</g>")
    axis_x = fmt(to_x(0.0))
    parts.append(f'<line x1="{axis_x}" y1="{fmt(margin)}" x2="{axis_x}" '
                 f'y2="{fmt(height - margin)}" stroke="black" stroke-width="1"/>')
    y0 = fmt(to_y(0.0))
    parts.append(f'<line x1="{fmt(margin)}" y1="{y0}" x2="{fmt(width - margin)}" '
                 f'y2="{y0}" stroke="black" stroke-width="1"/>')
    parts.append('<g font-family="monospace" font-size="10" fill="#333333">')
    for k in range(-cfg.kmax, cfg.kmax + 1, label_step):
        y = fmt(to_y(k * math.pi) + 3.0)
        parts.append(f'<text x="{fmt(width - margin + 4.0)}" y="{y}">{k}&#960;i</text>')
    parts.append("</g>")

    parts.append('<g fill="#1f4e8c">')
    for rec in records:
        parts.append(f'<circle cx="{fmt(to_x(rec.lam.real))}" '
                     f'cy="{fmt(to_y(rec.lam.imag))}" r="2.5"/>')
    parts.append("</g>")
    parts.append("</svg>")
    path = cfg.out_dir / "spectrum.svg"
    _write_text(path, "\n".join(parts) + "\n")
    return [path]


_COMMANDS = {"spectrum": _cmd_spectrum, "predict": _cmd_predict, "modes": _cmd_modes,
             "riesz": _cmd_riesz, "decay": _cmd_decay, "table": _cmd_table, "plot": _cmd_plot}


def run(cfg: RunConfig) -> list:
    """Execute one command; returns the list of written artifact paths."""
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    return _COMMANDS[cfg.command](cfg)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="tipbeam",
        description="Spectral and time-domain studies of a boundary-damped "
                    "shear beam with a tip load.",
    )
    parser.add_argument("command", choices=_COMMANDS)
    parser.add_argument("--params", required=True, help="flat key=value parameter file")
    # values stay strings: build_config casts them as it casts file values
    parser.add_argument("--kmax", help="frequency truncation index")
    parser.add_argument("--grid-n", help="finite difference cells for decay runs")
    parser.add_argument("--horizon", help="integration horizon T")
    parser.add_argument("--dt", help="time step (default 0.4 h)")
    parser.add_argument("--out", default=".", help="output directory")
    parser.add_argument("--conservative", action="store_true",
                        help="drop the damping gains k2, k4 (not for riesz)")
    # argparse takes a value that starts with '-' for an option unless it reads
    # as a plain number (-5, -.5): here anything not a flag above is a value,
    # so `--horizon -inf` is refused like `--horizon=-inf`
    parser._negative_number_matcher = re.compile("-")
    args = parser.parse_args(argv)

    try:
        cfg = build_config(args)
        written = run(cfg)
    except (TipbeamError, ValueError, OSError) as exc:
        error = {"error": type(exc).__name__, "message": str(exc),
                 "command": args.command}
        print(json.dumps(error, sort_keys=True))
        return 1
    for path in written:
        print(str(path))
    return 0


if __name__ == "__main__":
    sys.exit(main())
