"""Command line front end: artifact files for spectra, predictions and decay runs.

Configuration comes from a flat key=value file named by --params; individual
flags override file entries.  Every artifact embeds the resolved configuration
(CSV and the human table as leading comment lines, JSON under a "config" key,
SVG as leading XML comments) and is formatted deterministically, so identical
configurations produce byte-identical files.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .asymptotics import predict_eigenvalue
from .errors import ConfigError, IncompleteBox, TipbeamError
from .model import BeamParams, GridState, regime_info, solve_static, validate_params
from .modes import eigenmode, mode_residuals, riesz_closeness
from .simulate import assemble_generator, fit_decay, integrate
from .spectrum import K_MIN, RootSearchReport, family_roots, frequency_pairs, spectrum_in_strip

COMMANDS = ("spectrum", "predict", "modes", "riesz", "decay", "table", "plot")
TABLE_KS = (200, 400, 600, 800, 1000)

_DEFAULTS = {
    "kmax": 40,
    "grid_n": 200,
    "horizon": 60.0,
    "dt": None,
    "tolerance": 1e-13,
    "width": 640,
    "height": 480,
    "seed": 0,
}

_PARAM_KEYS = ("a", "b", "k1", "k2", "k3", "k4")
_FILE_KEYS = _PARAM_KEYS + (
    "kmax", "grid_n", "horizon", "dt", "conservative", "tolerance",
    "width", "height", "seed",
)


@dataclass(frozen=True)
class RunConfig:
    """Resolved settings for one invocation."""

    command: str
    params: BeamParams
    k_max: int
    grid_n: int
    horizon: float
    dt: float | None
    out_dir: Path
    conservative: bool
    tolerance: float
    width: int
    height: int
    seed: int

    @property
    def effective_params(self) -> BeamParams:
        if self.conservative:
            return replace(self.params, k2=0.0, k4=0.0)
        return self.params

    def header_items(self):
        """Ordered (key, value-string) pairs covering the full configuration."""
        p = self.params
        return [
            ("command", self.command),
            ("a", _g17(p.a)), ("b", _g17(p.b)),
            ("k1", _g17(p.k1)), ("k2", _g17(p.k2)),
            ("k3", _g17(p.k3)), ("k4", _g17(p.k4)),
            ("kmax", str(self.k_max)),
            ("grid_n", str(self.grid_n)),
            ("horizon", _g17(self.horizon)),
            ("dt", "auto" if self.dt is None else _g17(self.dt)),
            ("conservative", "true" if self.conservative else "false"),
            ("tolerance", _g17(self.tolerance)),
            ("width", str(self.width)),
            ("height", str(self.height)),
            ("seed", str(self.seed)),
        ]


def _g17(x) -> str:
    return f"{float(x):.17g}"


def _g6(x) -> str:
    return f"{float(x):.6g}"


def _pair(z: complex) -> list:
    return [float(np.real(z)), float(np.imag(z))]


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
        if key not in _FILE_KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        if key in data:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        data[key] = value
    return data


def _as_float(raw: str, key: str) -> float:
    try:
        return float(raw)
    except ValueError as exc:
        raise ConfigError(f"key {key!r}: not a number: {raw!r}") from exc


def _as_int(raw, key: str) -> int:
    try:
        return int(str(raw))
    except ValueError as exc:
        raise ConfigError(f"key {key!r}: not an integer: {raw!r}") from exc


def _as_bool(raw: str, key: str) -> bool:
    low = raw.strip().lower()
    if low in ("1", "true", "yes"):
        return True
    if low in ("0", "false", "no"):
        return False
    raise ConfigError(f"key {key!r}: not a boolean: {raw!r}")


def build_config(args) -> RunConfig:
    """Merge the params file with flag overrides and validate everything."""
    file_data = load_params_file(args.params)
    missing = [k for k in _PARAM_KEYS if k not in file_data]
    if missing:
        raise ConfigError(f"params file lacks required keys: {', '.join(missing)}")
    vals = {k: _as_float(file_data[k], k) for k in _PARAM_KEYS}
    params = validate_params(vals["a"], vals["b"], vals["k1"],
                             vals["k2"], vals["k3"], vals["k4"])

    def resolve(key, flag_value, cast):
        if flag_value is not None:
            return flag_value
        if key in file_data:
            return cast(file_data[key], key)
        return _DEFAULTS[key]

    k_max = _as_int(resolve("kmax", args.kmax, _as_int), "kmax")
    grid_n = _as_int(resolve("grid_n", args.grid_n, _as_int), "grid_n")
    horizon = float(resolve("horizon", args.horizon, _as_float))
    dt = resolve("dt", args.dt, _as_float)
    dt = None if dt is None else float(dt)
    tolerance = float(resolve("tolerance", args.tolerance, _as_float))
    width = _as_int(resolve("width", None, _as_int), "width")
    height = _as_int(resolve("height", None, _as_int), "height")
    seed = _as_int(resolve("seed", None, _as_int), "seed")
    conservative = bool(args.conservative)
    if not conservative and "conservative" in file_data:
        conservative = _as_bool(file_data["conservative"], "conservative")

    # flags a command would ignore; file keys stay accepted (one file, all commands)
    if args.tolerance is not None and args.command != "modes":
        raise ConfigError(f"--tolerance only applies to 'modes', not {args.command!r}")
    if args.conservative and args.command == "riesz":
        raise ConfigError("--conservative does not apply to 'riesz' (it compares both variants)")

    floor = 10 if args.command in ("spectrum", "plot") else K_MIN
    if k_max < floor:
        raise ConfigError(f"kmax = {k_max} is below the floor {floor} "
                          f"for command {args.command!r}")
    if grid_n < 16:
        raise ConfigError(f"grid_n = {grid_n} is below the minimum of 16")
    if horizon <= 0.0:
        raise ConfigError(f"horizon must be positive, got {horizon}")
    if dt is not None and dt <= 0.0:
        raise ConfigError(f"dt must be positive, got {dt}")
    if tolerance < 1e-13:
        raise ConfigError(f"tolerance {tolerance} is below the 1e-13 floor")
    if width <= 0 or height <= 0:
        raise ConfigError(f"width/height must be positive, got {width}x{height}")

    return RunConfig(
        command=args.command, params=params, k_max=k_max, grid_n=grid_n,
        horizon=horizon, dt=dt, out_dir=Path(args.out),
        conservative=conservative, tolerance=tolerance,
        width=width, height=height, seed=seed,
    )


# ---------------------------------------------------------------------------
# deterministic writers

def _write_text(path: Path, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _write_csv(path: Path, cfg: RunConfig, header: list, rows: list) -> None:
    lines = [f"# {k}={v}" for k, v in cfg.header_items()]
    lines.append(",".join(header))
    lines.extend(",".join(row) for row in rows)
    _write_text(path, "\n".join(lines) + "\n")


def _write_json(path: Path, cfg: RunConfig, payload: dict) -> None:
    payload = dict(payload)
    payload["config"] = {k: v for k, v in cfg.header_items()}
    text = json.dumps(payload, sort_keys=True, indent=2, ensure_ascii=False)
    _write_text(path, text + "\n")


# ---------------------------------------------------------------------------
# commands

def _cmd_spectrum(cfg: RunConfig) -> list:
    records, report = spectrum_in_strip(cfg.effective_params, cfg.k_max)
    rows = []
    for rec in records:
        rows.append([
            "" if rec.k_index is None else str(rec.k_index),
            "" if rec.family is None else str(rec.family),
            _g17(rec.lam.real), _g17(rec.lam.imag),
            _g17(rec.residual), str(rec.multiplicity),
        ])
    csv_path = cfg.out_dir / "spectrum.csv"
    _write_csv(csv_path, cfg, ["k", "j", "re", "im", "residual", "multiplicity"], rows)

    report_payload = {
        "k0_effective": report.k0_effective,
        "eigenvalue_count": len(records),
        "boxes": [{"rect": [float(v) for v in rect], "winding": int(w)}
                  for rect, w in report.boxes],
        "newton": [{"lambda": _pair(lam), "iterations": int(it)}
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
    return [csv_path, json_path]


def _cmd_predict(cfg: RunConfig) -> list:
    p = cfg.effective_params
    regime = regime_info(p).regime
    rows = []
    for k in range(K_MIN, cfg.k_max + 1):
        for j in (1, 2):
            lam = predict_eigenvalue(k, j, p)
            rows.append([str(k), str(j), _g17(lam.real), _g17(lam.imag), regime])
    path = cfg.out_dir / "predictions.csv"
    _write_csv(path, cfg, ["k", "j", "re", "im", "regime"], rows)
    return [path]


def _cmd_modes(cfg: RunConfig) -> list:
    p = cfg.effective_params
    names = ("interior_u", "interior_y", "clamp_u", "clamp_y", "tip_u", "tip_y")
    report = RootSearchReport()
    recs = family_roots(p, range(K_MIN, cfg.k_max + 1), tol=cfg.tolerance, report=report)
    modes = eigenmode(np.array([rec.lam for rec in recs]), p)
    res = mode_residuals(modes, p)
    identity = np.abs(modes.lam.real
                      + (p.k2 / p.k1) * np.abs(modes.tip_eta) ** 2
                      + (p.k4 / p.k3) * np.abs(modes.tip_gamma) ** 2)
    entries = [{
        "k": rec.k_index,
        "j": rec.family,
        "lambda": _pair(rec.lam),
        "coefficients": [_pair(c) for c in modes.coeffs[i]],
        "branch_roots": [_pair(t) for t in modes.ts[i]],
        "tip_eta": _pair(modes.tip_eta[i]),
        "tip_gamma": _pair(modes.tip_gamma[i]),
        "matrix_residual": float(modes.matrix_residual[i]),
        "conditioning": float(modes.conditioning[i]),
        "residuals": {name: float(r) for name, r in zip(names, res[i])},
        "dissipation_identity": float(identity[i]),
    } for i, rec in enumerate(recs)]
    stats = {key: report.stats[key]
             for key in ("newton_calls", "newton_iterations", "newton_rounds")}
    path = cfg.out_dir / "modes.json"
    _write_json(path, cfg, {"modes": entries, "stats": stats})
    return [path]


def _cmd_riesz(cfg: RunConfig) -> list:
    diag = riesz_closeness(cfg.k_max, cfg.params)
    rows = []
    for row, k in enumerate(diag.k_values):
        for j in (0, 1):
            rows.append([
                str(int(k)), str(j + 1),
                _g17(diag.closeness[row, j]),
                _g17(diag.alignment[row, j]),
                _g17(diag.tip_eta[row, j]),
                _g17(diag.tip_gamma[row, j]),
                _g17(diag.pairing_gap[row, j]),
                _g17(diag.partial_sums[row]),
            ])
    path = cfg.out_dir / "riesz.csv"
    _write_csv(path, cfg, ["k", "j", "closeness", "alignment", "tip_eta",
                           "tip_gamma", "pairing_gap", "partial_sum"], rows)
    return [path]


def _smooth_domain_state(p: BeamParams, N: int, seed: int) -> GridState:
    """Seeded smooth profile pushed into the operator domain via solve_static."""
    rng = np.random.default_rng(seed)
    xs = np.linspace(0.0, 1.0, N + 1)
    state = GridState.zeros(N)
    fields = {}
    for name in ("u", "v", "y", "z"):
        coef = rng.standard_normal(4)
        field = sum(c * np.sin((m + 1) * np.pi * xs / 2.0)
                    for m, c in enumerate(coef))
        fields[name] = field.astype(complex)
    # the xs factor clamps every component at x = 0
    for name in ("u", "v", "y", "z"):
        fields[name] *= xs
    state.u, state.v, state.y, state.z = (fields[n] for n in ("u", "v", "y", "z"))
    state.eta = state.v[-1]
    state.gamma = math.sqrt(p.a / p.b) * state.z[-1]
    return solve_static(state, p)


def _cmd_decay(cfg: RunConfig) -> list:
    p = cfg.effective_params
    g = assemble_generator(p, cfg.grid_n)
    dt = cfg.dt if cfg.dt is not None else 0.4 * g.h
    u0 = _smooth_domain_state(p, cfg.grid_n, cfg.seed)
    trace = integrate(g, u0, cfg.horizon, dt)
    fit = fit_decay(trace)
    rows = [[_g17(t), _g17(e)] for t, e in zip(trace.times, trace.energies)]
    csv_path = cfg.out_dir / "energy.csv"
    _write_csv(csv_path, cfg, ["t", "energy"], rows)
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
    p = cfg.effective_params
    lines = [f"# {k}={v}" for k, v in cfg.header_items()]
    lines.append(f"{'k':>6}  {'k^2 Re lambda_1':>16}  {'k^2 Re lambda_2':>16}")
    pairs = frequency_pairs(p, TABLE_KS)
    for k, (recs, complete) in zip(TABLE_KS, pairs):
        by_family = {rec.family: rec for rec in recs}
        if not complete or 1 not in by_family or 2 not in by_family:
            raise IncompleteBox(f"could not certify both families at k = {k}")
        val1 = k * k * by_family[1].lam.real
        val2 = k * k * by_family[2].lam.real
        lines.append(f"{k:>6}  {_g6(val1):>16}  {_g6(val2):>16}")
    path = cfg.out_dir / "table.txt"
    _write_text(path, "\n".join(lines) + "\n")
    return [path]


def _cmd_plot(cfg: RunConfig) -> list:
    records, _ = spectrum_in_strip(cfg.effective_params, cfg.k_max)
    width, height = float(cfg.width), float(cfg.height)
    margin = 40.0
    im_hi = (cfg.k_max + 0.5) * math.pi
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
        f'width="{cfg.width}" height="{cfg.height}" '
        f'viewBox="0 0 {cfg.width} {cfg.height}">'
    )
    parts.append(f'<rect x="0" y="0" width="{cfg.width}" height="{cfg.height}" '
                 f'fill="white"/>')

    label_step = max(1, round(cfg.k_max / 8))
    parts.append('<g stroke="#cccccc" stroke-width="0.5">')
    for k in range(-cfg.k_max, cfg.k_max + 1):
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
    for k in range(-cfg.k_max, cfg.k_max + 1, label_step):
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


_DISPATCH = {
    "spectrum": _cmd_spectrum,
    "predict": _cmd_predict,
    "modes": _cmd_modes,
    "riesz": _cmd_riesz,
    "decay": _cmd_decay,
    "table": _cmd_table,
    "plot": _cmd_plot,
}


def run(cfg: RunConfig) -> list:
    """Execute one command; returns the list of written artifact paths."""
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    return _DISPATCH[cfg.command](cfg)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="tipbeam",
        description="Spectral and time-domain studies of a boundary-damped "
                    "shear beam with a tip load.",
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--params", required=True,
                        help="flat key=value parameter file")
    parser.add_argument("--kmax", type=int, default=None,
                        help="frequency truncation index")
    parser.add_argument("--grid-n", dest="grid_n", type=int, default=None,
                        help="finite difference cells for decay runs")
    parser.add_argument("--horizon", type=float, default=None,
                        help="integration horizon T")
    parser.add_argument("--dt", type=float, default=None,
                        help="time step (default 0.4 h)")
    parser.add_argument("--out", default=".", help="output directory")
    parser.add_argument("--conservative", action="store_true",
                        help="drop the damping gains k2, k4 (not for riesz)")
    parser.add_argument("--tolerance", type=float, default=None,
                        help="Newton residual tolerance (modes only)")
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
