"""End-to-end checks of the command line artifacts."""

import argparse
import json
import math
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import tipbeam.cli
import tipbeam.spectrum
from tipbeam.asymptotics import asymptotic_coefficients
from tipbeam.cli import build_config, main
from tipbeam.model import validate_params
from tipbeam.modes import eigenmode, mode_residuals
from tipbeam.spectrum import K_MIN, family_roots


def write_params(tmp_path, lines):
    path = tmp_path / "params.txt"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


@pytest.fixture
def generic_file(tmp_path):
    return write_params(tmp_path, ["a=1", "b=2", "k1=1", "k2=2", "k3=3", "k4=2"])


def read_csv(path):
    """Returns (config dict, header list, rows as string lists)."""
    config, header, rows = {}, None, []
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.startswith("# "):
            key, value = line[2:].split("=", 1)
            config[key] = value
        elif header is None:
            header = line.split(",")
        else:
            rows.append(line.split(","))
    return config, header, rows


def read_canonical_json(path):
    """The parsed artifact, after checking that it is one line of sorted-key JSON."""
    text = path.read_text(encoding="utf-8")
    data = json.loads(text)
    assert text == json.dumps(data, sort_keys=True, ensure_ascii=False) + "\n"
    return data


def test_cli_import_loads_no_graph_reordering(tmp_path, generic_file):
    # the velocity system is banded in node order, so no process pays for
    # scipy.sparse.csgraph (and the scipy.sparse.linalg it pulls in).  The
    # ring that evaluates F at a branch point is a matrix product and
    # Horner's rule: the spectral modules, run through i sqrt(b), load
    # neither numpy.fft nor numpy.polynomial.  scipy loads both, and only
    # `decay` imports it (through `simulate`), so neither a fresh `import
    # tipbeam.cli` nor a spectral command loads any of the three
    src = str(Path(tipbeam.spectrum.__file__).parents[1])
    run = (f"['--params', {str(generic_file)!r}, '--out', {str(tmp_path)!r}, "
           "'--kmax', '12', '--grid-n', '16', '--horizon', '2']")
    code = (f"import sys; sys.path.insert(0, {src!r})\n"
            "import contextlib\n"
            "def loaded(*prefixes):\n"
            "    print(sorted(m for m in sys.modules if m.startswith(prefixes)))\n"
            "import tipbeam.modes\n"
            "from tipbeam.charfn import entire_char_fn_and_derivative\n"
            "from tipbeam.model import validate_params\n"
            "entire_char_fn_and_derivative(2 ** 0.5 * 1j, validate_params(1, 2, 1, 2, 3, 2))\n"
            "loaded('numpy.fft', 'numpy.polynomial')\n"
            "import tipbeam.cli\n"
            "loaded('scipy', 'numpy.fft', 'numpy.polynomial')\n"
            "with contextlib.redirect_stdout(sys.stderr):\n"
            f"    assert tipbeam.cli.main(['spectrum'] + {run}) == 0\n"
            "loaded('scipy', 'numpy.fft', 'numpy.polynomial')\n"
            "with contextlib.redirect_stdout(sys.stderr):\n"
            f"    assert tipbeam.cli.main(['decay'] + {run}) == 0\n"
            "loaded('scipy.sparse.csgraph')\n"
            "print('scipy.sparse' in sys.modules)\n")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.split() == ["[]", "[]", "[]", "[]", "True"]


def test_decay_calls_simulate_through_the_cli_module(tmp_path, generic_file, monkeypatch):
    # a wrapper set on tipbeam.cli's simulate names is the one `decay` runs,
    # and another name of simulate is not forwarded
    import tipbeam.simulate

    for name in ("assemble_generator", "integrate", "fit_decay"):
        assert getattr(tipbeam.cli, name) is getattr(tipbeam.simulate, name)
    assert hasattr(tipbeam.simulate, "DiscreteGenerator")
    with pytest.raises(AttributeError, match="DiscreteGenerator"):
        tipbeam.cli.DiscreteGenerator
    calls = []
    real = tipbeam.cli.integrate

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(tipbeam.cli, "integrate", counting)
    assert main(["decay", "--params", str(generic_file), "--grid-n", "16",
                 "--horizon", "2", "--out", str(tmp_path)]) == 0
    assert len(calls) == 1


def test_spectrum_artifacts(tmp_path, generic_file):
    out = tmp_path / "run"
    rc = main(["spectrum", "--params", str(generic_file), "--kmax", "12",
               "--out", str(out)])
    assert rc == 0
    config, header, rows = read_csv(out / "spectrum.csv")
    assert header == ["k", "j", "re", "im", "residual", "multiplicity"]
    assert config["command"] == "spectrum"
    assert config["kmax"] == "12"
    assert all(float(r[2]) < 0.0 for r in rows)
    # conjugate symmetry of the emitted record set
    ims = sorted(float(r[3]) for r in rows)
    assert ims == pytest.approx(sorted(-v for v in ims), abs=1e-9)

    report = json.loads((out / "spectrum_report.json").read_text(encoding="utf-8"))
    assert report["config"]["command"] == "spectrum"
    assert report["k0_effective"] == 8
    assert report["eigenvalue_count"] == len(rows)
    assert report["incomplete_boxes"] == []
    assert all(box["winding"] >= 0 for box in report["boxes"])


def test_spectrum_reruns_are_byte_identical(tmp_path, generic_file):
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert main(["spectrum", "--params", str(generic_file), "--kmax", "11",
                 "--out", str(out1)]) == 0
    assert main(["spectrum", "--params", str(generic_file), "--kmax", "11",
                 "--out", str(out2)]) == 0
    assert (out1 / "spectrum.csv").read_bytes() == (out2 / "spectrum.csv").read_bytes()
    assert (out1 / "spectrum_report.json").read_bytes() == \
        (out2 / "spectrum_report.json").read_bytes()
    report = read_canonical_json(out1 / "spectrum_report.json")
    stats = report["stats"]
    assert set(stats) == {"boxes", "derived_boxes", "matched_boxes", "moment_boxes",
                          "band_boxes", "resplits", "contour_points", "evaluation_calls",
                          "contour_rounds", "newton_calls", "newton_iterations", "newton_rounds",
                          "global_count", "global_points"}
    assert stats["boxes"] == len(report["boxes"])
    assert stats["newton_iterations"] == sum(n["iterations"] for n in report["newton"])
    assert stats["contour_points"] > 0 and stats["newton_calls"] > 0
    assert stats["newton_rounds"] > 0
    assert 0 < stats["contour_rounds"] < stats["contour_points"]
    # a call that carries contour samples and Newton lanes counts in both
    assert (max(stats["contour_rounds"], stats["newton_rounds"]) <= stats["evaluation_calls"]
            <= stats["contour_rounds"] + stats["newton_rounds"])
    # the union of the strip's boxes starts at Im = -0.3
    _, header, rows = read_csv(out1 / "spectrum.csv")
    im, mult = header.index("im"), header.index("multiplicity")
    assert stats["global_count"] == sum(int(r[mult]) for r in rows if float(r[im]) > -0.3)


def test_spectrum_names_incomplete_boxes_on_stderr(tmp_path, generic_file, monkeypatch,
                                                  capsys):
    # with every budget at 32,768 samples, the union of the k <= 1,100 strip,
    # which takes 32,812, is refused: the run still writes its artifacts and
    # exits 0, and stderr names the union
    monkeypatch.setattr(tipbeam.spectrum, "_SAMPLES_PER_LENGTH", 0)
    assert main(["spectrum", "--params", str(generic_file), "--kmax", "1100",
                 "--out", str(tmp_path)]) == 0
    report = read_canonical_json(tmp_path / "spectrum_report.json")
    (box,) = report["incomplete_boxes"]
    assert box["winding"] is None and report["stats"]["global_count"] is None
    assert capsys.readouterr().err.splitlines() == [
        f"tipbeam spectrum: incomplete box {box['rect']}: winding null, "
        f"{box['recovered']} roots recovered"]


def test_spectrum_conservative_flag(tmp_path, generic_file):
    out = tmp_path / "run"
    rc = main(["spectrum", "--params", str(generic_file), "--kmax", "12",
               "--conservative", "--out", str(out)])
    assert rc == 0
    _, _, rows = read_csv(out / "spectrum.csv")
    assert max(abs(float(r[2])) for r in rows) < 1e-9


def test_predict_rows_and_regime(tmp_path, generic_file):
    out = tmp_path / "run"
    assert main(["predict", "--params", str(generic_file), "--kmax", "20",
                 "--out", str(out)]) == 0
    _, header, rows = read_csv(out / "predictions.csv")
    assert header == ["k", "j", "re", "im", "regime"]
    assert len(rows) == 2 * (20 - 8 + 1)
    assert all(r[4] == "generic" for r in rows)
    k20 = [r for r in rows if r[0] == "20" and r[1] == "1"][0]
    assert float(k20[3]) == pytest.approx(20 * math.pi, abs=0.1)


def test_modes_json_residuals(tmp_path, generic_file):
    out = tmp_path / "run"
    assert main(["modes", "--params", str(generic_file), "--kmax", "10",
                 "--out", str(out)]) == 0
    data = json.loads((out / "modes.json").read_text(encoding="utf-8"))
    assert data["config"]["command"] == "modes"
    entries = data["modes"]
    assert len(entries) == 2 * (10 - 8 + 1)
    for e in entries:
        assert e["matrix_residual"] <= 1e-9
        assert max(e["residuals"].values()) <= 1e-8
        assert e["dissipation_identity"] <= 1e-8
        assert len(e["coefficients"]) == 4


def test_modes_reruns_are_byte_identical(tmp_path, generic_file):
    outs = [tmp_path / "r1", tmp_path / "r2"]
    for out in outs:
        assert main(["modes", "--params", str(generic_file), "--kmax", "12",
                     "--out", str(out)]) == 0
    assert (outs[0] / "modes.json").read_bytes() == (outs[1] / "modes.json").read_bytes()
    data = read_canonical_json(outs[0] / "modes.json")
    assert [(e["k"], e["j"]) for e in data["modes"]] == \
        [(k, j) for k in range(8, 13) for j in (1, 2)]
    assert all(0.0 < e["conditioning"] < 1.0 for e in data["modes"])
    stats = data["stats"]
    assert set(stats) == {"newton_calls", "newton_iterations", "newton_rounds"}
    assert stats["newton_calls"] == len(data["modes"]) == 10
    # all ten seeds share each round, so rounds are the slowest lane's count
    assert 0 < stats["newton_rounds"] < stats["newton_iterations"]


def test_modes_json_holds_the_library_values(tmp_path, generic_file, params_generic):
    # every value of every entry, rebuilt one element at a time from the
    # library's arrays and compared with == on floats
    out = tmp_path / "run"
    assert main(["modes", "--params", str(generic_file), "--kmax", "12",
                 "--out", str(out)]) == 0
    entries = json.loads((out / "modes.json").read_text(encoding="utf-8"))["modes"]
    p = params_generic
    recs = family_roots(p, range(K_MIN, 13))
    modes = eigenmode(np.array([rec.lam for rec in recs]), p)
    res = mode_residuals(modes, p)
    identity = np.abs(modes.lam.real + (p.k2 / p.k1) * np.abs(modes.tip_eta) ** 2
                      + (p.k4 / p.k3) * np.abs(modes.tip_gamma) ** 2)
    names = ("interior_u", "interior_y", "clamp_u", "clamp_y", "tip_u", "tip_y")

    def pair(z):
        return [float(z.real), float(z.imag)]

    expected = [{
        "k": rec.k_index,
        "j": rec.family,
        "lambda": pair(rec.lam),
        "coefficients": [pair(c) for c in modes.coeffs[i]],
        "branch_roots": [pair(t) for t in modes.ts[i]],
        "tip_eta": pair(modes.tip_eta[i]),
        "tip_gamma": pair(modes.tip_gamma[i]),
        "matrix_residual": float(modes.matrix_residual[i]),
        "conditioning": float(modes.conditioning[i]),
        "residuals": {name: float(r) for name, r in zip(names, res[i])},
        "dissipation_identity": float(identity[i]),
    } for i, rec in enumerate(recs)]
    assert len(entries) == len(expected) == 10
    for entry, want in zip(entries, expected):
        assert entry == want


def test_modes_error_names_k_and_j(tmp_path, generic_file, capsys, monkeypatch):
    # a k = 9, j = 2 root pushed off the spectrum: the error names its record
    real = tipbeam.cli.family_roots

    def shifted(p, ks, report=None):
        recs = real(p, ks, report)
        recs[3] = replace(recs[3], lam=recs[3].lam + 0.3j)
        return recs

    monkeypatch.setattr(tipbeam.cli, "family_roots", shifted)
    rc = main(["modes", "--params", str(generic_file), "--kmax", "10", "--out", str(tmp_path)])
    err = json.loads(capsys.readouterr().out)
    assert rc == 1 and err["error"] == "NotAnEigenvalue" and err["command"] == "modes"
    assert err["message"].startswith("family 2 at k = 9: ")


def test_riesz_csv_columns(tmp_path, generic_file):
    out = tmp_path / "run"
    assert main(["riesz", "--params", str(generic_file), "--kmax", "12",
                 "--out", str(out)]) == 0
    _, header, rows = read_csv(out / "riesz.csv")
    assert header == ["k", "j", "closeness", "alignment", "tip_eta",
                      "tip_gamma", "pairing_gap", "partial_sum"]
    assert len(rows) == 2 * (12 - 8 + 1)
    partial = [float(r[7]) for r in rows]
    assert partial == sorted(partial)
    assert all(0.0 <= float(r[2]) < 0.1 for r in rows)


def test_decay_energy_and_fit(tmp_path, generic_file):
    out = tmp_path / "run"
    assert main(["decay", "--params", str(generic_file), "--grid-n", "64",
                 "--horizon", "20", "--out", str(out)]) == 0
    _, header, rows = read_csv(out / "energy.csv")
    assert header == ["t", "energy"]
    energies = [float(r[1]) for r in rows]
    assert all(b <= a * (1 + 1e-12) for a, b in zip(energies, energies[1:]))
    fit = json.loads((out / "decay_fit.json").read_text(encoding="utf-8"))
    assert fit["exponent"] < -0.9
    assert 0.0 < fit["sup_te"] < 100.0
    assert fit["initial_energy"] == pytest.approx(energies[0])


def test_decay_reruns_are_byte_identical(tmp_path, generic_file):
    outs = [tmp_path / "r1", tmp_path / "r2"]
    for out in outs:
        assert main(["decay", "--params", str(generic_file), "--grid-n", "32",
                     "--horizon", "5", "--out", str(out)]) == 0
    for name in ("energy.csv", "decay_fit.json"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
    fit = read_canonical_json(outs[0] / "decay_fit.json")
    stats = fit["stats"]
    steps = round(5.0 / (0.4 / 32))
    assert set(stats) == {"steps", "energy_samples", "solves", "kd", "solve_n",
                          "nnz_A", "nnz_W"}
    assert stats["steps"] == steps
    assert stats["solves"] == steps + 2       # plus one set-up solve per tip damping column
    assert stats["energy_samples"] == fit["samples"]
    assert stats["kd"] == 5 and stats["solve_n"] == 2 * 32 + 2
    assert 0 < stats["nnz_A"] <= 4 * (4 * 32 + 2) and 0 < stats["nnz_W"] <= 4 * (4 * 32 + 2)


def test_table_names_the_uncertified_frequency(tmp_path, generic_file, monkeypatch):
    # family 2 at k = 600 seeded at the root-free edge of its box: the five
    # frequencies share one polish and one batch of counts, the box of
    # k = 600 counts 2 where one root was polished, and its subdivision
    # recovers both families, so the table is the one of the right seeds
    real_predict = tipbeam.spectrum.predict_eigenvalue
    assert main(["table", "--params", str(generic_file), "--out", str(tmp_path / "a")]) == 0

    def predict(k, j, p):
        lam = real_predict(k, j, p)
        lam[(k == 600) & (j == 2)] = (600 + 0.5) * math.pi * 1j - 0.1
        return lam

    monkeypatch.setattr(tipbeam.spectrum, "predict_eigenvalue", predict)
    assert main(["table", "--params", str(generic_file), "--out", str(tmp_path / "b")]) == 0
    table = [(tmp_path / run / "table.txt").read_text(encoding="utf-8") for run in "ab"]
    assert table[0] == table[1]
    assert any(line.split()[0] == "600" for line in table[1].splitlines())


def test_table_degenerate_params(tmp_path):
    b = 4 * math.pi ** 2
    params = write_params(tmp_path, ["a=1", f"b={b!r}", "k1=2", "k2=1",
                                     "k3=2", "k4=5"])
    out = tmp_path / "run"
    assert main(["table", "--params", str(params), "--out", str(out)]) == 0
    lines = [ln for ln in (out / "table.txt").read_text(encoding="utf-8").splitlines()
             if ln and not ln.startswith("#")]
    assert lines[0].split() == ["k", "k^2", "Re", "lambda_1", "k^2", "Re", "lambda_2"]
    assert len(lines) == 6
    for row in lines[1:]:
        k, v1, v2 = row.split()
        assert int(k) in (200, 400, 600, 800, 1000)
        assert -0.2032 <= float(v1) <= -0.2021
        assert -1.0140 <= float(v2) <= -1.0125


# (b, k1, k2, k3, k4) where the families collide at order 1/k: case 2 and
# case 3 part at order 1/k^3, 3.2e-8 to 2.0e-9 apart at the table's k, and the
# p = 2 lattice point, whose family-2 seed falls into family 1's basin
_COLLIDING_SETS = {
    "case2": (4.0 * math.pi**2, 2.0, 1.0, 2.0, 1.0),
    "case3": (4.0 * math.pi**2, 2.0, 0.0, 2.0, 0.0),
    "lattice": (16.0 * math.pi**2, 1.0, 1.0, 1.0, 2.0),
}


def colliding_file(tmp_path, name):
    b, k1, k2, k3, k4 = _COLLIDING_SETS[name]
    return write_params(tmp_path, ["a=1", f"b={b!r}", f"k1={k1}", f"k2={k2}",
                                   f"k3={k3}", f"k4={k4}"])


@pytest.mark.parametrize("name", sorted(_COLLIDING_SETS))
def test_table_separates_colliding_families(tmp_path, name):
    # each family's root is certified on its own: k^2 Re lambda_j tends to
    # Re c2_j, and on the conservative case 3 Re lambda is rounding of |lambda|
    out = tmp_path / "run"
    assert main(["table", "--params", str(colliding_file(tmp_path, name)),
                 "--out", str(out)]) == 0
    rows = [ln.split() for ln in (out / "table.txt").read_text(encoding="utf-8").splitlines()
            if ln and not ln.startswith("#")][1:]
    assert [int(row[0]) for row in rows] == [200, 400, 600, 800, 1000]
    p = validate_params(1.0, *_COLLIDING_SETS[name])
    c2 = asymptotic_coefficients(p)[1].real
    for row in rows:
        k = int(row[0])
        for value, c in zip(map(float, row[1:]), c2):
            if p.is_conservative:
                assert abs(value) <= k * k * np.finfo(float).eps * k * math.pi, (k, value)
            else:
                assert abs(value - c) <= 1e-4, (k, value, c)


def test_spectrum_rows_are_simple_roots_on_case2(tmp_path):
    # the multiplicity column is kept for its readers and always reads 1
    out = tmp_path / "run"
    assert main(["spectrum", "--params", str(colliding_file(tmp_path, "case2")), "--kmax", "60",
                 "--out", str(out)]) == 0
    _, header, rows = read_csv(out / "spectrum.csv")
    mult = header.index("multiplicity")
    assert rows and all(r[mult] == "1" for r in rows)
    report = read_canonical_json(out / "spectrum_report.json")
    assert report["incomplete_boxes"] == []
    im = header.index("im")
    assert report["stats"]["global_count"] == sum(float(r[im]) > -0.3 for r in rows)


def test_plot_svg_geometry(tmp_path, generic_file):
    out = tmp_path / "run"
    assert main(["plot", "--params", str(generic_file), "--kmax", "12",
                 "--out", str(out)]) == 0
    svg = (out / "spectrum.svg").read_text(encoding="utf-8")
    assert 'version="1.1"' in svg
    assert "<!-- command=plot -->" in svg
    circles = re.findall(r'<circle cx="([0-9.]+)" cy="([0-9.]+)"', svg)
    assert len(circles) > 0
    axis = re.search(r'<line x1="([0-9.]+)" y1="40.000" x2="\1"', svg)
    axis_x = float(axis.group(1))
    xs = [float(c[0]) for c in circles]
    ys = sorted(float(c[1]) for c in circles)
    assert max(xs) < axis_x
    # point set mirrors across the horizontal midline (the real axis)
    center = 480.0 / 2.0
    mirrored = sorted(2.0 * center - y for y in ys)
    assert ys == pytest.approx(mirrored, abs=0.02)


def test_flag_overrides_file_values(tmp_path):
    params = write_params(tmp_path, ["a=1", "b=2", "k1=1", "k2=2", "k3=3",
                                     "k4=2", "kmax=40", "seed=3"])
    out = tmp_path / "run"
    assert main(["predict", "--params", str(params), "--kmax", "9",
                 "--out", str(out)]) == 0
    config, _, rows = read_csv(out / "predictions.csv")
    assert config["kmax"] == "9"
    assert config["seed"] == "3"
    assert len(rows) == 4


def test_error_json_on_bad_config(tmp_path, capsys):
    # the SVG size is fixed, so a width or height line is an unknown key too
    for key, value in (("wavelength", "7"), ("width", "800"), ("height", "600")):
        params = write_params(tmp_path, ["a=1", "b=2", "k1=1", "k2=2", "k3=3",
                                         "k4=2", f"{key}={value}"])
        rc = main(["spectrum", "--params", str(params), "--out", str(tmp_path)])
        assert rc == 1
        err = json.loads(capsys.readouterr().out)
        assert err["error"] == "ConfigError"
        assert err["message"] == f"{params}:7: unknown key {key!r}"


@pytest.mark.parametrize("command, key, value", [("spectrum", "kmax", "x"),
                                                  ("decay", "dt", "abc")])
def test_flag_values_are_refused_like_file_values(tmp_path, capsys, command, key, value):
    # a flag string goes through the cast of the file value: the same
    # one-line JSON error and exit 1, not argparse's usage and exit 2
    base = ["a=1", "b=2", "k1=1", "k2=2", "k3=3", "k4=2"]
    flagged = main([command, "--params", str(write_params(tmp_path, base)),
                    f"--{key}", value, "--out", str(tmp_path / "run")])
    from_flag = capsys.readouterr().out
    filed = main([command, "--params", str(write_params(tmp_path, base + [f"{key}={value}"])),
                  "--out", str(tmp_path / "run")])
    from_file = capsys.readouterr().out
    assert flagged == filed == 1
    assert from_flag == from_file and len(from_flag.splitlines()) == 1
    err = json.loads(from_flag)
    assert err["error"] == "ConfigError" and repr(key) in err["message"]
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("command", ["decay", "predict"])
def test_non_finite_horizon_and_dt_refused(tmp_path, capsys, command):
    # inf used to overflow the step count in `decay`, nan reached the
    # artifact header of `predict`, and argparse took the -inf of
    # `--horizon -inf` for an option
    base = ["a=1", "b=2", "k1=1", "k2=2", "k3=3", "k4=2"]
    for key in ("horizon", "dt"):
        for value in ("inf", "-inf", "nan", "-nan"):
            runs = (([f"--{key}={value}"], base), ([f"--{key}", value], base),
                    ([], base + [f"{key}={value}"]))
            for flags, lines in runs:
                rc = main([command, "--params", str(write_params(tmp_path, lines)), *flags,
                           "--out", str(tmp_path / "run")])
                err = json.loads(capsys.readouterr().out)
                assert rc == 1 and err["error"] == "ConfigError", (key, value, flags)
                assert err["message"] == f"key {key!r}: not a finite number: {value!r}"
    assert not (tmp_path / "run").exists()


def test_build_config_on_the_benchmark_probe_namespace(tmp_path):
    # the fields perfbench/setup_probe.py passes: every flag None, an extra
    # `tolerance`, no `seed`, and `conservative` a bool that False leaves
    # to the file
    def probe(command, params, conservative):
        return build_config(argparse.Namespace(
            command=command, params=str(params), kmax=None, grid_n=None, horizon=None,
            dt=None, tolerance=None, conservative=conservative, out="."))

    base = ["a=1", "b=2", "k1=1", "k2=2", "k3=3", "k4=2"]
    filed = probe("decay", write_params(tmp_path, base + [
        "kmax=12", "horizon=7", "conservative=true", "seed=5"]), False)
    assert list(dict(filed.header_items())) == [
        "command", "a", "b", "k1", "k2", "k3", "k4",
        "kmax", "grid_n", "horizon", "dt", "conservative", "seed"]
    assert dict(filed.header_items()) == {
        "command": "decay", "a": "1", "b": "2", "k1": "1", "k2": "2", "k3": "3", "k4": "2",
        "kmax": "12", "grid_n": "200", "horizon": "7", "dt": "auto",
        "conservative": "true", "seed": "5"}
    assert filed.effective_params.k2 == filed.effective_params.k4 == 0.0
    for conservative in (False, True):
        cfg = probe("spectrum", write_params(tmp_path, base + ["seed=3"]), conservative)
        assert (cfg.kmax, cfg.grid_n, cfg.horizon, cfg.dt, cfg.seed) == (40, 200, 60.0, None, 3)
        assert cfg.conservative is conservative and cfg.out_dir == Path(".")


def test_error_json_on_module_error(tmp_path, generic_file, capsys):
    rc = main(["decay", "--params", str(generic_file), "--grid-n", "64",
               "--dt", "0.5", "--out", str(tmp_path)])
    assert rc == 1
    err = json.loads(capsys.readouterr().out)
    assert err["error"] == "ValueError"
    assert err["command"] == "decay"


def test_ignored_flag_rejected(tmp_path, generic_file, capsys):
    rc = main(["riesz", "--params", str(generic_file), "--kmax", "12", "--conservative",
               "--out", str(tmp_path / "run")])
    assert rc == 1
    err = json.loads(capsys.readouterr().out)
    assert err["error"] == "ConfigError"
    assert "--conservative" in err["message"] and "riesz" in err["message"]
    assert not (tmp_path / "run").exists()


def test_file_keys_accepted_by_every_command(tmp_path):
    # one params file serves every command, so the file keys stay accepted
    params = write_params(tmp_path, ["a=1", "b=2", "k1=1", "k2=2", "k3=3",
                                     "k4=2", "conservative=false"])
    out = tmp_path / "run"
    assert main(["riesz", "--params", str(params), "--kmax", "8",
                 "--out", str(out)]) == 0
    config, _, _ = read_csv(out / "riesz.csv")
    assert config["conservative"] == "false"


def test_error_json_on_missing_params_file(tmp_path, capsys):
    rc = main(["table", "--params", str(tmp_path / "nope.txt"),
               "--out", str(tmp_path)])
    assert rc == 1
    err = json.loads(capsys.readouterr().out)
    assert err["error"] == "ConfigError"


def test_bad_numeric_parameter_rejected(tmp_path, capsys):
    params = write_params(tmp_path, ["a=1", "b=-2", "k1=1", "k2=2", "k3=3",
                                     "k4=2"])
    rc = main(["spectrum", "--params", str(params), "--out", str(tmp_path)])
    assert rc == 1
    err = json.loads(capsys.readouterr().out)
    assert err["error"] == "NonPositiveParameter"


def test_non_boolean_conservative_refused(tmp_path, capsys):
    params = write_params(tmp_path, ["a=1", "b=2", "k1=1", "k2=2", "k3=3", "k4=2",
                                     "conservative=maybe"])
    rc = main(["spectrum", "--params", str(params), "--out", str(tmp_path / "run")])
    err = json.loads(capsys.readouterr().out)
    assert rc == 1 and err["error"] == "ConfigError"
    assert err["message"] == "key 'conservative': not a boolean: 'maybe'"
    assert not (tmp_path / "run").exists()


def test_decay_refuses_a_vanishing_tip_stiffness(tmp_path, capsys):
    # k1 ~ 0 leaves the tip equations of solve_static without their scaling
    params = write_params(tmp_path, ["a=1", "b=2", "k1=1e-13", "k2=2", "k3=3", "k4=2"])
    rc = main(["decay", "--params", str(params), "--grid-n", "32", "--horizon", "1",
               "--out", str(tmp_path / "run")])
    err = json.loads(capsys.readouterr().out)
    assert rc == 1 and err["error"] == "DegenerateBoundarySystem" and err["command"] == "decay"


def test_table_refuses_a_box_without_both_families(tmp_path, generic_file, capsys, monkeypatch):
    # frequency_pairs labels a box holding one root, or more than two,
    # without a family 2: the table names the k it cannot certify
    real_pairs = tipbeam.cli.frequency_pairs

    def one_root_at_600(p, ks):
        return [recs[:1] if k == 600 else recs for k, recs in zip(ks, real_pairs(p, ks))]

    monkeypatch.setattr(tipbeam.cli, "frequency_pairs", one_root_at_600)
    rc = main(["table", "--params", str(generic_file), "--out", str(tmp_path / "run")])
    err = json.loads(capsys.readouterr().out)
    assert rc == 1 and err["error"] == "IncompleteBox" and err["command"] == "table"
    assert err["message"] == "could not certify both families at k = 600"


def test_params_file_comments_and_blank_lines_are_skipped(tmp_path):
    # a comment line, a blank line and a trailing note after a value
    params = write_params(tmp_path, ["# generic set", "a=1", "b=2", "", "k1=1", "k2=2",
                                     "k3=3", "k4=2  # note"])
    out = tmp_path / "run"
    assert main(["predict", "--params", str(params), "--kmax", "8", "--out", str(out)]) == 0
    config, _, rows = read_csv(out / "predictions.csv")
    assert config["k4"] == "2" and len(rows) == 2


@pytest.mark.parametrize("lines, message", [
    (["a=1", "b 2"], "{path}:2: expected key=value, got 'b 2'"),
    (["a=1", "b=2", "k1=1", "k2=2", "k3=3", "k2=4"], "{path}:6: duplicate key 'k2'"),
    (["a=1", "b=2", "k1=1", "k2=2"], "params file lacks required keys: k3, k4"),
])
def test_malformed_params_file_refused(tmp_path, capsys, lines, message):
    params = write_params(tmp_path, lines)
    rc = main(["spectrum", "--params", str(params), "--out", str(tmp_path / "run")])
    out = capsys.readouterr().out
    assert rc == 1 and len(out.splitlines()) == 1
    err = json.loads(out)
    assert err["error"] == "ConfigError" and err["message"] == message.format(path=params)
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("command, flags, message", [
    ("spectrum", ["--kmax", "9"], "kmax = 9 is below the floor 10 for command 'spectrum'"),
    ("modes", ["--kmax", "7"], "kmax = 7 is below the floor 8 for command 'modes'"),
    ("decay", ["--grid-n", "15"], "grid_n = 15 is below the minimum of 16"),
    ("decay", ["--horizon", "0"], "horizon must be positive, got 0.0"),
    ("decay", ["--dt", "-0.001"], "dt must be positive, got -0.001"),
])
def test_out_of_range_settings_refused(tmp_path, generic_file, capsys, command, flags,
                                       message):
    rc = main([command, "--params", str(generic_file), *flags, "--out", str(tmp_path / "run")])
    out = capsys.readouterr().out
    assert rc == 1 and len(out.splitlines()) == 1
    err = json.loads(out)
    assert err == {"error": "ConfigError", "message": message, "command": command}
    assert not (tmp_path / "run").exists()
