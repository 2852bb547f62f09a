"""End-to-end checks of the command line artifacts."""

import json
import math
import re

import pytest

import tipbeam.spectrum
from tipbeam.cli import main


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
    report = json.loads((out1 / "spectrum_report.json").read_text(encoding="utf-8"))
    stats = report["stats"]
    assert set(stats) == {"boxes", "shifted_boxes", "contour_points", "contour_rounds",
                          "newton_calls", "newton_iterations", "newton_rounds",
                          "global_count"}
    assert stats["boxes"] == len(report["boxes"])
    assert stats["newton_iterations"] == sum(n["iterations"] for n in report["newton"])
    assert stats["contour_points"] > 0 and stats["newton_calls"] > 0
    assert stats["newton_rounds"] > 0
    assert 0 < stats["contour_rounds"] < stats["contour_points"]
    # the union of the strip's boxes starts at Im = -0.3
    _, header, rows = read_csv(out1 / "spectrum.csv")
    im, mult = header.index("im"), header.index("multiplicity")
    assert stats["global_count"] == sum(int(r[mult]) for r in rows if float(r[im]) > -0.3)


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
    data = json.loads((outs[0] / "modes.json").read_text(encoding="utf-8"))
    assert [(e["k"], e["j"]) for e in data["modes"]] == \
        [(k, j) for k in range(8, 13) for j in (1, 2)]
    assert all(0.0 < e["conditioning"] < 1.0 for e in data["modes"])
    stats = data["stats"]
    assert set(stats) == {"newton_calls", "newton_iterations", "newton_rounds"}
    assert stats["newton_calls"] == len(data["modes"]) == 10
    # all ten seeds share each round, so rounds are the slowest lane's count
    assert 0 < stats["newton_rounds"] < stats["newton_iterations"]


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
    fit = json.loads((outs[0] / "decay_fit.json").read_text(encoding="utf-8"))
    stats = fit["stats"]
    steps = round(5.0 / (0.4 / 32))
    assert set(stats) == {"steps", "energy_samples", "factorizations", "solves", "kd",
                          "solve_n", "nnz_A", "nnz_W"}
    assert stats["steps"] == steps
    assert stats["solves"] == steps + 2       # plus one set-up solve per tip damping column
    assert stats["factorizations"] == 1
    assert stats["energy_samples"] == fit["samples"]
    assert stats["kd"] <= 5 and stats["solve_n"] == 2 * 32 + 2
    assert 0 < stats["nnz_A"] <= 4 * (4 * 32 + 2) and 0 < stats["nnz_W"] <= 4 * (4 * 32 + 2)


def test_table_names_the_uncertified_frequency(tmp_path, generic_file, monkeypatch, capsys):
    # family 2 at k = 600 seeded at the root-free edge of its box: the five
    # frequencies share one polish and one batch of counts, and the error
    # still names the k that could not be certified
    real_predict = tipbeam.spectrum.predict_eigenvalue

    def predict(k, j, p, **kwargs):
        if (k, j) == (600, 2):
            return (k + 0.5) * math.pi * 1j - 0.1
        return real_predict(k, j, p, **kwargs)

    monkeypatch.setattr(tipbeam.spectrum, "predict_eigenvalue", predict)
    assert main(["table", "--params", str(generic_file), "--out", str(tmp_path)]) == 1
    error = json.loads(capsys.readouterr().out)
    assert error["error"] == "IncompleteBox"
    assert error["message"] == "could not certify both families at k = 600"


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
    params = write_params(tmp_path, ["a=1", "b=2", "k1=1", "k2=2", "k3=3",
                                     "k4=2", "wavelength=7"])
    rc = main(["spectrum", "--params", str(params), "--out", str(tmp_path)])
    assert rc == 1
    err = json.loads(capsys.readouterr().out)
    assert err["error"] == "ConfigError"
    assert "wavelength" in err["message"]


def test_error_json_on_module_error(tmp_path, generic_file, capsys):
    rc = main(["decay", "--params", str(generic_file), "--grid-n", "64",
               "--dt", "0.5", "--out", str(tmp_path)])
    assert rc == 1
    err = json.loads(capsys.readouterr().out)
    assert err["error"] == "ValueError"
    assert err["command"] == "decay"


@pytest.mark.parametrize("command, flag", [
    ("spectrum", ["--tolerance", "1e-12"]),
    ("table", ["--tolerance", "1e-12"]),
    ("riesz", ["--conservative"]),
])
def test_ignored_flag_rejected(tmp_path, generic_file, capsys, command, flag):
    rc = main([command, "--params", str(generic_file), "--kmax", "12", *flag,
               "--out", str(tmp_path / "run")])
    assert rc == 1
    err = json.loads(capsys.readouterr().out)
    assert err["error"] == "ConfigError"
    assert flag[0] in err["message"] and command in err["message"]
    assert not (tmp_path / "run").exists()


def test_tolerance_flag_reaches_modes(tmp_path, generic_file):
    out = tmp_path / "run"
    assert main(["modes", "--params", str(generic_file), "--kmax", "8",
                 "--tolerance", "1e-10", "--out", str(out)]) == 0
    data = json.loads((out / "modes.json").read_text(encoding="utf-8"))
    assert data["config"]["tolerance"] == "1e-10"
    assert [e["j"] for e in data["modes"]] == [1, 2]


def test_file_keys_accepted_by_every_command(tmp_path):
    # one params file serves every command, so the file keys stay accepted
    params = write_params(tmp_path, ["a=1", "b=2", "k1=1", "k2=2", "k3=3",
                                     "k4=2", "tolerance=1e-12",
                                     "conservative=false"])
    out = tmp_path / "run"
    assert main(["riesz", "--params", str(params), "--kmax", "8",
                 "--out", str(out)]) == 0
    config, _, _ = read_csv(out / "riesz.csv")
    assert config["tolerance"] == "9.9999999999999998e-13"


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
