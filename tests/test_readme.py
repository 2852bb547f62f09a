"""The README's library-use example runs, its command-line section names
every stat, and the strip call counts it and the spectrum module quote are
the strips' own."""

import contextlib
import io
import json
import math
import re
from pathlib import Path

import tipbeam.spectrum
from tipbeam.cli import main
from tipbeam.spectrum import spectrum_in_strip

README = Path(__file__).resolve().parents[1] / "README.md"


def _library_example() -> str:
    """The first indented block under the README's "Library use" heading."""
    section = README.read_text(encoding="utf-8").split("## Library use", 1)[1]
    block = re.search(r"\n\n((?:    .*\n|\n)+)", section).group(1)
    return "\n".join(line[4:] for line in block.splitlines())


def test_readme_library_example_runs():
    code = _library_example()
    assert "eigenmode(lams, p)" in code
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    lam, tip, cond = out.getvalue().split()
    assert complex(lam).imag > 39 * math.pi    # the top of the k <= 40 strip
    assert 0.0 < float(tip) < 1.0
    assert 1.0 <= float(cond) < 100.0


def test_readme_names_every_stats_key(tmp_path):
    section = README.read_text(encoding="utf-8").split("## Command line", 1)[1].split("\n## ", 1)[0]
    params = tmp_path / "beam.cfg"
    params.write_text("a=1\nb=2\nk1=1\nk2=2\nk3=3\nk4=2\n", encoding="utf-8")
    runs = {"spectrum": (["--kmax", "10"], "spectrum_report.json"),
            "modes": (["--kmax", "10"], "modes.json"),
            "decay": (["--grid-n", "16", "--horizon", "1"], "decay_fit.json")}
    for command, (flags, artifact) in runs.items():
        out = tmp_path / command
        assert main([command, "--params", str(params), *flags, "--out", str(out)]) == 0
        stats = json.loads((out / artifact).read_text(encoding="utf-8"))["stats"]
        missing = [key for key in stats if f"`{key}`" not in section]
        assert stats and not missing, f"{command}: stats keys not in the README: {missing}"


def _quoted_calls(text: str) -> dict:
    """The evaluation calls quoted for the k <= 200 and the conservative
    k <= 50 strip in text, whose line breaks are read as spaces."""
    text = " ".join(text.split())
    return {"generic": int(re.search(r"k <= 200 strip takes (\d+)", text).group(1)),
            "conservative": int(re.search(r"conservative k <= 50 strip (\d+)", text).group(1))}


def test_quoted_strip_calls_are_the_strips_calls(params_generic, params_conservative):
    # the README's strip paragraph and the spectrum module docstring quote
    # the evaluation calls of the two benchmark strips
    calls = {"generic": spectrum_in_strip(params_generic, 200)[1].evaluation_calls,
             "conservative": spectrum_in_strip(params_conservative, 50)[1].evaluation_calls}
    assert _quoted_calls(README.read_text(encoding="utf-8")) == calls
    assert _quoted_calls(tipbeam.spectrum.__doc__) == calls
