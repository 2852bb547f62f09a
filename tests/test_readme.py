"""The README's library-use example runs against the current API."""

import contextlib
import io
import math
import re
from pathlib import Path

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
