"""tools/code_lines.py counts code lines: physical lines less blank,
comment-only and docstring lines."""

import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"

MODULE = '''"""A module docstring
over two lines."""

import math  # a trailing comment keeps its line


# a comment-only line
def area(r):
    """A one-line docstring."""
    note = "a string that is not a docstring"
    return math.pi * r * r


class Disc:
    """A class docstring
    over two lines."""

    r = 1.0
'''


def test_code_lines_on_a_small_module(tmp_path):
    # code: import, def, note, return, class, r = 1.0
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "shapes.py").write_text(MODULE, encoding="utf-8")
    out = subprocess.run([sys.executable, str(TOOL), str(package)], capture_output=True,
                         text=True, check=True).stdout.splitlines()
    assert [line.split() for line in out] == [["6", str(package / "shapes.py")], ["6", "total"]]
