"""Count the code lines of Python files: physical lines less blank lines,
comment-only lines and docstring lines.

A docstring is the string literal that opens a module, class or function
body, found with `ast`; all of its lines are dropped.  Each path is a file
or a directory searched for *.py files.  Prints one line per file and a
total.

    python tools/code_lines.py src/tipbeam
"""

import ast
import sys
from pathlib import Path


def code_lines(text: str) -> int:
    """Physical lines of text that are not blank, comment-only or docstring."""
    docstrings = set()
    for node in ast.walk(ast.parse(text)):
        if (isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
                and ast.get_docstring(node, clean=False) is not None):
            docstrings.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    return sum(1 for number, line in enumerate(text.splitlines(), start=1)
               if line.strip() and not line.strip().startswith("#")
               and number not in docstrings)


def main(paths) -> int:
    files = sorted(f for path in map(Path, paths)
                   for f in (path.rglob("*.py") if path.is_dir() else [path]))
    total = 0
    for f in files:
        count = code_lines(f.read_text(encoding="utf-8"))
        total += count
        print(f"{count:6d}  {f}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
