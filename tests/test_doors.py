"""Every name the package defines is used by the package itself.

A top-level function, class or constant, or a method or property, public or
private, that no other code in `src/tipbeam` names is API only the tests
reach, or a helper a refactor left behind: its oracle belongs in
`tests/reference.py`, and the tests should call the door the commands use.
A name counts as used where it is read (`ast.Name`, `ast.Attribute`) or
imported; its own definition, its assignments and the reads inside its own
body (a recursive call) do not.
"""

import ast
from collections import Counter
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "tipbeam"


def _defined(tree: ast.Module, module: str):
    """(qualified name, bare name, defining node) of the module's top-level
    definitions and constants and of its classes' methods and properties."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield f"{module}.{node.name}", node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    yield f"{module}.{node.name}.{item.name}", item.name, item
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for name in (n for target in targets for n in ast.walk(target)):
                if isinstance(name, ast.Name):
                    yield f"{module}.{name.id}", name.id, node


def _read(tree: ast.AST):
    """Every name tree reads or imports."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name
            if node.asname:
                yield node.asname


def test_every_package_name_has_a_caller_in_the_package():
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(PACKAGE.glob("*.py"))}
    reads = Counter(name for tree in trees.values() for name in _read(tree))
    unused = [qualified for module, tree in trees.items()
              for qualified, name, node in _defined(tree, module)
              if not (name.startswith("__") and name.endswith("__"))
              and reads[name] == Counter(_read(node))[name]]
    assert not unused, f"named by no code in the package, only by tests: {unused}"
