"""Every name the package defines is used by the package itself.

A top-level function, class or constant, or a method or property, public or
private, that no other code in `src/tipbeam` names is API only the tests
reach, or a helper a refactor left behind: its oracle belongs in
`tests/reference.py`, and the tests should call the door the commands use.
A name counts as used where it is read (`ast.Name`, `ast.Attribute`) or
imported; its own definition, its assignments and the reads inside its own
body (a recursive call) do not.

The same holds for the fields of the package's dataclasses: a field that no
package code reads as an attribute is a value only the tests look at.  A
class that reads its own fields through `dataclasses.fields` reads them
all, and KEPT names the fields kept for the tests alone, with the reason.
"""

import ast
from collections import Counter
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "tipbeam"
# field -> why it stays although no package code reads it
KEPT = {
    "simulate.EnergyTrace.final_state":
        "the integrator tests compare the last state with the dense midpoint reference",
}


def _trees() -> dict:
    return {path.stem: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(PACKAGE.glob("*.py"))}


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


def _fields(tree: ast.Module, module: str):
    """(qualified name, field name, class node) of the fields of the
    module's dataclasses."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and any(
                getattr(getattr(d, "func", d), "id", None) == "dataclass"
                for d in node.decorator_list):
            for item in node.body:
                if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                    yield f"{module}.{node.name}.{item.target.id}", item.target.id, node


def _calls_fields(node: ast.ClassDef) -> bool:
    """Whether the class reads its own fields through dataclasses.fields."""
    return any(isinstance(call, ast.Call) and "fields" in {getattr(call.func, "id", None),
                                                           getattr(call.func, "attr", None)}
               for call in ast.walk(node))


def test_every_package_name_has_a_caller_in_the_package():
    trees = _trees()
    reads = Counter(name for tree in trees.values() for name in _read(tree))
    unused = [qualified for module, tree in trees.items()
              for qualified, name, node in _defined(tree, module)
              if not (name.startswith("__") and name.endswith("__"))
              and reads[name] == Counter(_read(node))[name]]
    assert not unused, f"named by no code in the package, only by tests: {unused}"


def test_every_dataclass_field_is_read_by_the_package():
    trees = _trees()
    reads = Counter(node.attr for tree in trees.values() for node in ast.walk(tree)
                    if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load))
    unread = [qualified for module, tree in trees.items()
              for qualified, name, node in _fields(tree, module)
              if not reads[name] and not _calls_fields(node) and qualified not in KEPT]
    assert not unread, f"fields no package code reads, only tests: {unread}"
    fields = {qualified for module, tree in trees.items()
              for qualified, _, _ in _fields(tree, module)}
    assert set(KEPT) <= fields, f"kept fields that are gone: {sorted(set(KEPT) - fields)}"
