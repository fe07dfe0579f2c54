"""Module boundaries inside the package: a name with a leading underscore
belongs to the module that defines it.  No module imports another's private
name, and `x._name` is read only in the module where `_name` is defined (a
def, a class, or an assignment target).  Dunder names are exempt."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "frobcalc"


def is_private(name):
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def defined_names(tree):
    """Every name the module defines: defs, classes and assignment targets,
    attribute targets such as `self._index = ...` among them."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
            names.add(node.attr)
    return names


def boundary_violations(source, filename="<module>"):
    """(line, message) for every private name the module takes from
    another module."""
    tree = ast.parse(source, filename)
    own = defined_names(tree)
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            for alias in node.names:
                if is_private(alias.name):
                    found.append((node.lineno, f"imports {alias.name} from .{node.module or ''}"))
        elif isinstance(node, ast.Attribute) and is_private(node.attr) and node.attr not in own:
            found.append((node.lineno, f"reads .{node.attr}, defined in another module"))
    return found


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda path: path.name)
def test_no_module_reaches_into_another(path):
    assert boundary_violations(path.read_text(), str(path)) == []


@pytest.mark.parametrize(
    "source,count",
    [
        ("from .koszul import _check_bound\n", 1),
        ("from . import _helpers\n", 1),
        ("from .koszul import check_bound as _check\n", 0),
        ("def f(big):\n    return big._walk(10)\n", 1),
        ("class A:\n    def _walk(self):\n        pass\n\n    def g(self):\n        return self._walk()\n", 0),
        ("class A:\n    def __init__(self):\n        self._index = {}\n\n    def g(self):\n        return self._index\n", 0),
        ("x = int.__repr__(3)\n", 0),
        ("from .polyring import DEFAULT_MAX_MONOMIALS\n", 0),
    ],
)
def test_the_check_sees_what_it_forbids(source, count):
    assert len(boundary_violations(source)) == count
