"""Every defaulted parameter earns its place: each one of a function in
`src/frobcalc` is passed by some call in `src/`, `tests/` or `demos/`, by
keyword, by position, or through `*args` / `**kwargs`.  A parameter no
caller sets is a constant and belongs in the body.

Calls are matched to functions by name alone, `f(...)` and `x.f(...)`
alike, and a `ClassName(...)` call counts for the class's `__init__`.  A
method's positions start after `self` (or `cls`), unless it is a
staticmethod.  Matching by name can only find a parameter set that is
not, never the other way round."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "frobcalc"
CALLERS = sorted(path for folder in ("src", "tests", "demos") for path in (ROOT / folder).rglob("*.py"))


def defaulted_parameters(tree):
    """(name called, function, parameter, position or None) for every
    defaulted parameter; the position is None for a keyword-only one."""
    found = []

    def visit(node, in_class):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, child.name)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                static = any(isinstance(d, ast.Name) and d.id == "staticmethod" for d in child.decorator_list)
                skip = 1 if in_class and not static else 0
                called = in_class if in_class and child.name == "__init__" else child.name
                args = child.args
                positional = args.posonlyargs + args.args
                first = len(positional) - len(args.defaults)
                for index in range(first, len(positional)):
                    found.append((called, child.name, positional[index].arg, index - skip))
                for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                    if default is not None:
                        found.append((called, child.name, arg.arg, None))
                visit(child, None)

    visit(tree, None)
    return found


def calls(trees):
    """name called -> [(positional count before any *args, has *args,
    keywords, has **kwargs)] over every call in the trees."""
    out = {}
    for tree in trees:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else func.attr if isinstance(func, ast.Attribute) else None
            if name is None:
                continue
            starred = [i for i, arg in enumerate(node.args) if isinstance(arg, ast.Starred)]
            count = starred[0] if starred else len(node.args)
            keywords = {kw.arg for kw in node.keywords if kw.arg is not None}
            double = any(kw.arg is None for kw in node.keywords)
            out.setdefault(name, []).append((count, bool(starred), keywords, double))
    return out


def unset_defaults(package_trees, caller_trees):
    """`function(parameter)` for every defaulted parameter no call sets."""
    seen = calls(caller_trees)
    unset = []
    for tree in package_trees:
        for called, function, parameter, position in defaulted_parameters(tree):
            def sets(call):
                count, starred, keywords, double = call
                if parameter in keywords or double:
                    return True
                return position is not None and (position < count or starred)

            if not any(map(sets, seen.get(called, ()))):
                unset.append(f"{function}({parameter})")
    return unset


def parse(path):
    return ast.parse(path.read_text(), str(path))


def test_every_defaulted_parameter_is_set_by_some_call():
    package = [parse(path) for path in sorted(PACKAGE.glob("*.py"))]
    assert unset_defaults(package, [parse(path) for path in CALLERS]) == []


@pytest.mark.parametrize(
    "source,unset",
    [
        ("def f(a, b=1):\n    pass\n", ["f(b)"]),
        ("def f(a, b=1):\n    pass\nf(0, 2)\n", []),
        ("def f(a, b=1):\n    pass\nf(0, b=2)\n", []),
        ("def f(a, b=1):\n    pass\nf(0)\nx.f(0, 2)\n", []),
        ("def f(a, b=1, c=2):\n    pass\nf(0, 1)\n", ["f(c)"]),
        ("def f(a, b=1):\n    pass\nf(*args)\n", []),
        ("def f(a, b=1):\n    pass\nf(**guard)\n", []),
        ("def f(a, *, b=1):\n    pass\nf(0, 1)\n", ["f(b)"]),
        ("def f(a, *, b=1):\n    pass\nf(0, b=1)\n", []),
        ("def f(a, b=1):\n    pass\ng(0, b=2)\n", ["f(b)"]),
        ("class A:\n    def __init__(self, a=1):\n        pass\nA()\n", ["__init__(a)"]),
        ("class A:\n    def __init__(self, a=1):\n        pass\nA(2)\n", []),
        ("class A:\n    def m(self, a, b=1):\n        pass\nx.m(0)\n", ["m(b)"]),
        ("class A:\n    def m(self, a, b=1):\n        pass\nx.m(0, 1)\n", []),
        ("class A:\n    @classmethod\n    def m(cls, a, b=1):\n        pass\nA.m(0, 1)\n", []),
        ("class A:\n    @staticmethod\n    def m(a, b=1):\n        pass\nA.m(0)\n", ["m(b)"]),
        ("class A:\n    @staticmethod\n    def m(a, b=1):\n        pass\nA.m(0, 1)\n", []),
        ("def f():\n    def g(a=1):\n        pass\n    return g()\n", ["g(a)"]),
    ],
)
def test_the_check_sees_what_it_forbids(source, unset):
    tree = ast.parse(source)
    assert unset_defaults([tree], [tree]) == unset
