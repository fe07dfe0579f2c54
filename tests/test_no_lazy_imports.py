"""Nothing in the package is imported lazily: every `import` and
`from ... import` statement of `src/frobcalc/*.py` sits at module level,
outside every function and class body, so a module's dependencies are read
from its head and an import error shows when the module loads."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "frobcalc"
SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def lazy_imports(source, filename="<module>"):
    """The line of every import statement inside a function or class body,
    however deeply nested."""
    found = set()
    for scope in ast.walk(ast.parse(source, filename)):
        if isinstance(scope, SCOPES):
            found.update(node.lineno for node in ast.walk(scope) if isinstance(node, (ast.Import, ast.ImportFrom)))
    return sorted(found)


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda path: path.name)
def test_every_import_is_at_module_level(path):
    assert lazy_imports(path.read_text(), str(path)) == []


@pytest.mark.parametrize(
    "source,count",
    [
        ("import math\nfrom .polyring import mono_degree\n", 0),
        ("try:\n    import resource\nexcept ImportError:\n    resource = None\n", 0),
        ("if True:\n    import math\n", 0),
        ("def f():\n    import math\n    return math.pi\n", 1),
        ("def f():\n    from .koszul import codepth\n    return codepth\n", 1),
        ("async def f():\n    import math\n", 1),
        ("class A:\n    import math\n", 1),
        ("class A:\n    def g(self):\n        if self:\n            from . import koszul\n", 1),
        ("def f():\n    def g():\n        import math\n", 1),
    ],
)
def test_the_check_sees_what_it_forbids(source, count):
    assert len(lazy_imports(source)) == count
