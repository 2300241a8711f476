"""Every module-level import in the package is used by its module, and the
package imports its own modules at module level only."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "clprop"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")  # re-exports


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [alias.asname or alias.name for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in bound if name not in used]


def test_detects_an_unused_import():
    source = "import os\nimport json\nfrom pathlib import Path as P\nprint(json.dumps(1))\n"
    assert unused_imports(source) == ["os", "P"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    assert unused_imports(path.read_text()) == []


def function_level_package_imports(source: str) -> list[str]:
    """The relative imports made inside a function body."""
    tree = ast.parse(source)
    return [
        f"line {node.lineno}: from {'.' * node.level}{node.module or ''}"
        for func in ast.walk(tree)
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(func)
        if isinstance(node, ast.ImportFrom) and node.level > 0
    ]


def test_detects_a_function_level_package_import():
    source = (
        "from .graph import Graph\n"
        "def f():\n    from .metrics import accuracy\n    import json\n"
        "class C:\n    def g(self):\n        from . import synth\n"
    )
    assert function_level_package_imports(source) == ["line 3: from .metrics", "line 7: from ."]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_function_level_package_imports(path):
    assert function_level_package_imports(path.read_text()) == []
