"""Every module-level import in the package is used by its module, the
package imports its own modules at module level only, the command line
imports no private name of the package, only the named writers open files
for writing, and propagation.py defines only what the pipeline or a
benchmark probe reaches."""

import ast
import importlib
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "clprop"
BENCHMARKS = PACKAGE.parent.parent / "benchmarks"
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


def private_package_imports(source: str) -> list[str]:
    """The ``_``-prefixed names imported from the package (relative imports)."""
    return [
        alias.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom) and node.level > 0
        for alias in node.names
        if alias.name.startswith("_")
    ]


def test_detects_a_private_package_import():
    source = (
        "from .graph import Graph, _resolve\nfrom . import _util\n"
        "from os import _exit\nfrom .pipeline import run as _run\n"
    )
    assert private_package_imports(source) == ["_resolve", "_util"]


def test_cli_imports_no_private_package_name():
    # a subcommand makes its pipeline call through the public entry points
    assert private_package_imports((PACKAGE / "cli.py").read_text()) == []


# the functions allowed to open a file for writing: CSV text goes through
# pipeline._write_csv (which calls _atomic_write); the dataset files, the
# manifest and the binary checkpoint keep their own writers
FILE_WRITERS = {
    "pipeline.py": {"_atomic_write"},
    "graph.py": {"_write_rows", "save_graph"},
    "mlp.py": {"save_params"},
}


def write_opens(source: str) -> list[str]:
    """The functions that call ``open`` with a mode that writes, appends or creates."""
    found = []
    for func in ast.walk(ast.parse(source)):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(func):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "open":
                modes = node.args[1:2] + [kw.value for kw in node.keywords if kw.arg == "mode"]
                if any(not isinstance(m, ast.Constant) or set(str(m.value)) & set("wax+") for m in modes):
                    found.append(func.name)
    return found


def test_detects_a_file_write():
    source = (
        "def read(p):\n    return open(p).read()\n"
        "def text(p):\n    with open(p, 'w') as fh:\n        fh.write('x')\n"
        "def binary(p):\n    open(p, mode='ab').close()\n"
        "def chosen(p, m):\n    open(p, m).close()\n"
    )
    assert write_opens(source) == ["text", "binary", "chosen"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_the_named_writers_open_files_for_writing(path):
    allowed = FILE_WRITERS.get(path.name, set())
    assert [name for name in write_opens(path.read_text()) if name not in allowed] == []


def loaded_names(node: ast.AST) -> set[str]:
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}


def unreached_names(source: str, roots: set[str]) -> list[str]:
    """The top-level names of ``source`` that no chain of references from
    ``roots`` reaches, in the order they are defined."""
    definitions = {}
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            definitions[node.name] = node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            definitions.update((t.id, node) for t in targets if isinstance(t, ast.Name))
    reached, todo = set(), list(roots & definitions.keys())
    while todo:
        name = todo.pop()
        if name not in reached:
            reached.add(name)
            todo += loaded_names(definitions[name]) & definitions.keys()
    return [name for name in definitions if name not in reached]


def test_detects_an_unreached_name():
    source = (
        "LIMIT = 5\nclass Error(Exception):\n    pass\n"
        "def _helper():\n    return 1\n"
        "def used():\n    return _helper()\n"
        "def oracle(n):\n    if n > LIMIT:\n        raise Error\n"
    )
    assert unreached_names(source, {"used", "print"}) == ["LIMIT", "Error", "oracle"]


def test_propagation_defines_only_what_the_pipeline_or_a_probe_reaches(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    probes = {probe.attr for probe in importlib.import_module("workloads").PROBES}
    roots = loaded_names(ast.parse((PACKAGE / "pipeline.py").read_text())) | probes
    assert unreached_names((PACKAGE / "propagation.py").read_text(), roots) == []
