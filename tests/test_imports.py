"""Every module-level import in the package is used by its module, the
package imports its own modules at module level only, the command line
imports no private name of the package, only the named writers open files
for writing, every module defines only what another module, a benchmark
probe or the command line reaches, and every defaulted parameter of a
top-level function is passed by some call in the package or the benchmark."""

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


def package_reads(source: str, module: str) -> set[str]:
    """The names ``source`` imports from the package module ``module``, and
    the attributes it reads on that module where it binds the module itself;
    relative (``from .graph import ...``, ``from . import graph``) and
    absolute (``from clprop.graph import ...``, ``from clprop import graph``)
    imports alike."""
    tree = ast.parse(source)
    names, bound = set(), set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        origin = (node.level, node.module)
        if origin in ((1, module), (0, f"clprop.{module}")):
            names |= {alias.name for alias in node.names}
        elif origin in ((1, None), (0, "clprop")):
            bound |= {alias.asname or alias.name for alias in node.names if alias.name == module}
    return names | {
        node.attr for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
        and node.value.id in bound
    }


def test_detects_package_reads():
    source = (
        "from .graph import Graph, one_hot\nfrom . import metrics as m, synth\n"
        "from clprop import graph as g\nm.accuracy(g.make_splits(x).train, synth.H)\n"
    )
    assert package_reads(source, "graph") == {"Graph", "one_hot", "make_splits"}
    assert package_reads(source, "metrics") == {"accuracy"}
    assert package_reads(source, "pipeline") == set()


# Top-level names that no command reaches, kept because the tests compare a
# command's output against them.
TEST_READERS = {
    # the per-node h_v, the reference for the vectorised h_v of the histogram
    # and the bucket table
    "metrics.py": ["local_homophily"],
    # the checkpoint reader, which proves that checkpoint.bin round-trips
    "mlp.py": ["load_params"],
}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_defines_only_what_a_command_or_a_probe_reaches(path, monkeypatch):
    """A module's roots are what the other modules import or read from it,
    what the benchmark's probes wrap and its workloads read, and ``cli.main``."""
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    module = path.stem
    probes = {probe.attr for probe in importlib.import_module("workloads").PROBES
              if probe.module == f"clprop.{module}"}
    readers = [p for p in MODULES if p != path] + [BENCHMARKS / "workloads.py"]
    roots = probes | ({"main"} if module == "cli" else set())
    for reader in readers:
        roots |= package_reads(reader.read_text(), module)
    assert unreached_names(path.read_text(), roots) == TEST_READERS.get(path.name, [])


def unpassed_defaults(functions_source: str, callers: list[str]) -> list[str]:
    """The defaulted parameters of the top-level functions of
    ``functions_source`` that no call in ``callers`` passes, by position or
    by keyword.  A call matches by the function's name, bare or as an
    attribute; ``*args`` passes every positional parameter and ``**kwargs``
    every parameter."""
    passed: dict[str, set] = {}
    for source in callers:
        for call in ast.walk(ast.parse(source)):
            if not isinstance(call, ast.Call):
                continue
            func = call.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            got = passed.setdefault(name, set())
            starred = any(isinstance(arg, ast.Starred) for arg in call.args)
            got |= {"*"} if starred else set(range(len(call.args)))
            got |= {"**" if kw.arg is None else kw.arg for kw in call.keywords}
    missing = []
    for node in ast.parse(functions_source).body:
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        args = node.args
        positional = args.posonlyargs + args.args
        first = len(positional) - len(args.defaults)
        defaulted = [(i, a.arg) for i, a in enumerate(positional) if i >= first]
        defaulted += [(None, a.arg) for a, d in zip(args.kwonlyargs, args.kw_defaults)
                     if d is not None]
        got = passed.get(node.name, set())
        missing += [
            f"{node.name}({param})" for i, param in defaulted
            if not {param, "**"} & got and (i is None or not {i, "*"} & got)
        ]
    return missing


def test_detects_an_unpassed_default():
    source = (
        "def f(a, b=1, c=2, *, d=3):\n    pass\n"
        "def g(a=1, b=2):\n    pass\n"
        "def h(a=1):\n    pass\n"
        "def k(a, b=1):\n    pass\n"
        "class C:\n    def m(self, a=1):\n        pass\n"
    )
    callers = ["f(0, 1)\nmod.f(0, d=4)\nk(0)\n", "g(*xs)\nh(**kw)\nC().m()\n"]
    assert unpassed_defaults(source, callers) == ["f(c)", "k(b)"]


def test_every_default_is_passed_by_a_command_or_the_benchmark():
    """A parameter only the tests pass is a setting no command uses; make it
    a constant that the tests patch instead."""
    callers = [p.read_text() for p in sorted(PACKAGE.glob("*.py"))]
    callers += [p.read_text() for p in sorted(BENCHMARKS.glob("*.py"))]
    missing = [f"{path.stem}.{name}" for path in MODULES
               for name in unpassed_defaults(path.read_text(), callers)]
    assert missing == []
