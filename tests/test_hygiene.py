"""Source hygiene of the package, checked with the standard library's ast:
every imported name is used, the package imports only the standard library,
NumPy and itself, every class reads JSON by the one rule, parse_json, and
writes it by its mirror, to_json; one function runs a forward's layers;
every function the benchmark's tracer wraps still exists; importing the
CLI loads no process pool; and the package root re-exports nothing."""

import ast
import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

import archsearch

PACKAGE = Path(archsearch.__file__).parent
MODULES = sorted(PACKAGE.glob("*.py"))
ALLOWED_ROOTS = set(sys.stdlib_module_names) | {"numpy", "archsearch"}


def _imports(tree: ast.Module):
    """(bound name, top-level module or None for a relative import) of each import."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield (alias.asname or alias.name.split(".")[0]), alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom):
            root = node.module.split(".")[0] if node.level == 0 else None
            for alias in node.names:
                yield alias.asname or alias.name, root


def _used_names(tree: ast.AST) -> set[str]:
    """Names read anywhere, including inside string annotations."""
    used = set()
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
    for annotation in filter(None, annotations):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                used |= _used_names(ast.parse(node.value, mode="eval"))
    return used


def _parse(path: Path):
    return ast.parse(path.read_text(), filename=str(path))


@pytest.mark.parametrize("path", MODULES, ids=lambda m: m.name)
def test_every_imported_name_is_used(path):
    tree = _parse(path)
    used = _used_names(tree)
    unused = [name for name, root in _imports(tree)
              if root != "__future__" and name not in used]
    assert unused == [], f"{path.name} imports {unused} without using them"


@pytest.mark.parametrize("path", MODULES, ids=lambda m: m.name)
def test_imports_only_stdlib_numpy_and_the_package(path):
    roots = {root for _, root in _imports(_parse(path)) if root is not None}
    assert roots <= ALLOWED_ROOTS, f"{path.name} imports {sorted(roots - ALLOWED_ROOTS)}"


@pytest.mark.parametrize("path", MODULES, ids=lambda m: m.name)
def test_every_from_json_is_parse_json(path):
    """No class parses JSON by hand: each from_json is classmethod(parse_json)."""
    for cls in (n for n in ast.walk(_parse(path)) if isinstance(n, ast.ClassDef)):
        for node in cls.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                assert node.name != "from_json", f"{path.name}: {cls.name} defines from_json"
            elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "from_json" for t in node.targets
            ):
                assert ast.unparse(node.value) == "classmethod(parse_json)", (
                    f"{path.name}: {cls.name}.from_json is {ast.unparse(node.value)}"
                )


# The classes whose JSON is not model.to_json of their fields, and why.
OWN_TO_JSON = {
    "KvQuantReport": "its JSON is a per-layer view derived from its tallies",
}


@pytest.mark.parametrize("path", MODULES, ids=lambda m: m.name)
def test_every_to_json_is_the_one_rule(path):
    """No class writes JSON by hand, except those OWN_TO_JSON names."""
    for cls in (n for n in ast.walk(_parse(path)) if isinstance(n, ast.ClassDef)):
        for node in cls.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                    and node.name == "to_json":
                assert cls.name in OWN_TO_JSON, f"{path.name}: {cls.name} defines to_json"


def _fresh_python(code: str) -> list[str]:
    """The lines `code` prints in a fresh interpreter that imports this package."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (str(PACKAGE.parent), os.environ.get("PYTHONPATH")))))
    done = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True, timeout=120)
    return done.stdout.splitlines()


def test_importing_the_cli_loads_no_process_pool():
    """score forks its one child with os.fork, and the two processes share
    the attention variants through a plain os.pipe of job ids;
    multiprocessing and concurrent.futures would add about 10 ms to every
    CLI start."""
    code = ("import sys, archsearch.cli; "
            "print(sorted({'multiprocessing', 'concurrent.futures'} & set(sys.modules)))")
    assert _fresh_python(code)[0] == "[]"


def test_the_package_root_binds_only_its_version():
    """Callers import the module they use (from archsearch import scoring), so
    the root re-exports nothing: `import archsearch` binds no public name,
    only __version__, and loads none of the package's modules."""
    code = ("import sys, archsearch; "
            "print(sorted(n for n in vars(archsearch) if not n.startswith('_'))); "
            "print(sorted(m for m in sys.modules if m.startswith('archsearch.'))); "
            "print(archsearch.__version__)")
    assert _fresh_python(code) == ["[]", "[]", archsearch.__version__]


def _readers(name: str) -> list[tuple[str, str | None]]:
    """(module, innermost enclosing function or None) of every read of
    `name`, as a bare name or an attribute, in the package."""
    found = []

    def visit(node: ast.AST, module: str, where: str | None) -> None:
        for child in ast.iter_child_nodes(node):
            if (isinstance(child, ast.Name) and child.id == name) or (
                isinstance(child, ast.Attribute) and child.attr == name
            ):
                found.append((module, where))
            inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                else where
            visit(child, module, inner)

    for path in MODULES:
        visit(_parse(path), path.stem, None)
    return found


def test_one_function_runs_the_layers():
    """Every forward, cached or not, from layer 0 or resumed at one layer,
    runs its layers through model._layer_walk, the one caller of
    model._layer_step."""
    assert _readers("_layer_step") == [("model", "_layer_walk")]


def test_every_function_the_tracer_wraps_exists(monkeypatch):
    """bench/tracer.py wraps the functions its TARGETS name; a name the
    package lost would drop the per-layer metrics it feeds from every traced
    run. The tracer is loaded from its file without writing bytecode there."""
    path = PACKAGE.parents[1] / "bench" / "tracer.py"
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("_bench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracer)  # dataclasses look it up
    spec.loader.exec_module(tracer)
    assert tracer.TARGETS
    missing = []
    for module_name, attr, *_ in tracer.TARGETS:
        owner = importlib.import_module(module_name)
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(f"{module_name}.{attr}")
    assert missing == []
