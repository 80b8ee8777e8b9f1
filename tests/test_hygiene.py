"""Source hygiene of the package, checked with the standard library's ast:
every imported name is used, the package imports only the standard library,
NumPy and itself, every class reads JSON by the one rule, parse_json, and
writes it by its mirror, to_json; and importing the CLI loads no process
pool."""

import ast
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


@pytest.mark.parametrize("path", [m for m in MODULES if m.name != "__init__.py"],
                         ids=lambda m: m.name)
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
    "ScoreRow": "scores.jsonl stores the field variant_id under the key \"variant\"",
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


def test_importing_the_cli_loads_no_process_pool():
    """score forks its one child with os.fork; multiprocessing and
    concurrent.futures would add about 10 ms to every CLI start."""
    code = ("import sys, archsearch.cli; "
            "print(sorted({'multiprocessing', 'concurrent.futures'} & set(sys.modules)))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (str(PACKAGE.parent), os.environ.get("PYTHONPATH")))))
    done = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True, timeout=120)
    assert done.stdout.split("\n")[0] == "[]"
