"""Every name a module of src/wittlab imports is read in that module,
every import of src/wittlab is made at module level, and importing the
package and its CLI loads neither `dataclasses` nor `inspect`.

The two package `__init__.py` files are exempt from the first check:
their imports are the public re-exports.
"""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "wittlab"
FILES = sorted(SRC.rglob("*.py"))
MODULES = [p for p in FILES if p.name != "__init__.py"]
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.partition(".")[0]
                imported[name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in read)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(SRC)))
def test_no_unused_imports(path):
    assert _unused_imports(path) == []


def _function_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    return sorted(node.lineno for fn in ast.walk(tree)
                  if isinstance(fn, FUNCTIONS) for node in ast.walk(fn)
                  if isinstance(node, (ast.Import, ast.ImportFrom)))


@pytest.mark.parametrize("path", FILES, ids=lambda p: str(p.relative_to(SRC)))
def test_no_import_inside_a_function(path):
    # an import in a function body hides a dependency of the module
    # from its header and runs again on every call
    assert _function_imports(path) == []


def test_import_loads_neither_dataclasses_nor_inspect():
    # a CLI call is mostly start-up; -S keeps site's own imports out
    code = ("import sys; sys.path.insert(0, sys.argv[1]); "
            "import wittlab, wittlab.cli; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-S", "-c", code, str(SRC.parent)],
                         capture_output=True, text=True, check=True).stdout
    assert out.strip() == "[]"
