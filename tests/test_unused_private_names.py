"""Every private function, method or class of src/wittlab is named again
somewhere in src/wittlab.

A name with one leading underscore is private to the package, so a
definition that no module of the package reads is dead code: a helper
whose last caller went, or a second copy that lost its callers to the
first.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "wittlab"


def _private_definitions_and_references():
    defined, named = {}, set()
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)) \
                    and node.name.startswith("_") \
                    and not node.name.startswith("__"):
                defined[node.name] = f"{path.relative_to(SRC)}:{node.lineno}"
            elif isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif isinstance(node, ast.alias):
                named.add(node.asname or node.name)
    return defined, named


def test_every_private_definition_is_named_again():
    defined, named = _private_definitions_and_references()
    assert defined  # the scan found the package
    assert sorted(f"{where} {name}" for name, where in defined.items()
                  if name not in named) == []
