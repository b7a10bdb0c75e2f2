"""Every private function, method or class of src/wittlab, and every
method of a private class but its dunders, is named again somewhere in
src/wittlab.

A name with one leading underscore is private to the package, so a
definition that no module of the package reads is dead code: a helper
whose last caller went, or a second copy that lost its callers to the
first.  The methods of a private class are private to the package too,
whatever their names, and as they are called through an attribute, only
an attribute of that name counts: a local variable of the same name is
not a call.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "wittlab"
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _private(name):
    return name.startswith("_") and not name.startswith("__")


def _private_definitions_and_references():
    """(private definitions, methods of private classes, names, attribute
    names), each definition keyed by its name, with its file and line."""
    defined, methods, named, attrs = {}, {}, set(), set()
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        where = path.relative_to(SRC)
        for node in ast.walk(tree):
            if isinstance(node, (*FUNCTIONS, ast.ClassDef)) \
                    and _private(node.name):
                defined[node.name] = f"{where}:{node.lineno}"
                if isinstance(node, ast.ClassDef):
                    for item in node.body:
                        if isinstance(item, FUNCTIONS) \
                                and not item.name.startswith("__"):
                            methods[item.name] = f"{where}:{item.lineno}"
            elif isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                attrs.add(node.attr)
            elif isinstance(node, ast.alias):
                named.add(node.asname or node.name)
    return defined, methods, named | attrs, attrs


def test_every_private_definition_is_named_again():
    defined, methods, named, attrs = _private_definitions_and_references()
    assert defined and methods  # the scan found the package
    assert sorted(f"{where} {name}" for name, where in defined.items()
                  if name not in named) == []
    assert sorted(f"{where} {name}" for name, where in methods.items()
                  if name not in attrs) == []


def test_every_public_definition_is_named_elsewhere_or_exported():
    # a top-level public function or class that no other place of
    # src/wittlab names is dead code unless the package exports it:
    # wittlab/__init__ and wittlab.fields import their exports, and an
    # import names what it imports
    defined, named = {}, set()
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in tree.body:
            if isinstance(node, (*FUNCTIONS, ast.ClassDef)) \
                    and not node.name.startswith("_"):
                defined[node.name] = f"{path.relative_to(SRC)}:{node.lineno}"
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif isinstance(node, ast.alias):
                named.add(node.asname or node.name)
    assert defined  # the scan found the package
    assert sorted(f"{where} {name}" for name, where in defined.items()
                  if name not in named) == []
