"""No addsel module imports an underscore name from another addsel module.

A leading underscore marks a helper as private to its module; a rule other
modules need gets a public name in one home instead of a second copy or a
reach into another module's internals. Each ``src/addsel/*.py`` is parsed,
not imported.
"""

import ast
from pathlib import Path

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "addsel").glob("*.py"))


def _imports_from_addsel(node):
    if not isinstance(node, ast.ImportFrom):
        return False
    return node.level > 0 or (node.module or "").split(".")[0] == "addsel"


def test_no_private_names_imported_across_modules():
    assert SOURCES
    private = []
    for source in SOURCES:
        for node in ast.walk(ast.parse(source.read_text(), filename=str(source))):
            if _imports_from_addsel(node):
                private += [f"{source.name}:{node.lineno}: {alias.name}"
                            for alias in node.names if alias.name.startswith("_")]
    assert not private, private
