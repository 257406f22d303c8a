"""The demos import only names that the library still has.

Each ``demos/*.py`` is parsed, not run, so the check costs milliseconds and
catches a renamed or deleted export before a demo does.
"""

import ast
import importlib
from pathlib import Path

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def test_demo_imports_resolve():
    assert DEMOS
    missing = []
    for demo in DEMOS:
        for node in ast.walk(ast.parse(demo.read_text(), filename=str(demo))):
            if isinstance(node, ast.ImportFrom) and node.module and \
                    node.module.split(".")[0] == "addsel":
                module = importlib.import_module(node.module)
                missing += [f"{demo.name}: {node.module}.{alias.name}"
                            for alias in node.names if not hasattr(module, alias.name)]
    assert not missing, missing
