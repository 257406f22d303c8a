"""The demos use only names and keyword arguments that the library still has.

Each ``demos/*.py`` is parsed, not run, so the checks cost milliseconds and
catch a renamed or deleted export, or a removed keyword, before a demo does.
"""

import ast
import importlib
import inspect
from pathlib import Path

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def _addsel_imports(tree):
    """(module, alias) for each name imported from an addsel module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module and \
                node.module.split(".")[0] == "addsel":
            module = importlib.import_module(node.module)
            for alias in node.names:
                yield module, alias


def _unknown_keywords(source):
    """``name(kw=)`` for each keyword passed to an imported addsel callable, or
    to an attribute of one (``BasisSpec.create``), that its signature lacks."""
    tree = ast.parse(source)
    imported = {alias.asname or alias.name: getattr(module, alias.name)
                for module, alias in _addsel_imports(tree) if hasattr(module, alias.name)}
    unknown = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name):
            target = imported.get(func.id)
        elif isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name) and \
                func.value.id in imported:
            target = getattr(imported[func.value.id], func.attr, None)
        else:
            continue
        if not callable(target):
            continue
        params = inspect.signature(target).parameters
        if any(p.kind is inspect.Parameter.VAR_KEYWORD for p in params.values()):
            continue
        unknown += [f"{ast.unparse(func)}({kw.arg}=)" for kw in node.keywords
                    if kw.arg is not None and kw.arg not in params]
    return unknown


def test_demo_imports_resolve():
    assert DEMOS
    missing = []
    for demo in DEMOS:
        tree = ast.parse(demo.read_text(), filename=str(demo))
        missing += [f"{demo.name}: {module.__name__}.{alias.name}"
                    for module, alias in _addsel_imports(tree)
                    if not hasattr(module, alias.name)]
    assert not missing, missing


def test_demo_keywords_exist():
    assert _unknown_keywords("from addsel import select_exhaustive as se\n"
                             "se(ds, spec, 3, 0.0, budget=10)\n") == ["se(budget=)"]
    unknown = [f"{demo.name}: {call}" for demo in DEMOS
               for call in _unknown_keywords(demo.read_text())]
    assert not unknown, unknown
