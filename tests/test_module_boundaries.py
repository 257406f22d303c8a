"""No addsel module imports an underscore name from another addsel module,
and each imports only the modules below it in one layer order.

A leading underscore marks a helper as private to its module; a rule other
modules need gets a public name in one home instead of a second copy or a
reach into another module's internals. The layer order says where that home
can be: a helper both ``geometry`` and ``diagnostics`` use lives in ``basis``
or lower. No module reaches a private numpy or scipy name either, so a fast
path stays on public API, and no module imports scipy at all. Each
``src/addsel/*.py`` is parsed, not imported.
"""

import ast
from pathlib import Path

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "addsel").glob("*.py"))
#: every module but ``__init__``, lowest first; each imports only modules before it
LAYERS = ("errors", "config", "densities", "basis", "geometry", "unions", "selection",
          "simulate", "diagnostics", "estimate", "cli")


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


def _modules_imported(node):
    """The addsel modules an import statement names."""
    if isinstance(node, ast.Import):
        return [a.name.split(".")[1] for a in node.names if a.name.startswith("addsel.")]
    if not _imports_from_addsel(node):
        return []
    parts = (node.module or "").split(".")[0 if node.level else 1:]
    return [parts[0]] if parts and parts[0] else [alias.name for alias in node.names]


def test_modules_import_only_lower_layers():
    modules = [source for source in SOURCES if source.stem != "__init__"]
    assert sorted(source.stem for source in modules) == sorted(LAYERS)
    upward = []
    for source in modules:
        rank = LAYERS.index(source.stem)
        for node in ast.walk(ast.parse(source.read_text(), filename=str(source))):
            upward += [f"{source.name}:{node.lineno}: {mod}" for mod in _modules_imported(node)
                       if LAYERS.index(mod) >= rank]
    assert not upward, upward


#: names under which the modules reach numpy and scipy
NUMERIC = ("np", "numpy", "scipy")


def _private_numeric_uses(tree):
    """Lines where an attribute chain or import on numpy or scipy passes
    through an underscore name, such as ``np.linalg._umath_linalg``."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            chain = []
            while isinstance(node, ast.Attribute):
                chain.append(node.attr)
                node = node.value
            if isinstance(node, ast.Name) and node.id in NUMERIC:
                if any(name.startswith("_") for name in chain):
                    found.add(node.lineno)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [alias.name for alias in node.names]
            if isinstance(node, ast.ImportFrom):
                if node.level or (node.module or "").split(".")[0] not in NUMERIC:
                    continue
                names = [f"{node.module}.{name}" for name in names]
            if any(name.split(".")[0] in NUMERIC
                   and any(part.startswith("_") for part in name.split("."))
                   for name in names):
                found.add(node.lineno)
    return sorted(found)


def test_no_private_numpy_or_scipy_api():
    for probe in ("np.linalg._umath_linalg.cholesky_lo(a)",
                  "from numpy.linalg import _umath_linalg",
                  "import scipy.linalg._flapack"):
        assert _private_numeric_uses(ast.parse(probe)) == [1], probe
    assert _private_numeric_uses(ast.parse("np.linalg.cholesky(a)\nimport numpy as np")) == []
    private = [f"{source.name}:{line}" for source in SOURCES
               for line in _private_numeric_uses(ast.parse(source.read_text(),
                                                            filename=str(source)))]
    assert not private, private


def _scipy_imports(tree):
    """Lines of the import statements in ``tree`` that load scipy or a submodule."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module or ""]
        else:
            continue
        if any(name.split(".")[0] == "scipy" for name in names):
            found.append(node.lineno)
    return found


def test_no_module_imports_scipy():
    # the normal cdf and its inverse are ports in densities, so the package
    # runs on numpy alone; scipy is only the tests' reference
    for probe in ("import scipy", "from scipy.special import ndtr",
                  "import numpy, scipy.special as sp", "def f():\n    from scipy import stats"):
        assert _scipy_imports(ast.parse(probe)), probe
    assert _scipy_imports(ast.parse("import numpy.random\nfrom .densities import ndtr")) == []
    found = [f"{source.name}:{line}" for source in SOURCES
             for line in _scipy_imports(ast.parse(source.read_text(), filename=str(source)))]
    assert not found, found
