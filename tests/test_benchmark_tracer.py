"""The names the benchmark tracer wraps must exist in the library.

``perfbench/tracer.py`` looks each one up when it installs, and raises on a
missing one, so a rename in ``src/`` would break every traced benchmark run.
The tracer file is read here, never edited.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_functions_and_methods_resolve():
    tracer = _tracer_module()
    for short, funcs in tracer.FUNCTIONS.items():
        module = importlib.import_module(f"addsel.{short}")
        for name in funcs:
            assert callable(getattr(module, name, None)), f"addsel.{short}.{name}"
    for span, (short, method, classes) in tracer.METHODS.items():
        module = importlib.import_module(f"addsel.{short}")
        if classes:
            owners = [getattr(module, c) for c in classes]
        else:
            owners = [v for v in vars(module).values()
                      if isinstance(v, type) and v.__module__ == module.__name__
                      and method in vars(v)]
        assert owners, span
        for owner in owners:
            assert method in vars(owner), f"{span}: {owner.__name__}.{method}"
