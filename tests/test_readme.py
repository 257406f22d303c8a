"""The README's ```python blocks run against the library as it is.

A removed or renamed argument in the Library tour then fails the suite
instead of the first reader who copies it.
"""

import re
import subprocess
import sys
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_blocks_run():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.S | re.M)
    assert blocks
    proc = subprocess.run([sys.executable, "-c", "\n".join(blocks)],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


def test_readme_module_names_resolve():
    # `geometry.GRID_SIZE` or `addsel.diagnostics.diagnose` in the prose must
    # name something the module has
    import importlib
    import pkgutil

    import addsel
    modules = {m.name for m in pkgutil.iter_modules(addsel.__path__)}
    spans = re.findall(r"`([^`\n]+)`", README.read_text())
    names = {(mod, attr) for span in spans
             for mod, attr in re.findall(r"(?<![\w./])(?:addsel\.)?(\w+)\.([A-Za-z_]\w*)", span)
             if mod in modules}
    assert names
    missing = [f"{mod}.{attr}" for mod, attr in sorted(names)
               if not hasattr(importlib.import_module(f"addsel.{mod}"), attr)]
    assert not missing
