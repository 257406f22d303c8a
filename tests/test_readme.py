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
