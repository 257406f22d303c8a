"""Every benchmark workload's config parses under the current config schema.

A removed key or a new refusal in ``config`` would otherwise break the
benchmark only when it runs. ``perfbench/workloads.py`` is read here, never
edited.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from addsel.cli import COMMANDS
from addsel.config import parse_config

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def _workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    # a dataclass looks its module up in sys.modules while it is defined
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module.WORKLOADS


ALL = _workloads()


@pytest.mark.parametrize("name", sorted(ALL))
def test_workload_config_parses(name):
    workload = ALL[name]
    assert workload.command in COMMANDS
    cfg = parse_config(workload.config_text(seed=7))
    assert cfg["seed"] == 7
    assert workload.operations(cfg) >= 1
