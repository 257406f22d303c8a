"""Byte comparison of the CLI artifacts and demo outputs of two trees.

    python tools/artifact_diff.py PARENT CHANGE [--seeds 7,2401]

PARENT and CHANGE are roots of checkouts. At each seed, every config runs
``python -m addsel.cli COMMAND --config run.cfg --out run.jsonl`` once per
tree, with ``PYTHONPATH=TREE/src``, in a fresh directory, so both manifests
record the same config path. The
configs are each benchmark workload of PARENT's ``perfbench/workloads.py``
(read, not edited) and the extra ones below: a copula eq7 ``simulate``, a
custom-density ``diagnose``, a copula and a custom-density ``estimate`` and
an m = 3 uniform ``geometry``. The four demos run once per tree and their
standard output is compared. Each output is compared with its exit code.
Prints one JSON object (the outputs that differ, those whose parent run
exited nonzero, and per output whether it is identical) and exits 1 on any
difference.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

#: a tilted marginal table, as in the custom-density tests
TABLE = "design.kind = custom-density\ndesign.table = " + ", ".join(
    f"{1 + 0.8 * ((i % 16) - 7.5) / 7.5:.6f}" for i in range(64)) + "\n"
EXTRA = {
    "simulate-copula-eq7": ("simulate",
                            "design.kind = gaussian-copula\ndesign.r = 0.3\n"
                            "n = 400\nq = 6\ns = 2\nqstar = 2\nm_rule = eq7\nsigma = 0.5\n"
                            "cprime = 0.002\ntrials = 4\n"),
    "diagnose-custom": ("diagnose",
                        TABLE + "n = 300\nq = 6\ns = 2\nqstar = 2\nm_rule = fixed:4\n"),
    "estimate-copula": ("estimate",
                        "design.kind = gaussian-copula\ndesign.r = 0.3\n"
                        "q = 4\ns = 2\nqstar = 2\nm_rule = fixed:5\ntarget = 0\n"
                        "n_grid = 128,256,512\nreps = 4\n"),
    "estimate-custom": ("estimate",
                        TABLE + "q = 4\ns = 2\nqstar = 2\nm_rule = fixed:5\ntarget = 1\n"
                        "m_target = 6\nn_grid = 128,256,512\nreps = 4\n"),
    "geometry-m3": ("geometry", "q = 6\ns = 2\nqstar = 2\nm_rule = fixed:3\n"),
}


def configs(tree: Path, seed: int) -> dict:
    """name -> (command, config text at the seed): the workloads, then EXTRA."""
    spec = importlib.util.spec_from_file_location("_workloads",
                                                  tree / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses looks its module up
    spec.loader.exec_module(module)
    out = {w.name: (w.command, w.config_text(seed)) for w in module.WORKLOADS.values()}
    return {**out, **{k: (c, text + f"seed = {seed}\n") for k, (c, text) in EXTRA.items()}}


def run(tree: Path, argv: list, cwd: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    return subprocess.run([sys.executable, *argv], cwd=cwd, env=env, capture_output=True)


def artifact(tree: Path, command: str, text: str) -> tuple:
    """(exit code, artifact bytes) of one CLI call on the config text."""
    with tempfile.TemporaryDirectory() as work:
        Path(work, "run.cfg").write_text(text)
        proc = run(tree, ["-m", "addsel.cli", command, "--config", "run.cfg",
                          "--out", "run.jsonl"], work)
        out = Path(work, "run.jsonl")
        return proc.returncode, out.read_bytes() if out.exists() else proc.stderr


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--seeds", default="7,2401")
    args = parser.parse_args()
    trees = (args.parent.resolve(), args.change.resolve())
    outputs = {}
    for seed in map(int, args.seeds.split(",")):
        for name, (command, text) in configs(trees[0], seed).items():
            outputs[f"{name} seed {seed}"] = [artifact(tree, command, text) for tree in trees]
    for demo in sorted(p.name for p in (trees[0] / "demos").glob("demo_*.py")):
        with tempfile.TemporaryDirectory() as work:
            outputs[demo] = [(p.returncode, p.stdout) for p in
                             (run(tree, [str(tree / "demos" / demo)], work) for tree in trees)]
    differ = sorted(k for k, (a, b) in outputs.items() if a != b)
    print(json.dumps({"parent": str(trees[0]), "change": str(trees[1]),
                      "outputs": len(outputs), "differ": differ,
                      "nonzero_exit": sorted(k for k, (a, _) in outputs.items() if a[0]),
                      "identical": {k: a == b for k, (a, b) in outputs.items()}}, indent=1))
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
