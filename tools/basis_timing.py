"""Interleaved in-process timings of basis_matrix in two trees.

    python tools/basis_timing.py PARENT CHANGE [--rounds 15]

PARENT and CHANGE are roots of checkouts. Both trees' addsel packages are
loaded under distinct names in one process, and their results are first
checked equal. A shape ROWS x COLS is len(x) x len(ks) with ks = 2..COLS+1.
Each round times each shape once per side as the best of 5 timeit repeats,
the side that goes first alternating. Prints one JSON object: per shape, the
medians over rounds in microseconds and the rounds the change was faster.
Set OPENBLAS_NUM_THREADS=1 for runs comparable with the benchmark's children.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import statistics
import sys
import timeit
from pathlib import Path

import numpy as np

SHAPES = [(16384, 6), (8192, 4), (800, 35), (2048, 4), (512, 4)]


def load_basis(tree: Path, name: str):
    """The tree's addsel.basis, imported with the package renamed to ``name``."""
    init = tree / "src" / "addsel" / "__init__.py"
    spec = importlib.util.spec_from_file_location(name, init,
                                                  submodule_search_locations=[str(init.parent)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return importlib.import_module(name + ".basis")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--rounds", type=int, default=15)
    args = parser.parse_args()
    sides = {"parent": load_basis(args.parent.resolve(), "addsel_parent"),
             "change": load_basis(args.change.resolve(), "addsel_change")}
    rng = np.random.default_rng(0)
    inputs = {s: (np.arange(2, s[1] + 2), rng.random(s[0])) for s in SHAPES}
    for ks, x in inputs.values():
        assert np.array_equal(sides["parent"].basis_matrix(ks, x),
                              sides["change"].basis_matrix(ks, x))
    times = {s: {side: [] for side in sides} for s in SHAPES}
    for r in range(args.rounds):
        order = ("parent", "change") if r % 2 == 0 else ("change", "parent")
        for s, (ks, x) in inputs.items():
            number = max(1, 20000 // s[0])
            for side in order:
                f = sides[side].basis_matrix
                best = min(timeit.repeat(lambda: f(ks, x), number=number, repeat=5))
                times[s][side].append(best / number * 1e6)
    report = {}
    for s in SHAPES:
        parent, change = times[s]["parent"], times[s]["change"]
        report[f"{s[0]}x{s[1]}"] = {
            "parent_us": statistics.median(parent), "change_us": statistics.median(change),
            "median_change": statistics.median(change) / statistics.median(parent) - 1,
            "change_faster_rounds": sum(c < p for p, c in zip(parent, change)),
            "rounds": args.rounds,
        }
    print(json.dumps(report, indent=1))


if __name__ == "__main__":
    main()
