"""Minor page faults and tracemalloc peaks of the benchmark workloads, for one or two trees.

    python tools/alloc_probe.py [--seed N] [--repeat R] TREE [TREE ...]

Each TREE is the root of a checkout (its ``src/`` is put first on the path).
For every workload in ``perfbench/workloads.py`` of the first tree, R fresh
interpreters each make one ``addsel.cli.main`` call, as a benchmark child
does (BLAS thread variables removed, ``PYTHONDONTWRITEBYTECODE=1``), and report:

- ``import_minflt``: ``ru_minflt`` spent importing ``addsel.cli``;
- ``main_minflt``: ``ru_minflt`` spent in the ``main()`` call;
- ``main_peak_mb``: tracemalloc's peak over a second, traced ``main()`` call
  in the same process (numpy reports its buffers to tracemalloc);
- ``kernels``: tracemalloc peaks of ``select_on_blocks`` on an n = 800, q = 8,
  m = 36 design and of ``basis_matrix`` at 16384 x 6, in MB, and the largest
  union stack ``block_column_chunks`` yields on ``diagnose-wide``'s shape, in KiB.

Prints one JSON object: tree -> workload -> medians over the R processes.
Minor faults depend on glibc's malloc (allocations of 128 KiB or more are
mmapped; see mallopt(3), M_MMAP_THRESHOLD); tracemalloc peaks do not.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

CHILD = r"""
import json, resource, sys, tracemalloc
cfg_path, command = sys.argv[1], sys.argv[2]
flt = lambda: resource.getrusage(resource.RUSAGE_SELF).ru_minflt
f0 = flt()
import addsel.cli
f1 = flt()
args = [command, "--config", cfg_path, "--out", cfg_path + ".out"]
assert addsel.cli.main(args) == 0
f2 = flt()
tracemalloc.start()
addsel.cli.main(args)
peak = tracemalloc.get_traced_memory()[1]
tracemalloc.stop()
print(json.dumps({"import_minflt": f1 - f0, "main_minflt": f2 - f1,
                  "main_peak_mb": peak / 2 ** 20}))
"""

KERNELS = r"""
import json, tracemalloc
import numpy as np
from addsel import BasisSpec, basis_matrix, build_design_blocks
from addsel.basis import block_column_chunks, block_slices
from addsel.selection import select_on_blocks
from addsel.unions import union_collection

def peak(f):
    tracemalloc.start()
    try:
        f()
        return tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()

rng = np.random.default_rng(7)
spec = BasisSpec.create(8, 36)
blocks = build_design_blocks(rng.random((800, 8)), spec)
Y = rng.standard_normal(800)
x = rng.random(16384)
stack = max(8 * cols.shape[0] * cols.shape[1] ** 2 for _, cols in
            block_column_chunks(block_slices([4] * 40), union_collection(40, 3, (0, 1))))
print(json.dumps({
    "select_on_blocks_peak_mb": peak(lambda: select_on_blocks(blocks, Y, spec, 2, 0.25)),
    "basis_matrix_16384x6_peak_mb": peak(lambda: basis_matrix(np.arange(2, 8), x)),
    "diagnose_wide_largest_union_stack_kib": stack / 1024,
}))
"""


def child_env(tree: Path) -> dict:
    env = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
    env["PYTHONPATH"] = str(tree / "src")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def run_json(code, args, tree: Path, cwd) -> dict:
    out = subprocess.run([sys.executable, "-c", code, *args], env=child_env(tree), cwd=cwd,
                         capture_output=True, text=True, check=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def probe(tree: Path, workloads, seed: int, repeat: int) -> dict:
    result = {}
    with tempfile.TemporaryDirectory() as work:
        for w in workloads.values():
            cfg = Path(work) / f"{w.name}.cfg"
            cfg.write_text(w.config_text(seed))
            runs = [run_json(CHILD, [str(cfg), w.command], tree, work) for _ in range(repeat)]
            result[w.name] = {key: statistics.median(r[key] for r in runs) for key in runs[0]}
        result["kernels"] = run_json(KERNELS, [], tree, work)
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("trees", nargs="+", type=Path)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--repeat", type=int, default=5)
    args = parser.parse_args()
    sys.path.insert(0, str(args.trees[0].resolve() / "perfbench"))
    from workloads import WORKLOADS
    report = {str(t): probe(t.resolve(), WORKLOADS, args.seed, args.repeat) for t in args.trees}
    print(json.dumps({"seed": args.seed, "repeat": args.repeat, "trees": report}, indent=1))


if __name__ == "__main__":
    main()
