"""Self-test of the benchmark's output checks.

    python3 perfbench/selftest.py

Makes one genuine artifact per workload (seed 0) with ``addsel.cli.main`` and
requires checks.verify to accept it and to reject each corruption: a swapped
selected set, rho off by 1e-3, delta_qstar off by 1e-6, a slope moved by 0.2,
and one flipped byte. Also checks the interval union behind the self times.
Exits 1 if anything is wrong.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checks  # noqa: E402
import run  # noqa: E402
from addsel.cli import main as cli_main  # noqa: E402
from addsel.config import parse_config  # noqa: E402
from tracer import _covered  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def dump(records):
    # the program's own layout: one sorted-key JSON object per line
    return "".join(json.dumps(r, sort_keys=True) + "\n" for r in records).encode()


def swap_selected(records, cfg):
    rec = records[1]
    rec["selected"] = [j for j in range(cfg["q"]) if j not in rec["selected"]][:len(rec["selected"])]


def shift(key, by):
    def corrupt(records, cfg):
        records[1][key] += by
    return corrupt


CORRUPTIONS = {
    "simulate-eq7": ("swapped selected set", swap_selected),
    "geometry-copula": ("rho off by 1e-3", shift("rho_qstar", 1e-3)),
    "diagnose-wide": ("delta_qstar off by 1e-6", shift("delta_qstar", 1e-6)),
    "estimate-rate": ("slope moved by 0.2", shift("slope", 0.2)),
}


def rejected(command, artifacts, cfg):
    op_failures, problems = checks.verify(command, artifacts, cfg)
    return bool(op_failures or problems)


def main():
    failures = []

    def expect(ok, what):
        print(f"{'ok  ' if ok else 'FAIL'} {what}", flush=True)
        if not ok:
            failures.append(what)

    expect(_covered([(0.0, 2.0), (1.0, 3.0), (5.0, 9.0)], 0.5, 6.0) == 3.5,
           "union of overlapping child spans")

    run.WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="selftest-", dir=run.WORK))
    try:
        for name, workload in WORKLOADS.items():
            text = workload.config_text(0)
            cfg = parse_config(text)
            (workdir / "workload.cfg").write_text(text)
            out = workdir / "out.jsonl"
            rc = cli_main([workload.command, "--config", str(workdir / "workload.cfg"),
                           "--out", str(out)])
            genuine = out.read_bytes()
            expect(dump(checks.parse(genuine)) == genuine,
                   f"{name}: artifact re-serialises to the same bytes")
            expect(rc == 0 and not rejected(workload.command, [genuine, genuine], cfg),
                   f"{name}: genuine artifact accepted")
            label, corrupt = CORRUPTIONS[name]
            records = checks.parse(genuine)
            corrupt(records, cfg)
            expect(rejected(workload.command, [dump(records)], cfg), f"{name}: {label} rejected")
            flipped = bytearray(genuine)
            flipped[len(flipped) // 2] ^= 1
            expect(rejected(workload.command, [genuine, bytes(flipped)], cfg),
                   f"{name}: one flipped byte rejected")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"{len(failures)} failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
