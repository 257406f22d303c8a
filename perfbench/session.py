"""Every workload once untraced and once traced, with a session record.

    python3 perfbench/session.py [--seed N]

Runs run.py for every workload with --trace 0 and --trace 1, each run as long
as BENCHMARK.json's run_seconds, prints every end-to-end metric by name and
unit with operations attempted and failed, the per-layer metrics each
workload calls and, for estimate-rate, criterion 11's band, then writes
perfbench/results/session-<UTC time>.json: host facts, the BLAS thread
variables removed, and per workload the operations, the end-to-end medians
with their call counts, the per-layer metrics and the tracing overhead.
Exits 1 if a run fails or a check rejects an artifact.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time

from run import BENCH, RESULTS, ROOT
from workloads import WORKLOADS


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    session = {"seed": args.seed, "seconds": seconds, "workloads": {}}
    status = 0
    for name in WORKLOADS:
        entry = session["workloads"][name] = {}
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(BENCH / "run.py"), "--workload", name,
                 "--seed", str(args.seed), "--seconds", str(seconds),
                 "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True)
            if proc.returncode != 0:
                print(f"{name} --trace {trace} exited {proc.returncode}:\n{proc.stderr}")
                status = 1
                continue
            record = json.loads(
                (RESULTS / f"{name}-seed{args.seed}-trace{trace}.json").read_text())
            session.setdefault("host", record["host"])
            session.setdefault("blas_env_removed", record["blas_env_removed"])
            entry["untraced" if trace == 0 else "traced"] = {
                key: record[key] for key in ("attempted", "failed", "correct", "problems",
                                             "metrics", "median_of", "artifact_sha256")}
            if "criterion_11_rate_in_band" in record:
                entry["criterion_11_rate_in_band"] = record["criterion_11_rate_in_band"]
            if not record["correct"] or record["failed"]:
                status = 1
            print(f"{name} --trace {trace}: attempted {record['attempted']}, "
                  f"failed {record['failed']}, checks "
                  f"{'passed' if record['correct'] else 'FAILED'}")
            if "criterion_11_rate_in_band" in record:
                print(f"  criterion_11_rate_in_band = {record['criterion_11_rate_in_band']}")
            for metric, m in record["metrics"].items():
                if trace == 0 or m["value"]:
                    print(f"  {metric:40s} {m['value']:12.6g} {m['unit']:5s} "
                          f"(median of {record['median_of']} calls)")
        runs = [entry[k] for k in ("untraced", "traced") if k in entry]
        if len({r["artifact_sha256"] for r in runs}) > 1:
            print(f"{name}: traced and untraced artifacts differ")
            status = 1
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / f"session-{time.strftime('%Y%m%dT%H%M%SZ', time.gmtime())}.json"
    path.write_text(json.dumps(session, indent=1, sort_keys=True) + "\n")
    print(f"session record: {path.relative_to(ROOT)}")
    return status


if __name__ == "__main__":
    sys.exit(main())
