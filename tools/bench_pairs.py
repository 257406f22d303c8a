"""Alternating parent/change pairs of the benchmark, with the claim rule applied.

    python tools/bench_pairs.py --parent DIR --change DIR --out FILE \
        [--workloads W,...] [--seeds 7,2401] [--pairs 10] [--seconds 25]

DIR is the root of a checkout of each side. Every pair runs
``perfbench/run.py --workload W --seed S --seconds T --trace 0`` once in each
tree, one after the other, the parent first in even pairs and the change first
in odd ones. Every run's end-to-end metrics go to FILE as they arrive (JSON,
rewritten after each run), and at the end a summary per seed and workload:
each side's median and quartiles (``statistics.quantiles(n=4,
method='inclusive')``) of each metric, the pairs the change won (lower is
better; ties count for neither) and whether the claim rule holds: at least 9
of 10 pairs won and a median gain larger than the parent's interquartile range.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def run_once(tree: Path, workload: str, seed: int, seconds: int) -> dict:
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                          "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                         cwd=tree, capture_output=True, text=True, check=True).stdout
    result = json.loads(out.strip().splitlines()[-1])
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"],
            **{k: v["value"] for k, v in result["metrics"].items()}}


def summarize(pairs: list) -> dict:
    summary = {}
    for metric in pairs[0]["parent"]:
        if metric in ("correct", "attempted", "failed"):
            continue
        parent = [p["parent"][metric] for p in pairs]
        change = [p["change"][metric] for p in pairs]
        q_parent = statistics.quantiles(parent, n=4, method="inclusive")
        q_change = statistics.quantiles(change, n=4, method="inclusive")
        gain = statistics.median(parent) - statistics.median(change)
        wins = sum(c < p for p, c in zip(parent, change))
        summary[metric] = {
            "parent_median": statistics.median(parent), "change_median": statistics.median(change),
            "parent_quartiles": [q_parent[0], q_parent[2]],
            "change_quartiles": [q_change[0], q_change[2]],
            "median_change": -gain / statistics.median(parent),
            "change_better_pairs": wins, "pairs": len(pairs),
            "claim_rule_met": wins >= 0.9 * len(pairs) and gain > q_parent[2] - q_parent[0],
        }
    summary["all_correct"] = all(p[s]["correct"] for p in pairs for s in ("parent", "change"))
    summary["failed"] = {s: sum(p[s]["failed"] for p in pairs) for s in ("parent", "change")}
    return summary


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, type=Path)
    parser.add_argument("--change", required=True, type=Path)
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--workloads",
                        default="simulate-eq7,geometry-copula,diagnose-wide,estimate-rate")
    parser.add_argument("--seeds", default="7,2401")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=25)
    args = parser.parse_args()
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    record = {"command": " ".join(sys.argv), "runs": {}}
    for seed in map(int, args.seeds.split(",")):
        for workload in args.workloads.split(","):
            pairs = record["runs"].setdefault(f"seed {seed}", {}).setdefault(workload, [])
            for i in range(args.pairs):
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                pair = {"first": order[0]}
                for side in order:
                    pair[side] = run_once(trees[side], workload, seed, args.seconds)
                pairs.append(pair)
                args.out.write_text(json.dumps(record, indent=1))
    record["summary"] = {key: {w: summarize(p) for w, p in runs.items()}
                         for key, runs in record["runs"].items()}
    args.out.write_text(json.dumps(record, indent=1))


if __name__ == "__main__":
    main()
