"""The four workloads: CLI command, config made from the seed, operation count.

Why each one is here is in BENCHMARK.json and README.md. The config seed is the benchmark's
``--seed``; nothing else in the inputs depends on it.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    config: str

    def config_text(self, seed: int) -> str:
        return self.config + f"seed = {seed}\n"

    def operations(self, cfg) -> int:
        """Operations one main() call attempts: a trial, an (n, rep) fit, or a report."""
        if self.command == "simulate":
            return cfg["trials"]
        if self.command == "estimate":
            return len(cfg["n_grid"]) * cfg["reps"]
        return 1


WORKLOADS = {w.name: w for w in (
    Workload(
        "simulate-eq7", "simulate",
        "design.kind = independent-uniform\n"
        "n = 800\nq = 8\ns = 2\nqstar = 2\nm_rule = eq7\nsigma = 0.5\n"
        "cprime = 0.002\ntrials = 12\nthreads = 2\n"),
    Workload(
        "geometry-copula", "geometry",
        "design.kind = gaussian-copula\ndesign.r = 0.3\n"
        "q = 8\ns = 2\nqstar = 2\nm_rule = fixed:5\n"),
    Workload(
        "diagnose-wide", "diagnose",
        "design.kind = independent-uniform\n"
        "n = 400\nq = 40\ns = 2\nqstar = 3\nm_rule = fixed:5\ndelta = 0.5\n"),
    Workload(
        "estimate-rate", "estimate",
        "design.kind = independent-uniform\n"
        "q = 4\ns = 2\nqstar = 2\nm_rule = fixed:5\ntarget = 0\n"
        "n_grid = 512,1024,2048,4096,8192\nreps = 20\n"),
)}
