"""Benchmark of the addsel CLI: one run of one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. A run starts fresh interpreters (child.py),
one after another, each making one ``addsel.cli.main`` call with ``--out`` in
a scratch directory, until S seconds have passed; every call attempts the same
operations. The BLAS thread variables are removed from the children's
environment. After the timed calls the first artifact is checked (checks.py)
and every other one must equal it byte for byte; the simulate workload also
compares it with a ``--threads 1`` run in its traced run.

--trace 0 reports the end-to-end metrics, each the median over the calls.
--trace 1 alternates untraced and traced calls and reports the per-layer
metrics (medians over the traced calls) and the tracing overhead.

Metric names and units are read from BENCHMARK.json. A call whose process
crashes or runs past CHILD_TIMEOUT is a failed call: its operations count as
failed and it adds no figures to the medians.

The last line of standard output is the JSON result; a record with host facts
and every call's figures goes to perfbench/results/. Exits 2 without a result
if the program cannot be run (no sources under src/, addsel imported from
elsewhere) or if no call ended to report its figures.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from hashlib import sha256
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"
WORK = BENCH / ".work"

sys.path.insert(0, str(BENCH))
from workloads import WORKLOADS  # noqa: E402

BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
#: a call takes at most about 6 s; a longer one is a failed call
CHILD_TIMEOUT = 60
#: child.py's exit code when addsel is not imported from the checkout's src/
WRONG_IMPORT = 3

SETUP_PACKAGES = ("numpy", "scipy", "addsel")


class BenchError(Exception):
    """The program could not be run; the benchmark prints no result."""


def declared_units(kind):
    """{name: unit} of the "end_to_end" or "per_layer" metrics in BENCHMARK.json.

    A per-layer name is a span from tracer.py plus ".s", ".self_s" or ".calls",
    "setup.<package>.s" (import time from -X importtime) or "trace.overhead_s".
    """
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in declared[kind]}


def child_env():
    env = dict(os.environ)
    removed = {var: env.pop(var) for var in BLAS_VARS if var in env}
    env["PYTHONPATH"] = str(SRC)
    # every call compiles addsel the same way and nothing is written under src/
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env, removed


def import_times(stderr):
    """Self import time (s) owned by each of SETUP_PACKAGES, from -X importtime.

    A module belongs to the package it is in, or else to the package of the
    module that imported it; stdlib modules addsel imports count as addsel.
    """
    rows = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "self [us]" in line:
            continue
        self_us, _, name = line[len("import time:"):].split("|")
        indent = len(name) - len(name.lstrip(" "))
        rows.append((int(self_us), indent, name.strip()))
    owner_at = {}
    totals = dict.fromkeys(SETUP_PACKAGES, 0.0)
    for self_us, indent, name in reversed(rows):  # parents before their children
        top = name.split(".", 1)[0]
        owner = top if top in totals else owner_at.get(indent - 2)
        owner_at[indent] = owner
        if owner:
            totals[owner] += self_us / 1e6
    return totals


def invoke(workdir, env, command, k, traced, extra=()):
    out = f"out-{k}.jsonl"
    argv = [sys.executable] + (["-X", "importtime"] if traced else []) + [
        str(BENCH / "child.py"), "1" if traced else "0", str(SRC),
        command, "--config", "workload.cfg", "--out", out, *extra]
    path = workdir / out
    try:
        proc = subprocess.run(argv, cwd=workdir, env=env, capture_output=True,
                              text=True, timeout=CHILD_TIMEOUT)
    except subprocess.TimeoutExpired:
        proc = None
    if proc is not None and proc.returncode == WRONG_IMPORT:
        raise BenchError(proc.stderr)
    if proc is None or proc.returncode != 0:
        # the process crashed or hung: a failed call with no figures and no artifact
        path.unlink(missing_ok=True)
        reason = (f"did not end within {CHILD_TIMEOUT} s" if proc is None else
                  f"process exited {proc.returncode}:\n{proc.stderr[-3000:]}")
        return {"rc": -1, "error": reason, "traced": traced, "artifact": b""}
    result = json.loads(proc.stdout.splitlines()[-1])
    result["traced"] = traced
    if traced:
        result["setup"] = import_times(proc.stderr)
    result["artifact"] = path.read_bytes() if path.exists() else b""
    path.unlink(missing_ok=True)
    return result


def layer_value(call, name):
    span, kind = name.rsplit(".", 1)
    if span.startswith("setup."):
        return call["setup"][span.split(".", 1)[1]]
    return call["layers"][span][kind]


def host_facts():
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "machine": platform.machine(),
    }


def run(workload, seed, seconds, trace):
    if not (SRC / "addsel" / "cli.py").is_file():
        raise BenchError(f"no addsel sources under {SRC}")
    end_to_end, per_layer = declared_units("end_to_end"), declared_units("per_layer")
    env, removed = child_env()
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=WORK))
    try:
        (workdir / "workload.cfg").write_text(workload.config_text(seed))
        calls = []
        start = time.monotonic()
        while True:
            traced = trace and len(calls) % 2 == 1
            call = invoke(workdir, env, workload.command, len(calls), traced)
            calls.append(call)
            if "wall_s" in call:
                print(f"call {len(calls) - 1}{' traced' if traced else ''}: rc {call['rc']} "
                      f"wall {call['wall_s']:.3f} s, cpu {call['cpu_s']:.3f} s, "
                      f"rss {call['peak_rss_mb']:.1f} MB, setup {call['setup_s']:.3f} s",
                      flush=True)
            else:
                print(f"call {len(calls) - 1}: {call['error'].splitlines()[0]}", flush=True)
            if time.monotonic() - start >= seconds and (not trace or len(calls) >= 2):
                break
        reference = None
        if trace and workload.command == "simulate":  # once per session
            reference = invoke(workdir, env, workload.command, len(calls), False,
                               extra=("--threads", "1"))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    sys.path.insert(0, str(SRC))
    import checks
    from addsel.config import parse_config

    cfg = parse_config(workload.config_text(seed))
    ops = workload.operations(cfg)
    good = [c for c in calls if c["rc"] == 0]
    for c in calls:
        if c["rc"] != 0:
            print(f"call failed, rc {c['rc']}: {c.get('error', '')}", file=sys.stderr)
    op_failures, problems = {}, []
    if not good:
        problems.append("no call produced an artifact to check")
    else:
        artifacts = [c["artifact"] for c in good]
        try:
            op_failures, problems = checks.verify(workload.command, artifacts, cfg)
        except Exception as exc:  # a check that cannot read the artifact rejects it
            problems = [f"check raised {type(exc).__name__}: {exc}"]
        if reference is not None and reference["artifact"] != artifacts[0]:
            problems.append("artifact differs from the one made with --threads 1")
    attempted = ops * len(calls)
    failed = ops * (len(calls) - len(good)) + len(op_failures) * len(good)
    for reason in problems + [f"operation {k}: {'; '.join(v)}" for k, v in op_failures.items()]:
        print(f"CHECK FAILED: {reason}", file=sys.stderr)

    # a crashed call has no figures; the medians are over the calls that ended
    untraced = [c for c in calls if not c["traced"] and "wall_s" in c]
    traced_calls = [c for c in calls if c["traced"] and "wall_s" in c]
    if not untraced or (trace and not traced_calls):
        raise BenchError("no call ended to report its figures; the calls' errors are above")
    if trace:
        values = {name: statistics.median(layer_value(c, name) for c in traced_calls)
                  for name in per_layer if name != "trace.overhead_s"}
        values["trace.overhead_s"] = (statistics.median(c["wall_s"] for c in traced_calls)
                                      - statistics.median(c["wall_s"] for c in untraced))
        counted = len(traced_calls)
        units = per_layer
    else:
        values = {name: statistics.median(c[name] for c in untraced) for name in end_to_end}
        counted = len(untraced)
        units = end_to_end
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    for name, m in metrics.items():
        print(f"{workload.name} {name} = {m['value']:.6g} {m['unit']} "
              f"(median of {counted} calls)")
    print(f"{workload.name}: attempted {attempted}, failed {failed}, checks "
          f"{'passed' if not problems else 'FAILED'}")

    record = {
        "workload": workload.name, "seed": seed, "seconds": seconds, "trace": trace,
        "host": host_facts(), "blas_env_removed": removed,
        "attempted": attempted, "failed": failed, "correct": not problems,
        "problems": problems, "op_failures": op_failures,
        "metrics": metrics, "median_of": counted,
        "calls": [{k: v for k, v in c.items() if k != "artifact"} for c in calls],
        "artifact_sha256": sha256(good[0]["artifact"] if good else b"").hexdigest(),
    }
    if workload.command == "estimate" and good:
        # criterion 11 is reported, not checked: it fails on some seeds (README.md)
        in_band, slope = checks.rate_in_band(checks.parse(good[0]["artifact"]), cfg)
        record["criterion_11_rate_in_band"] = in_band
        print(f"{workload.name} criterion_11_rate_in_band = {str(in_band).lower()} "
              f"(slope {slope}, band {-2 * cfg['alpha'] / (2 * cfg['alpha'] + 1)} "
              f"± {checks.RATE_BAND})")
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / f"{workload.name}-seed{seed}-trace{int(trace)}.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return {"correct": not problems, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("need --seed >= 0 and --seconds >= 1")
    try:
        result = run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
