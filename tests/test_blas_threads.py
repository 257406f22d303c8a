"""addsel runs OpenBLAS on one thread unless the caller chose a count.

OpenBLAS reads its thread count once, when the library loads, so every test
here imports addsel in a fresh interpreter. The only copy is numpy's: a
library that brings its own and loads after the import (scipy does) would
read OpenBLAS's default count."""

import json
import os
import subprocess
import sys

import pytest

import addsel

BLAS_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# prints the environment check and each loaded OpenBLAS's thread count, read
# through its get_num_threads symbol (numpy's copy carries a prefixed and
# suffixed name); no count where /proc/self/maps is missing
PROBE = r"""
import ctypes, json, os, sys
before = dict(os.environ)
if sys.argv[1] == "numpy-first":
    import numpy
import addsel
threads = []
paths = []
if os.path.exists("/proc/self/maps"):
    with open("/proc/self/maps") as fh:
        paths = sorted({f[-1] for f in map(str.split, fh)
                        if len(f) >= 6 and "openblas" in os.path.basename(f[-1]).lower()})
for path in paths:
    lib = ctypes.CDLL(path)
    names = [p + "openblas_get_num_threads" + s for p in ("", "scipy_") for s in ("", "64_")]
    found = [getattr(lib, name) for name in names if hasattr(lib, name)]
    if found:
        threads.append(found[0]())
print(json.dumps({"unchanged": dict(os.environ) == before, "threads": threads,
                  "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS")}))
"""


def _child_env(**blas):
    env = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
    env.update(blas)
    return env


def _probe(mode="addsel", **blas):
    proc = subprocess.run([sys.executable, "-c", PROBE, mode], env=_child_env(**blas),
                          capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


@pytest.fixture(scope="module")
def unset():
    return _probe()


def test_import_leaves_the_environment_as_found(unset):
    assert unset["unchanged"]
    assert unset["OPENBLAS_NUM_THREADS"] is None


def test_import_runs_every_openblas_on_one_thread(unset):
    if not unset["threads"]:
        pytest.skip("no loaded OpenBLAS exports a get_num_threads symbol")
    assert unset["threads"] == [1] * len(unset["threads"])


@pytest.mark.parametrize("var", ["OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"])
def test_callers_thread_count_wins(var):
    got = _probe(**{var: "2"})
    assert got["unchanged"]
    assert got["OPENBLAS_NUM_THREADS"] == ("2" if var == "OPENBLAS_NUM_THREADS" else None)
    assert got["threads"] == [2] * len(got["threads"])


def test_no_effect_once_numpy_is_loaded():
    # numpy's OpenBLAS has read its default before addsel loads, and addsel
    # loads no other copy
    got = _probe("numpy-first")
    assert got["unchanged"]
    assert len(set(got["threads"])) <= 1


def test_helpers_stay_out_of_all():
    assert "os" not in addsel.__all__ and "sys" not in addsel.__all__
    assert not [name for name in addsel.__all__ if name.startswith("_")]


CONFIGS = {
    "geometry": "design.kind = gaussian-copula\ndesign.r = 0.3\n"
                "q = 6\ns = 2\nqstar = 2\nm_rule = fixed:4\nseed = 3\n",
    "simulate": "n = 800\nq = 8\ns = 2\nqstar = 2\nm_rule = eq7\nsigma = 0.5\n"
                "cprime = 0.002\ntrials = 2\nseed = 3\n",
    "diagnose": "design.kind = gaussian-copula\ndesign.r = 0.3\n"
                "n = 300\nq = 12\ns = 2\nqstar = 2\nm_rule = fixed:4\ndelta = 0.5\nseed = 3\n",
    "estimate": "q = 4\ns = 2\nqstar = 2\nm_rule = fixed:4\ntarget = 0\n"
                "n_grid = 128,256,512\nreps = 2\nseed = 3\n",
}

RUN_ALL = r"""
import sys
from addsel.cli import main
for command in ("geometry", "simulate", "diagnose", "estimate"):
    assert main([command, "--config", command + ".cfg",
                 "--out", command + "-" + sys.argv[1] + ".jsonl"]) == 0
"""


def test_artifacts_do_not_depend_on_the_thread_count(tmp_path):
    for command, text in CONFIGS.items():
        (tmp_path / f"{command}.cfg").write_text(text)
    settings = {"unset": {}, "one": {"OPENBLAS_NUM_THREADS": "1"},
                "two": {"OPENBLAS_NUM_THREADS": "2"}}
    for tag, blas in settings.items():
        subprocess.run([sys.executable, "-c", RUN_ALL, tag], cwd=tmp_path,
                       env=_child_env(**blas), check=True)
    for command in CONFIGS:
        unset, one, two = ((tmp_path / f"{command}-{tag}.jsonl").read_bytes()
                           for tag in settings)
        assert unset == one == two
        assert b'"error"' not in unset


NO_SCIPY = r"""
import json, sys
import addsel.cli
after_import = {"numpy.random": "numpy.random" in sys.modules, "scipy": "scipy" in sys.modules}
for command in ("geometry", "simulate", "diagnose", "estimate"):
    assert addsel.cli.main([command, "--config", command + ".cfg",
                            "--out", command + ".jsonl"]) == 0
print(json.dumps({"after_import": after_import, "after_calls": "scipy" in sys.modules}))
"""


def test_scipy_stays_out_of_every_command(tmp_path):
    # numpy.random loads with the package, so no call pays for it; scipy never
    # loads, so no second OpenBLAS comes up after the import lifts its pin
    for command, text in CONFIGS.items():
        (tmp_path / f"{command}.cfg").write_text(text)
    proc = subprocess.run([sys.executable, "-c", NO_SCIPY], cwd=tmp_path, env=_child_env(),
                          capture_output=True, text=True, check=True)
    got = json.loads(proc.stdout)
    assert got["after_import"] == {"numpy.random": True, "scipy": False}
    assert got["after_calls"] is False
