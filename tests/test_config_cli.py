import json
import subprocess
import sys

import numpy as np
import pytest

from addsel import ConfigError
from addsel.cli import main
from addsel.config import DEFAULTS, parse_config


def test_parse_defaults_and_overrides():
    cfg = parse_config("n = 300\nsigma=0.1  # inline comment\n\n# full comment\n")
    assert cfg["n"] == 300
    assert cfg["sigma"] == 0.1
    assert cfg["q"] == DEFAULTS["q"]


def test_parse_rejects_unknown_key():
    with pytest.raises(ConfigError, match="unknown configuration key 'frobnicate'"):
        parse_config("frobnicate = 1\n")


def test_parse_rejects_bad_values():
    with pytest.raises(ConfigError, match="line 1"):
        parse_config("n = three\n")
    with pytest.raises(ConfigError):
        parse_config("s = 9\nq = 4\n")
    with pytest.raises(ConfigError):
        parse_config("m_rule = sometimes\n")
    with pytest.raises(ConfigError):
        parse_config("design.kind = cauchy\n")
    with pytest.raises(ConfigError):
        parse_config("x = 1\ny\n")


def test_parse_n_grid_and_table():
    cfg = parse_config("n_grid = 100, 200, 400\n")
    assert cfg["n_grid"] == [100, 200, 400]
    vals = ", ".join(["1.0"] * 4)
    cfg = parse_config(f"design.table = {vals}\ndesign.kind = custom-density\n")
    np.testing.assert_array_equal(cfg["design.table"], np.ones(4))


def _write(tmp_path, text, name="cfg.txt"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


SMALL = "n = 120\nq = 4\ns = 2\nqstar = 2\nsigma = 0.3\ntrials = 3\nseed = 5\n"


def _lines(path):
    with open(path) as fh:
        return [json.loads(line) for line in fh]


def test_cli_simulate_output_shape(tmp_path):
    cfg = _write(tmp_path, SMALL)
    out = str(tmp_path / "sim.jsonl")
    assert main(["simulate", "--config", cfg, "--out", out]) == 0
    lines = _lines(out)
    manifest = lines[0]
    assert manifest["command"] == "simulate"
    assert manifest["artifact_version"] == 1
    assert manifest["seed"] == 5
    records = lines[1:-1]
    assert [r["trial"] for r in records] == [0, 1, 2]
    assert "summary" in lines[-1]
    assert lines[-1]["summary"]["trials"] == 3


def test_cli_simulate_byte_deterministic(tmp_path):
    cfg = _write(tmp_path, SMALL)
    out1, out2 = str(tmp_path / "a.jsonl"), str(tmp_path / "b.jsonl")
    assert main(["simulate", "--config", cfg, "--out", out1, "--threads", "1"]) == 0
    assert main(["simulate", "--config", cfg, "--out", out2, "--threads", "3"]) == 0
    assert open(out1, "rb").read() == open(out2, "rb").read()


def test_cli_seed_override(tmp_path):
    cfg = _write(tmp_path, SMALL)
    out = str(tmp_path / "s.jsonl")
    assert main(["simulate", "--config", cfg, "--out", out, "--seed", "99"]) == 0
    assert _lines(out)[0]["seed"] == 99


def test_cli_geometry_report(tmp_path):
    cfg = _write(tmp_path, SMALL)
    out = str(tmp_path / "geo.jsonl")
    assert main(["geometry", "--config", cfg, "--out", out]) == 0
    manifest, report = _lines(out)
    assert manifest["command"] == "geometry"
    assert report["rho_qstar"] < 1e-8
    assert report["kappa"] > 0


def test_cli_diagnose_report(tmp_path):
    cfg = _write(tmp_path, SMALL)
    out = str(tmp_path / "diag.jsonl")
    assert main(["diagnose", "--config", cfg, "--out", out]) == 0
    _, report = _lines(out)
    assert "delta_qstar" in report
    assert report["event_E_holds"]["delta"] == 0.5
    assert isinstance(report["event_A_holds"], bool)


def test_cli_estimate_report(tmp_path):
    cfg = _write(tmp_path, SMALL + "n_grid = 100, 200, 400\nreps = 2\ntarget = 0\n")
    out = str(tmp_path / "est.jsonl")
    assert main(["estimate", "--config", cfg, "--out", out]) == 0
    _, report = _lines(out)
    assert report["n_grid"] == [100, 200, 400]
    assert len(report["mean_risk"]) == 3


def test_cli_config_error_exit_code(tmp_path):
    cfg = _write(tmp_path, "frobnicate = 1\n")
    assert main(["geometry", "--config", cfg]) == 2
    assert main(["geometry", "--config", str(tmp_path / "missing.txt")]) == 2


@pytest.mark.parametrize("command", ["geometry", "diagnose", "estimate"])
def test_cli_refuses_eq7_outside_simulate(tmp_path, command):
    # these commands have no eq7 level of their own; they used to run at m = 5
    cfg = _write(tmp_path, SMALL + "m_rule = eq7\nn_grid = 100, 200, 400\nreps = 2\n")
    out = str(tmp_path / "eq7.jsonl")
    assert main([command, "--config", cfg, "--out", out]) == 2
    manifest, record = _lines(out)
    assert manifest["command"] == command
    assert record["error"]["type"] == "ConfigError"
    assert command in record["error"]["message"] and "eq7" in record["error"]["message"]


@pytest.mark.parametrize("command,module", [("estimate", "estimate"),
                                            ("diagnose", "diagnostics")])
def test_cli_refuses_empty_active_set_before_any_work(tmp_path, monkeypatch, command,
                                                      module):
    # estimate relabels an active covariate as the target and diagnose needs
    # kappa, so both refuse s = 0 before building the law
    import importlib

    def no_work(cfg):
        raise AssertionError("s = 0 must be refused before the law is built")

    monkeypatch.setattr(importlib.import_module(f"addsel.{module}"),
                        "density_from_config", no_work)
    cfg = _write(tmp_path, SMALL.replace("s = 2", "s = 0") + "n_grid = 100, 200, 400\n")
    out = str(tmp_path / "s0.jsonl")
    assert main([command, "--config", cfg, "--out", out]) == 2
    manifest, record = _lines(out)
    assert manifest["command"] == command
    assert record["error"]["type"] == "ConfigError"
    assert command in record["error"]["message"] and "s >= 1" in record["error"]["message"]


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


@pytest.mark.parametrize("command,text", [
    # kappa is undefined for an empty active set
    ("geometry", SMALL.replace("s = 2", "s = 0")),
    # an infeasible signal level fails every trial and every rep
    ("simulate", SMALL + "alpha = 1\nK = 7\nkappa1 = 2\n"),
    ("estimate", SMALL + "alpha = 1\nK = 7\nkappa1 = 2\nn_grid = 100, 200, 400\nreps = 2\n"),
], ids=["geometry-s0", "simulate-infeasible", "estimate-infeasible"])
@pytest.mark.filterwarnings("error:Mean of empty slice")
def test_cli_artifacts_are_strict_json(tmp_path, command, text):
    out = str(tmp_path / "strict.jsonl")
    assert main([command, "--config", _write(tmp_path, text), "--out", out]) == 0
    with open(out) as fh:
        records = [json.loads(line, parse_constant=_reject_constant) for line in fh]
    last = records[-1]
    if command == "geometry":
        assert last["kappa"] is None
    elif command == "simulate":
        summary = last["summary"]
        assert summary["completed"] == 0
        assert [summary[k] for k in ("success_rate", "exact_rate", "success_stderr",
                                     "exact_stderr")] == [None] * 4
    else:
        assert last["mean_risk"] == [None] * 3 and last["degenerate"]


def test_cli_geometry_uniform_law_writes_exact_zeros(tmp_path):
    # the uniform law's population Gram is the identity: rho and both eps are
    # 0 exactly, not the ~1e-15 a quadrature Gram leaves
    text = "q = 5\ns = 0\nqstar = 2\nm_rule = fixed:4\n"
    out = str(tmp_path / "geo.jsonl")
    assert main(["geometry", "--config", _write(tmp_path, text), "--out", out]) == 0
    report = _lines(out)[-1]
    assert [report[k] for k in ("rho_qstar", "eps_2qstar", "eps_prime_qstar")] == [0.0] * 3
    assert report["phi_2qstar"] >= 1.0


def test_m_rule_parsed_in_one_place():
    from addsel.config import fixed_m, parse_m_rule
    assert parse_m_rule("eq7") is None
    assert parse_m_rule("fixed:36") == 36
    for bad in ("fixed:1", "fixed:x", "fixed5", "eq8"):
        with pytest.raises(ConfigError):
            parse_m_rule(bad)
    assert fixed_m({"m_rule": "fixed:7"}, "geometry") == 7
    assert fixed_m({}, "estimate") == 5
    with pytest.raises(ConfigError, match="estimate"):
        fixed_m({"m_rule": "eq7"}, "estimate")


def test_cli_runtime_error_is_machine_readable(tmp_path):
    # infeasible signal level: every module raises a domain error -> exit 1
    cfg = _write(tmp_path, "alpha = 1\nK = 7\nkappa1 = 2\n")
    out = str(tmp_path / "err.jsonl")
    assert main(["geometry", "--config", cfg, "--out", out]) == 1
    lines = _lines(out)
    assert "error" in lines[-1]
    assert "maximum achievable" in lines[-1]["error"]["message"]


def test_cli_entry_point_subprocess(tmp_path):
    cfg = _write(tmp_path, SMALL)
    proc = subprocess.run([sys.executable, "-m", "addsel.cli", "geometry",
                           "--config", cfg], capture_output=True, text=True)
    assert proc.returncode == 0
    first = json.loads(proc.stdout.splitlines()[0])
    assert first["command"] == "geometry"


def test_cli_bad_log_level(tmp_path, monkeypatch):
    monkeypatch.setenv("ADDSEL_LOG", "loud")
    cfg = _write(tmp_path, SMALL)
    assert main(["geometry", "--config", cfg]) == 2


TABLE = 1.0 + 0.8 * np.cos(2 * np.pi * (np.arange(256) + 0.5) / 256)


def test_cli_diagnose_custom_density_uses_population_rho(tmp_path):
    # independent but non-uniform marginals: the centered trig blocks are not
    # mean-zero, so rho is not 0 and must come from the population Gram
    from addsel import BasisSpec, rho_qstar
    from addsel import density_from_config
    text = ("design.kind = custom-density\n"
            f"design.table = {', '.join(repr(float(v)) for v in TABLE)}\n"
            "n = 200\nq = 4\ns = 2\nqstar = 2\nm_rule = fixed:5\nseed = 3\n")
    out = str(tmp_path / "diag.jsonl")
    assert main(["diagnose", "--config", _write(tmp_path, text), "--out", out]) == 0
    _, report = _lines(out)
    density = density_from_config(parse_config(text))
    expected = rho_qstar(BasisSpec.create(4, 5), density, 2)
    assert report["rho"] == expected
    assert abs(expected - 0.5517) < 1e-3


WIDE = ("design.kind = independent-uniform\nn = 400\nq = 40\ns = 2\nqstar = 3\n"
        "m_rule = fixed:5\ndelta = 0.5\nseed = 11\n")


def test_cli_diagnose_uniform_takes_event_E_from_rip(tmp_path, monkeypatch):
    # P_U = I under the uniform law: no population Gram, no second union pass
    from addsel import diagnostics

    def second_pass(*args, **kwargs):
        raise AssertionError("the uniform law needs no whitened pass")

    monkeypatch.setattr(diagnostics, "full_block_gram", second_pass)
    monkeypatch.setattr(diagnostics, "event_E_from_grams", second_pass)
    out = str(tmp_path / "diag.jsonl")
    assert main(["diagnose", "--config", _write(tmp_path, WIDE), "--out", out]) == 0
    _, report = _lines(out)
    event = report["event_E_holds"]
    assert event["max_deviation"] == report["delta_qstar"]
    assert event["holds"] == (event["max_deviation"] <= 0.5)
    assert report["rho"] == 0.0
    # 1 + 40 + 780 + 9880 candidate sets, all of them scored
    assert report["subset_collection"] == {"sampled": False, "subsets": 10701}


def test_cli_diagnose_flags_sampled_collection(tmp_path):
    # q = 50, qstar = 3: 20,876 candidate sets, above the 20,000 limit
    from addsel import sample_subsets
    text = WIDE.replace("q = 40", "q = 50").replace("n = 400", "n = 200")
    out = str(tmp_path / "diag.jsonl")
    assert main(["diagnose", "--config", _write(tmp_path, text), "--out", out]) == 0
    _, report = _lines(out)
    assert report["subset_collection"] == {
        "sampled": True, "subsets": len(sample_subsets(50, 3, 2000, seed=11))}
    assert report["event_E_holds"]["max_deviation"] == report["delta_qstar"]


def test_cli_diagnose_custom_density_still_whitens(tmp_path):
    # independent but not uniform: P_U is not the identity, so E's deviation
    # comes from the whitened Grams and differs from the RIP constant
    text = ("design.kind = custom-density\n"
            f"design.table = {', '.join(repr(float(v)) for v in TABLE)}\n"
            "n = 200\nq = 4\ns = 2\nqstar = 2\nm_rule = fixed:5\nseed = 3\n")
    out = str(tmp_path / "diag.jsonl")
    assert main(["diagnose", "--config", _write(tmp_path, text), "--out", out]) == 0
    _, report = _lines(out)
    assert abs(report["event_E_holds"]["max_deviation"] - report["delta_qstar"]) > 1e-3
    assert report["subset_collection"] == {"sampled": False, "subsets": 11}


@pytest.mark.parametrize("law", ["uniform", "custom-density"])
def test_diagnose_library_call_is_the_cli_report(tmp_path, law):
    from addsel.cli import _Encoder
    from addsel.diagnostics import diagnose
    text = "n = 200\nq = 4\ns = 2\nqstar = 2\nm_rule = fixed:5\nseed = 3\n"
    if law == "custom-density":
        text = ("design.kind = custom-density\n"
                f"design.table = {', '.join(repr(float(v)) for v in TABLE)}\n") + text
    out = str(tmp_path / "diag.jsonl")
    assert main(["diagnose", "--config", _write(tmp_path, text), "--out", out]) == 0
    with open(out) as fh:
        report_line = fh.read().splitlines()[1]
    assert json.dumps(diagnose(parse_config(text)), cls=_Encoder, sort_keys=True) == report_line
