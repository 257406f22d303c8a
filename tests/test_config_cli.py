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


def test_parse_rejects_negative_m_target():
    # m_target = -3 used to run at the coarsest level, as m_target = 1 does
    with pytest.raises(ConfigError, match="m_target"):
        parse_config("m_target = -3\n")
    assert parse_config("m_target = 0\n")["m_target"] == 0


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


def test_cli_unwritable_out_is_a_config_error(tmp_path, capsys):
    cfg = _write(tmp_path, SMALL)
    out = str(tmp_path / "missing" / "x.json")
    assert main(["geometry", "--config", cfg, "--out", out]) == 2
    record = json.loads(capsys.readouterr().err)
    assert record["error"]["type"] == "ConfigError"
    assert out in record["error"]["message"]


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


def test_cli_diagnose_refuses_s_above_qstar(tmp_path):
    # the bound's index d_l[qstar - s + l - 1] used to wrap, and diagnose
    # reported 1.6e-28 for a config on which simulate never recovers J0
    cfg = _write(tmp_path, "n = 4000\nq = 6\ns = 3\nqstar = 2\nsigma = 0.1\n")
    out = str(tmp_path / "sq.jsonl")
    assert main(["diagnose", "--config", cfg, "--out", out]) == 2
    manifest, record = _lines(out)
    assert manifest["command"] == "diagnose"
    assert record["error"]["type"] == "ConfigError"
    assert "s <= qstar" in record["error"]["message"]


@pytest.mark.parametrize("line,key", [("alpha = -0.5", "alpha"),
                                      ("n_grid = -8,-4,2", "n_grid"),
                                      ("n_grid = 512,256,1024", "n_grid"),
                                      ("n_grid = 512,1024", "n_grid")])
def test_cli_estimate_refuses_nonpositive_alpha_and_grid(tmp_path, capsys, line, key):
    # alpha <= 0 has no truncation level n^(1/(2 alpha + 1)), and a grid point
    # below 1 has no sample; both used to end in a numpy or Python traceback.
    # A grid out of order or under 3 sizes has no fitted slope; it used to
    # reach rate_experiment and end in an AddselError record with exit code 1
    cfg = _write(tmp_path, SMALL + "n_grid = 100, 200, 400\nreps = 2\n" + line + "\n")
    out = tmp_path / "bad.jsonl"
    assert main(["estimate", "--config", cfg, "--out", str(out)]) == 2
    assert not out.exists()
    record = json.loads(capsys.readouterr().err)
    assert record["error"]["type"] == "ConfigError"
    assert key in record["error"]["message"]


@pytest.mark.parametrize("line,key", [("K = -40", "K"), ("kappa1 = -1", "kappa1")])
def test_cli_refuses_nonpositive_K_and_negative_kappa1(tmp_path, capsys, line, key):
    # K = -40 used to run as K = 40; kappa1 = -1 gave NaN coefficients, a
    # geometry report with "kappa": null and exit code 0
    out = tmp_path / "bad.jsonl"
    assert main(["geometry", "--config", _write(tmp_path, SMALL + line + "\n"),
                 "--out", str(out)]) == 2
    assert not out.exists()
    record = json.loads(capsys.readouterr().err)
    assert record["error"]["type"] == "ConfigError"
    assert record["error"]["message"].startswith(key + " must be")
    assert parse_config("kappa1 = 0\n")["kappa1"] == 0.0


@pytest.mark.parametrize("key", ["sigma", "alpha", "K", "kappa1"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_parse_refuses_nonfinite_scales(key, value):
    # NaN fails every comparison, so a one-sided check such as sigma < 0 let
    # it through; inf passed them all
    with pytest.raises(ConfigError, match=f"^{key} must be finite"):
        parse_config(f"{key} = {value}\n")
    assert parse_config(f"{key} = 3.5\n")[key] == 3.5


def test_cli_simulate_refuses_nan_sigma(tmp_path, capsys):
    # sigma = nan used to run to exit code 0 with an empty selected set and
    # a success rate of 0.0 in the summary
    out = tmp_path / "nan.jsonl"
    assert main(["simulate", "--config", _write(tmp_path, SMALL + "sigma = nan\n"),
                 "--out", str(out)]) == 2
    assert not out.exists()
    record = json.loads(capsys.readouterr().err)
    assert record["error"]["type"] == "ConfigError"
    assert record["error"]["message"] == "sigma must be finite and nonnegative, got nan"


@pytest.mark.parametrize("command,text,flags", [
    ("geometry", SMALL + "seed = -1\n", []),
    ("simulate", SMALL, ["--seed", "-1"]),
], ids=["config", "flag"])
def test_cli_refuses_negative_seed(tmp_path, capsys, command, text, flags):
    # numpy's seeding refuses a negative seed with a ValueError traceback, after
    # the manifest was written; the --seed override used to skip validation
    out = tmp_path / "neg.jsonl"
    assert main([command, "--config", _write(tmp_path, text), "--out", str(out)] + flags) == 2
    assert not out.exists()
    record = json.loads(capsys.readouterr().err)
    assert record["error"]["type"] == "ConfigError"
    assert "seed" in record["error"]["message"]


def test_cli_diagnose_refuses_zero_delta_before_any_work(tmp_path, monkeypatch):
    # the c' condition of the bound needs delta > 0; the RIP pass used to run
    # first and the run then failed with exit code 1
    from addsel import diagnostics

    def no_work(cfg):
        raise AssertionError("delta = 0 must be refused before the law is built")

    monkeypatch.setattr(diagnostics, "density_from_config", no_work)
    cfg = _write(tmp_path, SMALL + "delta = 0\n")
    out = str(tmp_path / "d0.jsonl")
    assert main(["diagnose", "--config", cfg, "--out", out]) == 2
    manifest, record = _lines(out)
    assert manifest["command"] == "diagnose"
    assert record["error"]["type"] == "ConfigError"
    assert "delta > 0" in record["error"]["message"]


@pytest.mark.parametrize("command,text,record", [
    ("geometry", "design.kind = gaussian-copula\ndesign.r = 0.3\nq = 40\nqstar = 7\n",
     '{"error": {"message": "2106000 disjoint subset pairs exceed the budget 1000000; '
     'reduce qstar or restrict the covariates", "type": "BudgetError"}}'),
    ("geometry", "q = 40\nqstar = 10\n",
     '{"error": {"message": "subset enumeration exceeds budget", "type": "BudgetError"}}'),
    ("simulate", "n = 100\nq = 200\nqstar = 3\ntrials = 1\n",
     '{"error": "exhaustive search over 1333501 subsets exceeds the budget 1000000; '
     'consider select_greedy", "error_type": "BudgetError", "trial": 0}'),
], ids=["rho-pairs", "identity-law-subsets", "exhaustive"])
def test_cli_budget_error_records(tmp_path, command, text, record):
    # the record after the manifest, byte for byte; simulate records a failed
    # trial and exits 0, the geometry report fails as a whole
    out = tmp_path / "err.jsonl"
    code = main([command, "--config", _write(tmp_path, text), "--out", str(out)])
    assert code == (0 if command == "simulate" else 1)
    assert out.read_text().splitlines()[1] == record


def test_search_is_not_a_config_key():
    with pytest.raises(ConfigError, match="unknown configuration key 'search'"):
        parse_config("search = greedy\n")


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


TABLE = 1.0 + 0.8 * np.cos(2 * np.pi * (np.arange(256) + 0.5) / 256)


def test_cli_diagnose_custom_density_uses_population_rho(tmp_path):
    # independent but non-uniform marginals: the centered trig blocks are not
    # mean-zero, so rho is not 0 and must come from the population Gram
    from addsel import BasisSpec, PopulationGeometry
    from addsel import density_from_config
    text = ("design.kind = custom-density\n"
            f"design.table = {', '.join(repr(float(v)) for v in TABLE)}\n"
            "n = 200\nq = 4\ns = 2\nqstar = 2\nm_rule = fixed:5\nseed = 3\n")
    out = str(tmp_path / "diag.jsonl")
    assert main(["diagnose", "--config", _write(tmp_path, text), "--out", out]) == 0
    _, report = _lines(out)
    density = density_from_config(parse_config(text))
    expected = PopulationGeometry(BasisSpec.create(4, 5), density, 2).rho()
    assert report["rho"] == expected
    assert abs(expected - 0.5517) < 1e-3


WIDE = ("design.kind = independent-uniform\nn = 400\nq = 40\ns = 2\nqstar = 3\n"
        "m_rule = fixed:5\ndelta = 0.5\nseed = 11\n")


def test_cli_diagnose_uniform_takes_event_E_from_rip(tmp_path, monkeypatch):
    # P_U = I under the uniform law: no population Gram, no second union pass
    from addsel import diagnostics, geometry

    def second_pass(*args, **kwargs):
        raise AssertionError("the uniform law needs no whitened pass")

    monkeypatch.setattr(geometry, "full_block_gram", second_pass)
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
    from addsel.cli import _plain
    from addsel.diagnostics import diagnose
    text = "n = 200\nq = 4\ns = 2\nqstar = 2\nm_rule = fixed:5\nseed = 3\n"
    if law == "custom-density":
        text = ("design.kind = custom-density\n"
                f"design.table = {', '.join(repr(float(v)) for v in TABLE)}\n") + text
    out = str(tmp_path / "diag.jsonl")
    assert main(["diagnose", "--config", _write(tmp_path, text), "--out", out]) == 0
    with open(out) as fh:
        report_line = fh.read().splitlines()[1]
    assert json.dumps(_plain(diagnose(parse_config(text))), sort_keys=True) == report_line
