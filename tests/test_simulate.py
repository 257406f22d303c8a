import numpy as np
import numpy.testing as npt
import pytest

from addsel import (AddselError, AssumptionError, ConfigError, GaussianCopulaDensity,
                    TableDensity, UniformDensity, approximation_decay_experiment,
                    density_from_config, gen_model, gen_response, m_lower_bound,
                    run_trials)


def test_density_from_config_rejects_unknown_kind_and_missing_table():
    # raw library dicts skip config._validate; the law is checked where it is built
    with pytest.raises(ConfigError, match="unknown design kind 'mystery'"):
        density_from_config({"design.kind": "mystery", "q": 2})
    with pytest.raises(ConfigError, match="requires a density table"):
        density_from_config({"design.kind": "custom-density", "q": 2})
    with pytest.raises(ConfigError, match=r"\|r\| < 1"):
        density_from_config({"design.kind": "gaussian-copula", "design.r": 1.5, "q": 2})


def test_density_from_config_dispatch():
    assert isinstance(density_from_config({"q": 2}), UniformDensity)
    copula = density_from_config({"design.kind": "gaussian-copula", "design.r": 0.3, "q": 2})
    assert isinstance(copula, GaussianCopulaDensity) and copula.r == 0.3
    m = 64
    x = (np.arange(m) + 0.5) / m
    table = (1.0 + 0.2 * np.cos(2 * np.pi * x))
    table /= table.mean()
    dens = density_from_config({"design.kind": "custom-density", "design.table": table,
                                "q": 3})
    assert isinstance(dens, TableDensity)
    assert set(dens.tables) == {0, 1, 2}
    # one table on every covariate: the law is declared exchangeable
    assert dens.exchangeable and not dens.uniform_marginal(2)


def test_gen_design_deterministic():
    law = density_from_config({"q": 3})
    X1 = law.sample(50, 3, np.random.default_rng(42))
    X2 = law.sample(50, 3, np.random.default_rng(42))
    npt.assert_array_equal(X1, X2)
    assert X1.shape == (50, 3)
    X3 = law.sample(50, 3, np.random.default_rng(43))
    assert np.abs(X1 - X3).max() > 1e-3


def test_gen_model_energy_and_sobolev():
    model = gen_model(q=6, s=3, alpha=2.0, Kbound=40.0, kappa1_target=1.0, seed=0)
    assert len(model.J0) == 3
    for j in model.J0:
        npt.assert_allclose(model.component_norm_sq_uniform(j), 1.0, rtol=1e-10)
        assert model.sobolev_sum(j) <= 40.0 ** 2 + 1e-8
    for j in set(range(6)) - set(model.J0):
        assert len(model.theta[j]) == 0


def test_gen_model_infeasible_target_reports_maximum():
    # alpha=1, K=7: feasible max is 49/(2 pi)^2 ~ 1.24
    with pytest.raises(AddselError, match="maximum achievable"):
        gen_model(q=4, s=1, alpha=1.0, Kbound=7.0, kappa1_target=2.0, seed=0)


def test_gen_model_tail_energy_within_budget():
    model = gen_model(q=4, s=2, alpha=2.0, Kbound=60.0, kappa1_target=1.0,
                      tail_fraction=0.05, seed=1)
    j = model.J0[0]
    # energy beyond the head frequencies exists but stays in the Sobolev ball
    assert len(model.theta[j]) > 100
    assert model.sobolev_sum(j) <= 60.0 ** 2 + 1e-6
    assert model.component_norm_sq_uniform(j) >= 1.0


def test_gen_response_noise_scale():
    model = gen_model(q=3, s=1, alpha=2.0, Kbound=40.0, kappa1_target=1.0,
                      seed=2, sigma=0.5)
    X = UniformDensity().sample(20000, 3, np.random.default_rng(3))
    Y = gen_response(model, X, seed=4)
    noise = Y - model.f_values(X)
    npt.assert_allclose(noise.std(), 0.5, rtol=0.05)
    npt.assert_array_equal(gen_response(model, X, seed=4), Y)


def test_m_lower_bound_oracle():
    # [DERIVED] (1*1*2*(1+0)/(0.05*1*1))^(1/4) = 40^(0.25) ~ 2.51 -> 3
    assert m_lower_bound(1.0, 1.0, 2, 0.0, 0.05, 0.0, 1.0, 2.0) == 3
    # doubling kappa can only lower the requirement
    assert m_lower_bound(1.0, 1.0, 2, 0.0, 0.05, 0.0, 2.0, 2.0) <= 3
    with pytest.raises(AssumptionError):
        m_lower_bound(1.0, 1.0, 2, 0.0, 0.05, 1.0, 1.0, 2.0)


def _cfg(**over):
    cfg = dict(n=150, q=5, s=2, qstar=2, sigma=0.3, alpha=2.0, K=40.0,
               kappa1=1.0, trials=6, seed=0, threads=1)
    cfg.setdefault("m_rule", "fixed:5")
    cfg.update(over)
    return cfg


def test_run_trials_reproducible():
    r1, s1 = run_trials(_cfg())
    r2, s2 = run_trials(_cfg())
    assert r1 == r2 and s1 == s2
    assert s1["completed"] == 6
    assert 0.0 <= s1["success_rate"] <= 1.0


def test_run_trials_strong_signal_succeeds():
    _, summary = run_trials(_cfg(n=400, sigma=0.1, trials=5))
    assert summary["success_rate"] == 1.0


def test_run_trials_threads_match_serial():
    r1, s1 = run_trials(_cfg(trials=4))
    r2, s2 = run_trials(_cfg(trials=4, threads=3))
    assert r1 == r2 and s1 == s2


def test_run_trials_records_errors_and_continues():
    # infeasible kappa1 makes every trial fail; batch still completes
    records, summary = run_trials(_cfg(alpha=1.0, K=7.0, kappa1=2.0, trials=3))
    assert summary["errors"] == 3
    assert all("error" in r for r in records)
    assert np.isnan(summary["success_rate"])


def test_run_trials_errors_carry_type():
    records, summary = run_trials(_cfg(alpha=1.0, K=7.0, kappa1=2.0, trials=3))
    assert [r["error_type"] for r in records] == ["AddselError"] * 3
    assert all(r["error"] for r in records)
    assert summary["errors_by_type"] == {"AddselError": 3}
    _, summary = run_trials(_cfg(trials=2))
    assert summary["errors_by_type"] == {}


def test_run_trials_eq7_rule():
    _, summary = run_trials(_cfg(m_rule="eq7", cprime=0.05, trials=2, n=300))
    assert summary["completed"] == 2


@pytest.mark.parametrize("rule", ["fixed:1", "fixed:x"])
def test_run_trials_rejects_malformed_m_rule(rule):
    # checked once before the first trial: no trials on zero-width blocks and
    # no bare ValueError out of the batch
    with pytest.raises(ConfigError, match="m_rule|truncation level"):
        run_trials(_cfg(m_rule=rule))


def test_decay_experiment_slopes():
    out = approximation_decay_experiment(2.0, 30.0, [8, 16, 32, 64], seed=0)
    # [PAPER-STYLE RATES] L2 truncation error ~ m^{-2 alpha}; the ell_1-based
    # sup bound decays like m^{-(2 alpha - 1)}
    assert abs(out["l2_slope"] - (-4.0)) < 0.5
    assert abs(out["sup_slope"] - (-3.0)) < 0.5
    assert not out["exact_representation"]
    l2 = np.asarray(out["l2_errors"])
    assert np.all(np.diff(l2) < 0)


def test_decay_experiment_exact_case():
    # all coefficient mass below the smallest truncation level
    out = approximation_decay_experiment(2.0, 30.0, [8, 16, 32, 64], seed=0,
                                         max_freq=3)
    assert out["exact_representation"]
    assert out["l2_slope"] is None
    npt.assert_allclose(out["l2_errors"], 0.0, atol=1e-28)


def test_run_trials_eq7_custom_density_uses_population_rho(monkeypatch):
    # the eq7 truncation level must see the non-zero rho of a non-uniform marginal
    from addsel import BasisSpec, epsilon_constants, rho_qstar, simulate
    table = 1.0 + 0.8 * np.cos(2 * np.pi * (np.arange(256) + 0.5) / 256)
    seen = []

    def fake_trial(cfg, density, i, child, rho=0.0, eps_prime=0.0):
        seen.append((rho, eps_prime))
        return {"trial": i, "success": True, "exact": True}

    monkeypatch.setattr(simulate, "run_single_trial", fake_trial)
    cfg = _cfg(q=4, m_rule="eq7", cprime=0.05, trials=2,
               **{"design.kind": "custom-density", "design.table": table})
    run_trials(cfg)
    density = density_from_config(cfg)
    probe = BasisSpec.create(4, 6)
    expected = (rho_qstar(probe, density, 2), epsilon_constants(probe, density, 2)[1])
    assert seen == [expected, expected]
    assert expected[0] > 0.5
