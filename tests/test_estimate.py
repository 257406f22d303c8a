import numpy as np
import numpy.testing as npt
import pytest

from addsel import (AddselError, BasisSpec, Dataset, DesignLaw, UniformDensity,
                    component_risk, default_m_target, estimate_component,
                    gen_design, gen_model, gen_response, rate_experiment)
from addsel.simulate import AdditiveModel


def test_default_m_target():
    # [DERIVED] ceil(n^{1/(2 alpha + 1)}): 1000^{1/5} ~ 3.98 -> 4
    assert default_m_target(1000, 2.0) == 4
    assert default_m_target(1000, 1.0) == 10
    assert default_m_target(1, 2.0) == 1


def _setup(n2=800, sigma=0.2, seed=0):
    model = gen_model(q=4, s=2, alpha=2.0, Kbound=40.0, kappa1_target=1.0,
                      seed=seed, sigma=sigma)
    X = gen_design(DesignLaw(), n2, 4, seed=seed + 1)
    Y = gen_response(model, X, seed=seed + 2)
    return model, Dataset(X, Y)


def test_estimate_component_recovers_truth():
    model, ds = _setup()
    target = model.J0[0]
    spec = BasisSpec.create(4, 5)
    est = estimate_component(ds, spec, 2, model.sigma ** 2, target, m_target=7)
    assert est.target == target
    assert est.n_half == 400
    risk = component_risk(model, est)
    assert risk < 0.05
    # fitted values track the true component pointwise
    x = np.linspace(0.0, 1.0, 101)
    err = np.abs(est.values(x) - model.component_values(target, x))
    assert err.max() < 0.5


def test_estimate_inactive_target_yields_small_fit():
    model, ds = _setup(seed=5)
    inactive = next(j for j in range(4) if j not in model.J0)
    spec = BasisSpec.create(4, 5)
    est = estimate_component(ds, spec, 2, model.sigma ** 2, inactive, m_target=4)
    # target is always refit even when not selected
    assert est.coefficients.shape == (3,)
    assert component_risk(model, est) < 0.05


def test_estimate_requires_even_sample():
    model, ds = _setup()
    with pytest.raises(AddselError, match="even"):
        estimate_component(Dataset(ds.X[:401], ds.Y[:401]),
                           BasisSpec.create(4, 5), 2, 0.04, 0)


def test_estimate_rank_deficiency_error():
    # more target columns than second-half rows forces rank deficiency
    model, ds = _setup(n2=40)
    with pytest.raises(AddselError, match="rank"):
        estimate_component(ds, BasisSpec.create(4, 5), 2, 0.04, model.J0[0],
                           m_target=60)


def test_component_risk_uniform_parseval():
    # [DERIVED] risk = sum of squared coefficient differences plus the tail
    theta = [np.array([1.0, 0.5, 0.0, 0.2]), np.zeros(0)]
    model = AdditiveModel(q=2, J0=(0,), theta=theta, alpha=(2.0, 2.0),
                          Kbound=(40.0, 40.0))
    from addsel.estimate import ComponentEstimate
    est = ComponentEstimate(target=0, coefficients=np.array([0.9, 0.5]),
                            selected=(0,), m_target=3, n_half=10)
    expected = (1.0 - 0.9) ** 2 + 0.0 + 0.0 + 0.2 ** 2
    npt.assert_allclose(component_risk(model, est), expected, rtol=1e-12)
    npt.assert_allclose(component_risk(model, est, UniformDensity()), expected,
                        rtol=1e-12)


def test_rate_experiment_risk_decreases():
    cfg = dict(q=4, s=2, qstar=2, sigma=0.3, alpha=2.0, K=40.0, kappa1=1.0,
               seed=1, target=0, m_target=0, n_grid=[200, 400, 800, 1600],
               reps=4, m_rule="fixed:5")
    out = rate_experiment(cfg)
    assert out["errors"] == 0
    risks = np.asarray(out["mean_risk"])
    assert risks[-1] < risks[0]
    assert out["slope"] < 0
    lo, hi = out["slope_band"]
    assert lo <= out["slope"] <= hi


def test_uniform_covariate_beside_a_table_matches_quadrature():
    # a table on covariate 1 only: covariate 0 is declared uniform and takes the
    # Parseval/truncation path; a flat table on covariate 0 sends the same law
    # through the quadrature path
    from addsel import TableDensity
    from addsel.diagnostics import _component_projection_coef
    from addsel.estimate import ComponentEstimate
    tilt = 1.0 + 0.8 * np.cos(2 * np.pi * (np.arange(256) + 0.5) / 256)
    declared = TableDensity(tables={1: tilt})
    quadrature = TableDensity(tables={0: np.ones(256), 1: tilt})
    assert declared.uniform_marginal(0) and not declared.uniform_marginal(1)
    assert not quadrature.uniform_marginal(0)
    theta = np.array([1.0, -0.4, 0.3, 0.0, 0.2, 0.1])
    model = AdditiveModel(q=2, J0=(0,), theta=[theta, np.zeros(0)], alpha=(2.0, 2.0),
                          Kbound=(40.0, 40.0))
    est = ComponentEstimate(target=0, coefficients=np.array([0.9, -0.3, 0.25]),
                            selected=(0,), m_target=4, n_half=10)
    npt.assert_allclose(component_risk(model, est, declared),
                        component_risk(model, est, quadrature), rtol=0.0, atol=1e-12)
    spec = BasisSpec.create(2, 4)
    npt.assert_allclose(_component_projection_coef(theta, spec, declared, 0),
                        _component_projection_coef(theta, spec, quadrature, 0),
                        rtol=0.0, atol=1e-12)
