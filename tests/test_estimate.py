import numpy as np
import numpy.testing as npt
import pytest

from addsel import (AddselError, BasisSpec, Dataset, UniformDensity, component_risk,
                    default_m_target, estimate_component, gen_model, gen_response,
                    rate_experiment, select_exhaustive)
from addsel.simulate import AdditiveModel


def test_default_m_target():
    # [DERIVED] ceil(n^{1/(2 alpha + 1)}): 1000^{1/5} ~ 3.98 -> 4
    assert default_m_target(1000, 2.0) == 4
    assert default_m_target(1000, 1.0) == 10
    assert default_m_target(1, 2.0) == 1


def _setup(n2=800, sigma=0.2, seed=0):
    model = gen_model(q=4, s=2, alpha=2.0, Kbound=40.0, kappa1_target=1.0,
                      seed=seed, sigma=sigma)
    X = UniformDensity().sample(n2, 4, np.random.default_rng(seed + 1))
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


def test_estimate_rank_deficiency_with_fewer_columns_than_rows():
    # covariate 1 is a copy of covariate 0, which carries the signal: selection
    # keeps 0 and the target 1 joins it, so J_fit holds two identical blocks
    # (8 columns, 200 rows) and the refit must refuse the collinear design
    rng = np.random.default_rng(3)
    X = UniformDensity().sample(400, 3, rng)
    X[:, 1] = X[:, 0]
    Y = np.sqrt(2.0) * np.cos(2 * np.pi * X[:, 0]) + 0.1 * rng.standard_normal(400)
    spec = BasisSpec.create(3, 5)
    assert 0 in select_exhaustive(Dataset(X[:200], Y[:200]), spec, 2, 0.01).chosen
    with pytest.raises(AddselError, match="rank deficient"):
        estimate_component(Dataset(X, Y), spec, 2, 0.01, target=1, m_target=5)


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


def _reference_estimate(dataset, spec, qstar, sigma2, target, m_target):
    """The refit as first written: all q second-half blocks, J_fit concatenated."""
    from addsel import build_design_blocks, select_exhaustive
    n = dataset.n // 2
    chosen = select_exhaustive(Dataset(dataset.X[:n], dataset.Y[:n]), spec, qstar,
                               sigma2).chosen
    J_fit = tuple(sorted(set(chosen) | {target}))
    m_fit = list(spec.m)
    m_fit[target] = max(m_target, 2)
    fit_spec = BasisSpec.create(spec.q, tuple(m_fit), centered=True)
    A = build_design_blocks(dataset.X[n:], fit_spec).concat(J_fit)
    coef, *_ = np.linalg.lstsq(A, dataset.Y[n:] / np.sqrt(n), rcond=None)
    offset = sum(fit_spec.dim(j) for j in J_fit if j < target)
    return coef[offset:offset + fit_spec.dim(target)], chosen


def _tilted_on(j):
    from addsel import TableDensity
    return TableDensity(tables={j: 1.0 + 0.8 * np.cos(2 * np.pi * (np.arange(256) + 0.5) / 256)})


@pytest.mark.parametrize("law", ["uniform", "table"])
def test_estimate_component_refits_only_J_fit_bitwise(law, monkeypatch):
    # building only J_fit's second-half blocks changes no bit of the fit, and
    # builds |J_fit| blocks where the reference builds q
    from addsel import estimate as estimate_mod
    model = gen_model(q=6, s=2, alpha=2.0, Kbound=40.0, kappa1_target=1.0, seed=3,
                      sigma=0.3)
    target = model.J0[0]
    density = UniformDensity() if law == "uniform" else \
        _tilted_on(next(j for j in range(6) if j != target))
    rng = np.random.default_rng(4)
    X = density.sample(600, 6, rng)
    ds = Dataset(X, gen_response(model, X, rng))
    spec = BasisSpec.create(6, 5)
    built = []
    original = estimate_mod.build_design_block
    monkeypatch.setattr(estimate_mod, "build_design_block",
                        lambda xcol, m, centered: built.append(m) or original(xcol, m, centered))
    est = estimate_component(ds, spec, 2, 0.09, target, m_target=7)
    coef, chosen = _reference_estimate(ds, spec, 2, 0.09, target, 7)
    assert est.selected == chosen
    assert np.array_equal(est.coefficients, coef)
    J_fit = sorted(set(chosen) | {target})
    assert len(built) == len(J_fit) < spec.q
    assert built == [7 if j == target else 5 for j in J_fit]
    # second-half entries outside [0,1] are refused on covariates outside J_fit too
    bad = X.copy()
    bad[-1, next(j for j in range(6) if j not in J_fit)] = 1.5
    with pytest.raises(AddselError, match=r"\[0,1\]"):
        estimate_component(Dataset(bad, ds.Y), spec, 2, 0.09, target, m_target=7)
