import json
import subprocess
import sys

import numpy as np
import numpy.testing as npt
import pytest

from addsel import (AddselError, AssumptionError, BasisSpec, Dataset, GaussianCopulaDensity,
                    TableDensity, UniformDensity, component_risk, default_m_target,
                    estimate_component, gen_model, gen_response, rate_experiment,
                    select_exhaustive)
from addsel.config import parse_config
from addsel.estimate import _percentiles, _simulated_estimate
from addsel.simulate import AdditiveModel, model_from_config


def test_default_m_target_refuses_nonpositive_alpha():
    for alpha in (0.0, -0.5):
        with pytest.raises(AssumptionError, match="alpha"):
            default_m_target(100, alpha)


def test_rate_experiment_refuses_nonpositive_grid():
    # library callers bypass parse_config, so rate_experiment checks the grid itself
    cfg = dict(q=4, s=2, qstar=2, sigma=0.3, alpha=2.0, K=40.0, kappa1=1.0, seed=1,
               target=0, m_target=0, n_grid=[-8, -4, 2], reps=2)
    with pytest.raises(AddselError, match="positive"):
        rate_experiment(cfg)


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
    fit_spec = BasisSpec.create(spec.q, tuple(m_fit))
    A = build_design_blocks(dataset.X[n:], fit_spec).concat(J_fit)
    coef, *_ = np.linalg.lstsq(A, dataset.Y[n:] / np.sqrt(n), rcond=None)
    offset = sum(fit_spec.dim(j) for j in J_fit if j < target)
    return coef[offset:offset + fit_spec.dim(target)], chosen


def _tilted_on(j):
    from addsel import TableDensity
    return TableDensity(tables={j: 1.0 + 0.8 * np.cos(2 * np.pi * (np.arange(256) + 0.5) / 256)})


@pytest.mark.parametrize("law", ["uniform", "table"])
def test_estimate_component_refits_only_J_fit_bitwise(law, monkeypatch):
    # giving the covariates outside J_fit m_j = 1 changes no bit of the fit,
    # and evaluates no harmonic of theirs on the second half
    from addsel import basis
    model = gen_model(q=6, s=2, alpha=2.0, Kbound=40.0, kappa1_target=1.0, seed=3,
                      sigma=0.3)
    target = model.J0[0]
    density = UniformDensity() if law == "uniform" else \
        _tilted_on(next(j for j in range(6) if j != target))
    rng = np.random.default_rng(4)
    X = density.sample(600, 6, rng)
    ds = Dataset(X, gen_response(model, X, rng))
    spec = BasisSpec.create(6, 5)
    coef, chosen = _reference_estimate(ds, spec, 2, 0.09, target, 7)
    columns = []
    original = basis.basis_matrix
    monkeypatch.setattr(basis, "basis_matrix",
                        lambda ks, x, **kw: columns.append(len(ks)) or original(ks, x, **kw))
    est = estimate_component(ds, spec, 2, 0.09, target, m_target=7)
    assert est.selected == chosen
    assert np.array_equal(est.coefficients, coef)
    J_fit = sorted(set(chosen) | {target})
    assert len(J_fit) < spec.q
    # the first-half selection evaluates all q blocks, the refit only J_fit's
    assert columns == [4] * spec.q + [6 if j == target else 4 if j in J_fit else 0
                                      for j in range(spec.q)]
    # second-half entries outside [0,1] are refused on covariates outside J_fit too
    bad = X.copy()
    bad[-1, next(j for j in range(6) if j not in J_fit)] = 1.5
    with pytest.raises(AddselError, match=r"\[0,1\]"):
        estimate_component(Dataset(bad, ds.Y), spec, 2, 0.09, target, m_target=7)


def test_percentiles_equal_numpy_bitwise():
    # the slope band's helper against np.percentile's default linear method,
    # on continuous draws and on draws with many ties, also of zeros of either
    # sign; both branches of the lerp (weight below and from 0.5 on) occur
    rng = np.random.default_rng(23)
    ps = (2.5, 97.5, 0.0, 50.0, 100.0, 33.3)
    for n in range(1, 201):
        for values in (rng.standard_normal(n), rng.integers(0, 4, n).astype(float),
                       np.round(rng.standard_normal(n), 0)):
            want = np.percentile(values, list(ps)).tolist()
            got = _percentiles(values, ps)
            assert got == want, n
            assert np.signbit(got).tolist() == np.signbit(want).tolist(), n


ESTIMATE_WITHOUT_MA = r"""
import json, sys
from addsel.cli import main
assert main(["estimate", "--config", "est.cfg", "--out", "est.jsonl"]) == 0
print(json.dumps("numpy.ma" in sys.modules))
"""


def test_estimate_leaves_numpy_ma_unloaded(tmp_path):
    # np.percentile calls np.unique, which imports numpy.ma (about 10 ms)
    (tmp_path / "est.cfg").write_text("q = 4\ns = 2\nqstar = 2\nm_rule = fixed:4\n"
                                      "target = 0\nn_grid = 128,256,512\nreps = 2\n")
    proc = subprocess.run([sys.executable, "-c", ESTIMATE_WITHOUT_MA], cwd=tmp_path,
                          capture_output=True, text=True, check=True)
    assert json.loads(proc.stdout) is False
    report = json.loads((tmp_path / "est.jsonl").read_text().splitlines()[-1])
    assert report["slope_band"] is not None


TILT = 1.0 + 0.8 * np.cos(2 * np.pi * (np.arange(256) + 0.5) / 256)
LAWS = {"uniform": UniformDensity(), "copula": GaussianCopulaDensity(r=0.3),
        "table": TableDensity(tables={j: TILT for j in range(5)})}


def _reference_fit(model, X, rng, spec, qstar, sigma2, target, m_target, alpha):
    """rate_experiment's fit as first written: the response, then estimate_component."""
    return estimate_component(Dataset(X, gen_response(model, X, rng)), spec, qstar,
                              sigma2, target, m_target=m_target, alpha=alpha)


def _noisy_fit_inputs(law, seed, n2=600, q=5, s=2):
    model = gen_model(q=q, s=s, alpha=2.0, Kbound=40.0, kappa1_target=1.0, seed=seed,
                      sigma=0.5)
    X = LAWS[law].sample(n2, q, np.random.default_rng(seed + 1))
    return model, X


@pytest.mark.parametrize("m_target", [None, 7])
@pytest.mark.parametrize("law", sorted(LAWS))
def test_simulated_estimate_equals_reference_fit_bitwise(law, m_target, monkeypatch):
    # the table path against gen_response + estimate_component, with ==: the
    # coefficients, the selected set, every first-half criterion and the risk;
    # a target outside J0 too, and a penalty too small to keep inactive
    # covariates out of the selection
    from addsel import estimate, selection
    criteria = []
    select = selection.select_on_blocks

    def recording(*args):
        result = select(*args)
        criteria.append(result.criterion)
        return result

    monkeypatch.setattr(selection, "select_on_blocks", recording)
    monkeypatch.setattr(estimate, "select_on_blocks", recording)
    for seed, sigma2, qstar, active in ((3, 0.25, 2, True), (8, 0.0, 3, True),
                                        (11, 0.25, 2, False)):
        model, X = _noisy_fit_inputs(law, seed)
        target = model.J0[0] if active else \
            next(j for j in range(model.q) if j not in model.J0)
        spec = BasisSpec.create(model.q, 5)
        args = (spec, qstar, sigma2, target, m_target, 2.0)
        want = _reference_fit(model, X, np.random.default_rng(seed + 2), *args)
        got = _simulated_estimate(model, X, np.random.default_rng(seed + 2), *args)
        assert got.selected == want.selected
        assert criteria.pop() == criteria.pop()
        assert np.array_equal(got.coefficients, want.coefficients)
        assert (got.target, got.m_target, got.n_half) == \
            (want.target, want.m_target, want.n_half)
        assert component_risk(model, got, LAWS[law]) == \
            component_risk(model, want, LAWS[law])


@pytest.mark.parametrize("m_target", [0, 7])
@pytest.mark.parametrize("law", sorted(LAWS))
def test_rate_experiment_equals_reference_fit_bitwise(law, m_target, monkeypatch):
    # the whole experiment, relabelled targets included (s = 2 of q = 4 leaves
    # target 0 inactive in about half the reps), byte for byte
    from addsel import estimate
    law_keys = {"uniform": "", "copula": "design.kind = gaussian-copula\ndesign.r = 0.3\n",
                "table": "design.kind = custom-density\ndesign.table = "
                         + ", ".join(repr(float(v)) for v in TILT) + "\n"}[law]
    cfg = parse_config(law_keys + "q = 4\ns = 2\nqstar = 2\nm_rule = fixed:5\n"
                       f"target = 0\nm_target = {m_target}\nsigma = 0.4\nseed = 5\n"
                       "n_grid = 64,128,256\nreps = 6\n")
    got = rate_experiment(cfg)
    monkeypatch.setattr(estimate, "_simulated_estimate", _reference_fit)
    assert json.dumps(got) == json.dumps(rate_experiment(cfg))
    # some reps draw J0 without the target, which is then relabelled active
    children = np.random.SeedSequence(5).spawn(3 * 6)
    assert any(0 not in model_from_config(cfg, np.random.default_rng(c)).J0
               for c in children)


def test_simulated_estimate_refuses_rank_deficiency_as_the_reference():
    # more target columns than second-half rows: the same refusal, word for word
    model, X = _noisy_fit_inputs("uniform", 3, n2=40, q=4)
    spec = BasisSpec.create(4, 5)
    args = (spec, 2, 0.04, model.J0[0], 60, 2.0)
    with pytest.raises(AddselError, match="rank deficient") as want:
        _reference_fit(model, X, np.random.default_rng(0), *args)
    with pytest.raises(AddselError, match="rank deficient") as got:
        _simulated_estimate(model, X, np.random.default_rng(0), *args)
    assert str(got.value) == str(want.value)


def test_simulated_estimate_evaluates_each_covariate_once(monkeypatch):
    # one table per covariate (2n rows for J0 and the target, n for the rest),
    # as wide as the response, the selection and the refit need, plus one
    # second-half block per selected covariate outside J0 that is not the target
    from addsel import estimate
    model, X = _noisy_fit_inputs("uniform", 8, q=6, s=1)
    n = len(X) // 2
    target = model.J0[0]
    spec = BasisSpec.create(6, 5)
    args = (spec, 3, 0.0, target, 9, 2.0)
    calls = []
    original = estimate.basis_matrix
    monkeypatch.setattr(estimate, "basis_matrix",
                        lambda ks, x: calls.append((len(ks), len(x))) or original(ks, x))
    got = _simulated_estimate(model, X, np.random.default_rng(9), *args)
    want = _reference_fit(model, X, np.random.default_rng(9), *args)
    assert got.selected == want.selected
    assert np.array_equal(got.coefficients, want.coefficients)
    extra = [j for j in got.selected if j not in model.J0 and j != target]
    assert len(extra) == 2
    width = max(len(model.theta[target]) + 1, 9) - 1
    assert calls == [(width, 2 * n) if j == target else (4, n) for j in range(6)] + \
        [(4, n)] * len(extra)
