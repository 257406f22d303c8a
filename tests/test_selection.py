import numpy as np
import numpy.testing as npt
import pytest

from addsel import (AddselError, BasisSpec, BudgetError, Dataset,
                    GaussianCopulaDensity, UniformDensity, empirical_projection_gap,
                    project, project_norm_sq, select_exhaustive, select_greedy)
from addsel import selection
from addsel.basis import DesignBlocks, build_design_blocks
from addsel.geometry import subsets_up_to
from addsel.selection import CHOL_PIVOT_RATIO, _better, _SubsetScorer


def test_dataset_validation():
    with pytest.raises(AddselError):
        Dataset(np.ones((3, 2)), np.ones(4))
    with pytest.raises(AddselError):
        Dataset(np.array([[0.1, np.nan]]), np.array([1.0]))


def test_projection_norm_against_lstsq():
    # [DERIVED] |Pi_J Y|^2 equals the squared norm of the least-squares fit
    rng = np.random.default_rng(0)
    A = rng.standard_normal((30, 4))
    Y = rng.standard_normal(30)
    coef, *_ = np.linalg.lstsq(A, Y, rcond=None)
    fit = A @ coef
    npt.assert_allclose(project_norm_sq(A, Y), fit @ fit / 30, rtol=1e-10)
    npt.assert_allclose(project(A, Y), fit, atol=1e-10)


def test_projection_handles_duplicate_columns():
    rng = np.random.default_rng(1)
    a = rng.standard_normal((20, 1))
    A = np.hstack([a, a])  # rank 1
    Y = rng.standard_normal(20)
    npt.assert_allclose(project_norm_sq(A, Y), project_norm_sq(a, Y), rtol=1e-10)


def test_empty_projection_is_zero():
    Y = np.ones(5)
    assert project_norm_sq(np.empty((5, 0)), Y) == 0.0
    npt.assert_array_equal(project(np.empty((5, 0)), Y), np.zeros(5))


def _toy(n=200, q=5, seed=0, sigma=0.0):
    rng = np.random.default_rng(seed)
    X = rng.random((n, q))
    f = np.sqrt(2) * np.cos(2 * np.pi * X[:, 1]) + np.sqrt(2) * np.sin(2 * np.pi * X[:, 3])
    Y = f + sigma * rng.standard_normal(n)
    return Dataset(X, Y)


def test_exhaustive_recovers_noiseless_signal():
    ds = _toy()
    spec = BasisSpec.create(5, 5)
    res = select_exhaustive(ds, spec, 2, sigma2=0.0)
    assert res.chosen == (1, 3)
    assert res.search_mode == "exhaustive"
    # criterion of the winner beats every competitor
    assert all(res.criterion_of(res.chosen) >= v for v in res.criterion.values())


def test_penalty_shrinks_selected_set():
    # with a huge penalty the empty set wins
    ds = _toy(sigma=0.1, seed=3)
    spec = BasisSpec.create(5, 5)
    res = select_exhaustive(ds, spec, 2, sigma2=1e6)
    assert res.chosen == ()


def test_criterion_value_formula():
    # [DERIVED] criterion = |Pi_J Y|_n^2 - sigma^2 d_J / n, checked directly
    ds = _toy(seed=5, sigma=0.2)
    spec = BasisSpec.create(5, 4)
    sigma2 = 0.04
    res = select_exhaustive(ds, spec, 2, sigma2)
    blocks = build_design_blocks(ds.X, spec)
    J = (1, 3)
    direct = project_norm_sq(blocks.concat(J), ds.Y) - sigma2 * spec.d_J(J) / ds.n
    npt.assert_allclose(res.criterion_of(J), direct, rtol=1e-12)


def test_budget_error_suggests_greedy():
    ds = Dataset(np.random.default_rng(0).random((20, 30)), np.zeros(20))
    spec = BasisSpec.create(30, 3)
    with pytest.raises(BudgetError, match="greedy"):
        select_exhaustive(ds, spec, 3, 0.0, budget=10)


def test_greedy_matches_exhaustive_on_easy_problem():
    ds = _toy(sigma=0.1, seed=9)
    spec = BasisSpec.create(5, 5)
    ex = select_exhaustive(ds, spec, 2, sigma2=0.01)
    gr = select_greedy(ds, spec, 2, sigma2=0.01)
    assert gr.chosen == ex.chosen
    assert gr.search_mode == "greedy"


def test_deterministic_tie_break_prefers_smaller_then_lexicographic():
    # response identically zero: all criteria equal zero when sigma2 = 0,
    # so the empty set must win
    ds = Dataset(np.random.default_rng(2).random((50, 3)), np.zeros(50))
    spec = BasisSpec.create(3, 4)
    res = select_exhaustive(ds, spec, 2, sigma2=0.0)
    assert res.chosen == ()


def test_empirical_projection_gap_noiseless():
    ds = _toy()
    spec = BasisSpec.create(5, 5)
    f = ds.Y.copy()  # noiseless construction
    gap = empirical_projection_gap(ds, spec, (1, 3), (1, 3), f)
    npt.assert_allclose(gap, 0.0, atol=1e-12)
    gap_bad = empirical_projection_gap(ds, spec, (0,), (1, 3), f)
    assert gap_bad > 0.5


def _reference(ds, spec, qstar, sigma2):
    """Criterion dict and argmax from one SVD projection per subset."""
    blocks = build_design_blocks(ds.X, spec)
    crit = {(): 0.0}
    best = (0.0, ())
    for J in subsets_up_to(spec.q, qstar):
        crit[J] = project_norm_sq(blocks.concat(J), ds.Y) - sigma2 * spec.d_J(J) / ds.n
        if _better((crit[J], J), best):
            best = (crit[J], J)
    return crit, best[1]


def _count_fallbacks(monkeypatch):
    calls = []
    original = selection.project_norm_sq

    def counted(A_J, Y):
        calls.append(A_J.shape[1])
        return original(A_J, Y)

    monkeypatch.setattr(selection, "project_norm_sq", counted)
    return calls


def _assert_matches_reference(ds, spec, qstar, sigma2):
    crit, chosen = _reference(ds, spec, qstar, sigma2)
    res = select_exhaustive(ds, spec, qstar, sigma2)
    assert res.criterion.keys() == crit.keys()
    npt.assert_allclose([res.criterion[J] for J in crit], list(crit.values()),
                        rtol=0.0, atol=1e-12)
    assert res.chosen == chosen
    greedy = select_greedy(ds, spec, qstar, sigma2)
    npt.assert_allclose([greedy.criterion[J] for J in greedy.criterion],
                        [crit[J] for J in greedy.criterion], rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("law", ["uniform", "copula"])
def test_gram_scorer_matches_svd_reference(law, monkeypatch):
    rng = np.random.default_rng(11)
    density = UniformDensity() if law == "uniform" else GaussianCopulaDensity(r=0.6)
    X = density.sample(150, 6, rng)
    f = np.sqrt(2) * np.cos(2 * np.pi * X[:, 1]) + np.sqrt(2) * np.sin(2 * np.pi * X[:, 4])
    ds = Dataset(X, f + 0.4 * rng.standard_normal(150))
    calls = _count_fallbacks(monkeypatch)
    _assert_matches_reference(ds, BasisSpec.create(6, 5), 3, 0.16)
    assert calls == []  # no subset took the SVD path


def test_gram_scorer_falls_back_on_collinear_blocks(monkeypatch):
    # covariates 0 and 2 are identical, so every J holding both is singular;
    # the signal sits on 1 and 3, away from the exact ties J u {0} = J u {2}
    rng = np.random.default_rng(12)
    X = rng.random((120, 4))
    X[:, 2] = X[:, 0]
    f = np.sqrt(2) * np.cos(2 * np.pi * X[:, 1]) + np.sqrt(2) * np.sin(2 * np.pi * X[:, 3])
    ds = Dataset(X, f + 0.3 * rng.standard_normal(120))
    spec = BasisSpec.create(4, 4)
    calls = _count_fallbacks(monkeypatch)
    select_exhaustive(ds, spec, 2, 0.09)
    assert calls == [6]  # only J = (0, 2), by the SVD path
    calls.clear()
    _assert_matches_reference(ds, spec, 2, 0.09)


def test_gram_scorer_falls_back_when_d_J_exceeds_n(monkeypatch):
    # n = 30 rows against 35 columns per block: every J takes the SVD path
    rng = np.random.default_rng(13)
    X = rng.random((30, 3))
    ds = Dataset(X, rng.standard_normal(30))
    spec = BasisSpec.create(3, 36)
    calls = _count_fallbacks(monkeypatch)
    res = select_exhaustive(ds, spec, 2, 0.5)
    assert sorted(calls) == [35] * 3 + [70] * 3
    crit, chosen = _reference(ds, spec, 2, 0.5)
    assert res.criterion == crit and res.chosen == chosen


def test_cholesky_pivot_ratio_keeps_fast_path_within_1e_12(monkeypatch):
    # [DERIVED] the normal-equation error grows like kappa(A)^2 eps; with Y
    # along the weakest direction of A it reaches 1e-12 near kappa = 300.
    # CHOL_PIVOT_RATIO must send every such design to the SVD path.
    rng = np.random.default_rng(14)
    n, d = 400, 40
    calls = _count_fallbacks(monkeypatch)
    fast_kappas = []
    for kappa in (1.0, 10.0, 30.0, 100.0, 300.0, 1e3, 1e4, 1e6):
        U, _ = np.linalg.qr(rng.standard_normal((n, d)))
        V, _ = np.linalg.qr(rng.standard_normal((d, d)))
        A = (U * np.geomspace(1.0, 1.0 / kappa, d)) @ V.T
        Y = U[:, -1] * np.sqrt(n) + 0.5 * rng.standard_normal(n)
        before = len(calls)
        fast = _SubsetScorer(DesignBlocks([A]), Y).norm_sq((0,))
        if len(calls) == before:
            fast_kappas.append(kappa)
        assert abs(fast - project_norm_sq(A, Y)) <= 1e-12
    assert 0.0 < CHOL_PIVOT_RATIO < 0.5
    assert 30.0 in fast_kappas and 300.0 not in fast_kappas
