import numpy as np
import numpy.testing as npt
import pytest

from addsel import (AddselError, BasisSpec, BudgetError, Dataset,
                    GaussianCopulaDensity, UniformDensity, empirical_projection_gap,
                    project, project_norm_sq, select_exhaustive, select_greedy)
from addsel import selection
from addsel.basis import DesignBlocks, build_design_blocks
from addsel.geometry import subsets_up_to
from addsel.selection import CHOL_PIVOT_RATIO, _better, _SubsetScorer, select_on_blocks


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
    # 200 covariates at qstar = 3: 1,333,501 candidate sets
    ds = Dataset(np.random.default_rng(0).random((20, 200)), np.zeros(20))
    spec = BasisSpec.create(200, 2)
    with pytest.raises(BudgetError, match="greedy"):
        select_exhaustive(ds, spec, 3, 0.0)


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


@pytest.mark.parametrize("law,n,m", [("uniform", 150, 5), ("copula", 150, 5),
                                     ("copula", 30, 12)])
def test_empirical_projection_gap_matches_two_svd_reference(law, n, m, monkeypatch):
    # the gap is read off the scorer's one Gram; at n = 30 the sets with
    # d_J = 33 > n take the scorer's SVD fallback
    rng = np.random.default_rng(15)
    density = UniformDensity() if law == "uniform" else GaussianCopulaDensity(r=0.5)
    X = density.sample(n, 5, rng)
    f = np.sqrt(2) * np.cos(2 * np.pi * X[:, 1]) + np.sqrt(2) * np.sin(2 * np.pi * X[:, 3])
    f = f + 0.3 * rng.standard_normal(n)
    ds = Dataset(X, np.zeros(n))
    spec = BasisSpec.create(5, m)
    blocks = build_design_blocks(X, spec)
    calls = _count_fallbacks(monkeypatch)
    for J, J0 in [((1, 3), (1, 3)), ((0,), (1, 3)), ((0, 1, 4), (1, 3)), ((2,), ()),
                  ((), (1,))]:
        gap = empirical_projection_gap(ds, spec, J, J0, f)
        ref = project_norm_sq(blocks.concat(J0), f) - project_norm_sq(blocks.concat(J), f)
        assert abs(gap - ref) <= 1e-12
    assert (33 in calls) == (n == 30)


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


def test_better_treats_criteria_within_tie_rtol_as_tied():
    from addsel.selection import TIE_RTOL
    assert 0.0 < TIE_RTOL <= 1e-10
    near = 1.0 + 0.1 * TIE_RTOL
    assert _better((1.0, (0, 1)), (near, (1, 2)))
    assert not _better((near, (1, 2)), (1.0, (0, 1)))
    assert _better((1.0, (3,)), (near, (0, 1)))  # smaller |J| first
    assert _better((1.0 + 1e3 * TIE_RTOL, (1, 2)), (1.0, (0, 1)))


def test_exact_ties_fall_to_size_then_lexicographic_order():
    # covariate 2 copies covariate 0, so (0, 1) and (1, 2) span one space and
    # their criteria are equal in exact arithmetic; the SVD path orders them by
    # rounding unless near-equal values count as tied
    rng = np.random.default_rng(12)
    X = rng.random((120, 4))
    X[:, 2] = X[:, 0]
    ds = Dataset(X, np.sqrt(2) * np.cos(2 * np.pi * X[:, 0]) + 0.3 * rng.standard_normal(120))
    spec = BasisSpec.create(4, 4)
    res = select_exhaustive(ds, spec, 2, 0.09)
    crit, chosen = _reference(ds, spec, 2, 0.09)
    assert abs(crit[(0, 1)] - crit[(1, 2)]) <= 1e-14
    assert res.chosen == (0, 1)
    assert chosen == (0, 1)


@pytest.mark.parametrize("n", [5, 64, 800])
def test_scorer_right_hand_side_equals_separate_blocks(n):
    # b = (A_j^T Y)_j off the one design matrix equals it off separately built
    # blocks, bit for bit, at every block width (narrow blocks are copied)
    rng = np.random.default_rng(n)
    m = tuple(range(2, 15))  # widths 1 .. 13
    spec = BasisSpec.create(len(m), m)
    X, Y = rng.random((n, len(m))), rng.standard_normal(n)
    design = build_design_blocks(X, spec)
    separate = [np.ascontiguousarray(B) for B in design.blocks]
    assert np.array_equal(_SubsetScorer(design, Y).b,
                          np.concatenate([B.T @ Y for B in separate]))


def test_select_on_blocks_memory_peak_is_the_gram():
    # the scorer reads the Gram of the one design matrix: no n x d copy of
    # the design (1.8 MB here) is made beside it, and a subset's rows of the
    # Gram (d_J x d, 157 KB at d_J = 70) are the largest temporary
    import tracemalloc
    from addsel.selection import select_on_blocks
    rng = np.random.default_rng(36)
    spec = BasisSpec.create(8, 36)
    design = build_design_blocks(rng.random((800, 8)), spec)
    Y = rng.standard_normal(800)
    tracemalloc.start()
    try:
        select_on_blocks(design, Y, spec, 2, 0.25)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    gram = design.full_gram().nbytes
    assert gram == 280 * 280 * 8 and design.A.nbytes == 800 * 280 * 8
    assert peak <= gram + (256 << 10)


@pytest.mark.parametrize("case", ["wider-m", "other-q", "short-Y"])
def test_select_on_blocks_refuses_a_design_not_built_for_spec(case):
    # the penalty reads d_J from the spec and the norms from the blocks, so a
    # design built at another m or q would shift every criterion silently
    rng = np.random.default_rng(8)
    X, Y = rng.random((60, 3)), rng.standard_normal(60)
    spec = BasisSpec.create(3, 5)
    design = build_design_blocks(X, spec)
    other = {"wider-m": BasisSpec.create(3, 9), "other-q": BasisSpec.create(2, 5)}.get(case, spec)
    with pytest.raises(AddselError, match="not built for the spec"):
        select_on_blocks(design, Y[:59] if case == "short-Y" else Y, other, 1, 0.25)
