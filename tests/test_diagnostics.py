import itertools
from math import comb

import numpy as np
import numpy.testing as npt
import pytest

from addsel import (AssumptionError, BasisSpec, BudgetError, Dataset,
                    UniformDensity, bennett_truncation_bound, check_cprime,
                    chi2_tail_bounds, corollary_conditions, event_A_check,
                    event_E_check, rip_constant, sample_subsets,
                    selection_error_bound, subset_count_bound,
                    truncation_residual_norm_sq)
from addsel.basis import EIG_CHUNK, block_column_chunks, block_slices, \
    build_design_blocks, full_block_gram, principal_submatrices
from addsel.diagnostics import event_E_from_grams
from addsel.errors import SingularBlockError
from addsel.geometry import EIG_FLOOR, _inv_sqrt, singular_gram_error
from addsel.simulate import AdditiveModel
from addsel.unions import CERT_MARGIN, _definite, _deviation_below, _factorizes, \
    union_collection


def test_chi2_tail_bounds_oracle():
    # [DERIVED] upper = exp(-x^2/(2(2d+2x))), lower = exp(-x^2/(4d))
    up, lo = chi2_tail_bounds(2, 2.0)
    npt.assert_allclose(up, np.exp(-4.0 / (2.0 * 8.0)))
    npt.assert_allclose(lo, np.exp(-4.0 / 8.0))
    assert chi2_tail_bounds(5, 0.0) == (1.0, 1.0)
    with pytest.raises(AssumptionError):
        chi2_tail_bounds(0, 1.0)


def test_chi2_tail_bounds_dominate_empirical_tails():
    # the closed forms really are upper bounds on the chi-square tails
    from scipy.stats import chi2
    for d in (1, 4, 16):
        for x in (0.5, 2.0, 8.0):
            up, lo = chi2_tail_bounds(d, x)
            assert chi2.sf(d + x, d) <= up + 1e-12
            assert chi2.cdf(d - x, d) <= lo + 1e-12


def test_bennett_truncation_bound_value():
    npt.assert_allclose(bennett_truncation_bound(100, 0.5, 2.0),
                        np.exp(-3.0 * 100 * 0.5 / 16.0))
    with pytest.raises(AssumptionError):
        bennett_truncation_bound(10, -1.0, 1.0)


def test_subset_count_bound_oracle():
    # [DERIVED] sum_{j<=2} C(8,j) = 1 + 8 + 28 = 37; bound = (e*8/2)^2
    exact, bound = subset_count_bound(8, 2)
    assert exact == 37
    npt.assert_allclose(bound, (np.e * 4.0) ** 2)
    assert exact <= bound


def test_check_cprime_boundary():
    assert check_cprime(0.5, 0.001)
    assert not check_cprime(0.5, 0.01)
    with pytest.raises(AssumptionError):
        check_cprime(1.0, 0.001)


def test_union_collection_dedup():
    unions = list(union_collection(4, 1, (0,)))
    # J in {(),(0,),(1,),(2,),(3,)} -> unions {0},{0,1},{0,2},{0,3}
    assert sorted(unions) == [(0,), (0, 1), (0, 2), (0, 3)]


def _seen_set_unions(q, qstar, J0, subsets=None):
    """union_collection as a loop over one ``seen`` set, for reference."""
    J0 = tuple(sorted(J0))
    if subsets is None:
        subsets = itertools.chain([()], *(itertools.combinations(range(q), r)
                                          for r in range(1, qstar + 1)))
    seen = set()
    for J in subsets:
        union = tuple(sorted(set(J) | set(J0)))
        if union and union not in seen:
            seen.add(union)
            yield union


@pytest.mark.parametrize("J0", [(), (3,), (1, 6, 9)])
@pytest.mark.parametrize("sampled", [False, True])
def test_union_collection_equals_seen_set_loop(J0, sampled):
    subsets = sample_subsets(12, 3, 150, seed=2) if sampled else None
    got = union_collection(12, 3, J0, subsets)
    assert got == list(_seen_set_unions(12, 3, J0, subsets))
    assert len(set(got)) == len(got) and () not in got


def _dict_unions(q, qstar, J0, subsets=None):
    """union_collection as one dict.fromkeys pass over every candidate J, for
    reference."""
    if subsets is None:
        subsets = itertools.chain([()], *(itertools.combinations(range(q), r)
                                          for r in range(1, qstar + 1)))
    unions = dict.fromkeys(tuple(sorted(set(J0) | set(J))) for J in subsets)
    unions.pop((), None)
    return list(unions)


@pytest.mark.parametrize("q,qstar,J0", [
    (40, 3, ()), (40, 3, (5,)), (40, 3, (17, 3)), (40, 3, (0, 39)), (40, 3, (1, 2, 3)),
    (6, 6, (2, 4)), (5, 2, (0, 1, 2, 3, 4)), (4, 0, (1,)), (4, 0, ()),
])
def test_union_collection_closed_form_equals_dict_pass(q, qstar, J0):
    assert union_collection(q, qstar, J0) == _dict_unions(q, qstar, J0)


def test_union_collection_closed_form_names_the_same_singular_union():
    # blocks 7 = 6 and 1 = 0, so a union holding either pair is singular; with
    # J0 = (6,), (6, 7) comes at |K| = 1, before (0, 1, 6) at |K| = 2,
    # although it sorts after it
    rng = np.random.default_rng(24)
    dims = [2] * 8
    slices = block_slices(dims)
    F = rng.standard_normal((60, sum(dims)))
    F[:, slices[7]] = F[:, slices[6]]
    F[:, slices[1]] = F[:, slices[0]]
    G_pop = F.T @ F / 60
    G_emp = _random_pop_gram(dims, rng)
    with pytest.raises(SingularBlockError) as ref:
        _full_pass(G_emp, G_pop, slices, _dict_unions(8, 2, (6,)))
    with pytest.raises(SingularBlockError) as got:
        event_E_from_grams(G_emp, G_pop, slices, 2, (6,), 0.5)
    assert "(6, 7)" in str(ref.value)
    assert str(got.value) == str(ref.value)
    assert got.value.block == ref.value.block


def _sample_subsets_numpy(q, qstar, n_samples, seed=0):
    """sample_subsets with the numpy integers of rng.choice kept, for reference."""
    rng = np.random.default_rng(seed)
    out = [(j,) for j in range(q)]
    sizes = list(range(2, qstar + 1))
    if sizes:
        per_size = max(1, n_samples // len(sizes))
        for r in sizes:
            for _ in range(per_size):
                out.append(tuple(sorted(rng.choice(q, size=r, replace=False))))
    return sorted(set(out))


@pytest.mark.parametrize("q,qstar,n_samples,seed", [(10, 3, 50, 4), (50, 3, 2000, 11),
                                                     (16, 4, 300, 3)])
def test_sample_subsets_returns_python_ints(q, qstar, n_samples, seed):
    # same draws, same order; only the element type changes
    got = sample_subsets(q, qstar, n_samples, seed=seed)
    assert got == _sample_subsets_numpy(q, qstar, n_samples, seed=seed)
    assert all(type(j) is int for J in got for j in J)


def test_sample_subsets_deterministic_and_covering():
    a = sample_subsets(10, 3, 50, seed=4)
    b = sample_subsets(10, 3, 50, seed=4)
    assert a == b
    assert all((j,) in a for j in range(10))
    assert max(len(J) for J in a) == 3


def test_rip_constant_concentrates_for_large_n():
    # empirical Grams of independent uniform designs concentrate near identity
    rng = np.random.default_rng(0)
    blocks = build_design_blocks(rng.random((400, 3)), BasisSpec.create(3, 4))
    delta = rip_constant(blocks, 2)
    assert 0.0 < delta < 0.5
    blocks_big = build_design_blocks(rng.random((8000, 3)), BasisSpec.create(3, 4))
    assert rip_constant(blocks_big, 2) < delta


def test_rip_constant_lower_bound_when_sampled():
    rng = np.random.default_rng(1)
    blocks = build_design_blocks(rng.random((100, 6)), BasisSpec.create(6, 3))
    full = rip_constant(blocks, 2)
    sampled = rip_constant(blocks, 2, subsets=sample_subsets(6, 2, 5, seed=0))
    assert sampled <= full + 1e-12


def test_rip_budget_error():
    rng = np.random.default_rng(1)
    # 200 covariates at qstar = 3: 1,333,501 candidate sets
    blocks = build_design_blocks(rng.random((50, 200)), BasisSpec.create(200, 2))
    with pytest.raises(BudgetError):
        rip_constant(blocks, 3)


def _model_with_tail(q=3, m_keep=3):
    # active component with energy beyond the truncation level
    theta = [np.zeros(0) for _ in range(q)]
    theta[0] = np.array([1.0, 0.0, 0.0, 0.0, 0.3, 0.0])  # phi_2 and phi_6 (freq 3)
    return AdditiveModel(q=q, J0=(0,), theta=theta, alpha=(2.0,) * q,
                         Kbound=(50.0,) * q)


def test_truncation_residual_uniform_oracle():
    # [DERIVED] with V keeping phi_2..phi_4 the residual is 0.3 phi_6; its
    # empirical norm converges to 0.09 under the uniform law
    model = _model_with_tail()
    spec = BasisSpec.create(3, 4)
    X = UniformDensity().sample(40000, 3, np.random.default_rng(2))
    resid = truncation_residual_norm_sq(X, model, spec, UniformDensity())
    npt.assert_allclose(resid, 0.09, rtol=0.1)


def test_truncation_residual_zero_when_fully_captured():
    model = _model_with_tail()
    spec = BasisSpec.create(3, 7)  # keeps phi_2..phi_7, covers everything
    X = UniformDensity().sample(500, 3, np.random.default_rng(3))
    npt.assert_allclose(truncation_residual_norm_sq(X, model, spec, UniformDensity()),
                        0.0, atol=1e-20)


@pytest.mark.parametrize("m", [3, 7, 9])
def test_component_projection_under_a_table_is_orthogonal(m):
    # [DERIVED] Pi_{V_j} f_j leaves a residual orthogonal to V_j in L2(p_j); when
    # V_j spans f_j's basis functions the projection is f_j itself
    from addsel import TableDensity, basis_matrix
    from addsel.basis import marginal_quadrature, trig_series
    from addsel.diagnostics import _component_projection_coef
    tilt = 1.0 + 0.8 * np.cos(2 * np.pi * (np.arange(256) + 0.5) / 256)
    dens = TableDensity(tables={0: tilt})
    theta = np.array([1.0, -0.4, 0.3, 0.0, 0.2, 0.1])  # phi_2 .. phi_7
    spec = BasisSpec.create(1, m)
    coef = _component_projection_coef(theta, spec, dens, 0)
    t, p = marginal_quadrature(dens, 0)
    B = basis_matrix(spec.basis_indices(0), t)
    resid = trig_series(theta, t) - B @ coef
    npt.assert_allclose((B * p[:, None]).T @ resid / len(t), 0.0, atol=1e-12)
    if m >= 7:
        full = np.zeros(spec.dim(0))
        full[:len(theta)] = theta
        npt.assert_allclose(coef, full, atol=1e-12)


def test_event_A_check_threshold():
    model = _model_with_tail()
    spec = BasisSpec.create(3, 4)
    X = UniformDensity().sample(2000, 3, np.random.default_rng(4))
    kappa = 1.09  # total component energy
    assert event_A_check(X, model, spec, UniformDensity(), 0.0, kappa, cprime=0.1)
    assert not event_A_check(X, model, spec, UniformDensity(), 0.0, kappa, cprime=1e-4)


def test_event_E_matches_rip_for_uniform_population():
    # under the uniform law the population Gram is the identity, so the event
    # deviation coincides with the RIP constant computed from A^T A
    rng = np.random.default_rng(5)
    X = rng.random((300, 4))
    Y = np.zeros(300)
    spec = BasisSpec.create(4, 3)
    blocks = build_design_blocks(X, spec)
    delta_full = rip_constant(blocks, 2, J0=(0,))
    holds, dev = event_E_check(Dataset(X, Y), spec, UniformDensity(), 2, (0,), 0.9)
    assert holds
    npt.assert_allclose(dev, delta_full, rtol=1e-8)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_event_E_check_identity_law_builds_no_population_gram(seed, monkeypatch):
    # the RIP pass stands in for the whitened pass on the quadrature Gram
    from addsel import geometry
    rng = np.random.default_rng(seed)
    X = rng.random((200, 5))
    spec = BasisSpec.create(5, 4)
    G_pop, slices = full_block_gram(spec, UniformDensity())
    G_emp = build_design_blocks(X, spec).full_gram()

    def no_gram(*args, **kwargs):
        raise AssertionError("the uniform law needs no population Gram")

    monkeypatch.setattr(geometry, "full_block_gram", no_gram)
    for J0 in [(), (1, 3)]:
        _, expected = event_E_from_grams(G_emp, G_pop, slices, 2, J0, 0.5)
        holds, dev = event_E_check(Dataset(X, np.zeros(200)), spec, UniformDensity(),
                                   2, J0, 0.5)
        assert abs(dev - expected) <= 1e-12
        assert holds == (dev <= 0.5)


def test_selection_error_bound_monotone_in_n():
    kw = dict(sigma2=0.25, rho=0.0, kappa_l=[1.0, 2.0], d_l=[4, 8], s=2,
              qstar=2, q=8, delta=0.5, cprime=0.001)
    small, _ = selection_error_bound(200, **kw)
    mid, _ = selection_error_bound(5000, **kw)
    # the proof-level constants are conservative (factors like 2^10 in the
    # exponent), so only very large n drives the bound below any fixed level
    large, _ = selection_error_bound(10 ** 6, **kw)
    assert large < mid < small
    assert large < 1e-6


def test_selection_error_bound_terms_sum():
    total, terms = selection_error_bound(
        1000, 0.25, 0.0, [1.0, 2.0], [4, 8], 2, 2, 8, 0.5, 0.001,
        p_event_c=0.01)
    npt.assert_allclose(total, sum(terms.values()), rtol=1e-12)
    assert terms["p_event_c"] == 0.01


def test_selection_error_bound_validates_inputs():
    with pytest.raises(AssumptionError):
        selection_error_bound(100, 1.0, 1.0, [1.0], [2], 1, 1, 4, 0.5, 0.001)
    with pytest.raises(AssumptionError):
        selection_error_bound(100, 1.0, 0.0, [0.0], [2], 1, 1, 4, 0.5, 0.001)
    with pytest.raises(AssumptionError):
        # inadmissible (delta, cprime)
        selection_error_bound(100, 1.0, 0.0, [1.0], [2], 1, 1, 4, 0.5, 0.5)


def test_selection_error_bound_refuses_s_above_qstar():
    # d_l[qstar - s + l - 1] would index from the end of d_l
    with pytest.raises(AssumptionError, match="s <= qstar"):
        selection_error_bound(4000, 0.01, 0.0, [1.0, 2.0, 3.0], [4, 8], 3, 2, 6, 0.5, 0.001)


def test_selection_error_bound_refuses_short_kappa_l():
    # kappa_l[l - 1] used to raise IndexError at l = 2
    with pytest.raises(AssumptionError, match="kappa_l must cover sizes 1..2"):
        selection_error_bound(4000, 0.01, 0.0, [1.0], [4, 8], 2, 2, 6, 0.5, 0.001)


@pytest.mark.parametrize("sigma2", [-1.0, float("nan")], ids=["negative", "nan"])
def test_selection_error_bound_refuses_bad_sigma2(sigma2):
    # sigma2 = -1 used to return 2.2e20 as a probability bound
    with pytest.raises(AssumptionError, match="sigma2 must be finite and >= 0"):
        selection_error_bound(4000, sigma2, 0.0, [1.0, 2.0], [4, 8], 2, 2, 6, 0.5, 0.001)


def test_noiseless_limit_is_allowed():
    # sigma2 = 0 is the noiseless limit: every noise term of the bound divides
    # by it into exp(-inf) = 0
    with np.errstate(divide="ignore"):
        total, terms = selection_error_bound(4000, 0.0, 0.0, [1.0, 2.0], [4, 8], 2, 2, 6,
                                             0.5, 0.001)
    assert terms["chi_square"] == terms["gaussian_projection"] == 0.0
    assert total == terms["truncation"]
    out = corollary_conditions(n=10 ** 6, sigma2=0.0, rho=0.0, kappa=1.0, kappa1=1.0,
                               kappa_l=[1.0, 2.0], eps_s=0.0, d_l=[4, 8], s=2, qstar=2,
                               q=16, alpha=2.0)
    assert all(out.values())


def test_diagnose_refuses_s_above_qstar_before_any_work(monkeypatch):
    # no candidate J with |J| <= qstar covers J0, so the bound has no meaning;
    # it used to read 1.6e-28 here while simulate recovered J0 in no trial
    from addsel import diagnostics
    from addsel.config import parse_config
    from addsel.errors import ConfigError

    def no_work(cfg):
        raise AssertionError("s > qstar must be refused before the law is built")

    monkeypatch.setattr(diagnostics, "density_from_config", no_work)
    cfg = parse_config("n = 4000\nq = 6\ns = 3\nqstar = 2\nsigma = 0.1\n")
    with pytest.raises(ConfigError, match="s <= qstar"):
        diagnostics.diagnose(cfg)


def test_corollary_conditions_scale_with_n():
    kw = dict(sigma2=1.0, rho=0.0, kappa=1.0, kappa1=1.0, kappa_l=[1.0, 2.0],
              eps_s=0.0, d_l=[4, 8], s=2, qstar=2, q=16, alpha=2.0)
    tiny = corollary_conditions(n=5, **kw)
    big = corollary_conditions(n=10 ** 6, **kw)
    assert not all(tiny.values())
    assert all(big.values())
    assert set(big) == {"corollary2", "corollary3", "condition14", "nonparametric18"}


@pytest.mark.parametrize("change,message", [
    ({"s": 0, "kappa_l": []}, "s >= 1"),
    ({"rho": 1.2}, "rho must lie in"),
    ({"s": 3, "kappa_l": [1.0, 2.0, 3.0]}, "s <= qstar"),
    ({"d_l": [4]}, "d_l must cover"),
    ({"kappa": -1.0}, "kappa must be > 0"),
    ({"kappa": 0.0}, "kappa must be > 0"),
    ({"kappa1": 0.0}, "kappa1 must be > 0"),
    ({"eps_s": 1.5}, r"eps_s must lie in \[0,1\)"),
    ({"eps_s": -0.5}, r"eps_s must lie in \[0,1\)"),
    ({"kappa_l": [1.0]}, "kappa_l must cover"),
    ({"kappa_l": [1.0, -2.0]}, "kappa_l must be strictly positive"),
    ({"alpha": 0.0}, "alpha must be finite and > 0"),
    ({"alpha": -1.0}, "alpha must be finite and > 0"),
    ({"alpha": float("nan")}, "alpha must be finite and > 0"),
    ({"sigma2": -1.0}, "sigma2 must be finite and >= 0"),
    ({"sigma2": float("inf")}, "sigma2 must be finite and >= 0"),
], ids=["s0", "rho", "s-above-qstar", "short-d_l", "kappa-negative", "kappa0", "kappa1-0",
        "eps_s-above-1", "eps_s-negative", "short-kappa_l", "kappa_l-negative",
        "alpha0", "alpha-negative", "alpha-nan", "sigma2-negative", "sigma2-inf"])
def test_corollary_conditions_refusals(change, message):
    # s = 0, rho = 1.2, kappa = -1, eps_s outside [0, 1), a negative kappa_l,
    # alpha = -1 or NaN and sigma2 = -1 or inf used to go unchecked; kappa = 0,
    # kappa1 = 0 and alpha = 0 raised ZeroDivisionError, s > len(d_l) and
    # s > len(kappa_l) an IndexError
    kw = dict(n=1000, sigma2=1.0, rho=0.0, kappa=1.0, kappa1=1.0, kappa_l=[1.0, 2.0],
              eps_s=0.0, d_l=[4, 8], s=2, qstar=2, q=16, alpha=2.0)
    with pytest.raises(AssumptionError, match=message):
        corollary_conditions(**{**kw, **change})


def test_corollary_conditions_returns_python_bools():
    out = corollary_conditions(n=10 ** 6, sigma2=1.0, rho=0.0, kappa=1.0, kappa1=1.0,
                               kappa_l=[1.0, 2.0], eps_s=0.0, d_l=[4, 8], s=2, qstar=2,
                               q=16, alpha=2.0)
    assert [type(v) for v in out.values()] == [bool] * 4


def _rip_per_union(blocks, qstar, J0=()):
    """RIP constant from one Gram and one eigvalsh per union."""
    delta = 0.0
    for union in union_collection(blocks.q, qstar, J0):
        A = blocks.concat(union)
        w = np.linalg.eigvalsh(A.T @ A)
        delta = max(delta, float(max(w[-1] - 1.0, 1.0 - w[0])))
    return delta


def _event_E_per_union(G_emp, G_pop, slices, qstar, J0):
    """Event-E deviation from one whitening and one eigvalsh per union."""
    worst = 0.0
    for union in union_collection(len(slices), qstar, J0):
        c = np.concatenate([np.arange(slices[j].start, slices[j].stop) for j in union])
        W = _inv_sqrt(G_pop[np.ix_(c, c)], f"population Gram on {union}")
        w = np.linalg.eigvalsh(W @ G_emp[np.ix_(c, c)] @ W)
        worst = max(worst, float(max(w[-1] - 1.0, 1.0 - w[0])))
    return worst


def _random_pop_gram(dims, rng, r=0.3):
    """Block Gram with unit-ish diagonal blocks and cross coupling r."""
    D = sum(dims)
    F = rng.standard_normal((4 * D, D))
    F += r * F[:, :1]
    return F.T @ F / (4 * D)


def test_batched_rip_and_event_E_match_per_union_loop():
    # C(14, 3) = 364 unions of three 3-column blocks: two chunks of one size
    assert 364 > EIG_CHUNK
    rng = np.random.default_rng(21)
    spec = BasisSpec.create(14, 4)
    blocks = build_design_blocks(rng.random((90, 14)), spec)
    npt.assert_allclose(rip_constant(blocks, 3), _rip_per_union(blocks, 3),
                        rtol=0.0, atol=1e-12)
    npt.assert_allclose(rip_constant(blocks, 2, J0=(1, 5)),
                        _rip_per_union(blocks, 2, J0=(1, 5)), rtol=0.0, atol=1e-12)
    mixed = build_design_blocks(rng.random((90, 6)), BasisSpec.create(6, (3, 5, 4, 6, 4, 2)))
    npt.assert_allclose(rip_constant(mixed, 3, J0=(2,)), _rip_per_union(mixed, 3, J0=(2,)),
                        rtol=0.0, atol=1e-12)
    G_emp = blocks.concat(range(14)).T @ blocks.concat(range(14))
    slices = block_slices(blocks.dims())
    G_pop = _random_pop_gram(blocks.dims(), rng)
    for qstar, J0 in ((3, ()), (2, (0, 13))):
        ref = _event_E_per_union(G_emp, G_pop, slices, qstar, J0)
        holds, dev = event_E_from_grams(G_emp, G_pop, slices, qstar, J0, ref)
        npt.assert_allclose(dev, ref, rtol=0.0, atol=1e-12)
        assert holds == (dev <= ref)


def test_event_E_singular_population_gram_names_first_union():
    # blocks 0, 1 (6 columns) and 3, 4 (2 columns) are duplicated; (0, 1)
    # comes first in enumeration order although its 12-column group is
    # batched after the 4-column group holding (3, 4)
    rng = np.random.default_rng(22)
    dims = [6, 6, 2, 2, 2]
    slices = block_slices(dims)
    F = rng.standard_normal((80, sum(dims)))
    F[:, slices[1]] = F[:, slices[0]]
    F[:, slices[4]] = F[:, slices[3]]
    G_pop = F.T @ F / 80
    G_emp = _random_pop_gram(dims, rng)
    with pytest.raises(SingularBlockError) as ref:
        _event_E_per_union(G_emp, G_pop, slices, 2, ())
    with pytest.raises(SingularBlockError) as got:
        event_E_from_grams(G_emp, G_pop, slices, 2, (), 0.5)
    assert "(0, 1)" in str(ref.value)
    assert str(got.value) == str(ref.value)
    assert got.value.block == ref.value.block

    # 24 two-column blocks, then the duplicated three-column blocks 24, 25:
    # G_emp is G_pop with block 0 scaled, so every union without block 0 has
    # deviation at rounding level and every 4-column chunk after the first
    # (block 0's 23 pairs all lie in the first) would be certified whole
    # before (24, 25) is reached in a later chunk
    dims = [2] * 24 + [3, 3]
    slices = block_slices(dims)
    F = rng.standard_normal((120, sum(dims)))
    F[:, slices[25]] = F[:, slices[24]]
    G_pop = F.T @ F / 120
    scale = np.ones(sum(dims))
    scale[slices[0]] = 2.0
    G_emp = G_pop * scale[:, None] * scale[None, :]
    chunks = [members for members, cols in
              block_column_chunks(slices, union_collection(26, 2, ()))
              if cols.shape[1] == 4]
    assert len(chunks) == -(-comb(24, 2) // EIG_CHUNK) >= 2
    assert all(0 not in union for chunk in chunks[1:] for _, union in chunk)
    with pytest.raises(SingularBlockError) as ref:
        _full_pass(G_emp, G_pop, slices, union_collection(26, 2, ()))
    with pytest.raises(SingularBlockError) as got:
        event_E_from_grams(G_emp, G_pop, slices, 2, (), 0.5)
    assert "(24, 25)" in str(ref.value)
    assert str(got.value) == str(ref.value)
    assert got.value.block == ref.value.block


@pytest.mark.parametrize("least", [1.001 * EIG_FLOOR, EIG_FLOOR, 0.5 * EIG_FLOOR])
def test_event_E_population_gram_near_the_floor(least):
    # P_U's least eigenvalue is one diagonal entry of block 66, whose
    # singleton sits in the second stack of EIG_CHUNK, after block 0 (scaled
    # in G_emp) has set the running maximum; G_emp equals G_pop on block 66, so
    # the deviation certificate clears (66,) and only the singular screen,
    # whose whole-Gram Cholesky fails this close to EIG_FLOOR, sends its P_U to
    # eigh: above EIG_FLOOR it passes, at or below it is refused, both as in
    # the full pass
    assert 66 >= EIG_CHUNK
    dims = [2] * 70
    slices = block_slices(dims)
    G_pop = np.eye(sum(dims))
    G_pop[slices[66].start, slices[66].start] = least
    G_emp = G_pop.copy()
    G_emp[slices[0], slices[0]] *= 4.0
    unions = list(union_collection(70, 1, ()))
    if least > EIG_FLOOR:
        _, dev = event_E_from_grams(G_emp, G_pop, slices, 1, (), 0.5)
        assert dev == _full_pass(G_emp, G_pop, slices, unions) == 3.0
        return
    with pytest.raises(SingularBlockError) as ref:
        _full_pass(G_emp, G_pop, slices, unions)
    with pytest.raises(SingularBlockError) as got:
        event_E_from_grams(G_emp, G_pop, slices, 1, (), 0.5)
    assert "(66,)" in str(ref.value)
    assert str(got.value) == str(ref.value)
    assert got.value.block == ref.value.block


def _whole_gram_certified(G_pop):
    """Whether one Cholesky clears every P_U sliced from G_pop above EIG_FLOOR."""
    return bool(_definite(0.5 * (G_pop + G_pop.T)[None], EIG_FLOOR + CERT_MARGIN)[0])


@pytest.mark.parametrize("qstar,J0", [(2, ()), (3, ()), (3, (7,)), (2, (0, 7))])
def test_event_E_whole_gram_singular_but_no_union_singular(qstar, J0):
    # block 7 spans blocks 0 + 1 + 2, so G_pop is singular and its Cholesky
    # certificate fails, yet a P_U is singular only when U holds all four:
    # never at |U| <= 3, and first at (0, 1, 2, 7) once J0 completes the set
    rng = np.random.default_rng(23)
    dims = [3] * 8
    slices = block_slices(dims)
    F = rng.standard_normal((100, sum(dims)))
    F[:, slices[7]] = F[:, slices[0]] + F[:, slices[1]] + F[:, slices[2]]
    G_pop = F.T @ F / 100
    G_emp = _random_pop_gram(dims, rng)
    assert not _whole_gram_certified(G_pop)
    unions = union_collection(8, qstar, J0)
    if not J0:
        holds, dev = event_E_from_grams(G_emp, G_pop, slices, qstar, J0, 0.5)
        assert dev == _full_pass(G_emp, G_pop, slices, unions)
        assert holds == (dev <= 0.5)
        return
    with pytest.raises(SingularBlockError) as ref:
        _full_pass(G_emp, G_pop, slices, unions)
    with pytest.raises(SingularBlockError) as got:
        event_E_from_grams(G_emp, G_pop, slices, qstar, J0, 0.5)
    assert "(0, 1, 2, 7)" in str(ref.value)
    assert str(got.value) == str(ref.value)
    assert got.value.block == ref.value.block


def test_certified_population_gram_sends_only_kept_unions_to_eigh(monkeypatch):
    # the whole copula Gram clears the singular screen, so eigh whitens only
    # the unions the deviation certificate keeps, each also given eigvalsh
    G_emp, G_pop, slices = _law_grams("copula", 4, seed=45)
    assert _whole_gram_certified(G_pop)
    unions = union_collection(14, 3, ())
    ref = _full_pass(G_emp, G_pop, slices, unions)
    eigh = _counting_solver(monkeypatch, "eigh")
    eigvalsh = _counting_solver(monkeypatch)
    assert event_E_from_grams(G_emp, G_pop, slices, 3, (), 0.5)[1] == ref
    assert 0 < eigh[0] == eigvalsh[0] < len(unions) // 2


@pytest.mark.parametrize("seed", [31, 32, 33])
def test_identity_population_gram_gives_event_E_equal_to_rip(seed):
    # [DERIVED] under independent uniform marginals P_U = I,
    # so P_U^{-1/2} G_emp[U, U] P_U^{-1/2} = G_emp[U, U] and E's deviation is the
    # RIP constant over the same unions; the quadrature G_pop agrees to rounding
    from addsel.basis import full_block_gram
    from addsel.geometry import PopulationGeometry
    rng = np.random.default_rng(seed)
    spec = BasisSpec.create(9, 4)
    blocks = build_design_blocks(rng.random((120, 9)), spec)
    assert PopulationGeometry(spec, UniformDensity(), 3).identity
    G_pop, slices = full_block_gram(spec, UniformDensity())
    sampled = sample_subsets(9, 3, 40, seed=seed)
    for J0, subsets in (((), None), ((2, 7), None), ((4,), sampled)):
        delta = rip_constant(blocks, 3, J0=J0, subsets=subsets)
        _, dev = event_E_from_grams(blocks.full_gram(), G_pop, slices, 3, J0, 0.5,
                                    subsets=subsets)
        npt.assert_allclose(dev, delta, rtol=0.0, atol=1e-12)


def test_union_chunks_equal_per_union_block_columns():
    # widths 3, 0, 5, 1, ... mix many block-width signatures in one column
    # count; the zero-width block drops out of every union it joins
    from addsel.basis import block_column_chunks, block_columns
    slices = block_slices([3, 0, 5, 1, 2, 4, 6, 2, 3, 1, 5, 2, 2, 2, 2, 2, 0, 0])
    full_chunks = 0
    for qstar, J0, subsets in ((4, (), None), (3, (1, 6), None),
                               (4, (2,), sample_subsets(16, 4, 300, seed=3)),
                               (1, (), []),
                               # blocks 1, 16 and 17 have no columns
                               (2, (), [(1,), (16,), (1, 16), (1, 16, 17), (0, 17)])):
        unions = union_collection(18, qstar, J0, subsets)
        groups = {}
        for pos, union in enumerate(unions):
            c = block_columns(slices, union)
            if len(c):
                groups.setdefault(len(c), []).append((pos, union, c))
        expected = []
        for d in sorted(groups):
            for lo in range(0, len(groups[d]), EIG_CHUNK):
                chunk = groups[d][lo:lo + EIG_CHUNK]
                expected.append(([(p, u) for p, u, _ in chunk],
                                 np.array([c for *_, c in chunk])))
        got = list(block_column_chunks(slices, unions))
        full_chunks += sum(len(members) == EIG_CHUNK for members, _ in got)
        assert len(got) == len(expected)
        for (members, cols), (ref_members, ref_cols) in zip(got, expected):
            assert members == ref_members
            assert cols.dtype == ref_cols.dtype and np.array_equal(cols, ref_cols)
    assert full_chunks > 0
    # sets whose blocks all have zero width yield nothing
    assert list(block_column_chunks(slices, [(1,), (16, 17), (1, 16, 17)])) == []


def _full_pass(G_emp, G_pop, slices, unions):
    """The union walk with no certificate: eigvalsh, or eigh whitening, on
    every stacked chunk."""
    worst = 0.0
    singular = None
    for members, cols in block_column_chunks(slices, unions):
        if G_pop is None:
            w = np.linalg.eigvalsh(principal_submatrices(G_emp, cols))
            worst = max(worst, float(np.max(np.maximum(w[:, -1] - 1.0, 1.0 - w[:, 0]))))
            continue
        P = principal_submatrices(G_pop, cols)
        w, V = np.linalg.eigh(0.5 * (P + P.transpose(0, 2, 1)))
        bad = np.flatnonzero(w[:, 0] <= EIG_FLOOR)
        if len(bad):
            pos, union = members[bad[0]]
            if singular is None or pos < singular[0]:
                singular = (pos, union, w[bad[0], 0])
        if singular is not None:
            continue
        W = (V * w[:, None, :] ** -0.5) @ V.transpose(0, 2, 1)
        w = np.linalg.eigvalsh(W @ principal_submatrices(G_emp, cols) @ W)
        worst = max(worst, float(np.max(np.maximum(w[:, -1] - 1.0, 1.0 - w[:, 0]))))
    if singular is not None:
        _, union, min_eig = singular
        raise singular_gram_error(f"population Gram on {union}", min_eig)
    return worst


def _law_grams(law, m, seed, q=14, n=90):
    """(G_emp, G_pop, slices) of a design drawn from the law; G_pop is None
    for the uniform law, whose population Gram is the identity."""
    from addsel import GaussianCopulaDensity, TableDensity
    tilt = 1.0 + 0.8 * np.cos(2 * np.pi * (np.arange(256) + 0.5) / 256)
    density = {"uniform": UniformDensity(), "copula": GaussianCopulaDensity(0.3),
               "table": TableDensity(tables={0: tilt, 3: tilt, 7: tilt})}[law]
    spec = BasisSpec.create(q, m)
    blocks = build_design_blocks(density.sample(n, q, np.random.default_rng(seed)), spec)
    G_pop = None if law == "uniform" else full_block_gram(spec, density)[0]
    return blocks.full_gram(), G_pop, blocks.slices()


def _counting_solver(monkeypatch, name="eigvalsh"):
    """Patch np.linalg.eigvalsh (or another np.linalg solver) to count the
    matrices it is given."""
    seen = [0]
    solve = getattr(np.linalg, name)

    def counting(a):
        seen[0] += len(a)
        return solve(a)

    monkeypatch.setattr(np.linalg, name, counting)
    return seen


MIXED_M = (3, 1, 5, 4, 2, 4, 3, 6, 4, 1, 3, 5, 4, 4)  # blocks 1 and 9 have no columns


@pytest.mark.parametrize("law,m,J0,sampled", [
    ("uniform", 4, (), False), ("uniform", 4, (1, 5), False), ("uniform", 4, (2,), True),
    ("uniform", MIXED_M, (1,), False),
    ("copula", 4, (), False), ("copula", 4, (0, 13), False), ("copula", 4, (), True),
    ("copula", MIXED_M, (), False),
    ("table", 4, (), False), ("table", 4, (3,), False), ("table", 4, (6,), True),
])
def test_union_walk_equals_full_pass_bitwise(law, m, J0, sampled, monkeypatch):
    # the certificate skips eigvalsh on most unions, yet the maximum is read
    # off eigvalsh of the same matrix as in the full pass: equal, not close
    G_emp, G_pop, slices = _law_grams(law, m, seed=40 + len(J0))
    subsets = sample_subsets(14, 3, 200, seed=5) if sampled else None
    unions = list(union_collection(14, 3, J0, subsets))
    ref = _full_pass(G_emp, G_pop, slices, unions)
    seen = _counting_solver(monkeypatch)
    holds, dev = event_E_from_grams(G_emp, G_pop, slices, 3, J0, 0.5, subsets=subsets)
    assert dev == ref and holds == (ref <= 0.5)
    assert seen[0] < len(unions)


@pytest.mark.parametrize("law", ["uniform", "copula"])
@pytest.mark.parametrize("where", ["first", "last"])
def test_union_walk_maximum_at_a_chunk_edge(law, where):
    # block 0 is scaled up in G_emp and the only union holding it is (0, 1, 2),
    # placed first in the second 9-column chunk or last in the collection,
    # among 78 pairs and 287 triples
    G_emp, G_pop, slices = _law_grams(law, 4, seed=44)
    scale = np.ones(len(G_emp))
    scale[slices[0]] = 1.5
    G_emp = G_emp * scale[:, None] * scale[None, :]
    pairs = list(itertools.combinations(range(1, 14), 2))
    triples = list(itertools.combinations(range(1, 14), 3))
    if where == "first":
        subsets = pairs + triples[:EIG_CHUNK] + [(0, 1, 2)] + triples[EIG_CHUNK:]
    else:
        subsets = pairs + triples + [(0, 1, 2)]
    chunks = [members for members, _ in block_column_chunks(slices, subsets)]
    if where == "first":
        # the 6-column pairs fill the chunks before the first 9-column one
        assert chunks[-(-len(pairs) // EIG_CHUNK) + 1][0][1] == (0, 1, 2)
    else:
        assert (len(subsets) - 1, (0, 1, 2)) in chunks[-1]
    ref = _full_pass(G_emp, G_pop, slices, subsets)
    assert ref == _full_pass(G_emp, G_pop, slices, [(0, 1, 2)])
    assert event_E_from_grams(G_emp, G_pop, slices, 3, (), 0.5, subsets=subsets)[1] == ref


def test_diagnose_wide_workload_delta_is_unchanged(monkeypatch):
    # the benchmark's diagnose-wide config at seed 7: 9,178 unions, most of
    # them certified, and the same delta as the full pass gave
    from test_benchmark_workloads import ALL
    from addsel.config import parse_config
    from addsel.diagnostics import diagnose
    seen = _counting_solver(monkeypatch)
    report = diagnose(parse_config(ALL["diagnose-wide"].config_text(seed=7)))
    assert report["delta_qstar"] == 0.5737191613580443
    assert report["event_E_holds"]["max_deviation"] == report["delta_qstar"]
    assert seen[0] < 9178 // 10


def test_certificate_refuses_a_union_within_the_margin():
    # [DERIVED] with t = 0.3, an eigenvalue at 1 - t + eta/2 or 1 + t - eta/2
    # leaves a deviation in (t - eta, t]: such a union goes to eigvalsh
    assert CERT_MARGIN == 1e-10
    t = 0.3
    E = np.repeat(np.eye(4)[None], 4, axis=0)
    E[1, 2, 2] = 1.0 - t + 0.5e-10
    E[2, 0, 0] = 1.0 + t - 0.5e-10
    E[3, 3, 3] = 1.0 - t + 2e-10
    assert _deviation_below(E, None, t).tolist() == [True, False, False, True]
    # the generalized form: (2 E, 2 I) has the eigenvalues of E
    assert _deviation_below(2.0 * E, 2.0 * np.repeat(np.eye(4)[None], 4, axis=0),
                            t).tolist() == [True, False, False, True]


def _cholesky_succeeds(a):
    try:
        np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        return False
    return True


@pytest.mark.parametrize("k", [1, 2, 257])
@pytest.mark.parametrize("failing", ["none", "first", "last", "every", "scattered"])
def test_factorizes_equals_per_matrix_cholesky(k, failing):
    rng = np.random.default_rng(k)
    F = rng.standard_normal((k, 7, 5))
    A = F.transpose(0, 2, 1) @ F
    fail = {"none": np.zeros(k, dtype=bool), "every": np.ones(k, dtype=bool),
            "first": np.arange(k) == 0, "last": np.arange(k) == k - 1,
            "scattered": rng.random(k) < 0.3}[failing]
    A[fail] -= 100.0 * np.eye(5)
    expected = [_cholesky_succeeds(a) for a in A]
    assert expected == (~fail).tolist()
    assert _factorizes(A).tolist() == expected


def test_union_stacks_stay_below_the_byte_bound():
    # stacks of d x d principal submatrices (and each temporary of their
    # size) stay below STACK_BYTES, where glibc would mmap them afresh per
    # chunk: diagnose-wide's 20-column unions go 40 to a stack, 30-column
    # unions 18, and a matrix beyond the bound alone
    from addsel.basis import STACK_BYTES, chunk_rows
    for width, q, qstar, J0 in ((4, 40, 3, (0, 1)), (6, 12, 3, (2, 5)), (2, 30, 2, ())):
        slices = block_slices([width] * q)
        chunks = list(block_column_chunks(slices, union_collection(q, qstar, J0)))
        assert max(8 * cols.size * cols.shape[1] for _, cols in chunks) < STACK_BYTES
        assert all(len(members) <= chunk_rows(cols.shape[1]) for members, cols in chunks)
        widest = max(cols.shape[1] for _, cols in chunks)
        assert any(len(members) == chunk_rows(widest) for members, cols in chunks
                   if cols.shape[1] == widest)
    assert chunk_rows(20) == 40 and chunk_rows(30) == 18
    assert chunk_rows(8) == EIG_CHUNK and chunk_rows(200) == 1


@pytest.mark.parametrize("law", ["uniform", "copula"])
def test_union_walk_is_bitwise_under_the_byte_bound(law, monkeypatch):
    # batched LAPACK factors each matrix on its own, so stacks cut by bytes
    # (28 of 24 columns here) give the maximum of uncut stacks of EIG_CHUNK
    from addsel import basis
    G_emp, G_pop, slices = _law_grams(law, 7, seed=51, q=10, n=120)
    assert basis.chunk_rows(24) < EIG_CHUNK
    capped = event_E_from_grams(G_emp, G_pop, slices, 3, (4,), 0.5)
    monkeypatch.setattr(basis, "STACK_BYTES", 1 << 40)
    assert basis.chunk_rows(24) == EIG_CHUNK
    assert event_E_from_grams(G_emp, G_pop, slices, 3, (4,), 0.5) == capped
