import numpy as np
import numpy.testing as npt
import pytest

from addsel import (AssumptionError, BasisSpec, BudgetError, Dataset,
                    UniformDensity, bennett_truncation_bound, check_cprime,
                    chi2_tail_bounds, corollary_conditions, event_A_check,
                    event_E_check, rip_constant, sample_subsets,
                    selection_error_bound, subset_count_bound,
                    truncation_residual_norm_sq)
from addsel.basis import block_slices, build_design_blocks, full_block_gram
from addsel.diagnostics import EIG_CHUNK, _union_collection, event_E_from_grams
from addsel.errors import SingularBlockError
from addsel.geometry import _inv_sqrt
from addsel.simulate import AdditiveModel


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
    unions = list(_union_collection(4, 1, (0,)))
    # J in {(),(0,),(1,),(2,),(3,)} -> unions {0},{0,1},{0,2},{0,3}
    assert sorted(unions) == [(0,), (0, 1), (0, 2), (0, 3)]


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
    blocks = build_design_blocks(rng.random((50, 30)), BasisSpec.create(30, 2))
    with pytest.raises(BudgetError):
        rip_constant(blocks, 3, budget=10)


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


@pytest.mark.parametrize("m,centered", [(3, True), (5, False), (9, True), (9, False)])
def test_component_projection_under_a_table_is_orthogonal(m, centered):
    # [DERIVED] Pi_{V_j} f_j leaves a residual orthogonal to V_j in L2(p_j); when
    # V_j spans f_j's basis functions the projection is f_j itself
    from addsel import TableDensity, basis_matrix
    from addsel.basis import marginal_quadrature, trig_series
    from addsel.diagnostics import _component_projection_coef
    tilt = 1.0 + 0.8 * np.cos(2 * np.pi * (np.arange(256) + 0.5) / 256)
    dens = TableDensity(tables={0: tilt})
    theta = np.array([1.0, -0.4, 0.3, 0.0, 0.2, 0.1])  # phi_2 .. phi_7
    spec = BasisSpec.create(1, m, centered=centered)
    coef = _component_projection_coef(theta, spec, dens, 0)
    t, p = marginal_quadrature(dens, 0)
    B = basis_matrix(spec.basis_indices(0), t)
    resid = trig_series(theta, t) - B @ coef
    npt.assert_allclose((B * p[:, None]).T @ resid / len(t), 0.0, atol=1e-12)
    if m >= 7:
        full = np.zeros(spec.dim(0))
        full[2 - spec.basis_indices(0)[0]:][:len(theta)] = theta
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
    from addsel import diagnostics
    rng = np.random.default_rng(seed)
    X = rng.random((200, 5))
    spec = BasisSpec.create(5, 4)
    G_pop, slices = full_block_gram(spec, UniformDensity())
    G_emp = build_design_blocks(X, spec).full_gram()

    def no_gram(*args, **kwargs):
        raise AssertionError("the uniform law needs no population Gram")

    monkeypatch.setattr(diagnostics, "full_block_gram", no_gram)
    for J0 in [(), (1, 3)]:
        _, expected = event_E_from_grams(G_emp, G_pop, slices, 2, J0, 0.5)
        holds, dev = event_E_check(Dataset(X, np.zeros(200)), spec, UniformDensity(),
                                   2, J0, 0.5)
        assert abs(dev - expected) <= 1e-12
        assert holds == (dev <= 0.5)


def test_selection_error_bound_monotone_in_n():
    kw = dict(sigma2=0.25, rho=0.0, kappa_l=[1.0, 2.0], d_l=[4, 8], s=2,
              qstar=2, q=8, delta=0.5, cprime=0.001)
    small = selection_error_bound(200, **kw)
    mid = selection_error_bound(5000, **kw)
    # the proof-level constants are conservative (factors like 2^10 in the
    # exponent), so only very large n drives the bound below any fixed level
    large = selection_error_bound(10 ** 6, **kw)
    assert large < mid < small
    assert large < 1e-6


def test_selection_error_bound_terms_sum():
    total, terms = selection_error_bound(
        1000, 0.25, 0.0, [1.0, 2.0], [4, 8], 2, 2, 8, 0.5, 0.001,
        p_event_c=0.01, return_terms=True)
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


def test_corollary_conditions_scale_with_n():
    kw = dict(sigma2=1.0, rho=0.0, kappa=1.0, kappa1=1.0, kappa_l=[1.0, 2.0],
              eps_s=0.0, d_l=[4, 8], s=2, qstar=2, q=16, alpha=2.0)
    tiny = corollary_conditions(n=5, **kw)
    big = corollary_conditions(n=10 ** 6, **kw)
    assert not all(tiny.values())
    assert all(big.values())
    assert set(big) == {"corollary2", "corollary3", "condition14", "nonparametric18"}


def _rip_per_union(blocks, qstar, J0=()):
    """RIP constant from one Gram and one eigvalsh per union."""
    delta = 0.0
    for union in _union_collection(blocks.q, qstar, J0):
        A = blocks.concat(union)
        w = np.linalg.eigvalsh(A.T @ A)
        delta = max(delta, float(max(w[-1] - 1.0, 1.0 - w[0])))
    return delta


def _event_E_per_union(G_emp, G_pop, slices, qstar, J0):
    """Event-E deviation from one whitening and one eigvalsh per union."""
    worst = 0.0
    for union in _union_collection(len(slices), qstar, J0):
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


@pytest.mark.parametrize("seed", [31, 32, 33])
def test_identity_population_gram_gives_event_E_equal_to_rip(seed):
    # [DERIVED] under independent uniform marginals with centered blocks P_U = I,
    # so P_U^{-1/2} G_emp[U, U] P_U^{-1/2} = G_emp[U, U] and E's deviation is the
    # RIP constant over the same unions; the quadrature G_pop agrees to rounding
    from addsel.basis import full_block_gram
    from addsel.geometry import population_gram_is_identity
    rng = np.random.default_rng(seed)
    spec = BasisSpec.create(9, 4)
    blocks = build_design_blocks(rng.random((120, 9)), spec)
    assert population_gram_is_identity(spec, UniformDensity())
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
    from addsel.basis import block_columns
    from addsel.diagnostics import _union_chunks
    slices = block_slices([3, 0, 5, 1, 2, 4, 6, 2, 3, 1, 5, 2, 2, 2, 2, 2])
    full_chunks = 0
    for qstar, J0, subsets in ((4, (), None), (3, (1, 6), None),
                               (4, (2,), sample_subsets(16, 4, 300, seed=3))):
        groups = {}
        for pos, union in enumerate(_union_collection(16, qstar, J0, subsets)):
            c = block_columns(slices, union)
            if len(c):
                groups.setdefault(len(c), []).append((pos, union, c))
        expected = []
        for d in sorted(groups):
            for lo in range(0, len(groups[d]), EIG_CHUNK):
                chunk = groups[d][lo:lo + EIG_CHUNK]
                expected.append(([(p, u) for p, u, _ in chunk], np.array([c for *_, c in chunk])))
        got = list(_union_chunks(slices, qstar, J0, subsets, 10 ** 6))
        full_chunks += sum(len(members) == EIG_CHUNK for members, _ in got)
        assert len(got) == len(expected)
        for (members, cols), (ref_members, ref_cols) in zip(got, expected):
            assert members == ref_members
            assert cols.dtype == ref_cols.dtype and np.array_equal(cols, ref_cols)
    assert full_chunks > 0
