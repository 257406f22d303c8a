import numpy as np
import numpy.testing as npt
import pytest

from addsel import (AssumptionError, BasisSpec, BudgetError, GaussianCopulaDensity,
                    TableDensity, UniformDensity, check_ric_chain, epsilon_constants,
                    geometry_report, kappa_values, min_angle_cos, phi_2qstar,
                    population_gram, rho_qstar, sup_norm_ratio,
                    verify_angle_equivalence)
from addsel.geometry import (_inv_sqrt, count_disjoint_pairs, count_subsets_up_to,
                             epsilons_from_gram, population_projection_gap,
                             representative_spec, rho_from_gram, subsets_up_to)
from addsel.basis import block_columns, full_block_gram
from addsel.simulate import AdditiveModel, density_from_config


def test_min_angle_cos_planar_oracle():
    # [DERIVED] two lines in R^2 at angle theta have cosine cos(theta)
    for theta in (0.2, 0.9, 1.4):
        G11 = np.array([[1.0]])
        G22 = np.array([[1.0]])
        G12 = np.array([[np.cos(theta)]])
        npt.assert_allclose(min_angle_cos(G11, G22, G12), np.cos(theta), rtol=1e-12)


def test_min_angle_cos_is_top_singular_value():
    rng = np.random.default_rng(5)
    C = 0.2 * rng.standard_normal((3, 2))
    rho = min_angle_cos(np.eye(3), np.eye(2), C)
    npt.assert_allclose(rho, np.linalg.svd(C, compute_uv=False)[0], rtol=1e-12)


def test_rho_zero_for_independent_design():
    spec = BasisSpec.create(4, 5)
    assert rho_qstar(spec, UniformDensity(), 2) < 1e-10


def test_rho_matches_direct_computation_for_two_covariates():
    spec = BasisSpec.create(2, 4)
    dens = GaussianCopulaDensity(r=0.5)
    G = population_gram(spec, dens, [0, 1])
    d = 3
    direct = min_angle_cos(G[:d, :d], G[d:, d:], G[:d, d:])
    npt.assert_allclose(rho_qstar(spec, dens, 1), direct, rtol=1e-12)


def test_eps_equals_rho_for_two_blocks():
    # [DERIVED] with identity diagonal blocks, 1 - lambda_min of [[I,C],[C^T,I]]
    # equals the top singular value of C, i.e. the angle cosine
    spec = BasisSpec.create(2, 4)
    dens = GaussianCopulaDensity(r=0.4)
    rho = rho_qstar(spec, dens, 1)
    eps1, eps_prime1 = epsilon_constants(spec, dens, 1)
    npt.assert_allclose(eps1, rho, rtol=1e-10)
    # singleton normalized Grams are identities, so eps'_1 = 0 exactly
    assert eps_prime1 == 0.0
    eps2, eps_prime2 = epsilon_constants(spec, dens, 2)
    npt.assert_allclose(eps_prime2, rho, rtol=1e-10)


def test_epsilons_vanish_for_independent_design():
    eps, eps_prime = epsilon_constants(BasisSpec.create(3, 5), UniformDensity(), 2)
    assert eps < 1e-10 and eps_prime < 1e-10


def test_check_ric_chain_independent_case():
    assert check_ric_chain(0.0, 0.0, 2)
    assert not check_ric_chain(0.0, 0.1, 2)
    with pytest.raises(AssumptionError):
        check_ric_chain(1.0, 0.0, 2)


def _whitened_block_gram(rng, q, dim=2):
    """Random correlated Gram whose diagonal blocks are identities."""
    A = rng.standard_normal((6 * q * dim, q * dim))
    G = A.T @ A / A.shape[0]
    slices = [slice(j * dim, (j + 1) * dim) for j in range(q)]
    W = np.zeros_like(G)
    for s in slices:
        W[s, s] = _inv_sqrt(G[s, s])
    G = W @ G @ W
    return 0.5 * (G + G.T), slices


def test_check_ric_chain_base_and_depth():
    # [DERIVED] two blocks, qstar = 1: eps = rho, so the chain
    # 1 - eps >= (1 - rho)^1 is an equality, while 1 - rho^2 would exceed 1 - eps
    for seed in range(200):
        G, slices = _whitened_block_gram(np.random.default_rng(seed), 2)
        rho = rho_from_gram(G, slices, 1)
        eps, _ = epsilons_from_gram(G, slices, 1)
        npt.assert_allclose(eps, rho, rtol=1e-10)
        assert check_ric_chain(rho, eps, 1), seed
        assert 1.0 - eps < 1.0 - rho * rho
    # qstar = 3 halves in ceil(log2 6) = 3 levels: (1 - 0.2)^3 = 0.512
    assert check_ric_chain(0.2, 0.48, 3)
    assert not check_ric_chain(0.2, 0.49, 3)
    for seed in range(5):
        G, slices = _whitened_block_gram(np.random.default_rng(seed), 6)
        rho = rho_from_gram(G, slices, 3)
        eps, _ = epsilons_from_gram(G, slices, 3)
        assert check_ric_chain(rho, eps, 3), seed


def test_subset_enumeration_counts():
    assert count_subsets_up_to(5, 2) == 15
    assert len(list(subsets_up_to(5, 2))) == 15
    # [DERIVED] disjoint pairs for q=3, qstar=1: C(3,1)*C(2,1)/2 = 3
    assert count_disjoint_pairs(3, 1) == 3


def test_budget_error_on_rho():
    spec = BasisSpec.create(8, 3)
    G, slices = full_block_gram(spec, UniformDensity())
    with pytest.raises(BudgetError):
        rho_from_gram(G, slices, 3, budget=5)


def _model(q, J0, energies):
    theta = [np.zeros(0) for _ in range(q)]
    for j, e in zip(J0, energies):
        theta[j] = np.array([np.sqrt(e), 0.0])  # energy on phi_2 only
    return AdditiveModel(q=q, J0=tuple(J0), theta=theta, alpha=(2.0,) * q,
                         Kbound=(40.0,) * q)


def test_kappa_values_uniform_oracle():
    # [DERIVED] under the uniform law norms add: kappa_1 = min energy,
    # kappa_2 = smallest pair sum
    model = _model(5, (0, 2, 4), (1.0, 4.0, 9.0))
    kappa, kappa_l = kappa_values(model, UniformDensity())
    npt.assert_allclose(kappa_l, [1.0, 5.0, 14.0], atol=1e-8)
    npt.assert_allclose(kappa, 1.0, atol=1e-8)


def test_projection_gap_uniform():
    model = _model(4, (0, 1), (1.0, 2.0))
    spec = BasisSpec.create(4, 3)
    G, slices = full_block_gram(spec, UniformDensity())
    coef = np.zeros(G.shape[0])
    coef[slices[0].start] = 1.0           # phi_2 on covariate 0
    coef[slices[1].start] = np.sqrt(2.0)  # phi_2 on covariate 1
    # projecting onto a superset of the support leaves no residual
    npt.assert_allclose(population_projection_gap(G, slices, (0, 1), (0, 1), coef),
                        0.0, atol=1e-8)
    # projecting onto a disjoint set leaves the full squared norm
    npt.assert_allclose(population_projection_gap(G, slices, (2, 3), (0, 1), coef),
                        3.0, atol=1e-8)
    # dropping covariate 1 leaves its energy
    npt.assert_allclose(population_projection_gap(G, slices, (0,), (0, 1), coef),
                        2.0, atol=1e-8)


def test_sup_norm_ratio_uniform():
    # [DERIVED] with paired cos/sin frequencies, sum phi_k(x)^2 = d_J for all
    # x, so the ratio is exactly 1; with only phi_2 the sup is sqrt(2)
    spec = BasisSpec.create(1, 5)
    npt.assert_allclose(sup_norm_ratio(spec, UniformDensity(), [0]), 1.0, atol=1e-10)
    spec1 = BasisSpec.create(1, 2)
    npt.assert_allclose(sup_norm_ratio(spec1, UniformDensity(), [0]),
                        np.sqrt(2.0), atol=1e-4)


def test_phi_2qstar_uniform_paired():
    spec = BasisSpec.create(3, 5)
    npt.assert_allclose(phi_2qstar(spec, UniformDensity(), 1, grid_size=128),
                        1.0, atol=1e-10)


def test_verify_angle_equivalence_random():
    rng = np.random.default_rng(11)
    C = 0.3 * rng.standard_normal((2, 2))
    assert verify_angle_equivalence(np.eye(2), np.eye(2), C, trials=200, seed=1)


def test_geometry_report_roundtrip():
    spec = BasisSpec.create(3, 4)
    model = _model(3, (0, 1), (1.0, 1.0))
    rep = geometry_report(spec, UniformDensity(), 1, model=model, grid_size=64)
    d = rep.to_dict()
    assert d["qstar"] == 1
    npt.assert_allclose(d["kappa"], 1.0, atol=1e-8)
    assert d["rho_qstar"] < 1e-10


def _full_enumeration(spec, density, qstar, grid_size):
    """(rho, eps, eps', phi) over every subset of all q covariates, phi_J rebuilt per J."""
    G, slices = full_block_gram(spec, density)
    rho = rho_from_gram(G, slices, qstar)
    eps, eps_prime = epsilons_from_gram(G, slices, qstar)
    phi = max(sup_norm_ratio(spec, density, J, grid_size)
              for J in subsets_up_to(spec.q, min(2 * qstar, spec.q)))
    return rho, eps, eps_prime, phi


def _report_values(spec, density, qstar, grid_size):
    rep = geometry_report(spec, density, qstar, grid_size=grid_size)
    return rep.rho_qstar, rep.eps_2qstar, rep.eps_prime_qstar, rep.phi_2qstar


_TILT = 1.0 + 0.8 * np.cos(2 * np.pi * (np.arange(256) + 0.5) / 256)


@pytest.mark.parametrize("density", [GaussianCopulaDensity(r=-0.1), GaussianCopulaDensity(r=0.3),
                                     GaussianCopulaDensity(r=0.7), UniformDensity()],
                         ids=["copula-0.1", "copula0.3", "copula0.7", "uniform"])
@pytest.mark.parametrize("q,qstar,m", [(5, 1, 4), (6, 2, 3), (3, 2, 4)])
def test_exchangeable_reduction_is_bitwise_exact(density, q, qstar, m):
    # [DERIVED] under an exchangeable law with equal m, G_J depends only on how
    # the blocks of J interleave, so the first 2 qstar covariates hold every
    # value the suprema take; (3, 2, 4) has q <= 2 qstar and nothing is cut
    # the uniform law's population Gram is the identity: rho and eps are exact
    # zeros, not the quadrature noise a full enumeration leaves (~1e-15)
    spec = BasisSpec.create(q, m)
    assert representative_spec(spec, density, qstar).q == min(q, 2 * qstar)
    full = _full_enumeration(spec, density, qstar, 64)
    if isinstance(density, UniformDensity):
        full = (0.0, 0.0, 0.0, full[3])
    assert _report_values(spec, density, qstar, 64) == full
    assert rho_qstar(spec, density, qstar) == full[0]
    assert epsilon_constants(spec, density, qstar) == full[1:3]
    assert phi_2qstar(spec, density, qstar, grid_size=64) == full[3]


@pytest.mark.parametrize("density,m", [(TableDensity(tables={4: _TILT}), 4),
                                       (GaussianCopulaDensity(r=0.5), (3, 3, 3, 3, 5))],
                         ids=["table-on-last", "unequal-m"])
def test_full_enumeration_when_not_exchangeable(density, m):
    spec = BasisSpec.create(5, m)
    assert representative_spec(spec, density, 1) is spec
    full = _full_enumeration(spec, density, 1, 64)
    assert _report_values(spec, density, 1, 64) == full
    assert rho_qstar(spec, density, 1) == full[0]
    assert phi_2qstar(spec, density, 1, grid_size=64) == full[3]
    # the last covariate matters here: a spec cut to the first two would miss it
    cut = _full_enumeration(BasisSpec(q=2, m=spec.m[:2], centered=spec.centered[:2]),
                            density, 1, 64)
    assert abs(cut[0] - full[0]) > 1e-3 or abs(cut[3] - full[3]) > 1e-3


def test_budget_counts_representative_subsets():
    # q = 12, qstar = 2: 2211 disjoint pairs and 793 subsets over all covariates,
    # 21 and 15 over the first four
    spec = BasisSpec.create(12, 3)
    dens = GaussianCopulaDensity(r=0.3)
    assert count_disjoint_pairs(4, 2) == 21 and count_subsets_up_to(4, 4) == 15
    geometry_report(spec, dens, 2, grid_size=16, budget=21)
    with pytest.raises(BudgetError) as exc:
        geometry_report(spec, dens, 2, grid_size=16, budget=20)
    assert exc.value.count == 21
    phi_2qstar(spec, dens, 2, grid_size=16, subset_budget=15)
    with pytest.raises(BudgetError) as exc:
        phi_2qstar(spec, dens, 2, grid_size=16, subset_budget=14)
    assert exc.value.count == 15
    with pytest.raises(BudgetError) as exc:
        geometry_report(spec, TableDensity(tables={11: _TILT}), 2, grid_size=16, budget=21)
    assert exc.value.count == count_disjoint_pairs(12, 2) == 2211


def test_phi_reads_slices_of_one_population_gram():
    # [DERIVED] population_gram builds each block on its own and symmetrizes
    # entry by entry, so a slice of the full Gram is G_J bit for bit
    spec = BasisSpec.create(4, 4)
    dens = TableDensity(tables={1: _TILT, 3: _TILT[::-1]})
    G, slices = full_block_gram(spec, dens)
    for J in subsets_up_to(4, 4):
        c = block_columns(slices, J)
        assert np.array_equal(G[np.ix_(c, c)], population_gram(spec, dens, J)), J
    assert phi_2qstar(spec, dens, 2, grid_size=32) == max(
        sup_norm_ratio(spec, dens, J, 32) for J in subsets_up_to(4, 4))


def test_geometry_report_phi_grid():
    # the default 512 points per axis are halved until g^|J| <= 2^22
    spec = BasisSpec.create(4, 3)
    rep = geometry_report(spec, GaussianCopulaDensity(r=0.3), 2)
    assert rep.phi_grid == {1: 512, 2: 512, 3: 128, 4: 32}
    assert rep.to_dict()["phi_grid"] == rep.phi_grid
    assert geometry_report(spec, UniformDensity(), 1, grid_size=64).phi_grid == {1: 64, 2: 64}


def test_population_gram_is_identity_declared():
    from addsel.geometry import population_gram_is_identity
    centered = BasisSpec.create(4, 4)
    for density in (UniformDensity(), GaussianCopulaDensity(r=0.0)):
        assert population_gram_is_identity(centered, density)
        G, _ = full_block_gram(centered, density)
        npt.assert_allclose(G, np.eye(len(G)), rtol=0.0, atol=1e-12)
    # phi_1 = 1 in two blocks couples them; a copula or a table moves the Gram
    # off the identity with every block centered
    for spec, density in ((BasisSpec.create(4, 4, centered=False), UniformDensity()),
                          (BasisSpec.create(4, 4, centered=(True, False, False, True)),
                           UniformDensity()),
                          (centered, GaussianCopulaDensity(r=0.3)),
                          (centered, TableDensity(tables={2: _TILT}))):
        assert not population_gram_is_identity(spec, density)
        G, _ = full_block_gram(spec, density)
        assert np.abs(G - np.eye(len(G))).max() > 1e-3


@pytest.mark.parametrize("q,qstar,m", [(5, 1, 4), (6, 2, 3)])
def test_custom_density_law_reduction_is_bitwise_exact(q, qstar, m):
    # one table on every covariate: every diagonal block is one array and every
    # cross block one outer product of the same means
    density = density_from_config({"design.kind": "custom-density", "design.table": _TILT,
                                   "q": q})
    assert density.exchangeable
    spec = BasisSpec.create(q, m)
    assert representative_spec(spec, density, qstar).q == 2 * qstar
    full = _full_enumeration(spec, density, qstar, 64)
    assert _report_values(spec, density, qstar, 64) == full
    assert rho_qstar(spec, density, qstar) == full[0]
    assert epsilon_constants(spec, density, qstar) == full[1:3]
    assert phi_2qstar(spec, density, qstar, grid_size=64) == full[3]
    assert full[0] > 0.1  # the tables couple the centered blocks


def test_tables_on_some_covariates_stay_non_exchangeable():
    assert not TableDensity(tables={0: _TILT, 1: _TILT}).exchangeable
    spec = BasisSpec.create(5, 4)
    assert representative_spec(spec, TableDensity(tables={0: _TILT, 1: _TILT}), 1) is spec
