import tracemalloc
from dataclasses import asdict

import numpy as np
import numpy.testing as npt
import pytest

from addsel import (AssumptionError, BasisSpec, BudgetError, Dataset, Density,
                    GaussianCopulaDensity, PopulationGeometry, TableDensity, UniformDensity,
                    check_ric_chain, estimate_component, geometry_report, kappa_values,
                    min_angle_cos, phi_2qstar, population_gram, rip_constant,
                    select_exhaustive, sup_norm_ratio, verify_angle_equivalence)
from addsel import geometry
from addsel.geometry import (_inv_sqrt, count_disjoint_pairs, count_subsets_up_to,
                             epsilons_from_gram, population_projection_gap,
                             rho_from_gram, subsets_up_to)
from addsel.basis import EIG_CHUNK, basis_matrix, block_columns, block_slices, \
    build_design_blocks, full_block_gram, midpoint_nodes
from addsel.errors import SingularBlockError
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
    assert PopulationGeometry(spec, UniformDensity(), 2).rho() < 1e-10


def test_rho_matches_direct_computation_for_two_covariates():
    spec = BasisSpec.create(2, 4)
    dens = GaussianCopulaDensity(r=0.5)
    G = population_gram(spec, dens, [0, 1])
    d = 3
    direct = min_angle_cos(G[:d, :d], G[d:, d:], G[:d, d:])
    npt.assert_allclose(PopulationGeometry(spec, dens, 1).rho(), direct, rtol=1e-12)


def test_eps_equals_rho_for_two_blocks():
    # [DERIVED] with identity diagonal blocks, 1 - lambda_min of [[I,C],[C^T,I]]
    # equals the top singular value of C, i.e. the angle cosine
    spec = BasisSpec.create(2, 4)
    dens = GaussianCopulaDensity(r=0.4)
    rho = PopulationGeometry(spec, dens, 1).rho()
    eps1, eps_prime1 = PopulationGeometry(spec, dens, 1).epsilons()
    npt.assert_allclose(eps1, rho, rtol=1e-10)
    # singleton normalized Grams are identities, so eps'_1 = 0 exactly
    assert eps_prime1 == 0.0
    eps2, eps_prime2 = PopulationGeometry(spec, dens, 2).epsilons()
    npt.assert_allclose(eps_prime2, rho, rtol=1e-10)


def test_epsilons_vanish_for_independent_design():
    eps, eps_prime = PopulationGeometry(BasisSpec.create(3, 5), UniformDensity(), 2).epsilons()
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
    # 200 one-column blocks at qstar = 3: far more than SUBSET_BUDGET disjoint pairs
    with pytest.raises(BudgetError):
        rho_from_gram(np.eye(200), block_slices([1] * 200), 3)


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


def test_kappa_values_refuses_twenty_actives_under_the_budget():
    # 2^20 - 1 = 1,048,575 subsets of J0 exceed SUBSET_BUDGET = 10^6; the
    # check runs before any Gram is built
    model = _model(24, range(20), (1.0,) * 20)
    with pytest.raises(BudgetError) as exc:
        kappa_values(model, UniformDensity())
    assert (exc.value.count, exc.value.budget) == (2 ** 20 - 1, 10 ** 6)


def test_projection_gap_uniform():
    model = _model(4, (0, 1), (1.0, 2.0))
    spec = BasisSpec.create(4, 3)
    G, slices = full_block_gram(spec, UniformDensity())
    coef = np.zeros(G.shape[0])
    coef[slices[0].start] = 1.0           # phi_2 on covariate 0
    coef[slices[1].start] = np.sqrt(2.0)  # phi_2 on covariate 1
    # projecting onto a superset of the support leaves no residual
    npt.assert_allclose(population_projection_gap(G, slices, (0, 1), coef),
                        0.0, atol=1e-8)
    # projecting onto a disjoint set leaves the full squared norm
    npt.assert_allclose(population_projection_gap(G, slices, (2, 3), coef),
                        3.0, atol=1e-8)
    # dropping covariate 1 leaves its energy
    npt.assert_allclose(population_projection_gap(G, slices, (0,), coef),
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


@pytest.mark.parametrize("grid_size", [0, -3])
@pytest.mark.parametrize("run", [
    lambda spec, g: sup_norm_ratio(spec, UniformDensity(), [0], grid_size=g),
    lambda spec, g: phi_2qstar(spec, UniformDensity(), 1, grid_size=g),
    lambda spec, g: geometry_report(spec, UniformDensity(), 1, grid_size=g),
], ids=["sup_norm_ratio", "phi_2qstar", "geometry_report"])
def test_empty_sup_norm_grid_is_refused(run, grid_size):
    # a grid with no points has no maximum
    with pytest.raises(AssumptionError, match="grid_size must be >= 1"):
        run(BasisSpec.create(3, 5), grid_size)


_TILT = 1.0 + 0.8 * np.cos(2 * np.pi * (np.arange(256) + 0.5) / 256)


def _slab_loop(spec, G, J, g):
    """The sup-norm kernel as it was before the reused slab buffer: one new
    array per slab of at most 2^22 points, every term rebuilt over the whole
    grid for every slab and sliced."""
    k = len(J)
    W = _inv_sqrt(G, f"V_J for J={J}")
    M = W @ W
    x = midpoint_nodes(g)
    Bs = [basis_matrix(spec.basis_indices(j), x) for j in J]
    sl = block_slices([spec.dim(j) for j in J])
    rows = max(1, 2 ** 22 // g ** (k - 1))
    peak = -np.inf
    for lo in range(0, g, rows):
        total = np.zeros((min(rows, g - lo),) + (g,) * (k - 1))
        for a in range(k):
            part = slice(lo, lo + rows) if a == 0 else slice(None)
            diag = np.einsum("gi,ij,gj->g", Bs[a], M[sl[a], sl[a]], Bs[a])[part]
            shape = [1] * k
            shape[a] = len(diag)
            total += diag.reshape(shape)
            for b in range(a + 1, k):
                cross = (Bs[a] @ M[sl[a], sl[b]] @ Bs[b].T)[part]
                shape = [1] * k
                shape[a] = len(cross)
                shape[b] = g
                total += 2.0 * cross.reshape(shape)
        peak = max(peak, total.max())
    return float(np.sqrt(peak / sl[-1].stop))


_PARITY_LAWS = {
    "uniform": (UniformDensity(), 4),
    "copula-0.5": (GaussianCopulaDensity(r=-0.5), 4),
    "copula0.3": (GaussianCopulaDensity(r=0.3), 4),
    "copula0.9": (GaussianCopulaDensity(r=0.9), 4),
    "table-on-last": (TableDensity(tables={3: _TILT}), 4),
    "unequal-m": (GaussianCopulaDensity(r=0.3), (3, 5, 4, 6)),
}


@pytest.mark.parametrize("size,g", [(1, 64), (2, 64), (3, 32), (4, 16)])
@pytest.mark.parametrize("law", list(_PARITY_LAWS))
def test_sup_norm_kernel_equals_slab_loop(law, size, g):
    # every grid point adds the same terms in the same order as in the old
    # loop, and max is exact, so phi_J is bit for bit the same; J holds the
    # last covariate, which carries the table law and the largest m
    density, m = _PARITY_LAWS[law]
    spec, J = BasisSpec.create(4, m), list(range(4 - size, 4))
    G = population_gram(spec, density, J)
    assert geometry._sup_norm_ratio(spec, G, J, g) == _slab_loop(spec, G, J, g)


@pytest.mark.parametrize("J,g,slab_points", [
    ([0, 1, 2], 64, 5 * 64 ** 2),   # 5 rows per slab: 13 slabs, the last short
    ([0, 1, 2], 64, 64 ** 2 - 1),   # a face above the slab: 63 rows of axis 1 per slab
    ([0, 1, 2], 64, 50),            # a line above it: 50 points of axis 2, then 14
    ([0, 1, 2, 3], 16, 1000),       # 3 rows of axis 1 per slab at |J| = 4
    ([1, 3], 100, 7 * 100),         # 100 rows in slabs of 7: the last holds 2
    ([0, 1], 512, None),            # the default shapes: 8 slabs of 64 rows
    ([0, 1, 2], 128, None),         # and 64 slabs of 2 rows
], ids=["short-last", "face-above-slab", "line-above-slab", "face-above-slab-4",
        "uneven-rows", "default-2", "default-3"])
def test_sup_norm_kernel_equals_slab_loop_at_slab_edges(monkeypatch, J, g, slab_points):
    if slab_points is not None:
        monkeypatch.setattr(geometry, "SLAB_POINTS", slab_points)
    spec = BasisSpec.create(4, (3, 5, 4, 6))
    G = population_gram(spec, GaussianCopulaDensity(r=0.3), J)
    assert geometry._sup_norm_ratio(spec, G, J, g) == _slab_loop(spec, G, J, g)


@pytest.mark.parametrize("size,slab_points", [
    (5, None), (6, None), (7, None),  # the prefix spans the first 4, 5 and 5 axes
    (5, 7), (5, 60), (5, 500),        # and 0, 1 and 2 axes, in slabs of 7, 56 and 448
], ids=["default-5", "default-6", "default-7", "prefix-on-no-axis", "prefix-on-1-axis",
        "prefix-on-2-axes"])
def test_sup_norm_kernel_equals_slab_loop_from_a_prefix(monkeypatch, size, slab_points):
    # at 8 points per axis the leading terms on the first p axes, 8^p <=
    # SLAB_POINTS and p < |J|, are summed once and each slab starts from them;
    # only the dropped 0.0 + of the old fresh sum differs, exact on any nonzero sum
    if slab_points is not None:
        monkeypatch.setattr(geometry, "SLAB_POINTS", slab_points)
    spec, J = BasisSpec.create(7, (3, 5, 4, 6, 3, 5, 4)), list(range(size))
    G = population_gram(spec, GaussianCopulaDensity(r=0.3), J)
    assert geometry._sup_norm_ratio(spec, G, J, 8) == _slab_loop(spec, G, J, 8)


def test_sup_norm_grid_summed_in_slabs_is_bitwise(monkeypatch):
    # the grid is summed in slabs of SLAB_POINTS points along its first axis;
    # every point adds the same terms in the same order, so the maximum is
    # unchanged
    spec, J, g = BasisSpec.create(3, 4), [0, 1, 2], 64
    G = population_gram(spec, GaussianCopulaDensity(r=0.3), J)
    whole = geometry._sup_norm_ratio(spec, G, J, g)
    monkeypatch.setattr(geometry, "SLAB_POINTS", 5 * g ** 2)  # 13 slabs, the last short
    tracemalloc.start()
    try:
        slabs = geometry._sup_norm_ratio(spec, G, J, g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert slabs == whole
    # one float64 array over the whole 64^3 grid alone takes 2 MiB
    assert peak < 1 << 20


def _kernel_peak_bytes(spec, law, J, g):
    """tracemalloc's peak over one _sup_norm_ratio call on the g^|J| grid."""
    G = population_gram(spec, law, J)
    tracemalloc.start()
    try:
        geometry._sup_norm_ratio(spec, G, J, g)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_sup_norm_slab_is_summed_in_place():
    # the 128^3 grid takes 16.8 MB as one float64 array; it is summed in one
    # reused buffer of SLAB_POINTS points, and its terms are formed once over
    # their own axes
    assert 128 ** 3 <= geometry.GRID_BUDGET
    peak = _kernel_peak_bytes(BasisSpec.create(3, 4), GaussianCopulaDensity(r=0.3), [0, 1, 2], 128)
    assert peak < 2 << 20


def test_sup_norm_slab_stays_in_budget_past_one_face():
    # from |J| = 7 on the grid has 8 points per axis, and one 8^6 face alone
    # takes 2 MiB; the slab then runs along a later axis
    assert geometry._grid_points(7, geometry.GRID_SIZE) == 8
    peak = _kernel_peak_bytes(BasisSpec.create(7, 2), UniformDensity(), list(range(7)), 8)
    assert peak < 1 << 20


def test_verify_angle_equivalence_random():
    rng = np.random.default_rng(11)
    C = 0.3 * rng.standard_normal((2, 2))
    assert verify_angle_equivalence(np.eye(2), np.eye(2), C, trials=200, seed=1)


def test_geometry_report_roundtrip():
    spec = BasisSpec.create(3, 4)
    model = _model(3, (0, 1), (1.0, 1.0))
    rep = geometry_report(spec, UniformDensity(), 1, model=model, grid_size=64)
    d = asdict(rep)
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
    assert PopulationGeometry(spec, density, qstar).k == min(q, 2 * qstar)
    full = _full_enumeration(spec, density, qstar, 64)
    if isinstance(density, UniformDensity):
        full = (0.0, 0.0, 0.0, full[3])
    assert _report_values(spec, density, qstar, 64) == full
    assert PopulationGeometry(spec, density, qstar).rho() == full[0]
    assert PopulationGeometry(spec, density, qstar).epsilons() == full[1:3]
    assert phi_2qstar(spec, density, qstar, grid_size=64) == full[3]


@pytest.mark.parametrize("density,m", [(TableDensity(tables={4: _TILT}), 4),
                                       (GaussianCopulaDensity(r=0.5), (3, 3, 3, 3, 5))],
                         ids=["table-on-last", "unequal-m"])
def test_full_enumeration_when_not_exchangeable(density, m):
    spec = BasisSpec.create(5, m)
    assert PopulationGeometry(spec, density, 1).k == spec.q
    full = _full_enumeration(spec, density, 1, 64)
    assert _report_values(spec, density, 1, 64) == full
    assert PopulationGeometry(spec, density, 1).rho() == full[0]
    assert phi_2qstar(spec, density, 1, grid_size=64) == full[3]
    # the last covariate matters here: a spec cut to the first two would miss it
    cut = _full_enumeration(BasisSpec(q=2, m=spec.m[:2]), density, 1, 64)
    assert abs(cut[0] - full[0]) > 1e-3 or abs(cut[3] - full[3]) > 1e-3


def _phi_every_subset(spec, G, slices, qstar, grid_size):
    """(phi, phi_grid) with one sup-norm grid per subset of size <= 2 qstar of all blocks."""
    best, grid = 0.0, {}
    for J in subsets_up_to(len(slices), min(2 * qstar, len(slices))):
        grid[len(J)] = g = geometry._grid_points(len(J), grid_size)
        c = block_columns(slices, J)
        best = max(best, geometry._sup_norm_ratio(spec, G[np.ix_(c, c)], list(J), g))
    return best, grid


@pytest.mark.parametrize("density,q,m", [
    (TableDensity(tables={0: _TILT}), 5, 4),
    (TableDensity(tables={4: _TILT}), 5, 4),
    (GaussianCopulaDensity(r=0.3), 6, (5, 5, 5, 4, 4, 4)),
    (UniformDensity(), 6, 4),
], ids=["table-on-first", "table-on-last", "copula-mixed-m", "uniform"])
def test_phi_memo_equals_every_subset(density, q, m):
    # phi scores each distinct (G_J, m_J, g) once; the maximum and the grid
    # sizes are those of a walk that scores every subset
    spec = BasisSpec.create(q, m)
    geo = PopulationGeometry(spec, density, 2)
    G, slices = geo.gram
    assert geo.phi(16) == _phi_every_subset(spec, G, slices, 2, 16)
    assert phi_2qstar(spec, density, 2, grid_size=16) == geo.phi(16)[0]


def test_phi_error_names_first_singular_subset():
    # blocks 2 and 3 span one space: V_{2,3} is singular although neither
    # block is; every other G_J is an identity, so the memo scores (0,),
    # (0, 1) and then (2, 3), the J at which the every-subset walk stops too
    spec, slices = BasisSpec.create(4, 3), block_slices([2, 2, 2, 2])
    G = np.eye(8)
    G[slices[2], slices[3]] = G[slices[3], slices[2]] = np.eye(2)
    geo = PopulationGeometry(spec, Density(), 1)
    geo.__dict__["gram"] = (G, slices)
    assert geo.k == 4
    with pytest.raises(SingularBlockError) as memo:
        geo.phi(16)
    with pytest.raises(SingularBlockError) as every:
        _phi_every_subset(spec, G, slices, 1, 16)
    assert memo.value.block == every.value.block == "V_J for J=[2, 3]"


@pytest.mark.parametrize("law", ["copula-0.1", "copula0.3", "copula0.7", "uniform",
                                 "custom-density"])
@pytest.mark.parametrize("q,qstar,m", [(6, 2, 4), (8, 2, 3), (5, 1, 6), (3, 2, 5)])
def test_per_size_walk_equals_every_subset(law, q, qstar, m):
    # [DERIVED] under an exchangeable law with equal m every diagonal block is
    # one array and every cross block above the diagonal another, so G_J is
    # the same array for every J of one size and phi's memo scores one subset
    # per size; (3, 2, 5) has q <= 2 qstar
    density = {"copula-0.1": GaussianCopulaDensity(r=-0.1),
               "copula0.3": GaussianCopulaDensity(r=0.3),
               "copula0.7": GaussianCopulaDensity(r=0.7), "uniform": UniformDensity(),
               "custom-density": density_from_config({"design.kind": "custom-density",
                                                      "design.table": _TILT, "q": q})}[law]
    spec = BasisSpec.create(q, m)
    geo = PopulationGeometry(spec, density, qstar)
    G, slices = geo.gram
    assert geo.phi(16) == _phi_every_subset(spec, G, slices, qstar, 16)
    eps = epsilons_from_gram(G, slices[:geo.k], qstar)
    assert eps == epsilons_from_gram(G, slices, qstar)


_MEMO_SCORED = [(0,), (4,), (0, 1), (0, 4), (0, 1, 2), (0, 1, 4), (0, 1, 2, 3), (0, 1, 2, 4)]


@pytest.mark.parametrize("density,m,k,scored_subsets", [
    (GaussianCopulaDensity(r=0.3), 4, 4, [(0,), (0, 1), (0, 1, 2), (0, 1, 2, 3)]),
    (TableDensity(tables={4: _TILT}), 4, 5, _MEMO_SCORED),
    (GaussianCopulaDensity(r=0.5), (3, 3, 3, 3, 5), 5, _MEMO_SCORED),
], ids=["copula", "table-on-last", "unequal-m"])
def test_sup_norm_grids_scored_per_size_or_per_subset(monkeypatch, density, m, k, scored_subsets):
    # q = 5, qstar = 2: one grid per distinct (G_J, m_J, g), scored at its
    # first J; the copula has one per size, and covariate 4 (tilted, or with
    # m = 5) splits each size into the subsets with and without it, 8 grids
    # where every subset would take C(5,1) + ... + C(5,4) = 30; eps stacks
    # every set of size 2..4 of the k leading blocks, 11 sets over k = 4,
    # else 25 sets
    scored, stacked = [], []
    score, chunks = geometry._sup_norm_ratio, geometry.block_column_chunks

    def counting_score(spec, G, J, g):
        scored.append(tuple(J))
        return score(spec, G, J, g)

    def counting_chunks(slices, sets):
        sets = list(sets)
        stacked.extend(sets)
        return chunks(slices, sets)

    monkeypatch.setattr(geometry, "_sup_norm_ratio", counting_score)
    monkeypatch.setattr(geometry, "block_column_chunks", counting_chunks)
    geo = PopulationGeometry(BasisSpec.create(5, m), density, 2)
    assert geo.k == k
    geo.phi(16)
    geo.epsilons()
    assert scored == scored_subsets
    if k == 4:
        assert stacked == [J for J in subsets_up_to(4, 4) if len(J) >= 2]
    else:
        assert stacked == list(subsets_up_to(5, 4))[5:]


def test_geometry_report_reads_eps_through_one_public_call(monkeypatch):
    # eps walks every subset of the k leading blocks through the one public
    # function, so a wrapper around it by name sees the call
    calls = []
    eps = geometry.epsilons_from_gram

    def counting_eps(G, slices, qstar):
        calls.append(len(slices))
        return eps(G, slices, qstar)

    monkeypatch.setattr(geometry, "epsilons_from_gram", counting_eps)
    geometry_report(BasisSpec.create(8, 5), GaussianCopulaDensity(r=0.3), 2, grid_size=16)
    assert calls == [4]


def test_budget_counts_representative_subsets(monkeypatch):
    # q = 12, qstar = 2: 2211 disjoint pairs and 793 subsets over all covariates,
    # 21 and 15 over the first four
    spec = BasisSpec.create(12, 3)
    dens = GaussianCopulaDensity(r=0.3)
    assert count_disjoint_pairs(4, 2) == 21 and count_subsets_up_to(4, 4) == 15
    monkeypatch.setattr(geometry, "SUBSET_BUDGET", 21)
    geometry_report(spec, dens, 2, grid_size=16)
    monkeypatch.setattr(geometry, "SUBSET_BUDGET", 20)
    with pytest.raises(BudgetError) as exc:
        geometry_report(spec, dens, 2, grid_size=16)
    assert exc.value.count == 21
    monkeypatch.setattr(geometry, "SUBSET_BUDGET", 15)
    phi_2qstar(spec, dens, 2, grid_size=16)
    monkeypatch.setattr(geometry, "SUBSET_BUDGET", 14)
    with pytest.raises(BudgetError) as exc:
        phi_2qstar(spec, dens, 2, grid_size=16)
    assert exc.value.count == 15
    monkeypatch.setattr(geometry, "SUBSET_BUDGET", 21)
    with pytest.raises(BudgetError) as exc:
        geometry_report(spec, TableDensity(tables={11: _TILT}), 2, grid_size=16)
    assert exc.value.count == count_disjoint_pairs(12, 2) == 2211


_SPEC4 = BasisSpec.create(4, 2)  # four one-column blocks
_X4 = np.random.default_rng(0).random((10, 4))


@pytest.mark.parametrize("run,count,message", [
    pytest.param(lambda: rho_from_gram(np.eye(4), block_slices([1] * 4), 1), 6,
                 "6 disjoint subset pairs exceed the budget 2; reduce qstar or "
                 "restrict the covariates", id="rho"),
    pytest.param(lambda: epsilons_from_gram(np.eye(4), block_slices([1] * 4), 1), 10,
                 "subset enumeration exceeds budget", id="eps"),
    # phi() on its own, over the k = 2 leading blocks of an exchangeable law
    pytest.param(lambda: PopulationGeometry(_SPEC4, GaussianCopulaDensity(r=0.3), 1).phi(), 3,
                 "subset enumeration exceeds budget", id="phi"),
    pytest.param(lambda: rip_constant(build_design_blocks(_X4, _SPEC4), 1), 5,
                 "5 candidate subsets exceed the budget 2; pass an explicit (sampled) "
                 "subset collection", id="unions"),
    pytest.param(lambda: kappa_values(_model(4, (0, 1), (1.0, 2.0)), UniformDensity()), 3,
                 "3 subsets of J0 exceed the budget 2", id="kappa"),
    pytest.param(lambda: select_exhaustive(Dataset(_X4, _X4[:, 0]), _SPEC4, 1, 0.0), 5,
                 "exhaustive search over 5 subsets exceeds the budget 2; consider "
                 "select_greedy", id="exhaustive"),
    # the split-sample fit selects on its first 5 rows with the same search
    pytest.param(lambda: estimate_component(Dataset(_X4, _X4[:, 0]), _SPEC4, 1, 0.0, 0), 5,
                 "exhaustive search over 5 subsets exceeds the budget 2; consider "
                 "select_greedy", id="estimate_component"),
])
def test_every_enumeration_checks_the_one_budget(monkeypatch, run, count, message):
    # one patch of geometry.SUBSET_BUDGET reaches geometry, diagnostics and selection
    monkeypatch.setattr(geometry, "SUBSET_BUDGET", 2)
    with pytest.raises(BudgetError) as exc:
        run()
    assert (exc.value.count, exc.value.budget, str(exc.value)) == (count, 2, message)


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
    assert asdict(rep)["phi_grid"] == rep.phi_grid
    assert geometry_report(spec, UniformDensity(), 1, grid_size=64).phi_grid == {1: 64, 2: 64}


def test_population_gram_is_identity_declared():
    spec = BasisSpec.create(4, 4)
    for density in (UniformDensity(), GaussianCopulaDensity(r=0.0)):
        assert PopulationGeometry(spec, density, 1).identity
        G, _ = full_block_gram(spec, density)
        npt.assert_allclose(G, np.eye(len(G)), rtol=0.0, atol=1e-12)
    # a copula or a table moves the Gram off the identity
    for density in (GaussianCopulaDensity(r=0.3), TableDensity(tables={2: _TILT})):
        assert not PopulationGeometry(spec, density, 1).identity
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
    assert PopulationGeometry(spec, density, qstar).k == 2 * qstar
    full = _full_enumeration(spec, density, qstar, 64)
    assert _report_values(spec, density, qstar, 64) == full
    assert PopulationGeometry(spec, density, qstar).rho() == full[0]
    assert PopulationGeometry(spec, density, qstar).epsilons() == full[1:3]
    assert phi_2qstar(spec, density, qstar, grid_size=64) == full[3]
    assert full[0] > 0.1  # the tables couple the blocks


def test_tables_on_some_covariates_stay_non_exchangeable():
    assert not TableDensity(tables={0: _TILT, 1: _TILT}).exchangeable
    spec = BasisSpec.create(5, 4)
    assert PopulationGeometry(spec, TableDensity(tables={0: _TILT, 1: _TILT}), 1).k == spec.q


def test_density_subclass_declares_no_shortcut():
    # a law that overrides marginal_pdf but declares nothing gets neither the
    # identity shortcut nor the exchangeable cut: rho is that of the same
    # marginal given as a custom-density table
    from addsel import Density

    class Tilted(Density):
        def marginal_pdf(self, j, x):
            return 1.0 + 0.8 * np.cos(2 * np.pi * np.asarray(x, dtype=float))

    geo = PopulationGeometry(BasisSpec.create(4, 5), Tilted(), 2)
    assert not geo.identity and geo.k == 4
    assert abs(geo.rho() - 0.5517) < 1e-3


_COPULA_DIAGNOSE = {"design.kind": "gaussian-copula", "design.r": 0.3, "n": 200, "q": 8,
                    "s": 2, "qstar": 2, "m_rule": "fixed:5", "delta": 0.5, "seed": 3}
_TABLE_EQ7 = {"design.kind": "custom-density", "design.table": _TILT, "n": 200, "q": 4,
              "s": 2, "qstar": 2, "m_rule": "eq7", "cprime": 0.05, "trials": 1, "seed": 3}


@pytest.mark.parametrize("run,over", [("diagnose", _COPULA_DIAGNOSE),
                                      ("run_trials", _TABLE_EQ7)],
                         ids=["copula-diagnose", "custom-density-eq7"])
def test_one_population_gram_per_run(run, over, monkeypatch):
    # rho, eps and event E read one Gram of V_1..V_q
    from addsel import diagnostics, geometry, simulate
    from addsel.config import DEFAULTS
    calls = []
    build = geometry.full_block_gram
    monkeypatch.setattr(geometry, "full_block_gram",
                        lambda *a: calls.append(a) or build(*a))
    getattr(diagnostics if run == "diagnose" else simulate, run)({**DEFAULTS, **over})
    assert len(calls) == 1


def _eps_per_subset(G, slices, qstar):
    """(eps, eps') from each subset's blocks whitened on their own and one eigvalsh per subset."""
    eps_low = eps_high = 0.0
    for J in subsets_up_to(len(slices), min(2 * qstar, len(slices))):
        if len(J) < 2:
            continue
        c = block_columns(slices, J)
        W = np.zeros((len(c), len(c)))
        for j, sl in zip(J, block_slices([slices[j].stop - slices[j].start for j in J])):
            W[sl, sl] = _inv_sqrt(G[slices[j], slices[j]], f"block {j}")
        w = np.linalg.eigvalsh(W @ G[np.ix_(c, c)] @ W)
        eps_low = max(eps_low, 1.0 - float(w[0]))
        if len(J) <= qstar:
            eps_high = max(eps_high, float(w[-1]) - 1.0)
    return eps_low, eps_high


def _rho_per_pair(G, slices, qstar):
    """rho from min_angle_cos on every disjoint pair, both sides whitened per pair."""
    subs = list(subsets_up_to(len(slices), qstar))
    rho = 0.0
    for i, J1 in enumerate(subs):
        c1 = block_columns(slices, J1)
        for J2 in subs[i + 1:]:
            if set(J1) & set(J2):
                continue
            c2 = block_columns(slices, J2)
            rho = max(rho, min_angle_cos(G[np.ix_(c1, c1)], G[np.ix_(c2, c2)],
                                         G[np.ix_(c1, c2)]))
    return rho


@pytest.mark.parametrize("q,m,density,qstars", [
    (5, 4, GaussianCopulaDensity(r=0.3), (1, 2, 3)),
    (6, 3, GaussianCopulaDensity(r=-0.1), (1, 2, 3)),
    (6, 4, TableDensity(tables={0: _TILT, 3: _TILT[::-1]}), (1, 2, 3)),
    (6, (3, 5, 4, 6, 4, 2), GaussianCopulaDensity(r=0.4), (1, 2, 3)),
    # C(14, 4) = 1001 sets of size 4 fill several chunks of one column count
    (14, 3, GaussianCopulaDensity(r=0.3), (2,)),
], ids=["copula0.3", "copula-0.1", "table-on-two", "mixed-m", "chunked"])
def test_rho_and_eps_equal_per_subset_loops_bitwise(q, m, density, qstars):
    # [DERIVED] the stacked pass whitens each block once and reads
    # D_J^{-1/2} G_J D_J^{-1/2} as a principal submatrix of W G W: the same
    # arrays meet the same BLAS and LAPACK calls as the per-subset loop, and rho
    # runs min_angle_cos's arithmetic on subsets whitened once
    from math import comb
    assert q < 14 or comb(14, 4) > EIG_CHUNK
    G, slices = full_block_gram(BasisSpec.create(q, m), density)
    for qstar in qstars:
        assert epsilons_from_gram(G, slices, qstar) == _eps_per_subset(G, slices, qstar)
        assert rho_from_gram(G, slices, qstar) == _rho_per_pair(G, slices, qstar)


def test_rho_error_names_first_singular_subset():
    # blocks 0 and 1 span one space: V_{0,1} is singular although neither
    # block is; then block 3 is made singular itself, and (3,) comes before
    # (0, 1) in enumeration order
    rng = np.random.default_rng(23)
    slices = block_slices([2, 2, 2, 2])
    F = rng.standard_normal((40, 8))
    F[:, slices[1]] = F[:, slices[0]] @ rng.standard_normal((2, 2))
    with pytest.raises(SingularBlockError) as exc:
        rho_from_gram(F.T @ F / 40, slices, 2)
    assert exc.value.block == "V_J for J=[0, 1]"
    assert "V_J for J=[0, 1]" in str(exc.value)
    F[:, 7] = F[:, 6]
    with pytest.raises(SingularBlockError) as exc:
        rho_from_gram(F.T @ F / 40, slices, 2)
    assert exc.value.block == "V_J for J=[3]"


@pytest.mark.parametrize("qstar", [1, 2])
@pytest.mark.parametrize("r", [0.3, -0.2])
def test_zero_width_block_leaves_rho_and_eps_unchanged(r, qstar):
    # m_j = 1 gives V_j = {0}: the block adds no column to any subset, so rho
    # and eps are those of the other blocks, and exact zeros beside one block
    density = GaussianCopulaDensity(r=r)
    padded = PopulationGeometry(BasisSpec.create(3, (5, 1, 5)), density, qstar)
    plain = PopulationGeometry(BasisSpec.create(2, 5), density, qstar)
    assert padded.rho() == plain.rho()
    assert padded.epsilons() == plain.epsilons()
    alone = PopulationGeometry(BasisSpec.create(2, (5, 1)), density, qstar)
    assert alone.rho() == 0.0 and alone.epsilons() == (0.0, 0.0)


class _ExchangeableTilt(Density):
    """Independent covariates, each with the same tilted marginal: exchangeable,
    not the identity law."""

    independent = exchangeable = True

    def marginal_pdf(self, j, x):
        return 1.0 + 0.8 * np.cos(2 * np.pi * np.asarray(x, dtype=float))


@pytest.mark.parametrize("density", [GaussianCopulaDensity(r=0.3), GaussianCopulaDensity(r=-0.1),
                                     GaussianCopulaDensity(r=0.7), _ExchangeableTilt()],
                         ids=["copula0.3", "copula-0.1", "copula0.7", "tilt"])
def test_leading_gram_is_the_full_grams_top_left_block(density, monkeypatch):
    # under an exchangeable law with one m, rho, eps and phi read the first
    # k = 2 qstar blocks: their Gram is built alone, equal to the top-left block
    # of the full Gram bit for bit, and so is every value read off it
    spec, qstar = BasisSpec.create(12, 5), 2
    G, slices = full_block_gram(spec, density)
    full = PopulationGeometry(spec, density, qstar)
    full.__dict__["gram"] = (G, slices)
    expected = (full.rho(), full.epsilons(), full.phi(16))
    monkeypatch.setattr(geometry, "full_block_gram", lambda *a: pytest.fail("full Gram built"))
    geo = PopulationGeometry(spec, density, qstar)
    assert geo.k == 4
    G_k, slices_k = geo._leading
    d = slices_k[-1].stop
    assert slices_k == slices[:4] and G_k.shape == (d, d)
    assert np.array_equal(G_k, G[:d, :d])
    assert (geo.rho(), geo.epsilons(), geo.phi(16)) == expected
    assert "gram" not in vars(geo)


def test_diagnose_builds_no_leading_gram_beside_the_full_one(monkeypatch):
    # diagnose reads the full Gram for event E; rho (k = 4 of q = 8 blocks)
    # slices it instead of building the Gram of the leading blocks too, so the
    # only other population Gram is kappa's on J0
    from addsel import diagnostics
    from addsel.config import DEFAULTS
    built = []
    build = geometry.population_gram
    monkeypatch.setattr(geometry, "population_gram",
                        lambda spec, density, J: built.append(list(J)) or build(spec, density, J))
    cfg = {**DEFAULTS, **_COPULA_DIAGNOSE}
    diagnostics.diagnose(cfg)
    assert PopulationGeometry(BasisSpec.create(8, 5), GaussianCopulaDensity(r=0.3), 2).k == 4
    assert [len(J) for J in built] == [cfg["s"]]
