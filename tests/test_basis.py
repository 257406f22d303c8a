import numpy as np
import numpy.testing as npt
import pytest

from addsel import (AddselError, BasisSpec, ConfigError, GaussianCopulaDensity,
                    TableDensity, UniformDensity, basis_matrix, build_design_blocks,
                    eval_basis, full_block_gram, population_gram)
from addsel.basis import build_design_block


def test_eval_basis_values():
    # phi_1 = 1, phi_2 = sqrt(2) cos(2 pi x), phi_3 = sqrt(2) sin(2 pi x)
    assert eval_basis(1, 0.37) == 1.0
    npt.assert_allclose(eval_basis(2, 0.0), np.sqrt(2.0))
    npt.assert_allclose(eval_basis(3, 0.25), np.sqrt(2.0))
    npt.assert_allclose(eval_basis(4, 0.25), -np.sqrt(2.0))  # cos(pi) at freq 2
    npt.assert_allclose(eval_basis(2, 0.5), -np.sqrt(2.0))


def test_eval_basis_domain_errors():
    with pytest.raises(AddselError):
        eval_basis(0, 0.5)
    with pytest.raises(AddselError):
        eval_basis(2, 1.5)
    with pytest.raises(AddselError):
        eval_basis(2, -0.1)


def test_orthonormality_under_uniform():
    # the trig system is orthonormal in L2([0,1]); midpoint rule is exact
    # enough at 4096 nodes for indices up to 9
    x = (np.arange(4096) + 0.5) / 4096
    B = basis_matrix(np.arange(1, 10), x)
    G = B.T @ B / len(x)
    npt.assert_allclose(G, np.eye(9), atol=1e-12)


def test_basis_spec_dims():
    spec = BasisSpec.create(3, (5, 4, 7), centered=True)
    assert [spec.dim(j) for j in range(3)] == [4, 3, 6]
    assert spec.d_J((0, 2)) == 10
    assert spec.d_l(1) == 6
    assert spec.d_l(2) == 10
    npt.assert_array_equal(spec.basis_indices(0), [2, 3, 4, 5])
    unc = BasisSpec.create(2, 4, centered=False)
    assert unc.dim(0) == 4
    npt.assert_array_equal(unc.basis_indices(0), [1, 2, 3, 4])


def test_basis_spec_rejects_bad_levels():
    with pytest.raises(ConfigError):
        BasisSpec.create(2, 0)


def test_design_block_scaling():
    rng = np.random.default_rng(0)
    x = rng.random(50)
    A = build_design_block(x, 5, centered=True)
    B = basis_matrix(np.arange(2, 6), x)
    npt.assert_allclose(A, B / np.sqrt(50))


def test_design_block_rejects_out_of_range():
    with pytest.raises(AddselError):
        build_design_block(np.array([0.2, 1.4]), 4, centered=True)


def test_blocks_concat_order_and_empty():
    rng = np.random.default_rng(1)
    X = rng.random((20, 3))
    spec = BasisSpec.create(3, 4)
    blocks = build_design_blocks(X, spec)
    A = blocks.concat((2, 0))  # sorted internally
    npt.assert_allclose(A[:, :3], blocks.blocks[0])
    npt.assert_allclose(A[:, 3:], blocks.blocks[2])
    assert blocks.concat(()).shape == (20, 0)


def test_population_gram_uniform_identity_single():
    # uniform marginal: centered trig system is orthonormal, so the Gram of
    # any single covariate block is the identity
    spec = BasisSpec.create(2, 6)
    G = population_gram(spec, UniformDensity(), [0])
    npt.assert_allclose(G, np.eye(5), atol=1e-10)


def test_population_gram_independent_centered_identity():
    # centered blocks of independent covariates have zero-mean entries, so
    # cross blocks vanish and the full Gram is the identity
    spec = BasisSpec.create(3, 5)
    G, slices = full_block_gram(spec, UniformDensity())
    npt.assert_allclose(G, np.eye(12), atol=1e-10)
    assert [s.stop - s.start for s in slices] == [4, 4, 4]


def test_copula_gram_symmetric_psd():
    spec = BasisSpec.create(2, 5)
    G = population_gram(spec, GaussianCopulaDensity(r=0.5), [0, 1])
    npt.assert_allclose(G, G.T)
    w = np.linalg.eigvalsh(G)
    assert w[0] > 0
    # diagonal blocks stay identity: copula marginals are exactly uniform
    npt.assert_allclose(G[:4, :4], np.eye(4), atol=1e-10)
    assert np.abs(G[:4, 4:]).max() > 1e-3


def test_table_density_gram_matches_quadrature():
    m = 256
    x = (np.arange(m) + 0.5) / m
    vals = 1.0 + 0.5 * np.cos(2 * np.pi * x)
    vals /= vals.mean()
    dens = TableDensity(tables={0: vals})
    spec = BasisSpec.create(1, 3)
    G = population_gram(spec, dens, [0])
    # [DERIVED] overlap of phi_2 with itself under p(x) = 1 + 0.5 cos(2 pi x):
    # integral 2 cos^2(2 pi x) (1 + 0.5 cos) dx = 1 (the cubic term vanishes)
    npt.assert_allclose(G[0, 0], 1.0, atol=1e-3)
    # cross term phi_2 phi_3 p integrates to 0 by parity
    npt.assert_allclose(G[0, 1], 0.0, atol=1e-3)


def test_table_density_must_normalize():
    with pytest.raises(ConfigError):
        TableDensity(tables={0: np.full(64, 1.3)})


@pytest.mark.parametrize("density", [
    UniformDensity(),
    TableDensity(tables={j: 1.0 + 0.8 * np.cos(2 * np.pi * (np.arange(256) + 0.5) / 256)
                         for j in (0, 2)}),
])
def test_population_gram_independent_means_once(density, monkeypatch):
    # cross blocks of independent covariates are outer products of the
    # marginal means; each block's Gram and means come from one evaluation,
    # made once per block, not per pair
    from addsel import basis
    spec = BasisSpec.create(4, (5, 3, 6, 4))
    moments = [basis.marginal_moments(spec.basis_indices(j), density, j) for j in range(4)]
    expected = np.zeros((14, 14))
    sl = basis.block_slices([spec.dim(j) for j in range(4)])
    for a in range(4):
        expected[sl[a], sl[a]] = moments[a][0]
        for b in range(a + 1, 4):
            C = np.outer(moments[a][1], moments[b][1])
            expected[sl[a], sl[b]] = C
            expected[sl[b], sl[a]] = C.T
    expected = 0.5 * (expected + expected.T)
    calls = []
    original = basis.marginal_moments
    monkeypatch.setattr(basis, "marginal_moments",
                        lambda ks, density, j: calls.append(j) or original(ks, density, j))
    assert np.array_equal(population_gram(spec, density, range(4)), expected)
    assert calls == [0, 1, 2, 3]


def test_marginal_moments_match_separate_quadratures():
    # the Gram and the means of one evaluation equal the two integrals taken
    # apart, and a density that does not integrate to 1 is refused
    from addsel.basis import QUAD_NODES_1D, marginal_moments, midpoint_nodes
    tilt = 1.0 + 0.8 * np.cos(2 * np.pi * (np.arange(256) + 0.5) / 256)
    dens = TableDensity(tables={0: tilt})
    t = midpoint_nodes(QUAD_NODES_1D)
    p = dens.marginal_pdf(0, t)
    B = basis_matrix(np.arange(2, 7), t)
    G, means = marginal_moments(np.arange(2, 7), dens, 0)
    assert np.array_equal(G, (B * p[:, None]).T @ B / QUAD_NODES_1D)
    assert np.array_equal(means, (B * p[:, None]).mean(axis=0))

    class Heavy(UniformDensity):
        def marginal_pdf(self, j, x):
            return np.full(len(x), 1.01)

    with pytest.raises(ConfigError, match="integrates to"):
        marginal_moments(np.arange(2, 7), Heavy(), 0)


def _exactly_reduced_basis(ks, x):
    """phi_k(x_i) with k x reduced mod 1 exactly in integers before the cos/sin."""
    out = np.empty((len(x), len(ks)))
    for i, xi in enumerate(x):
        num, den = float(xi).as_integer_ratio()
        for c, k in enumerate(ks):
            r = (k // 2) * num % den / den  # one rounding, of a value in [0, 1)
            trig = np.cos if k % 2 == 0 else np.sin
            out[i, c] = 1.0 if k == 1 else np.sqrt(2.0) * trig(2.0 * np.pi * r)
    return out


def _kernel_points():
    rng = np.random.default_rng(20)
    return np.concatenate([rng.random(1000), [0.0, 0.25, 0.5, 1.0]])


def test_basis_matrix_recurrence_matches_direct_evaluation():
    # harmonics 1..64 by complex recurrence: within 1e-13 of the exactly
    # reduced values (about 6e-14 at harmonic 64). eval_basis rounds its
    # argument 2 pi k x and is itself off by about 1e-13 there, so the two
    # evaluations are compared at twice that
    x = _kernel_points()
    ks = np.arange(1, 130)
    B = basis_matrix(ks, x)
    assert B.shape == (len(x), len(ks)) and B.flags["C_CONTIGUOUS"]
    npt.assert_allclose(B, _exactly_reduced_basis(ks, x), rtol=0, atol=1e-13)
    for c, k in enumerate(ks):
        npt.assert_allclose(B[:, c], eval_basis(int(k), x), rtol=0, atol=2e-13,
                            err_msg=f"column of phi_{k}")
    # any order and subset of indices reads the same columns
    perm = np.array([37, 2, 1, 128, 3, 64, 65, 9])
    assert np.array_equal(basis_matrix(perm, x), B[:, perm - 1])


def test_basis_matrix_first_harmonic_is_bitwise_direct():
    x = _kernel_points()
    direct = np.column_stack([np.ones_like(x), np.sqrt(2.0) * np.cos(2.0 * np.pi * x),
                              np.sqrt(2.0) * np.sin(2.0 * np.pi * x)])
    assert np.array_equal(basis_matrix([1, 2, 3], x), direct)
    assert np.array_equal(basis_matrix(np.arange(1, 40), x)[:, :3], direct)
    assert np.array_equal(basis_matrix([1], x), np.ones((len(x), 1)))


def test_basis_matrix_empty_indices():
    assert basis_matrix(np.arange(2, 2), np.linspace(0.0, 1.0, 7)).shape == (7, 0)
    assert basis_matrix([], np.linspace(0.0, 1.0, 7)).shape == (7, 0)
