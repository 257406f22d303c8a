import numpy as np
import numpy.testing as npt
import pytest

from addsel import (AddselError, BasisSpec, ConfigError, GaussianCopulaDensity,
                    TableDensity, UniformDensity, basis_matrix, build_design_blocks,
                    eval_basis, full_block_gram, population_gram)


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


@pytest.mark.parametrize("ks", [[0], [-1], [2, 0]], ids=["zero", "negative", "zero-after-2"])
def test_basis_matrix_refuses_indices_below_one(ks):
    # phi_k is defined for k >= 1 only; k = 0 would leave its column unwritten
    # and a negative k would read the sin of the highest harmonic
    with pytest.raises(AddselError, match="basis index must be >= 1"):
        basis_matrix(ks, np.linspace(0.0, 1.0, 7))


def test_orthonormality_under_uniform():
    # the trig system is orthonormal in L2([0,1]); midpoint rule is exact
    # enough at 4096 nodes for indices up to 9
    x = (np.arange(4096) + 0.5) / 4096
    B = basis_matrix(np.arange(1, 10), x)
    G = B.T @ B / len(x)
    npt.assert_allclose(G, np.eye(9), atol=1e-12)


def test_basis_spec_dims():
    spec = BasisSpec.create(3, (5, 4, 7))
    assert [spec.dim(j) for j in range(3)] == [4, 3, 6]
    assert spec.d_J((0, 2)) == 10
    assert spec.d_l(1) == 6
    assert spec.d_l(2) == 10
    npt.assert_array_equal(spec.basis_indices(0), [2, 3, 4, 5])


def test_basis_spec_rejects_bad_levels():
    with pytest.raises(ConfigError):
        BasisSpec.create(2, 0)


def test_design_block_scaling():
    rng = np.random.default_rng(0)
    x = rng.random(50)
    A = build_design_blocks(x[:, None], BasisSpec.create(1, 5)).blocks[0]
    B = basis_matrix(np.arange(2, 6), x)
    npt.assert_allclose(A, B / np.sqrt(50))


def test_design_block_rejects_out_of_range():
    with pytest.raises(AddselError):
        build_design_blocks(np.array([[0.2], [1.4]]), BasisSpec.create(1, 4))


def test_design_blocks_with_unit_levels_have_no_columns():
    # m_j = 1 leaves covariate j out: an n x 0 block, and the other blocks and
    # their slices are those of the full design with j's columns removed
    rng = np.random.default_rng(5)
    X = rng.random((40, 4))
    full = build_design_blocks(X, BasisSpec.create(4, (5, 4, 6, 3)))
    part = build_design_blocks(X, BasisSpec.create(4, (5, 1, 6, 1)))
    assert part.dims() == [4, 0, 5, 0]
    assert part.blocks[1].shape == (40, 0) and part.blocks[3].shape == (40, 0)
    for j in (0, 2):
        assert np.array_equal(part.blocks[j], full.blocks[j])
    assert np.array_equal(part.concat(range(4)), full.concat((0, 2)))
    assert part.slices()[2] == slice(4, 9)
    # an entry outside [0,1] is refused on a covariate without columns too
    X[7, 3] = -0.25
    with pytest.raises(AddselError, match=r"\[0,1\]"):
        build_design_blocks(X, BasisSpec.create(4, (5, 1, 6, 1)))


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


_TILT = 1.0 + 0.8 * np.cos(2 * np.pi * (np.arange(256) + 0.5) / 256)


@pytest.mark.parametrize("make,m", [
    (UniformDensity, 5),
    (lambda: GaussianCopulaDensity(r=0.3), 5),
    (lambda: TableDensity(tables={j: _TILT for j in range(4)}), 5),
    (lambda: GaussianCopulaDensity(r=0.3), (5, 3, 5, 3)),
], ids=["uniform", "copula0.3", "custom-density", "copula-unequal-m"])
def test_population_gram_memo_is_the_per_pair_build(make, m, monkeypatch):
    # under an exchangeable law each distinct block is computed once; the
    # same law declared non-exchangeable computes every block on its own
    from addsel import basis
    spec = BasisSpec.create(4, m)
    density = make()
    density.exchangeable = True
    calls = []
    moments = basis.marginal_moments
    monkeypatch.setattr(basis, "marginal_moments",
                        lambda *a: calls.append(a[2]) or moments(*a))
    G = population_gram(spec, density, range(4))
    assert len(calls) == len(set(spec.m))
    density.exchangeable = False
    ref = population_gram(spec, density, range(4))
    assert len(calls) == len(set(spec.m)) + 4
    assert G.tobytes() == ref.tobytes()


def _one_pass_basis(ks, x):
    """basis_matrix as one pass over all points: every harmonic of every point
    held at once, each column written from its harmonic's row."""
    ks = np.asarray(ks, dtype=int)
    out = np.empty((len(x), len(ks)))
    H = int(ks.max(initial=1)) // 2
    z = np.empty((H, len(x)), dtype=complex)
    if H:
        t = 2.0 * np.pi * x
        z[0].real = np.cos(t)
        z[0].imag = np.sin(t)
    for h in range(1, H):
        np.multiply(z[h - 1], z[0], out=z[h])
    for c, k in enumerate(ks.tolist()):
        out[:, c] = 1.0 if k == 1 else np.sqrt(2.0) * (z.imag if k % 2 else z.real)[k // 2 - 1]
    return out


def _pass_rows():
    from addsel import basis
    return basis.BASIS_WORKSPACE // 48


@pytest.mark.parametrize("n", ["zero", "one", "budget-1", "budget", "budget+1", "3 budget+7"])
@pytest.mark.parametrize("ks", [np.arange(2, 8), np.arange(1, 40), [1], [9, 1, 2, 17, 3, 3, 40],
                                [3, 2]],
                         ids=["m7", "m39-with-phi1", "phi1-only", "permuted", "one-harmonic"])
def test_basis_matrix_passes_equal_one_pass(n, ks):
    # the points go in passes of BASIS_WORKSPACE // 48 rows; every value takes
    # the same elementwise operations as in one pass, so the matrices are equal
    rows = _pass_rows()
    size = {"zero": 0, "one": 1, "budget-1": rows - 1, "budget": rows,
            "budget+1": rows + 1, "3 budget+7": 3 * rows + 7}[n]
    x = np.random.default_rng(size).random(size)
    B = basis_matrix(ks, x)
    assert B.shape == (size, len(ks)) and B.flags["C_CONTIGUOUS"]
    assert np.array_equal(B, _one_pass_basis(ks, x))


def test_basis_matrix_writes_into_a_column_view():
    # out= may be a strided column slice; it receives the fresh result's bits
    x = np.random.default_rng(3).random(3 * _pass_rows() + 5)
    ks = np.array([4, 2, 1, 7, 3])
    A = np.full((len(x), 9), -1.0)
    assert basis_matrix(ks, x, out=A[:, 2:7]) is not None
    assert np.array_equal(A[:, 2:7], basis_matrix(ks, x))
    assert np.all(A[:, :2] == -1.0) and np.all(A[:, 7:] == -1.0)
    with pytest.raises(AddselError):
        basis_matrix(ks, x, out=A[:, :4])


def test_basis_matrix_workspace_is_bounded(monkeypatch):
    # at 16384 x 6 a one-pass workspace takes 0.8 MB (three harmonics) plus
    # three 128 KiB arrays of points; in passes only BASIS_WORKSPACE does
    import tracemalloc
    from addsel import basis
    x = np.random.default_rng(5).random(16384)
    ks = np.arange(2, 8)
    tracemalloc.start()
    try:
        B = basis_matrix(ks, x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert basis.BASIS_WORKSPACE <= 1 << 16
    assert peak <= B.nbytes + basis.BASIS_WORKSPACE + 4096
    # a smaller budget only means more passes
    monkeypatch.setattr(basis, "BASIS_WORKSPACE", 48 * 7)
    assert np.array_equal(basis_matrix(ks, x[:100]), B[:100])


def _block_list_design(X, spec):
    """The design as separately built blocks, each basis_matrix / sqrt(n)."""
    n = X.shape[0]
    return [basis_matrix(spec.basis_indices(j), X[:, j]) / np.sqrt(n) for j in range(spec.q)]


def test_design_blocks_are_views_of_one_matrix():
    from addsel.basis import DesignBlocks, block_columns
    rng = np.random.default_rng(8)
    spec = BasisSpec.create(5, (4, 1, 7, 2, 5))
    X = rng.random((300, 5))
    Y = rng.standard_normal(300)
    design = build_design_blocks(X, spec)
    blocks = _block_list_design(X, spec)
    assert design.A.flags["C_CONTIGUOUS"] and design.A.shape == (300, 14)
    assert design.dims() == [3, 0, 6, 1, 4] and design.q == 5 and design.n == 300
    for B, ref in zip(design.blocks, blocks):
        assert B.base is design.A
        assert np.array_equal(B, ref)
    # B^T Y on a view of four or more columns equals it on the separate block
    # (the subset scorer copies narrower blocks first)
    assert np.array_equal(design.blocks[2].T @ Y, blocks[2].T @ Y)
    assert np.array_equal(design.blocks[4].T @ Y, blocks[4].T @ Y)
    for J in [(), (0,), (2, 0), (1,), (4, 1, 3), range(5)]:
        got = design.concat(J)
        ref = np.concatenate([blocks[j] for j in sorted(J)] or [np.empty((300, 0))], axis=1)
        assert got.flags["C_CONTIGUOUS"] and np.array_equal(got, ref)
    full = np.concatenate(blocks, axis=1)
    assert np.array_equal(design.full_gram(), full.T @ full)
    c = block_columns(design.slices(), (0, 3, 4))
    assert np.array_equal(design.gram((4, 0, 3)), (full.T @ full)[np.ix_(c, c)])
    # the list constructor concatenates once, to the same matrix
    listed = DesignBlocks(blocks)
    assert np.array_equal(listed.A, design.A) and listed.dims() == design.dims()
    assert all(B.base is listed.A for B in listed.blocks)


@pytest.mark.parametrize("shape", [(5, 6), (5, 3), (4,), (2, 5, 4)])
def test_from_matrix_refuses_a_matrix_not_as_wide_as_its_blocks(shape):
    # a wider A would give full_gram() columns no block owns, a narrower one a
    # short last block
    from addsel.basis import DesignBlocks
    with pytest.raises(AddselError, match=r"^design matrix of shape .* is not n x 4$"):
        DesignBlocks.from_matrix(np.ones(shape), [2, 2])
    assert DesignBlocks.from_matrix(np.ones((5, 4)), [2, 2]).full_gram().shape == (4, 4)
