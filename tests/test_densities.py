import numpy as np
import numpy.testing as npt
import pytest
from scipy import special
from scipy.stats import norm

from addsel import ConfigError, Density, GaussianCopulaDensity, TableDensity, UniformDensity
from addsel.basis import QUAD_NODES_2D, midpoint_nodes
from addsel.densities import ndtr, ndtri


def test_uniform_sampling_range_and_shape():
    X = UniformDensity().sample(100, 3, np.random.default_rng(0))
    assert X.shape == (100, 3)
    assert X.min() >= 0.0 and X.max() <= 1.0


def test_copula_pair_pdf_integrates_to_one():
    dens = GaussianCopulaDensity(r=0.6)
    g = 512
    t = (np.arange(g) + 0.5) / g
    W = dens.pair_pdf(0, 1, t, t)
    npt.assert_allclose(W.mean(), 1.0, atol=1e-3)


def test_copula_pair_pdf_cache_keys_on_the_grids():
    # two grids of one length and one first node are still two grids: the
    # second call gets its own pdf, and a repeated grid gets the cached one
    u = (np.arange(8) + 0.5) / 8
    v = np.concatenate([u[:1], np.linspace(0.2, 0.9, 7)])
    dens = GaussianCopulaDensity(r=0.5)
    first = dens.pair_pdf(0, 1, u, u)
    second = dens.pair_pdf(0, 1, v, v)
    assert not np.array_equal(first, second)
    npt.assert_array_equal(second, GaussianCopulaDensity(r=0.5).pair_pdf(0, 1, v, v))
    assert dens.pair_pdf(0, 1, v, v) is second


def _meshgrid_pair_pdf(r, u, v):
    """The copula pdf as the expression over two meshgrid copies of the grid."""
    zz, ww = np.meshgrid(ndtri(np.asarray(u, dtype=float)), ndtri(np.asarray(v, dtype=float)),
                         indexing="ij")
    expo = -(r * r * (zz * zz + ww * ww) - 2.0 * r * zz * ww) / (2.0 * (1.0 - r * r))
    return np.exp(expo) / np.sqrt(1.0 - r * r)


_PDF_GRIDS = {
    "equal": (midpoint_nodes(512), midpoint_nodes(512)),
    "unequal": (midpoint_nodes(64), np.linspace(0.01, 0.99, 37)),
    "tails": (np.array([0.0, 1e-300, 1e-20, 0.5, 1.0 - 1e-16, 1.0]), midpoint_nodes(8)),
}


@pytest.mark.parametrize("grid", list(_PDF_GRIDS))
@pytest.mark.parametrize("r", [-0.5, -0.1, 1e-9, 0.3, 0.9, 0.99])
def test_copula_pair_pdf_equals_meshgrid_expression_bitwise(r, grid):
    # the pdf is built in place over broadcast z and w, each entry through the
    # expression's operations in its order: the bits, signs and NaNs included
    u, v = _PDF_GRIDS[grid]
    with np.errstate(invalid="ignore"):  # inf - inf at the corners of "tails"
        got = GaussianCopulaDensity(r=r).pair_pdf(0, 1, u, v)
        want = _meshgrid_pair_pdf(r, u, v)
    assert got.shape == want.shape == (len(u), len(v))
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_copula_pair_pdf_cache_is_read_only_and_keys_on_r():
    # the cached pdf is shared by every later call, so it cannot be written;
    # r is a field, and a new r gets its own pdf
    t = midpoint_nodes(16)
    dens = GaussianCopulaDensity(r=0.5)
    pdf = dens.pair_pdf(0, 1, t, t)
    with pytest.raises(ValueError, match="read-only"):
        pdf[0, 0] = 0.0
    assert dens.pair_pdf(0, 1, t, t) is pdf
    dens.r = 0.3
    fresh = dens.pair_pdf(0, 1, t, t)
    assert fresh is not pdf
    assert np.array_equal(fresh, GaussianCopulaDensity(r=0.3).pair_pdf(0, 1, t, t))
    assert np.array_equal(pdf, GaussianCopulaDensity(r=0.5).pair_pdf(0, 1, t, t))


def test_copula_capabilities_follow_r():
    # independence is read off r, so it follows an assignment to r, and every
    # assignment is checked as the constructor's is
    from addsel import BasisSpec, PopulationGeometry
    spec = BasisSpec.create(4, 5)
    dens = GaussianCopulaDensity(r=0.0)
    assert dens.independent and PopulationGeometry(spec, dens, 1).rho() == 0.0
    dens.r = 0.3
    assert not dens.independent
    rho = PopulationGeometry(spec, dens, 1).rho()
    assert rho == PopulationGeometry(spec, GaussianCopulaDensity(r=0.3), 1).rho()
    assert 0.18 < rho < 0.19
    for bad in (1.5, -1.0, 1.0, float("nan")):
        with pytest.raises(ConfigError, match=r"\|r\| < 1"):
            dens.r = bad
        with pytest.raises(ConfigError, match=r"\|r\| < 1"):
            GaussianCopulaDensity(r=bad)
    assert dens.r == 0.3


def test_copula_pair_pdf_matches_bivariate_normal():
    # [DERIVED] c(u,v) = phi_2(z,w;r) / (phi(z) phi(w)) at a spot value
    r = 0.4
    dens = GaussianCopulaDensity(r=r)
    u, v = 0.3, 0.7
    z, w = norm.ppf(u), norm.ppf(v)
    det = 1.0 - r * r
    expected = np.exp(-(r * r * (z * z + w * w) - 2 * r * z * w) / (2 * det)) / np.sqrt(det)
    got = dens.pair_pdf(0, 1, np.array([u]), np.array([v]))[0, 0]
    npt.assert_allclose(got, expected, rtol=1e-12)


def test_copula_sample_correlation_sign():
    rng = np.random.default_rng(3)
    X = GaussianCopulaDensity(r=0.8).sample(4000, 2, rng)
    c = np.corrcoef(X.T)[0, 1]
    assert c > 0.6
    # marginals stay uniform
    npt.assert_allclose(X.mean(axis=0), 0.5, atol=0.03)


def test_copula_at_zero_correlation_samples_as_uniform():
    # r = 0 is the independent uniform law, drawn by the same call
    X = GaussianCopulaDensity(r=0.0).sample(50, 3, np.random.default_rng(5))
    npt.assert_array_equal(X, UniformDensity().sample(50, 3, np.random.default_rng(5)))


def test_copula_rejects_bad_r():
    with pytest.raises(ConfigError):
        GaussianCopulaDensity(r=1.0)
    with pytest.raises(ConfigError):
        # r = -0.9 equicorrelation is not PSD for q = 5
        GaussianCopulaDensity(r=-0.9).sample(10, 5, np.random.default_rng(0))


def test_table_density_sampling_matches_pdf():
    m = 512
    x = (np.arange(m) + 0.5) / m
    vals = np.where(x < 0.5, 1.5, 0.5)
    dens = TableDensity(tables={0: vals})
    rng = np.random.default_rng(7)
    X = dens.sample(20000, 1, rng)
    frac = np.mean(X[:, 0] < 0.5)
    npt.assert_allclose(frac, 0.75, atol=0.02)
    assert dens.c <= 0.5 + 1e-12


@pytest.mark.parametrize("table", [[2.5, -0.5, 1.0, 1.0], [1.0, np.nan, 1.0, 1.0],
                                   [np.inf, 1.0, 1.0, 1.0], []],
                         ids=["negative", "nan", "inf", "empty"])
def test_table_density_refuses_malformed_tables(table):
    # a negative entry used to pass (it integrates to 1) and report c = 0.4
    with pytest.raises(ConfigError, match="finite, nonnegative"):
        TableDensity(tables={0: np.array(table, dtype=float)})


def test_table_density_c_is_zero_where_the_pdf_vanishes():
    # the pdf is 0 at x = 0.375, so no c > 0 has c <= p; the positive entries gave 0.5
    assert TableDensity(tables={0: [2.0, 0.0, 1.0, 1.0]}).c == 0.0


def test_table_density_untouched_covariates_uniform():
    dens = TableDensity(tables={})
    t = np.linspace(0.0, 1.0, 11)
    npt.assert_allclose(dens.marginal_pdf(3, t), 1.0)
    assert dens.c == 1.0


def test_copula_matches_scipy_stats_norm_bitwise():
    # ndtri/ndtr are the kernels behind norm.ppf/norm.cdf: same bits
    dens = GaussianCopulaDensity(r=0.35)
    X = dens.sample(20000, 5, np.random.default_rng(8))
    cov = np.full((5, 5), 0.35)
    np.fill_diagonal(cov, 1.0)
    L = np.linalg.cholesky(cov + 1e-12 * np.eye(5))
    expected = norm.cdf(np.random.default_rng(8).standard_normal((20000, 5)) @ L.T)
    assert np.array_equal(X, expected)
    t = (np.arange(512) + 0.5) / 512
    z = norm.ppf(t)
    zz, ww = np.meshgrid(z, z, indexing="ij")
    r = 0.35
    pdf = np.exp(-(r * r * (zz * zz + ww * ww) - 2.0 * r * zz * ww)
                 / (2.0 * (1.0 - r * r))) / np.sqrt(1.0 - r * r)
    assert np.array_equal(dens.pair_pdf(0, 1, t, t), pdf)


def test_uniform_marginals_declared():
    table = 1.0 + 0.8 * np.cos(2 * np.pi * (np.arange(256) + 0.5) / 256)
    assert UniformDensity().uniform_marginals
    assert GaussianCopulaDensity(r=0.5).uniform_marginals
    assert TableDensity(tables={}).uniform_marginals
    assert not TableDensity(tables={2: table}).uniform_marginals


def test_exchangeable_declared():
    table = 1.0 + 0.8 * np.cos(2 * np.pi * (np.arange(256) + 0.5) / 256)
    assert UniformDensity().exchangeable
    assert GaussianCopulaDensity(r=0.5).exchangeable
    assert GaussianCopulaDensity(r=0.0).exchangeable
    assert TableDensity(tables={}).exchangeable
    # declared, not inferred: a table on every covariate is still not exchangeable
    assert not TableDensity(tables={j: table for j in range(3)}).exchangeable


def test_uniform_marginal_declared_per_covariate():
    table = 1.0 + 0.8 * np.cos(2 * np.pi * (np.arange(256) + 0.5) / 256)
    assert UniformDensity().uniform_marginal(5)
    assert GaussianCopulaDensity(r=0.5).uniform_marginal(0)
    dens = TableDensity(tables={1: table})
    assert dens.uniform_marginal(0) and dens.uniform_marginal(2)
    assert not dens.uniform_marginal(1)


def test_density_subclass_declares_no_c():
    # c in c <= p_j <= 1/c is declared, not inherited: a marginal 1 + 0.8 cos 2 pi x
    # has c = 0.2, as its table says, not the base class's guess
    table = 1.0 + 0.8 * np.cos(2 * np.pi * (np.arange(256) + 0.5) / 256)

    class Tilted(Density):
        def marginal_pdf(self, j, x):
            return 1.0 + 0.8 * np.cos(2 * np.pi * np.asarray(x, dtype=float))

    assert Tilted().c is None
    assert UniformDensity().c == GaussianCopulaDensity(r=0.5).c == 1.0
    npt.assert_allclose(TableDensity(tables={0: table}).c, 0.2001, atol=1e-4)


# ndtr and ndtri are ports of the Cephes kernels behind scipy.special's: every
# value must have scipy's bits (NaN matching NaN, the sign of a zero included)


def _assert_bitwise(port, reference, x):
    got, want = port(x), reference(x)
    assert got.shape == want.shape
    same = (got == want) | (np.isnan(got) & np.isnan(want))
    assert same.all(), (x[~same][:5], got[~same][:5], want[~same][:5])
    real = ~np.isnan(want)
    assert np.array_equal(np.signbit(got[real]), np.signbit(want[real]))


def _neighbours(points, steps=4):
    """Each point and its `steps` nextafter neighbours on either side."""
    out = []
    for p in points:
        below = above = np.float64(p)
        out.append(below)
        for _ in range(steps):
            below = np.nextafter(below, -np.inf)
            above = np.nextafter(above, np.inf)
            out += [below, above]
    return np.array(out)


_EXPM2 = 0.13533528323661269189
#: the least y with sqrt(-2 log y) < 8, where ndtri switches between its two tail
#: fits; 15 ulps above exp(-32)
_NDTRI_TAIL_EDGE = 1.2664165549094199e-14
#: |a| where erfc's argument a / sqrt(2) reaches 1 and 8, and where -a^2/2 passes -MAXLOG
_NDTR_EDGES = (1.0, np.sqrt(2.0), 8.0 * np.sqrt(2.0), np.sqrt(2.0 * 7.09782712893383996732e2))


@pytest.mark.parametrize("draw", [
    lambda rng: rng.random(200_000),
    lambda rng: 10.0 ** rng.uniform(-300.0, 0.0, 100_000),
    lambda rng: 1.0 - 10.0 ** rng.uniform(-16.0, 0.0, 100_000),
    lambda rng: rng.random(50_000) * 1e-10,
], ids=["uniform", "lower-tail", "upper-tail", "below-1e-10"])
def test_ndtri_matches_scipy_on_random_sweeps(draw):
    _assert_bitwise(ndtri, special.ndtri, draw(np.random.default_rng(22)))


def test_ndtri_matches_scipy_at_branch_edges():
    edges = _neighbours([_EXPM2, 1.0 - _EXPM2, _NDTRI_TAIL_EDGE, 1.0 - _NDTRI_TAIL_EDGE,
                         0.5, 1.0 - 1e-16, 1e-300])
    _assert_bitwise(ndtri, special.ndtri, edges)


def test_ndtri_matches_scipy_at_ends_and_outside_the_domain():
    tiny = np.nextafter(0.0, 1.0)
    y = np.array([0.0, -0.0, 1.0, np.nextafter(1.0, 0.0), np.nextafter(1.0, 2.0),
                  -tiny, -1.0, 2.0, np.inf, -np.inf, np.nan,
                  tiny, 2 * tiny, 1e-310, np.finfo(float).tiny,
                  np.nextafter(np.finfo(float).tiny, 0.0)])
    _assert_bitwise(ndtri, special.ndtri, y)


@pytest.mark.parametrize("n", [QUAD_NODES_2D] + list(range(8, 65)))
def test_ndtri_matches_scipy_on_midpoint_nodes(n):
    # the copula's quadrature nodes and every sup-norm grid size from 8 to 64
    _assert_bitwise(ndtri, special.ndtri, midpoint_nodes(n))


@pytest.mark.parametrize("draw", [
    lambda rng: 3.0 * rng.standard_normal((16_384, 4)),
    lambda rng: rng.uniform(-40.0, 40.0, 300_000),
], ids=["normal", "wide"])
def test_ndtr_matches_scipy_on_random_sweeps(draw):
    _assert_bitwise(ndtr, special.ndtr, draw(np.random.default_rng(22)))


def test_ndtr_matches_scipy_at_branch_edges():
    edges = _neighbours([s * e for e in _NDTR_EDGES + (38.0,) for s in (1.0, -1.0)])
    _assert_bitwise(ndtr, special.ndtr, edges)


def test_ndtr_matches_scipy_at_zeros_infinities_and_nan():
    tiny = np.nextafter(0.0, 1.0)
    a = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, tiny, -tiny, 1e-310, -1e-310,
                  1e308, -1e308, np.finfo(float).max, -np.finfo(float).max])
    _assert_bitwise(ndtr, special.ndtr, a)
