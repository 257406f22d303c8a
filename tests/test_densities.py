import numpy as np
import numpy.testing as npt
import pytest
from scipy.stats import norm

from addsel import ConfigError, GaussianCopulaDensity, TableDensity, UniformDensity


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
