"""Covariate distributions on [0,1]^q.

Every density object exposes marginal pdfs, pairwise joint pdfs, and seeded
sampling. Pairwise joints are all the geometry code ever needs: Gram entries
of univariate basis functions only couple two covariates at a time.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.special import ndtr, ndtri

from .errors import ConfigError


class Density:
    """Base class with uniform pdfs. It declares no capability, so a subclass
    that overrides ``marginal_pdf`` gets no shortcut it has not declared."""

    independent = False
    #: every marginal is Uniform[0,1]; with ``independent`` the trig blocks,
    #: which leave phi_1 out, are then orthogonal, so rho = 0
    uniform_marginals = False
    #: the law of X is invariant under permutations of the covariates; with
    #: equal truncation levels, subsets then differ only by their labels
    exchangeable = False
    #: lower bound c with c <= p_j <= 1/c for all marginals; None: not declared
    c = None

    def uniform_marginal(self, j: int) -> bool:
        """Whether covariate j is Uniform[0,1], so the trig system is orthonormal on it."""
        return self.uniform_marginals

    def marginal_pdf(self, j: int, x: np.ndarray) -> np.ndarray:
        return np.ones_like(np.asarray(x, dtype=float))

    def pair_pdf(self, j1: int, j2: int, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Joint pdf of (X_{j1}, X_{j2}) on the meshgrid u x v (outer product shape)."""
        return np.multiply.outer(self.marginal_pdf(j1, u), self.marginal_pdf(j2, v))

    def sample(self, n: int, q: int, rng: np.random.Generator) -> np.ndarray:
        raise NotImplementedError


class UniformDensity(Density):
    """Independent Uniform[0,1] covariates."""

    independent = uniform_marginals = exchangeable = True
    c = 1.0

    def sample(self, n, q, rng):
        return rng.random((n, q))


@dataclass
class GaussianCopulaDensity(Density):
    """Equicorrelated Gaussian copula with uniform marginals.

    All pairwise couplings share the same correlation r; marginals are exactly
    uniform, so the marginal density bound is c = 1.
    """

    r: float
    #: (u, v, pdf) of the last grid pair: every pair of covariates shares one
    #: copula, so repeated calls on one quadrature grid reuse it
    _pair_cache: tuple | None = field(default=None, init=False, repr=False,
                                      compare=False)

    independent = False
    uniform_marginals = True
    exchangeable = True
    c = 1.0

    def __post_init__(self):
        if not -1.0 < self.r < 1.0:
            raise ConfigError(f"copula correlation must satisfy |r| < 1, got {self.r}")
        if self.r == 0.0:
            self.independent = True

    def pair_pdf(self, j1, j2, u, v):
        r = self.r
        if r == 0.0:
            return np.ones((len(u), len(v)))
        u = np.array(u, dtype=float)
        v = np.array(v, dtype=float)
        cache = self._pair_cache
        if cache is not None and np.array_equal(cache[0], u) and np.array_equal(cache[1], v):
            return cache[2]
        z = ndtri(u)
        w = ndtri(v)
        zz, ww = np.meshgrid(z, w, indexing="ij")
        expo = -(r * r * (zz * zz + ww * ww) - 2.0 * r * zz * ww) / (2.0 * (1.0 - r * r))
        out = np.exp(expo) / np.sqrt(1.0 - r * r)
        self._pair_cache = (u, v, out)
        return out

    def sample(self, n, q, rng):
        if self.r == 0.0:
            return rng.random((n, q))
        # negative equicorrelation is only PSD for r >= -1/(q-1)
        cov = np.full((q, q), self.r)
        np.fill_diagonal(cov, 1.0)
        w = np.linalg.eigvalsh(cov)
        if w[0] < -1e-12:
            raise ConfigError(
                f"equicorrelation r={self.r} is not positive semidefinite for q={q}"
            )
        L = np.linalg.cholesky(cov + 1e-12 * np.eye(q))
        z = rng.standard_normal((n, q)) @ L.T
        return ndtr(z)


@dataclass
class TableDensity(Density):
    """Independent covariates with marginal densities given on a grid.

    ``tables`` maps covariate index -> array of density values on the midpoint
    grid of [0,1]; covariates without an entry are uniform.
    """

    tables: dict = field(default_factory=dict)

    independent = True

    def __post_init__(self):
        self.uniform_marginals = not self.tables
        # a builder that puts one table on every covariate declares the law
        # exchangeable itself; the tables alone do not say how many covariates
        # the design has
        self.exchangeable = not self.tables
        self._grids = {}
        cs = [1.0]
        for j, vals in self.tables.items():
            vals = np.asarray(vals, dtype=float)
            if len(vals) == 0 or not np.all(np.isfinite(vals)) or np.any(vals < 0):
                raise ConfigError(f"marginal density for covariate {j} must be a nonempty "
                                  "table of finite, nonnegative values")
            m = len(vals)
            total = vals.mean()  # midpoint rule with uniform spacing
            if abs(total - 1.0) > 1e-6:
                raise ConfigError(
                    f"marginal density for covariate {j} integrates to {total:.8f}, not 1"
                )
            x = (np.arange(m) + 0.5) / m
            self._grids[j] = (x, vals)
            cs.append(min(vals.min(), 1.0 / vals.max()))
        self.c = float(min(cs))

    def uniform_marginal(self, j):
        return j not in self._grids

    def marginal_pdf(self, j, x):
        x = np.asarray(x, dtype=float)
        if j not in self._grids:
            return np.ones_like(x)
        gx, gv = self._grids[j]
        return np.interp(x, gx, gv)

    def sample(self, n, q, rng):
        X = rng.random((n, q))
        for j, (gx, gv) in self._grids.items():
            if j >= q:
                continue
            # inverse CDF on the table grid
            m = len(gx)
            cdf = np.concatenate([[0.0], np.cumsum(gv) / m])
            edges = np.concatenate([[0.0], gx + 0.5 / m])
            cdf[-1] = 1.0
            X[:, j] = np.interp(X[:, j], cdf, edges)
        return X
