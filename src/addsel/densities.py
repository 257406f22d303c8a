"""Covariate distributions on [0,1]^q.

Every density object exposes marginal pdfs, pairwise joint pdfs, and seeded
sampling. Pairwise joints are all the geometry code ever needs: Gram entries
of univariate basis functions only couple two covariates at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
# numpy loads numpy.random on first use; load it with the package, not inside a call
import numpy.random

from .errors import ConfigError

# The standard normal cdf and its inverse, ported from Cephes (S. L. Moshier,
# Methods and Programs for Mathematical Functions, 1989) with its operation
# order, branches and coefficients, so each value has the bits of the
# compiled Cephes kernel. Only the transcendental calls go per element
# through the C library's log and exp, which the compiled kernel calls too.

_EXPM2 = 0.13533528323661269189  # exp(-2)
_S2PI = 2.50662827463100050242  # sqrt(2 pi)
_SQRTH = 7.07106781186547524401e-1  # 1/sqrt(2)
_MAXLOG = 7.09782712893383996732e2  # log(DBL_MAX)
# The tables Cephes evaluates with p1evl (each Q, S and U) lead here with the
# 1.0 that p1evl implies

# ndtri: y + y y2 P0(y2)/Q0(y2) for |y - 1/2| < 1/2 - exp(-2), then in
# 1/sqrt(-2 log y), P1/Q1 for y > exp(-32) and P2/Q2 below
_NDTRI_P0 = (-5.99633501014107895267e1, 9.80010754185999661536e1,
             -5.66762857469070293439e1, 1.39312609387279679503e1,
             -1.23916583867381258016e0)
_NDTRI_Q0 = (1.0, 1.95448858338141759834e0, 4.67627912898881538453e0,
             8.63602421390890590575e1, -2.25462687854119370527e2,
             2.00260212380060660359e2, -8.20372256168333339912e1,
             1.59056225126211695515e1, -1.18331621121330003142e0)
_NDTRI_P1 = (4.05544892305962419923e0, 3.15251094599893866154e1,
             5.71628192246421288162e1, 4.40805073893200834700e1,
             1.46849561928858024014e1, 2.18663306850790267539e0,
             -1.40256079171354495875e-1, -3.50424626827848203418e-2,
             -8.57456785154685413611e-4)
_NDTRI_Q1 = (1.0, 1.57799883256466749731e1, 4.53907635128879210584e1,
             4.13172038254672030440e1, 1.50425385692907503408e1,
             2.50464946208309415979e0, -1.42182922854787788574e-1,
             -3.80806407691578277194e-2, -9.33259480895457427372e-4)
_NDTRI_P2 = (3.23774891776946035970e0, 6.91522889068984211695e0,
             3.93881025292474443415e0, 1.33303460815807542389e0,
             2.01485389549179081538e-1, 1.23716634817820021358e-2,
             3.01581553508235416007e-4, 2.65806974686737550832e-6,
             6.23974539184983293730e-9)
_NDTRI_Q2 = (1.0, 6.02427039364742014255e0, 3.67983563856160859403e0,
             1.37702099489081330271e0, 2.16236993594496635890e-1,
             1.34204006088543189037e-2, 3.28014464682127739104e-4,
             2.89247864745380683936e-6, 6.79019408009981274425e-9)
# erfc: exp(-x^2) P(x)/Q(x) for 1 <= x < 8, exp(-x^2) R(x)/S(x) above;
# erf: x T(x^2)/U(x^2) for |x| <= 1
_ERFC_P = (2.46196981473530512524e-10, 5.64189564831068821977e-1,
           7.46321056442269912687e0, 4.86371970985681366614e1,
           1.96520832956077098242e2, 5.26445194995477358631e2,
           9.34528527171957607540e2, 1.02755188689515710272e3,
           5.57535335369399327526e2)
_ERFC_Q = (1.0, 1.32281951154744992508e1, 8.67072140885989742329e1,
           3.54937778887819891062e2, 9.75708501743205489753e2,
           1.82390916687909736289e3, 2.24633760818710981792e3,
           1.65666309194161350182e3, 5.57535340817727675546e2)
_ERFC_R = (5.64189583547755073984e-1, 1.27536670759978104416e0,
           5.01905042251180477414e0, 6.16021097993053585195e0,
           7.40974269950448939160e0, 2.97886665372100240670e0)
_ERFC_S = (1.0, 2.26052863220117276590e0, 9.39603524938001434673e0,
           1.20489539808096656605e1, 1.70814450747565897222e1,
           9.60896809063285878198e0, 3.36907645100081516050e0)
_ERF_T = (9.60497373987051638749e0, 9.00260197203842689217e1,
          2.23200534594684319226e3, 7.00332514112805075473e3,
          5.55923013010394962768e4)
_ERF_U = (1.0, 3.35617141647503099647e1, 5.21357949780152679795e2,
          4.59432382970980127987e3, 2.26290000613890934246e4,
          4.92673942608635921086e4)


def _polevl(x, coef):
    """Cephes polevl on the array x: Horner's rule from the leading
    coefficient. A table led by 1.0 gives p1evl, since 1.0 * x is exact."""
    ans = x * coef[0]
    ans += coef[1]
    for c in coef[2:]:
        ans *= x
        ans += c
    return ans


def _libm(f, x):
    """f of each element of the 1-D array x, through the C library."""
    return np.fromiter(map(f, x.tolist()), dtype=float, count=x.size)


def ndtri(y0):
    """Inverse of the standard normal cdf (Cephes ``ndtri``): -inf at 0, inf
    at 1 and NaN outside [0, 1]."""
    y0 = np.asarray(y0, dtype=float)
    x = np.full(y0.shape, np.nan)
    x[y0 == 0.0] = -np.inf
    x[y0 == 1.0] = np.inf
    inside = (y0 > 0.0) & (y0 < 1.0)
    y = y0[inside]
    upper = y > 1.0 - _EXPM2
    y[upper] = 1.0 - y[upper]
    out = np.empty_like(y)
    central = y > _EXPM2
    c = y[central] - 0.5
    c2 = c * c
    out[central] = (c + c * (c2 * _polevl(c2, _NDTRI_P0) / _polevl(c2, _NDTRI_Q0))) * _S2PI
    tail = ~central
    t = np.sqrt(-2.0 * _libm(math.log, y[tail]))
    t0 = t - _libm(math.log, t) / t
    z = 1.0 / t
    t1 = np.where(t < 8.0, z * _polevl(z, _NDTRI_P1) / _polevl(z, _NDTRI_Q1),
                  z * _polevl(z, _NDTRI_P2) / _polevl(z, _NDTRI_Q2))
    t = t0 - t1
    out[tail] = np.where(upper[tail], t, -t)
    x[inside] = out
    return x


def ndtr(a):
    """Standard normal cdf (Cephes ``ndtr``, with its ``erf`` and ``erfc``
    inlined); NaN stays NaN."""
    a = np.asarray(a, dtype=float)
    x = a.reshape(-1) * _SQRTH
    # erf(x) = x T(x^2)/U(x^2) on every element, read only where |x| < 1
    # (where |x| is large, the polynomials overflow to a NaN no branch reads)
    with np.errstate(over="ignore", invalid="ignore"):
        x2 = x * x
        g = _polevl(x2, _ERF_T)
        g *= x
        g /= _polevl(x2, _ERF_U)
    y = np.multiply(g, 0.5, out=x2)  # x2 is spent; fewer fresh arrays
    y += 0.5
    far = np.flatnonzero(np.abs(x) >= _SQRTH)
    xf = x[far]
    w = np.abs(xf)
    e = 1.0 - np.abs(g[far])  # erfc(w) = 1 - erf(w) for w < 1
    tail = np.flatnonzero(w >= 1.0)
    b = w[tail]
    with np.errstate(over="ignore"):
        b2 = b * b
    live = np.flatnonzero(b2 <= _MAXLOG)  # beyond, exp(-b^2) underflows: erfc is 0
    b = b[live]
    p = _polevl(b, _ERFC_P)
    q = _polevl(b, _ERFC_Q)
    big = np.flatnonzero(b >= 8.0)
    p[big] = _polevl(b[big], _ERFC_R)
    q[big] = _polevl(b[big], _ERFC_S)
    erfc = np.zeros(tail.size)
    erfc[live] = (_libm(math.exp, -b2[live]) * p) / q
    e[tail] = erfc
    e *= 0.5
    up = np.flatnonzero(xf > 0.0)
    e[up] = 1.0 - e[up]
    y[far] = e
    return y.reshape(a.shape)


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
    #: (r, u, v, pdf) of the last call: every pair of covariates shares one
    #: copula, so repeated calls on one quadrature grid reuse its read-only pdf
    _pair_cache: tuple | None = field(default=None, init=False, repr=False,
                                      compare=False)

    uniform_marginals = True
    exchangeable = True
    c = 1.0

    def __setattr__(self, name, value):
        # r is checked on every assignment, the one in __init__ included
        if name == "r" and not -1.0 < value < 1.0:
            raise ConfigError(f"copula correlation must satisfy |r| < 1, got {value}")
        super().__setattr__(name, value)

    @property
    def independent(self):
        """r = 0, read off r itself, so it follows every assignment to r."""
        return self.r == 0.0

    def pair_pdf(self, j1, j2, u, v):
        r = self.r
        if r == 0.0:
            return np.ones((len(u), len(v)))
        u = np.array(u, dtype=float)
        v = np.array(v, dtype=float)
        cache = self._pair_cache
        if (cache is not None and cache[0] == r and np.array_equal(cache[1], u)
                and np.array_equal(cache[2], v)):
            return cache[3]
        z = ndtri(u)
        w = ndtri(v)
        # exp(-(r^2 (z^2 + w^2) - 2 r z w) / (2 (1 - r^2))) / sqrt(1 - r^2),
        # left to right over the (z, w) grid in two buffers: every entry goes
        # through the operations of the expression, in its order
        out = np.add((z * z)[:, None], (w * w)[None, :])
        out *= r * r
        cross = np.multiply((2.0 * r * z)[:, None], w[None, :])
        np.subtract(out, cross, out=out)
        np.negative(out, out=out)
        out /= 2.0 * (1.0 - r * r)
        np.exp(out, out=out)
        out /= np.sqrt(1.0 - r * r)
        out.flags.writeable = False
        self._pair_cache = (r, u, v, out)
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
