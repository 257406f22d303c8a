"""Trigonometric function system, truncation spaces and scaled design blocks."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .densities import Density
from .errors import AddselError, ConfigError

#: midpoint-rule nodes per covariate for 1-D population integrals
QUAD_NODES_1D = 2048
#: nodes per axis for pairwise (dependent-covariate) integrals
QUAD_NODES_2D = 512


def eval_basis(k: int, x: float) -> float:
    """Value of the k-th trigonometric basis function at x in [0,1].

    phi_1 = 1, phi_{2k} = sqrt(2) cos(2 pi k x), phi_{2k+1} = sqrt(2) sin(2 pi k x).
    """
    if k < 1:
        raise AddselError(f"basis index must be >= 1, got {k}")
    x_arr = np.asarray(x, dtype=float)
    if np.any(x_arr < 0.0) or np.any(x_arr > 1.0):
        raise AddselError("basis argument outside [0,1]")
    if k == 1:
        out = np.ones_like(x_arr)
    elif k % 2 == 0:
        out = np.sqrt(2.0) * np.cos(2.0 * np.pi * (k // 2) * x_arr)
    else:
        out = np.sqrt(2.0) * np.sin(2.0 * np.pi * (k // 2) * x_arr)
    return float(out) if np.isscalar(x) else out


def basis_matrix(ks, x):
    """Matrix of phi_k(x_i), shape (len(x), len(ks)). No domain checks.

    Harmonic h is z^h with z = exp(2 pi i x), grown by complex multiplication
    from one cos and one sin call per point: the h = 1 columns equal
    sqrt(2) cos(2 pi x) and sqrt(2) sin(2 pi x) bitwise, and harmonic h is off
    direct evaluation by about h ulp, the size of the argument rounding of
    cos(2 pi h x).
    """
    x = np.asarray(x, dtype=float)
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
    # row h - 1 holds harmonic h: cos(2 pi h x) in .real, sin(2 pi h x) in .imag
    cos_sin = (z.real, z.imag)
    for c, k in enumerate(ks.tolist()):
        if k == 1:
            out[:, c] = 1.0
        else:
            np.multiply(cos_sin[k % 2][k // 2 - 1], np.sqrt(2.0), out=out[:, c])
    return out


@dataclass(frozen=True)
class BasisSpec:
    """Per-covariate truncation levels and centering convention.

    ``m[j] >= 1``; the space V_j is spanned by phi_2..phi_{m_j} when centered
    (dimension m_j - 1) and by phi_1..phi_{m_j} otherwise (dimension m_j).
    """

    q: int
    m: tuple
    centered: tuple

    @staticmethod
    def create(q: int, m, centered=True) -> "BasisSpec":
        m_arr = np.broadcast_to(np.asarray(m, dtype=int), (q,))
        if np.any(m_arr < 1):
            raise ConfigError("all truncation levels m_j must be >= 1")
        cent = np.broadcast_to(np.asarray(centered, dtype=bool), (q,))
        return BasisSpec(q=q, m=tuple(int(v) for v in m_arr),
                         centered=tuple(bool(v) for v in cent))

    def dim(self, j: int) -> int:
        return self.m[j] - 1 if self.centered[j] else self.m[j]

    def basis_indices(self, j: int):
        start = 2 if self.centered[j] else 1
        return np.arange(start, self.m[j] + 1)

    def d_J(self, J) -> int:
        return int(sum(self.dim(j) for j in J))

    def d_l(self, l: int) -> int:
        """max over |J| = l of d_J (sum of the l largest block dimensions)."""
        dims = sorted((self.dim(j) for j in range(self.q)), reverse=True)
        return int(sum(dims[:l]))


def trig_series(theta, x) -> np.ndarray:
    """sum_i theta[i] phi_{i+2}(x): a centered component from its trig coefficients."""
    theta = np.asarray(theta, dtype=float)
    if len(theta) == 0:
        return np.zeros(len(np.asarray(x)))
    return basis_matrix(np.arange(2, len(theta) + 2), x) @ theta


def build_design_block(xcol, m: int, centered: bool):
    """n x dim(V_j) block with entries phi_k(x_i)/sqrt(n)."""
    xcol = np.asarray(xcol, dtype=float)
    if xcol.ndim != 1 or len(xcol) == 0:
        raise AddselError("design column must be a nonempty 1-d array")
    if np.any(xcol < 0.0) or np.any(xcol > 1.0):
        raise AddselError("design entries must lie in [0,1]")
    if m < 1:
        raise AddselError(f"truncation level must be >= 1, got {m}")
    n = len(xcol)
    start = 2 if centered else 1
    ks = np.arange(start, m + 1)
    return basis_matrix(ks, xcol) / np.sqrt(n)


def block_slices(dims):
    """Column slice of each block in the concatenation of blocks of the given widths."""
    offs = np.concatenate([[0], np.cumsum(dims)]).astype(int)
    return [slice(int(a), int(b)) for a, b in zip(offs[:-1], offs[1:])]


def block_columns(slices, J) -> np.ndarray:
    """Column indices of the blocks in J, in ascending j, under the given slices."""
    if not J:
        return np.zeros(0, dtype=int)
    return np.concatenate([np.arange(slices[j].start, slices[j].stop) for j in sorted(J)])


@dataclass
class DesignBlocks:
    """Per-covariate scaled design matrices A_j, concatenated in ascending j."""

    blocks: list
    _full_gram: np.ndarray | None = field(default=None, init=False, repr=False,
                                          compare=False)

    @property
    def n(self) -> int:
        return self.blocks[0].shape[0]

    @property
    def q(self) -> int:
        return len(self.blocks)

    def dims(self):
        return [b.shape[1] for b in self.blocks]

    def concat(self, J) -> np.ndarray:
        """Column concatenation A_J over sorted subset J."""
        J = sorted(J)
        if not J:
            return np.empty((self.n, 0))
        return np.concatenate([self.blocks[j] for j in J], axis=1)

    def slices(self):
        """Column slice of each block A_j in the full concatenation."""
        return block_slices(self.dims())

    def full_gram(self) -> np.ndarray:
        """A^T A over all q blocks, formed on first use and kept."""
        if self._full_gram is None:
            A = self.concat(range(self.q))
            self._full_gram = A.T @ A
        return self._full_gram

    def gram(self, J) -> np.ndarray:
        """A_J^T A_J, read off the full Gram.

        No caller in the library; kept because the benchmark's per-layer
        tracer (perfbench/tracer.py) wraps this method by name.
        """
        c = block_columns(self.slices(), J)
        return self.full_gram()[np.ix_(c, c)]


def build_design_blocks(X, spec: BasisSpec) -> DesignBlocks:
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != spec.q:
        raise AddselError(f"design matrix must be n x {spec.q}")
    return DesignBlocks([build_design_block(X[:, j], spec.m[j], spec.centered[j])
                         for j in range(spec.q)])


def midpoint_nodes(n):
    """The n midpoints (i + 1/2)/n of an even partition of [0,1]."""
    return (np.arange(n) + 0.5) / n


def marginal_quadrature(density: Density, j: int):
    """(t, p): the midpoint rule's QUAD_NODES_1D nodes and covariate j's marginal
    pdf at them; ConfigError when the pdf does not integrate to 1 on them."""
    t = midpoint_nodes(QUAD_NODES_1D)
    p = density.marginal_pdf(j, t)
    total = p.mean()
    if abs(total - 1.0) > 1e-6:
        raise ConfigError(
            f"marginal density of covariate {j} integrates to {total:.8f}, not 1"
        )
    return t, p


def marginal_moments(ks, density: Density, j: int):
    """(Gram, means) of phi_k(X_j), k in ks, under covariate j's marginal law.

    One basis evaluation serves both: the Gram is E[phi_k phi_l] and the means
    E[phi_k], which give the cross blocks of independent covariates.
    """
    t, p = marginal_quadrature(density, j)
    B = basis_matrix(ks, t)
    Bp = B * p[:, None]
    return Bp.T @ B / QUAD_NODES_1D, Bp.mean(axis=0)


def _cross_block_gram(spec, density, j1, j2):
    """Cross Gram of V_j1 and V_j2 under the pairwise joint density."""
    t = midpoint_nodes(QUAD_NODES_2D)
    W = density.pair_pdf(j1, j2, t, t) / (QUAD_NODES_2D ** 2)
    B1 = basis_matrix(spec.basis_indices(j1), t)
    B2 = basis_matrix(spec.basis_indices(j2), t)
    return B1.T @ W @ B2


def population_gram(spec: BasisSpec, density: Density, J) -> np.ndarray:
    """Gram matrix of the concatenated basis of V_J under the covariate law.

    Blocks follow ascending covariate order, columns ascending basis index.
    """
    J = sorted(J)
    dims = [spec.dim(j) for j in J]
    d = sum(dims)
    G = np.zeros((d, d))
    sl = block_slices(dims)
    moments = [marginal_moments(spec.basis_indices(j), density, j) for j in J]
    for a, j1 in enumerate(J):
        G[sl[a], sl[a]] = moments[a][0]
        for b in range(a + 1, len(J)):
            if density.independent:
                # independent covariates: the cross block is the outer product of the means
                C = np.outer(moments[a][1], moments[b][1])
            else:
                C = _cross_block_gram(spec, density, j1, J[b])
            G[sl[a], sl[b]] = C
            G[sl[b], sl[a]] = C.T
    return 0.5 * (G + G.T)


def full_block_gram(spec: BasisSpec, density: Density):
    """Gram of V_{1..q} plus the per-covariate column slices into it."""
    G = population_gram(spec, density, range(spec.q))
    return G, block_slices([spec.dim(j) for j in range(spec.q)])
