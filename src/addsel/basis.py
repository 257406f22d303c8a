"""Trigonometric function system, truncation spaces and scaled design blocks."""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .densities import Density
from .errors import AddselError, ConfigError

#: midpoint-rule nodes per covariate for 1-D population integrals
QUAD_NODES_1D = 2048
#: nodes per axis for pairwise (dependent-covariate) integrals
QUAD_NODES_2D = 512
#: most principal submatrices stacked into one batched eigenvalue or Cholesky
#: call; the stack and its LAPACK workspace stay small instead of growing with
#: the number of sets
EIG_CHUNK = 64
#: bytes a stack of principal submatrices stays below (one matrix at the
#: least): glibc serves 128 KiB or more by mmap (mallopt(3),
#: M_MMAP_THRESHOLD), so a larger stack, and each temporary of its size, would
#: fault in fresh pages on every chunk; 40 matrices of 20 x 20 fit
STACK_BYTES = 2 ** 17
#: most bytes of basis_matrix's workspace per pass over the points, whatever
#: the number of harmonics; below STACK_BYTES for the same reason
BASIS_WORKSPACE = 2 ** 16


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


def basis_matrix(ks, x, out=None):
    """Matrix of phi_k(x_i), shape (len(x), len(ks)), written into ``out`` when
    given (any float array of that shape, a column view included). Every k must
    be >= 1; x is not checked.

    Harmonic h is z^h with z = exp(2 pi i x), grown by complex multiplication
    from one cos and one sin call per point: the h = 1 columns equal
    sqrt(2) cos(2 pi x) and sqrt(2) sin(2 pi x) bitwise, and harmonic h is off
    direct evaluation by about h ulp, the size of the argument rounding of
    cos(2 pi h x).

    The points go in passes whose workspace stays within BASIS_WORKSPACE bytes
    whatever the number of harmonics: each harmonic is written to its columns
    as soon as it is formed, so a pass holds z and two harmonics. Every value
    goes through the same elementwise operations, on arrays of the same
    layout, as in one pass over all points.
    """
    x = np.asarray(x, dtype=float)
    ks = np.asarray(ks, dtype=int)
    if ks.min(initial=1) < 1:
        raise AddselError(f"basis index must be >= 1, got {ks.min()}")
    if out is None:
        out = np.empty((len(x), len(ks)))
    elif out.shape != (len(x), len(ks)):
        raise AddselError(f"basis_matrix out= has shape {out.shape}, "
                          f"not {(len(x), len(ks))}")
    H = int(ks.max(initial=1)) // 2
    # harmonic h's columns as (column, 0 for cos(2 pi h x) or 1 for sin)
    columns = [[] for _ in range(H + 1)]
    for c, k in enumerate(ks.tolist()):
        if k == 1:
            out[:, c] = 1.0
        else:
            columns[k // 2].append((c, k % 2))
    if not H or not len(x):
        return out
    rows = min(len(x), BASIS_WORKSPACE // 48)  # z and two harmonics, 16 bytes a point
    z_buf = np.empty(rows, dtype=complex)
    sqrt2 = np.sqrt(2.0)
    for lo in range(0, len(x), rows):
        block = out[lo:lo + rows]
        z = z_buf[:len(block)]
        t = x[lo:lo + rows] * (2.0 * np.pi)
        z.real = np.cos(t)
        z.imag = np.sin(t)
        del t
        for h in range(1, H + 1):
            # out of place: an in-place complex product is not always bitwise
            w = z if h == 1 else w * z
            for c, part in columns[h]:
                np.multiply(w.imag if part else w.real, sqrt2, block[:, c])
        # so the next pass's temporaries reuse this memory, not fresh pages
        del w
    return out


@dataclass(frozen=True)
class BasisSpec:
    """Per-covariate truncation levels.

    ``m[j] >= 1``; the space V_j is spanned by phi_2..phi_{m_j} (dimension
    m_j - 1). Leaving phi_1 = 1 out of every block keeps the V_j a direct sum.
    """

    q: int
    m: tuple

    @staticmethod
    def create(q: int, m) -> "BasisSpec":
        m_arr = np.broadcast_to(np.asarray(m, dtype=int), (q,))
        if np.any(m_arr < 1):
            raise ConfigError("all truncation levels m_j must be >= 1")
        return BasisSpec(q=q, m=tuple(int(v) for v in m_arr))

    def dim(self, j: int) -> int:
        return self.m[j] - 1

    def basis_indices(self, j: int):
        return np.arange(2, self.m[j] + 1)

    def d_J(self, J) -> int:
        return int(sum(self.dim(j) for j in J))

    def d_l(self, l: int) -> int:
        """max over |J| = l of d_J (sum of the l largest block dimensions)."""
        dims = sorted((self.dim(j) for j in range(self.q)), reverse=True)
        return int(sum(dims[:l]))


def trig_series(theta, x) -> np.ndarray:
    """sum_i theta[i] phi_{i+2}(x): a component from its trig coefficients (no phi_1)."""
    theta = np.asarray(theta, dtype=float)
    if len(theta) == 0:
        return np.zeros(len(np.asarray(x)))
    return basis_matrix(np.arange(2, len(theta) + 2), x) @ theta


def block_slices(dims):
    """Column slice of each block in the concatenation of blocks of the given widths."""
    offs = np.concatenate([[0], np.cumsum(dims)]).astype(int)
    return [slice(int(a), int(b)) for a, b in zip(offs[:-1], offs[1:])]


def block_columns(slices, J) -> np.ndarray:
    """Column indices of the blocks in J, in ascending j, under the given slices."""
    if not J:
        return np.zeros(0, dtype=int)
    return np.concatenate([np.arange(slices[j].start, slices[j].stop) for j in sorted(J)])


def _ranges(starts, lengths):
    """The concatenation of arange(a, a + k) over the pairs (a, k) of starts and
    (nonempty) lengths."""
    ends = np.cumsum(lengths)
    return np.arange(ends[-1]) + np.repeat(starts + lengths - ends, lengths)


def chunk_rows(d):
    """Matrices per stack of d x d principal submatrices: at most EIG_CHUNK, and
    fewer where the stack would reach STACK_BYTES (one at the least)."""
    return max(1, min(EIG_CHUNK, (STACK_BYTES - 1) // (8 * d * d)))


def block_column_chunks(slices, block_sets):
    """Ascending block sets grouped by column count, in chunks of chunk_rows(d) for
    d columns (at most EIG_CHUNK, and below STACK_BYTES as a stack of d x d).

    Yields (members, cols): members are (position in ``block_sets``, set)
    pairs, ascending within the chunk; cols is the (k, d) array of their
    column indices, row i equal to ``block_columns(slices, set_i)``. Sets
    without columns are skipped.
    """
    sets = list(block_sets)
    starts = np.array([s.start for s in slices], dtype=int)
    widths = np.array([s.stop - s.start for s in slices], dtype=int)
    sizes = np.fromiter(map(len, sets), dtype=int, count=len(sets))
    flat = np.fromiter(itertools.chain.from_iterable(sets), dtype=int, count=int(sizes.sum()))
    first = np.cumsum(sizes) - sizes  # where each set's blocks begin in flat
    counts = np.bincount(np.repeat(np.arange(len(sets)), sizes), weights=widths[flat],
                         minlength=len(sets)).astype(int)
    # np.unique would import numpy.ma, about 0.3 MB more peak memory per run
    for d in sorted(set(counts.tolist()) - {0}):
        group = np.flatnonzero(counts == d)
        step = chunk_rows(d)
        for lo in range(0, len(group), step):
            pos = group[lo:lo + step]
            blocks = flat[_ranges(first[pos], sizes[pos])]
            cols = _ranges(starts[blocks], widths[blocks]).reshape(len(pos), d)
            yield [(p, sets[p]) for p in pos.tolist()], cols


def principal_submatrices(G, cols):
    """The principal submatrices G[c, c] for each row c of cols, stacked."""
    return G[cols[:, :, None], cols[:, None, :]]


class DesignBlocks:
    """The scaled design A = [A_1 ... A_q] of one dataset: one C-contiguous
    n x d matrix, with each block A_j (ascending j) a column view of it."""

    def __init__(self, blocks):
        """The design of a list of n-row blocks, concatenated once."""
        blocks = list(blocks)
        self._adopt(np.concatenate(blocks, axis=1), [b.shape[1] for b in blocks])

    @classmethod
    def from_matrix(cls, A, dims) -> "DesignBlocks":
        """The design whose blocks are A's consecutive column slices of the given
        widths; A (C-contiguous, n x sum(dims)) is kept, not copied."""
        design = cls.__new__(cls)
        design._adopt(A, dims)
        return design

    def _adopt(self, A, dims):
        self.A = A
        self._slices = block_slices(dims)
        self.blocks = [A[:, sl] for sl in self._slices]
        self._full_gram = None

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def q(self) -> int:
        return len(self.blocks)

    def dims(self):
        return [sl.stop - sl.start for sl in self._slices]

    def concat(self, J) -> np.ndarray:
        """Column concatenation A_J over sorted subset J, a C-contiguous copy."""
        return self.A.take(block_columns(self._slices, J), axis=1)

    def slices(self):
        """Column slice of each block A_j in A."""
        return list(self._slices)

    def full_gram(self) -> np.ndarray:
        """A^T A over all q blocks, formed on first use and kept."""
        if self._full_gram is None:
            self._full_gram = self.A.T @ self.A
        return self._full_gram

    def gram(self, J) -> np.ndarray:
        """A_J^T A_J, read off the full Gram.

        No caller in the library; kept because the benchmark's per-layer
        tracer (perfbench/tracer.py) wraps this method by name.
        """
        c = block_columns(self._slices, J)
        return self.full_gram().take(c, axis=0).take(c, axis=1)


def check_unit_interval(X):
    """AddselError unless every entry of the design X lies in [0,1]."""
    if np.any(X < 0.0) or np.any(X > 1.0):
        raise AddselError("design entries must lie in [0,1]")


def build_design_blocks(X, spec: BasisSpec) -> DesignBlocks:
    """The one builder of a scaled design: block j holds phi_k(x_ij)/sqrt(n), k = 2..m_j,
    so m_j = 1 leaves covariate j out (no columns, entries still range-checked)."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != spec.q:
        raise AddselError(f"design matrix must be n x {spec.q}")
    if X.shape[0] == 0:
        raise AddselError("design column must be a nonempty 1-d array")
    check_unit_interval(X)
    if min(spec.m, default=1) < 1:
        raise AddselError(f"truncation level must be >= 1, got {min(spec.m)}")
    dims = [spec.dim(j) for j in range(spec.q)]
    A = np.empty((X.shape[0], sum(dims)))
    for j, sl in enumerate(block_slices(dims)):
        basis_matrix(spec.basis_indices(j), X[:, j], out=A[:, sl])
    A /= np.sqrt(X.shape[0])
    return DesignBlocks.from_matrix(A, dims)


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
    Under an exchangeable law a block depends only on the m_j of its
    covariates, so each distinct diagonal block and each distinct ordered
    pair of cross blocks is computed once and placed wherever it occurs.
    """
    J = sorted(J)
    dims = [spec.dim(j) for j in J]
    d = sum(dims)
    G = np.zeros((d, d))
    sl = block_slices(dims)
    keys = [spec.m[j] if density.exchangeable else j for j in J]
    # one covariate per key stands for every covariate with that key
    moments = {key: marginal_moments(spec.basis_indices(j), density, j)
               for key, j in dict(zip(keys, J)).items()}
    cross = {}
    for a, j1 in enumerate(J):
        G[sl[a], sl[a]] = moments[keys[a]][0]
        for b in range(a + 1, len(J)):
            pair = (keys[a], keys[b])
            if pair not in cross:
                if density.independent:
                    # independent covariates: the cross block is the outer product of the means
                    cross[pair] = np.outer(moments[keys[a]][1], moments[keys[b]][1])
                else:
                    cross[pair] = _cross_block_gram(spec, density, j1, J[b])
            G[sl[a], sl[b]] = cross[pair]
            G[sl[b], sl[a]] = cross[pair].T
    return 0.5 * (G + G.T)


def full_block_gram(spec: BasisSpec, density: Density):
    """Gram of V_{1..q} plus the per-covariate column slices into it."""
    G = population_gram(spec, density, range(spec.q))
    return G, block_slices([spec.dim(j) for j in range(spec.q)])
