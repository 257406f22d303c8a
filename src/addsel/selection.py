"""Empirical projections and the penalized projection-norm selection rule."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .basis import BasisSpec, DesignBlocks, block_columns, build_design_blocks
from .errors import AddselError
from .geometry import check_budget, count_subsets_up_to, subsets_up_to

#: relative singular-value cutoff below which a direction counts as rank lost
RANK_RTOL = 1e-10
#: smallest min(diag L)/max(diag L), L the Cholesky factor of G_JJ, at which
#: the fast path is trusted. Through the normal equations G_JJ = A_J^T A_J the
#: error grows like kappa(A_J)^2 * eps instead of kappa(A_J) * eps. The ratio
#: is at least 1/kappa(A_J) and, for a spread spectrum, about 5/kappa(A_J).
#: With Y along the weakest direction of A_J (n=800, d_J=70) the criterion
#: error was 3e-13 at kappa=100 (ratio 0.05-0.08) and 3e-12 at kappa=300
#: (ratio 0.02-0.03); at 0.1 it stays below 1e-13. Trigonometric designs sit
#: at 0.5-0.9 (copula r=0.9: 0.5), so they never reach the SVD path.
CHOL_PIVOT_RATIO = 0.1
#: criteria within this relative distance of each other count as tied, so the
#: documented |J|-then-lexicographic order picks between subsets whose values
#: agree in exact arithmetic (two J spanning one space) instead of rounding
TIE_RTOL = 1e-12
#: blocks with fewer columns are copied out of the design matrix before
#: A_j^T Y: OpenBLAS sums a strided view of one to three columns in another
#: order than the block on its own, and the copy keeps b bitwise
NARROW_BLOCK = 4


@dataclass
class Dataset:
    """n x q design with entries in [0,1] plus a response vector."""

    X: np.ndarray
    Y: np.ndarray

    def __post_init__(self):
        self.X = np.asarray(self.X, dtype=float)
        self.Y = np.asarray(self.Y, dtype=float)
        if self.X.ndim != 2 or self.X.shape[0] < 1:
            raise AddselError("X must be a nonempty n x q matrix")
        if self.Y.shape != (self.X.shape[0],):
            raise AddselError("Y must be an n-vector matching X")
        if np.any(~np.isfinite(self.X)) or np.any(~np.isfinite(self.Y)):
            raise AddselError("dataset contains non-finite entries")

    @property
    def n(self):
        return self.X.shape[0]

    @property
    def q(self):
        return self.X.shape[1]


@dataclass
class SelectionResult:
    chosen: tuple
    criterion: dict
    sigma2: float
    qstar: int
    search_mode: str = "exhaustive"

    def criterion_of(self, J):
        return self.criterion[tuple(sorted(J))]


def _orthonormal_range(A):
    """Orthonormal basis of col(A) with relative rank tolerance."""
    if A.shape[1] == 0:
        return np.empty((A.shape[0], 0))
    U, s, _ = np.linalg.svd(A, full_matrices=False)
    col_norms = np.linalg.norm(A, axis=0)
    tol = RANK_RTOL * max(col_norms.max(), np.finfo(float).tiny)
    rank = int(np.sum(s > tol))
    return U[:, :rank]


def project_norm_sq(A_J, Y) -> float:
    """|Pi_J Y|_n^2 where Pi_J projects onto the column space of A_J."""
    A_J = np.asarray(A_J, dtype=float)
    Y = np.asarray(Y, dtype=float)
    if A_J.ndim != 2 or A_J.shape[0] != len(Y):
        raise AddselError("A_J must have one row per entry of Y")
    n = len(Y)
    if A_J.shape[1] == 0:
        return 0.0
    U = _orthonormal_range(A_J)
    z = U.T @ Y
    return float(z @ z) / n


def project(A_J, Y) -> np.ndarray:
    """The projection Pi_J Y itself (n-vector)."""
    A_J = np.asarray(A_J, dtype=float)
    Y = np.asarray(Y, dtype=float)
    if A_J.shape[1] == 0:
        return np.zeros_like(Y)
    U = _orthonormal_range(A_J)
    return U @ (U.T @ Y)


class _SubsetScorer:
    """|Pi_J Y|_n^2 for any J, read off one Gram G = A^T A and b = A^T Y.

    With L the Cholesky factor of G_JJ the norm is |L^{-1} b_J|^2 / n. The
    SVD path (``project_norm_sq``) scores J instead when d_J > n, when the
    factorization fails, or when its pivot ratio is below CHOL_PIVOT_RATIO.
    """

    def __init__(self, blocks: DesignBlocks, Y):
        self.blocks = blocks
        self.Y = Y
        self.n = blocks.n
        self.G = blocks.full_gram()
        self.b = np.concatenate([(B if B.shape[1] >= NARROW_BLOCK else B.copy()).T @ Y
                                 for B in blocks.blocks])
        self.slices = blocks.slices()

    def norm_sq(self, J) -> float:
        c = block_columns(self.slices, J)
        if len(c) == 0:
            return 0.0
        L = _trusted_cholesky(self.G.take(c, axis=0).take(c, axis=1)) \
            if len(c) <= self.n else None
        if L is None:
            return project_norm_sq(self.blocks.concat(J), self.Y)
        z = np.linalg.solve(L, self.b[c])
        return float(z @ z) / self.n


def _trusted_cholesky(G):
    """Cholesky factor of G; None if it fails or its pivot ratio is below CHOL_PIVOT_RATIO."""
    try:
        L = np.linalg.cholesky(G)
    except np.linalg.LinAlgError:
        return None
    pivots = np.diag(L)
    return L if pivots.min() >= CHOL_PIVOT_RATIO * pivots.max() else None


def _criterion_value(scorer: _SubsetScorer, spec: BasisSpec, J, sigma2):
    return scorer.norm_sq(J) - sigma2 * spec.d_J(J) / scorer.n


def _better(candidate, incumbent):
    """Deterministic argmax order: value desc, then |J| asc, then lexicographic.

    Values within TIE_RTOL of each other (relative to the larger) are ties.
    """
    val_c, J_c = candidate
    val_i, J_i = incumbent
    if abs(val_c - val_i) > TIE_RTOL * max(abs(val_c), abs(val_i)):
        return val_c > val_i
    return (len(J_c), J_c) < (len(J_i), J_i)


def _check_exhaustive_budget(q, qstar):
    check_budget(count_subsets_up_to(q, qstar, include_empty=True),
                 "exhaustive search over {count} subsets exceeds the budget {budget}; "
                 "consider select_greedy")


def select_exhaustive(dataset: Dataset, spec: BasisSpec, qstar: int,
                      sigma2: float) -> SelectionResult:
    """Argmax over all |J| <= qstar of |Pi_J Y|_n^2 - sigma^2 d_J / n."""
    # refused before any block is built
    _check_exhaustive_budget(spec.q, qstar)
    return select_on_blocks(build_design_blocks(dataset.X, spec), dataset.Y, spec, qstar,
                            sigma2)


def select_on_blocks(blocks: DesignBlocks, Y, spec: BasisSpec, qstar: int,
                     sigma2: float) -> SelectionResult:
    """``select_exhaustive`` on a scaled design already built for ``spec``: the
    blocks of ``build_design_blocks(X, spec)`` and the response Y at the same rows."""
    q = spec.q
    _check_exhaustive_budget(q, qstar)
    widths = [spec.dim(j) for j in range(q)]
    if blocks.dims() != widths or len(Y) != blocks.n:
        raise AddselError(f"design blocks of widths {blocks.dims()} on {blocks.n} rows were "
                          f"not built for the spec's widths {widths} and {len(Y)} rows of Y")
    scorer = _SubsetScorer(blocks, Y)
    crit = {}
    best = (0.0, ())
    crit[()] = 0.0
    for J in subsets_up_to(q, qstar):
        val = _criterion_value(scorer, spec, J, sigma2)
        crit[J] = val
        if _better((val, J), best):
            best = (val, J)
    return SelectionResult(chosen=best[1], criterion=crit, sigma2=sigma2,
                           qstar=qstar, search_mode="exhaustive")


def select_greedy(dataset: Dataset, spec: BasisSpec, qstar: int,
                  sigma2: float) -> SelectionResult:
    """Forward stepwise surrogate; no optimality guarantee is claimed."""
    scorer = _SubsetScorer(build_design_blocks(dataset.X, spec), dataset.Y)
    q = spec.q
    current: tuple = ()
    current_val = 0.0
    crit = {(): 0.0}
    while len(current) < qstar:
        best_add = None
        for j in range(q):
            if j in current:
                continue
            J = tuple(sorted(current + (j,)))
            val = crit.get(J)
            if val is None:
                val = _criterion_value(scorer, spec, J, sigma2)
                crit[J] = val
            if best_add is None or _better((val, J), best_add):
                best_add = (val, J)
        if best_add is None or best_add[0] <= current_val:
            break
        current_val, current = best_add
    return SelectionResult(chosen=current, criterion=crit, sigma2=sigma2,
                           qstar=qstar, search_mode="greedy")


def empirical_projection_gap(dataset: Dataset, spec: BasisSpec, J, J0, f_values,
                             blocks: DesignBlocks | None = None) -> float:
    """|Pi_J0 f|_n^2 - |Pi_J f|_n^2 for function values f at the sample, off one Gram."""
    if blocks is None:
        blocks = build_design_blocks(dataset.X, spec)
    scorer = _SubsetScorer(blocks, np.asarray(f_values, dtype=float))
    return scorer.norm_sq(J0) - scorer.norm_sq(J)
