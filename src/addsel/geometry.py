"""Population geometry: minimal angles, restricted-isometry constants, signal strengths."""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property
from math import ceil, comb, log2

import numpy as np

from .basis import BasisSpec, basis_matrix, block_column_chunks, block_columns, block_slices, \
    full_block_gram, midpoint_nodes, population_gram, principal_submatrices
from .densities import Density
from .errors import AssumptionError, BudgetError, SingularBlockError

EIG_FLOOR = 1e-12
#: most subsets or subset pairs one enumeration may walk (see check_budget)
SUBSET_BUDGET = 10 ** 6
#: grid points per subset above which _grid_points halves the grid; read at call time
GRID_BUDGET = 2 ** 22
#: grid points summed at once by sup_norm_ratio (256 KiB); read at call time
SLAB_POINTS = 2 ** 15
#: points per axis of the sup-norm grid before GRID_BUDGET halves them
GRID_SIZE = 512
# rounding allowance of check_ric_chain: eps (eigvalsh) and rho (SVD) agree only
# to ~1e-15 where the chain is an equality (two blocks, qstar = 1)
CHAIN_SLACK = 1e-12


@dataclass
class GeometryReport:
    """Geometric constants of a model/basis pair."""

    qstar: int
    rho_qstar: float
    eps_2qstar: float
    eps_prime_qstar: float
    kappa: float = float("nan")
    kappa_l: np.ndarray | None = None
    phi_2qstar: float = float("nan")
    #: |J| -> points per axis of the sup-norm grid phi_2qstar used
    phi_grid: dict = field(default_factory=dict)


def singular_gram_error(label, min_eigenvalue) -> SingularBlockError:
    """The error for a Gram whose smallest eigenvalue is at or below EIG_FLOOR."""
    return SingularBlockError(
        f"Gram {label} is numerically singular (min eigenvalue {min_eigenvalue:.3e})",
        block=label, min_eigenvalue=float(min_eigenvalue),
    )


def _inv_sqrt(G, label="block"):
    """Symmetric inverse square root; refuses eigenvalues below the floor."""
    G = np.asarray(G, dtype=float)
    w, V = np.linalg.eigh(0.5 * (G + G.T))
    if w[0] <= EIG_FLOOR:
        raise singular_gram_error(label, w[0])
    return (V * w ** -0.5) @ V.T


def _whitened_cos(W1, G12, W2) -> float:
    """Top singular value of W1 G12 W2, clipped to [0, 1]; 0 when it is empty."""
    s = np.linalg.svd(W1 @ np.atleast_2d(G12) @ W2, compute_uv=False)
    if len(s) == 0:
        return 0.0
    return float(np.clip(s[0], 0.0, 1.0))


def min_angle_cos(G11, G22, G12) -> float:
    """Cosine of the minimal angle between two subspaces given their Grams.

    Equals the largest singular value of G11^{-1/2} G12 G22^{-1/2}, which is
    sup <h1,h2>/(|h1||h2|) over the two subspaces.
    """
    return _whitened_cos(_inv_sqrt(G11, "G11"), G12, _inv_sqrt(G22, "G22"))


def subsets_up_to(q, size):
    for r in range(1, size + 1):
        yield from itertools.combinations(range(q), r)


def count_subsets_up_to(q, size, include_empty=False):
    return sum(comb(q, r) for r in range(0 if include_empty else 1, size + 1))


def check_budget(count, message):
    """BudgetError(message.format(count=, budget=)) if ``count`` exceeds SUBSET_BUDGET,
    read at call time; every subset enumeration calls this once, where it starts."""
    if count > SUBSET_BUDGET:
        raise BudgetError(message.format(count=count, budget=SUBSET_BUDGET),
                          count=count, budget=SUBSET_BUDGET)


def count_disjoint_pairs(q, qstar):
    total = 0
    for r1 in range(1, qstar + 1):
        for r2 in range(1, qstar + 1):
            total += comb(q, r1) * comb(q - r1, r2)
    return total // 2


def rho_from_gram(G, slices, qstar) -> float:
    """Max of min_angle_cos over all disjoint subset pairs with sizes <= qstar.

    Each subset with columns is whitened once, in enumeration order, so the
    first numerically singular V_J raises. A subset of all q blocks has no
    disjoint partner and is not whitened.
    """
    q = len(slices)
    check_budget(count_disjoint_pairs(q, qstar), "{count} disjoint subset pairs exceed "
                 "the budget {budget}; reduce qstar or restrict the covariates")
    subs, cols, W = [], [], []
    for J in subsets_up_to(q, min(qstar, q - 1)):
        c = block_columns(slices, J)
        if len(c):
            subs.append(set(J))
            cols.append(c)
            W.append(_inv_sqrt(G.take(c, axis=0).take(c, axis=1), f"V_J for J={list(J)}"))
    rho = 0.0
    for a, J1 in enumerate(subs):
        for b in range(a + 1, len(subs)):
            if J1.isdisjoint(subs[b]):
                cross = G.take(cols[a], axis=0).take(cols[b], axis=1)
                rho = max(rho, _whitened_cos(W[a], cross, W[b]))
    return rho


def epsilons_from_gram(G, slices, qstar):
    """(eps_2qstar, eps_prime_qstar) from eigenvalue extremes of normalized Grams.

    D_J^{-1/2} G_J D_J^{-1/2} is the principal submatrix on J of W G W, with W
    the block-diagonal whitening of the blocks: each block is whitened once,
    in block order, and the sets J with at least two blocks that have columns
    are stacked and solved batched. A single block's normalized Gram is the
    identity, so it contributes 0 to both extremes.
    """
    q = len(slices)
    size = min(2 * qstar, q)
    check_budget(count_subsets_up_to(q, size), "subset enumeration exceeds budget")
    eps_low = eps_high = 0.0
    if q < 2:
        return eps_low, eps_high
    W = np.zeros_like(G)
    nonempty = set()
    for j, sl in enumerate(slices):
        if sl.stop > sl.start:
            W[sl, sl] = _inv_sqrt(G[sl, sl], f"block {j}")
            nonempty.add(j)
    sets = (J for J in subsets_up_to(q, size) if len(nonempty.intersection(J)) >= 2)
    for members, cols in block_column_chunks(slices, sets):
        Ws = principal_submatrices(W, cols)
        w = np.linalg.eigvalsh(Ws @ principal_submatrices(G, cols) @ Ws)
        eps_low = max(eps_low, float(np.max(1.0 - w[:, 0])))
        small = [len(J) <= qstar for _, J in members]
        if any(small):
            eps_high = max(eps_high, float(np.max(w[small, -1] - 1.0)))
    return eps_low, eps_high


def check_ric_chain(rho: float, eps_2qstar: float, qstar: int) -> bool:
    """Whether 1 - eps_2qstar >= (1 - rho)^(ceil(log2(qstar)) + 1), up to CHAIN_SLACK.

    Two subspaces at minimal-angle cosine rho give
    |f+g|^2 >= |f|^2 + |g|^2 - 2 rho |f||g| >= (1 - rho)(|f|^2 + |g|^2).
    Halving any J with |J| <= 2 qstar into parts of size <= qstar, and those
    recursively down to single blocks, takes ceil(log2(2 qstar)) levels, each
    costing one factor (1 - rho_qstar) on lambda_min of the normalized Gram.
    """
    if not 0.0 <= rho < 1.0:
        raise AssumptionError(f"rho must lie in [0,1), got {rho}")
    depth = ceil(log2(qstar)) + 1
    return 1.0 - eps_2qstar >= (1.0 - rho) ** depth - CHAIN_SLACK


def kappa_values(model, density: Density):
    """(kappa, kappa_l) of the true components under the covariate law.

    ``model`` provides J0 and per-covariate trigonometric coefficients
    (index i <-> phi_{i+2}). Enumerates all nonempty subsets of J0.
    """
    J0 = sorted(model.J0)
    s = len(J0)
    if s == 0:
        raise AssumptionError("kappa is undefined for an empty active set")
    check_budget(2 ** s - 1, "{count} subsets of J0 exceed the budget {budget}")
    # basis spec sized to each component's coefficient support
    m = [1] * model.q
    for j in J0:
        m[j] = len(model.theta[j]) + 1
    spec = BasisSpec.create(model.q, m)
    G = population_gram(spec, density, J0)
    sl = block_slices([spec.dim(j) for j in J0])
    coef = np.concatenate([np.asarray(model.theta[j], dtype=float) for j in J0])
    kappa_l = np.full(s, np.inf)
    for sub in subsets_up_to(s, s):
        c = np.zeros_like(coef)
        for a in sub:
            c[sl[a]] = coef[sl[a]]
        kappa_l[len(sub) - 1] = min(kappa_l[len(sub) - 1], float(c @ G @ c))
    return float(kappa_l.min()), kappa_l


def population_projection_gap(G, slices, J, coef):
    """|f|^2 - |Pi_J f|^2 = |f - Pi_J f|^2 for f with coefficients ``coef``.

    ``coef`` is indexed over the full Gram's columns (support typically on the
    J0 blocks). For empty J returns |f|^2.
    """
    coef = np.asarray(coef, dtype=float)
    total = float(coef @ G @ coef)
    c = block_columns(slices, J)
    if len(c) == 0:
        return total
    GJJ = G.take(c, axis=0).take(c, axis=1)
    b = (G @ coef)[c]
    W = _inv_sqrt(GJJ, f"V_J for J={sorted(J)}")
    y = W @ b
    return total - float(y @ y)


def _grid_points(k, grid_size):
    """Points per axis of the sup-norm grid over k covariates: halved down to 8
    until the k-dimensional grid fits GRID_BUDGET."""
    g = int(grid_size)
    if g < 1:
        raise AssumptionError(f"grid_size must be >= 1, got {grid_size}")
    while g ** k > GRID_BUDGET and g > 8:
        g = g // 2
    return g


def _sup_norm_ratio(spec: BasisSpec, G, J, g) -> float:
    """sup_norm_ratio over the g^|J| grid, for ascending J with Gram G of V_J."""
    k = len(J)
    W = _inv_sqrt(G, f"V_J for J={J}")
    M = W @ W
    x = midpoint_nodes(g)
    Bs = [basis_matrix(spec.basis_indices(j), x) for j in J]
    sl = block_slices([spec.dim(j) for j in J])
    # q(x) decomposes into per-axis diagonal terms and pairwise cross terms,
    # each formed once over its own axes and read over the grid as a
    # broadcast view, in the order a, then (a, b) for b > a
    terms = []
    for a in range(k):
        shape = [1] * k
        shape[a] = g
        terms.append(np.einsum("gi,ij,gj->g", Bs[a], M[sl[a], sl[a]], Bs[a]).reshape(shape))
        for b in range(a + 1, k):
            shape = [1] * k
            shape[a] = shape[b] = g
            cross = Bs[a] @ M[sl[a], sl[b]] @ Bs[b].T
            cross *= 2.0
            terms.append(cross.reshape(shape))
    # the leading run a = 0, (0, 1), ..., (0, lead-1) lies on the first lead
    # axes, whose g^lead points fit one slab (lead < k): it is summed once, left
    # to right, and each slab starts from it; with lead = 0 it is the 0.0 a
    # fresh sum starts from
    lead = 0
    while lead < k - 1 and g ** (lead + 1) <= SLAB_POINTS:
        lead += 1
    prefix = np.zeros((1,) * k) if lead == 0 else terms[0]
    if lead > 1:
        prefix = np.add(terms[0], terms[1], out=np.empty((g,) * lead + (1,) * (k - lead)))
        for t in terms[2:lead]:
            prefix += t
    terms = [np.broadcast_to(t, (g,) * k) for t in [prefix] + terms[lead:]]
    # the rest are added in order into one reused buffer of at most SLAB_POINTS
    # points: a slab fixes one index on each axis before ``axis`` and takes
    # ``rows`` rows along it, so every point adds the same terms in the same order
    axis = next(p for p in range(k) if g ** (k - 1 - p) <= SLAB_POINTS)
    rows = min(g, SLAB_POINTS // g ** (k - 1 - axis))
    buffer = np.empty((rows,) + (g,) * (k - 1 - axis))
    peak = -np.inf
    for head in itertools.product(range(g), repeat=axis):
        for lo in range(0, g, rows):
            idx = head + (slice(lo, lo + rows),)
            slab = np.add(terms[0][idx], terms[1][idx], out=buffer[:min(rows, g - lo)])
            for t in terms[2:]:
                slab += t[idx]
            peak = max(peak, slab.max())
    return float(np.sqrt(peak / sl[-1].stop))


def sup_norm_ratio(spec: BasisSpec, density: Density, J, grid_size=GRID_SIZE) -> float:
    """Grid maximum of sqrt(b(x)^T G_J^{-1} b(x) / d_J) over x in [0,1]^|J|.

    A lower bound of the true sup-norm ratio phi_J, improving with grid_size.
    """
    J = sorted(J)
    if spec.d_J(J) < 1:
        raise AssumptionError("sup_norm_ratio needs d_J >= 1")
    return _sup_norm_ratio(spec, population_gram(spec, density, J), J,
                           _grid_points(len(J), grid_size))


class PopulationGeometry:
    """The population Gram of V_1..V_q under one covariate law, and rho, eps
    and phi read off it.

    ``identity``: independent Uniform[0,1] covariates make the trig system
    orthonormal and, with phi_1 left out, mean-zero, so the Gram is the
    identity. rho and eps are then exact zeros, returned without a Gram or an
    enumeration, and event E's normalized Gram is the empirical Gram itself.

    ``k``: under an exchangeable law with one m_j for all blocks, G_J depends
    only on |J|, and a disjoint pair's Gram only on how its two subsets
    interleave. Every such pair of size <= qstar occurs among the
    first 2 qstar blocks, so the suprema range over k = min(q, 2 qstar) blocks
    bit for bit. Otherwise k = q, and rho, eps and phi walk every subset of the
    k blocks; phi scores each distinct input once (see ``phi``).
    """

    def __init__(self, spec: BasisSpec, density: Density, qstar: int):
        self.spec, self.density, self.qstar = spec, density, qstar
        self.identity = density.independent and density.uniform_marginals
        exchangeable = density.exchangeable and len(set(spec.m)) == 1
        self.k = min(spec.q, 2 * qstar) if exchangeable else spec.q

    @cached_property
    def gram(self):
        """(G, slices) of all q blocks, built on first use."""
        return full_block_gram(self.spec, self.density)

    @cached_property
    def _leading(self):
        """(G, slices) that rho, eps and phi read: the first k slices of ``gram``
        when k = q or ``gram`` is built already, else the Gram of the first k
        blocks alone, built on first use; it equals the top-left block of the
        full Gram bit for bit, since every block of an exchangeable law is
        computed from one covariate or one pair standing for all."""
        if self.k < self.spec.q and "gram" not in vars(self):
            k_blocks = range(self.k)
            return (population_gram(self.spec, self.density, k_blocks),
                    block_slices([self.spec.dim(j) for j in k_blocks]))
        G, slices = self.gram
        return G, slices[:self.k]

    def rho(self) -> float:
        return 0.0 if self.identity else rho_from_gram(*self._leading, self.qstar)

    def epsilons(self):
        """(eps_2qstar, eps_prime_qstar)."""
        if self.identity:
            return 0.0, 0.0
        return epsilons_from_gram(*self._leading, self.qstar)

    def phi(self, grid_size=GRID_SIZE):
        """(phi_2qstar, {|J|: points per axis of its grid}) over every subset J of
        size <= 2 qstar of the k blocks. phi_J is a function of the bytes of G_J,
        the m_j of J and the grid size alone, so each distinct (G_J, m_J, g) is
        scored once, at its first J in enumeration order: equal inputs give equal
        bits, and a singular G_J is named by the same J as a walk scoring each."""
        G, slices = self._leading
        size = min(2 * self.qstar, self.k)
        check_budget(count_subsets_up_to(self.k, size), "subset enumeration exceeds budget")
        best, grid, scored = 0.0, {}, {}
        for J in subsets_up_to(self.k, size):
            if self.spec.d_J(J) == 0:
                continue
            grid[len(J)] = g = _grid_points(len(J), grid_size)
            c = block_columns(slices, J)
            GJ = G.take(c, axis=0).take(c, axis=1)
            key = (GJ.tobytes(), tuple(self.spec.m[j] for j in J), g)
            if key not in scored:
                scored[key] = _sup_norm_ratio(self.spec, GJ, list(J), g)
            best = max(best, scored[key])
        return best, grid


def phi_2qstar(spec: BasisSpec, density: Density, qstar: int, grid_size=GRID_SIZE) -> float:
    return PopulationGeometry(spec, density, qstar).phi(grid_size)[0]


def verify_angle_equivalence(G11, G22, G12, trials: int, seed=0) -> bool:
    """Random check of |h1+h2|^2 >= (1-rho^2)|h1|^2 with rho = min_angle_cos."""
    rho = min_angle_cos(G11, G22, G12)
    rng = np.random.default_rng(seed)
    G11 = np.atleast_2d(np.asarray(G11, dtype=float))
    G22 = np.atleast_2d(np.asarray(G22, dtype=float))
    G12 = np.atleast_2d(np.asarray(G12, dtype=float))
    d1, d2 = G11.shape[0], G22.shape[0]
    factor = 1.0 - rho * rho
    for _ in range(trials):
        a1 = rng.standard_normal(d1)
        a2 = rng.standard_normal(d2)
        n1 = a1 @ G11 @ a1
        n2 = a2 @ G22 @ a2
        cross = a1 @ G12 @ a2
        total = n1 + 2.0 * cross + n2
        if total < factor * n1 - 1e-10 or total < factor * n2 - 1e-10:
            return False
    return True


def geometry_report(spec: BasisSpec, density: Density, qstar: int, model=None,
                    grid_size=GRID_SIZE) -> GeometryReport:
    geo = PopulationGeometry(spec, density, qstar)
    # arguments run left to right: rho's pair count is checked before eps' subsets,
    # and phi's (the only check under the identity law) before any kappa work
    report = GeometryReport(qstar, geo.rho(), *geo.epsilons())
    report.phi_2qstar, report.phi_grid = geo.phi(grid_size)
    if model is not None and len(model.J0) > 0:
        report.kappa, report.kappa_l = kappa_values(model, density)
    return report
