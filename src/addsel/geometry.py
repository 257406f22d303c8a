"""Population geometry: minimal angles, restricted-isometry constants, signal strengths."""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from math import ceil, comb, log2

import numpy as np

from .basis import BasisSpec, basis_matrix, block_columns, block_slices, full_block_gram, \
    midpoint_nodes, population_gram
from .densities import Density
from .errors import AssumptionError, BudgetError, SingularBlockError

EIG_FLOOR = 1e-12
DEFAULT_BUDGET = 10 ** 6
#: most grid points sup_norm_ratio evaluates for one subset
GRID_BUDGET = 2 ** 22
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

    def to_dict(self):
        return {
            "qstar": self.qstar,
            "rho_qstar": self.rho_qstar,
            "eps_2qstar": self.eps_2qstar,
            "eps_prime_qstar": self.eps_prime_qstar,
            "kappa": self.kappa,
            "kappa_l": None if self.kappa_l is None else list(map(float, self.kappa_l)),
            "phi_2qstar": self.phi_2qstar,
            "phi_grid": dict(self.phi_grid),
        }


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


def min_angle_cos(G11, G22, G12) -> float:
    """Cosine of the minimal angle between two subspaces given their Grams.

    Equals the largest singular value of G11^{-1/2} G12 G22^{-1/2}, which is
    sup <h1,h2>/(|h1||h2|) over the two subspaces.
    """
    W1 = _inv_sqrt(G11, "G11")
    W2 = _inv_sqrt(G22, "G22")
    s = np.linalg.svd(W1 @ np.atleast_2d(G12) @ W2, compute_uv=False)
    if len(s) == 0:
        return 0.0
    return float(np.clip(s[0], 0.0, 1.0))


def subsets_up_to(q, size, include_empty=False):
    if include_empty:
        yield ()
    for r in range(1, size + 1):
        yield from itertools.combinations(range(q), r)


def count_subsets_up_to(q, size, include_empty=False):
    return sum(comb(q, r) for r in range(0 if include_empty else 1, size + 1))


def _check_subset_budget(q, size, budget):
    count = count_subsets_up_to(q, size)
    if count > budget:
        raise BudgetError("subset enumeration exceeds budget", count=count, budget=budget)


def population_gram_is_identity(spec: BasisSpec, density: Density) -> bool:
    """Whether the population Gram of V_{1..q} is the identity.

    Independent Uniform[0,1] covariates make the trig system orthonormal on each
    block and, once phi_1 is left out (every block centered), mean-zero, so the
    cross blocks vanish. rho and eps are then exact zeros, which rho_qstar,
    epsilon_constants and geometry_report return without quadrature noise, and
    the normalized Gram of event E on any union is the empirical Gram itself.
    """
    return density.independent and density.uniform_marginals and all(spec.centered)


def representative_spec(spec: BasisSpec, density: Density, qstar: int) -> BasisSpec:
    """``spec`` cut to its first min(q, 2 qstar) covariates where that is exact.

    Under an exchangeable law (``density.exchangeable``), with one (m_j, centered_j)
    for all blocks, every diagonal block of the population Gram is the same
    array and so is every cross block; G_J then depends only on how the blocks
    of J interleave. Every subset of size <= 2 qstar, and every disjoint pair
    of size <= qstar, occurs with the same Gram among the first 2 qstar
    covariates, so rho, eps and phi over those equal, bit for bit, their
    suprema over all q. Otherwise ``spec`` is returned unchanged.
    """
    k = min(spec.q, 2 * qstar)
    equal_blocks = len(set(zip(spec.m, spec.centered))) == 1
    if not (density.exchangeable and equal_blocks and 0 < k < spec.q):
        return spec
    return BasisSpec(q=k, m=spec.m[:k], centered=spec.centered[:k])


def count_disjoint_pairs(q, qstar):
    total = 0
    for r1 in range(1, qstar + 1):
        for r2 in range(1, qstar + 1):
            total += comb(q, r1) * comb(q - r1, r2)
    return total // 2


def rho_from_gram(G, slices, qstar, budget=DEFAULT_BUDGET) -> float:
    """Max of min_angle_cos over all disjoint subset pairs with sizes <= qstar."""
    q = len(slices)
    n_pairs = count_disjoint_pairs(q, qstar)
    if n_pairs > budget:
        raise BudgetError(
            f"{n_pairs} disjoint subset pairs exceed the budget {budget}; "
            "reduce qstar or restrict the covariates",
            count=n_pairs, budget=budget,
        )
    rho = 0.0
    subs = list(subsets_up_to(q, qstar))
    for i, J1 in enumerate(subs):
        c1 = block_columns(slices, J1)
        G11 = G[np.ix_(c1, c1)]
        for J2 in subs[i + 1:]:
            if set(J1) & set(J2):
                continue
            c2 = block_columns(slices, J2)
            rho = max(rho, min_angle_cos(G11, G[np.ix_(c2, c2)], G[np.ix_(c1, c2)]))
    return rho


def rho_qstar(spec: BasisSpec, density: Density, qstar: int,
              budget=DEFAULT_BUDGET) -> float:
    if population_gram_is_identity(spec, density):
        return 0.0
    G, slices = full_block_gram(representative_spec(spec, density, qstar), density)
    return rho_from_gram(G, slices, qstar, budget)


def _normalized_eig_range(G, slices, J):
    """(lambda_min, lambda_max) of D_J^{-1/2} G_J D_J^{-1/2}."""
    J = sorted(J)
    c = block_columns(slices, J)
    GJ = G[np.ix_(c, c)]
    W = np.zeros_like(GJ)
    for j, sl in zip(J, block_slices([slices[j].stop - slices[j].start for j in J])):
        W[sl, sl] = _inv_sqrt(G[slices[j], slices[j]], f"block {j}")
    w = np.linalg.eigvalsh(W @ GJ @ W)
    return float(w[0]), float(w[-1])


def epsilons_from_gram(G, slices, qstar, budget=DEFAULT_BUDGET):
    """(eps_2qstar, eps_prime_qstar) from eigenvalue extremes of normalized Grams."""
    q = len(slices)
    _check_subset_budget(q, min(2 * qstar, q), budget)
    eps_low = 0.0
    eps_high = 0.0
    for J in subsets_up_to(q, min(2 * qstar, q)):
        if len(J) < 2:
            continue  # single blocks contribute 0 to both extremes
        lo, hi = _normalized_eig_range(G, slices, J)
        eps_low = max(eps_low, 1.0 - lo)
        if len(J) <= qstar:
            eps_high = max(eps_high, hi - 1.0)
    return eps_low, eps_high


def epsilon_constants(spec: BasisSpec, density: Density, qstar: int,
                      budget=DEFAULT_BUDGET):
    if population_gram_is_identity(spec, density):
        return 0.0, 0.0
    G, slices = full_block_gram(representative_spec(spec, density, qstar), density)
    return epsilons_from_gram(G, slices, qstar, budget)


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
    if s > 20:
        raise BudgetError(f"2^{s} subsets of J0 exceed the enumeration budget", count=2 ** s)
    # basis spec sized to each component's coefficient support
    m = [1] * model.q
    for j in J0:
        m[j] = len(model.theta[j]) + 1
    spec = BasisSpec.create(model.q, m, centered=True)
    G = population_gram(spec, density, J0)
    sl = block_slices([spec.dim(j) for j in J0])
    coef = np.concatenate([np.asarray(model.theta[j], dtype=float) for j in J0])
    kappa_l = np.full(s, np.inf)
    for r in range(1, s + 1):
        for sub in itertools.combinations(range(s), r):
            c = np.zeros_like(coef)
            for a in sub:
                c[sl[a]] = coef[sl[a]]
            kappa_l[r - 1] = min(kappa_l[r - 1], float(c @ G @ c))
    return float(kappa_l.min()), kappa_l


def population_projection_gap(G, slices, J, J0, coef):
    """|f|^2 - |Pi_J f|^2 = |f - Pi_J f|^2 for f with coefficients ``coef``.

    ``coef`` is indexed over the full Gram's columns (support typically on the
    J0 blocks). For empty J returns |f|^2.
    """
    coef = np.asarray(coef, dtype=float)
    total = float(coef @ G @ coef)
    c = block_columns(slices, J)
    if len(c) == 0:
        return total
    GJJ = G[np.ix_(c, c)]
    b = (G @ coef)[c]
    W = _inv_sqrt(GJJ, f"V_J for J={sorted(J)}")
    y = W @ b
    return total - float(y @ y)


def _grid_points(k, grid_size, budget):
    """Points per axis of the sup-norm grid over k covariates: halved down to 8
    until the k-dimensional grid fits the budget."""
    g = int(grid_size)
    while g ** k > budget and g > 8:
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
    # q(x) decomposes into per-axis diagonal terms and pairwise cross terms
    total = np.zeros((1,) * k)
    for a in range(k):
        diag = np.einsum("gi,ij,gj->g", Bs[a], M[sl[a], sl[a]], Bs[a])
        shape = [1] * k
        shape[a] = g
        total = total + diag.reshape(shape)
        for b in range(a + 1, k):
            cross = Bs[a] @ M[sl[a], sl[b]] @ Bs[b].T
            shape = [1] * k
            shape[a] = g
            shape[b] = g
            total = total + 2.0 * cross.reshape(shape)
    return float(np.sqrt(total.max() / sl[-1].stop))


def sup_norm_ratio(spec: BasisSpec, density: Density, J, grid_size=1024,
                   budget=GRID_BUDGET) -> float:
    """Grid maximum of sqrt(b(x)^T G_J^{-1} b(x) / d_J) over x in [0,1]^|J|.

    A lower bound of the true sup-norm ratio phi_J, improving with grid_size.
    """
    J = sorted(J)
    if spec.d_J(J) < 1:
        raise AssumptionError("sup_norm_ratio needs d_J >= 1")
    return _sup_norm_ratio(spec, population_gram(spec, density, J), J,
                           _grid_points(len(J), grid_size, budget))


def _phi_from_gram(spec: BasisSpec, G, slices, qstar, grid_size, budget):
    """(phi_2qstar, {|J|: points per axis}) with each G_J sliced from the full Gram."""
    best = 0.0
    grid = {}
    for J in subsets_up_to(spec.q, min(2 * qstar, spec.q)):
        if spec.d_J(J) == 0:
            continue
        grid[len(J)] = g = _grid_points(len(J), grid_size, budget)
        c = block_columns(slices, J)
        best = max(best, _sup_norm_ratio(spec, G[np.ix_(c, c)], list(J), g))
    return best, grid


def phi_2qstar(spec: BasisSpec, density: Density, qstar: int, grid_size=1024,
               budget=GRID_BUDGET, subset_budget=DEFAULT_BUDGET) -> float:
    spec = representative_spec(spec, density, qstar)
    _check_subset_budget(spec.q, min(2 * qstar, spec.q), subset_budget)
    G, slices = full_block_gram(spec, density)
    return _phi_from_gram(spec, G, slices, qstar, grid_size, budget)[0]


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
                    grid_size=512, budget=DEFAULT_BUDGET) -> GeometryReport:
    rep = representative_spec(spec, density, qstar)
    G, slices = full_block_gram(rep, density)
    if population_gram_is_identity(spec, density):
        _check_subset_budget(rep.q, min(2 * qstar, rep.q), budget)
        rho = eps = eps_prime = 0.0
    else:
        rho = rho_from_gram(G, slices, qstar, budget)
        eps, eps_prime = epsilons_from_gram(G, slices, qstar, budget)
    report = GeometryReport(qstar=qstar, rho_qstar=rho, eps_2qstar=eps,
                            eps_prime_qstar=eps_prime)
    if model is not None and len(model.J0) > 0:
        report.kappa, report.kappa_l = kappa_values(model, density)
    # the subset count has been checked above, by epsilons_from_gram or directly
    report.phi_2qstar, report.phi_grid = _phi_from_gram(rep, G, slices, qstar,
                                                        grid_size, GRID_BUDGET)
    return report
