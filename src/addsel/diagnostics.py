"""Concentration events, explicit tail bounds, and sample-size condition checks."""

from __future__ import annotations

from math import comb, exp, log, sqrt

import numpy as np

from .basis import BasisSpec, DesignBlocks, basis_matrix, build_design_blocks, \
    full_block_gram, marginal_moments, trig_series
from .config import fixed_m
from .densities import Density
from .errors import AssumptionError, BudgetError, ConfigError
from .geometry import DEFAULT_BUDGET, EIG_FLOOR, count_subsets_up_to, kappa_values, \
    population_gram_is_identity, rho_qstar, singular_gram_error, subsets_up_to
from .simulate import density_from_config, model_from_config

#: most principal submatrices stacked into one batched eigenvalue call; the
#: stack and its LAPACK workspace stay a few MB instead of growing with the
#: number of unions
EIG_CHUNK = 256


def _union_collection(q, qstar, J0, subsets=None, budget=DEFAULT_BUDGET):
    """Deduplicated J cup J0 column sets over all candidate J."""
    J0 = tuple(sorted(J0))
    if subsets is None:
        count = count_subsets_up_to(q, qstar, include_empty=True)
        if count > budget:
            raise BudgetError(
                f"{count} candidate subsets exceed the budget {budget}; "
                "pass an explicit (sampled) subset collection",
                count=count, budget=budget,
            )
        subsets = subsets_up_to(q, qstar, include_empty=True)
    seen = set()
    for J in subsets:
        union = tuple(sorted(set(J) | set(J0)))
        if union and union not in seen:
            seen.add(union)
            yield union


def sample_subsets(q, qstar, n_samples, seed=0):
    """Deterministic subset collection: all singletons plus random larger subsets.

    For each size 2..qstar it draws ``n_samples // (qstar - 1)`` subsets with
    replacement and then removes duplicates, so it returns at most
    ``q + n_samples`` distinct sets and usually fewer: 1,703 to 1,723 at
    q = 50, qstar = 3, n_samples = 2000.
    """
    rng = np.random.default_rng(seed)
    out = [(j,) for j in range(q)]
    sizes = list(range(2, qstar + 1))
    if sizes:
        per_size = max(1, n_samples // len(sizes))
        for r in sizes:
            for _ in range(per_size):
                out.append(tuple(sorted(rng.choice(q, size=r, replace=False))))
    return sorted(set(out))


def _union_chunks(slices, qstar, J0, subsets, budget):
    """Unions J u J0 grouped by column count, in chunks of at most EIG_CHUNK.

    Yields (members, cols): members are (position in enumeration order,
    union) pairs, ascending within the chunk; cols is the (k, d) array of
    their column indices, row i equal to ``block_columns(slices, union_i)``.
    """
    starts = np.array([s.start for s in slices], dtype=int)
    widths = [s.stop - s.start for s in slices]
    groups = {}
    for pos, union in enumerate(_union_collection(len(slices), qstar, J0, subsets, budget)):
        sig = tuple(widths[j] for j in union)
        if sum(sig):
            groups.setdefault(sum(sig), []).append((pos, union, sig))
    for d in sorted(groups):
        members = groups[d]
        for lo in range(0, len(members), EIG_CHUNK):
            chunk = members[lo:lo + EIG_CHUNK]
            rows_by_sig = {}
            for row, (_, _, sig) in enumerate(chunk):
                rows_by_sig.setdefault(sig, []).append(row)
            cols = np.empty((len(chunk), d), dtype=int)
            for sig, rows in rows_by_sig.items():
                # one broadcast for all unions of this block-width signature:
                # column t of such a union is start(block b_t) + (t - offset of b_t)
                block_of = np.repeat(np.arange(len(sig)), sig)
                within = np.arange(d) - np.repeat(np.cumsum(sig) - sig, sig)
                U = np.array([chunk[r][1] for r in rows])
                cols[rows] = starts[U][:, block_of] + within
            yield [(pos, union) for pos, union, _ in chunk], cols


def _stacked(G, cols):
    """The principal submatrices G[c, c] for each row c of cols, stacked."""
    return G[cols[:, :, None], cols[:, None, :]]


def _max_deviation(w):
    """max over a stack of ascending eigenvalue rows of max(w_max - 1, 1 - w_min)."""
    return float(np.max(np.maximum(w[:, -1] - 1.0, 1.0 - w[:, 0])))


def rip_constant(blocks: DesignBlocks, qstar: int, J0=(), subsets=None,
                 budget=DEFAULT_BUDGET) -> float:
    """max over |J| <= qstar of the operator norm of A_{J u J0}^T A_{J u J0} - I.

    With an explicit ``subsets`` collection the result is the maximum over
    that collection only (a lower bound of the full constant).
    """
    G = blocks.full_gram()
    delta = 0.0
    for _, cols in _union_chunks(blocks.slices(), qstar, J0, subsets, budget):
        delta = max(delta, _max_deviation(np.linalg.eigvalsh(_stacked(G, cols))))
    return delta


def event_E_from_grams(G_emp, G_pop, slices, qstar: int, J0, delta: float,
                       subsets=None, budget=DEFAULT_BUDGET):
    """(holds, max_deviation): whether all normalized empirical Grams on
    V_{J u J0} have eigenvalues in [1-delta, 1+delta].

    Raises SingularBlockError for the first union, in enumeration order,
    whose population Gram has an eigenvalue at or below EIG_FLOOR.
    """
    worst = 0.0
    singular = None  # (position, union, min eigenvalue) of the first singular union
    for members, cols in _union_chunks(slices, qstar, J0, subsets, budget):
        P = _stacked(G_pop, cols)
        w, V = np.linalg.eigh(0.5 * (P + P.transpose(0, 2, 1)))
        bad = np.flatnonzero(w[:, 0] <= EIG_FLOOR)
        if len(bad):
            pos, union = members[bad[0]]
            if singular is None or pos < singular[0]:
                singular = (pos, union, w[bad[0], 0])
        if singular is not None:
            continue  # the call raises; the remaining deviations are not needed
        W = (V * w[:, None, :] ** -0.5) @ V.transpose(0, 2, 1)
        worst = max(worst, _max_deviation(np.linalg.eigvalsh(W @ _stacked(G_emp, cols) @ W)))
    if singular is not None:
        _, union, min_eig = singular
        raise singular_gram_error(f"population Gram on {union}", min_eig)
    return worst <= delta, worst


def event_E_check(dataset, spec: BasisSpec, density: Density, qstar: int, J0,
                  delta: float, subsets=None, budget=DEFAULT_BUDGET):
    """(holds, max_deviation): uniform two-sided norm equivalence over all
    candidate additive subspaces.

    When the population Gram is the identity the deviation is the RIP
    constant over the same unions, and no population Gram is built.
    """
    blocks = build_design_blocks(dataset.X, spec)
    if population_gram_is_identity(spec, density):
        worst = rip_constant(blocks, qstar, J0, subsets, budget)
        return worst <= delta, worst
    G_pop, slices = full_block_gram(spec, density)
    return event_E_from_grams(blocks.full_gram(), G_pop, slices, qstar, J0, delta,
                              subsets, budget)


def truncation_residual_norm_sq(X, model, spec: BasisSpec, density: Density) -> float:
    """Empirical squared norm of f - sum_j Pi_{V_j} f_j at the sample rows."""
    X = np.asarray(X, dtype=float)
    n = X.shape[0]
    resid = np.zeros(n)
    for j in sorted(model.J0):
        theta = np.asarray(model.theta[j], dtype=float)
        proj_coef = _component_projection_coef(theta, spec, density, j)
        v_vals = basis_matrix(spec.basis_indices(j), X[:, j]) @ proj_coef
        resid += trig_series(theta, X[:, j]) - v_vals
    return float(resid @ resid) / n


def _component_projection_coef(theta, spec, density, j):
    """Coefficients of Pi_{V_j} f_j in the V_j basis (population projection)."""
    d = spec.dim(j)
    if d == 0:
        return np.zeros(0)
    if density.uniform_marginal(j):
        # uniform marginal: the trig system is orthonormal, projection = truncation
        out = np.zeros(d)
        k = min(d, len(theta))
        out[:k] = theta[:k]
        return out
    # one marginal Gram over V_j's indices and f_j's (phi_2 .. phi_{len(theta)+1})
    ks = spec.basis_indices(j)
    G, _ = marginal_moments(np.arange(ks[0], max(ks[-1], len(theta) + 1) + 1), density, j)
    f = slice(2 - ks[0], len(theta) + 2 - ks[0])
    return np.linalg.solve(G[:d, :d], G[:d, f] @ theta)


def event_A_check(X, model, spec: BasisSpec, density: Density, rho: float,
                  kappa: float, cprime: float) -> bool:
    """Whether the truncation residual satisfies |f - v|_n^2 <= 2 c'(1-rho^2) kappa."""
    resid = truncation_residual_norm_sq(X, model, spec, density)
    return resid <= 2.0 * cprime * (1.0 - rho * rho) * kappa


def chi2_tail_bounds(d: int, x: float):
    """Closed-form (upper, lower) tail bounds for chi-square(d) deviations.

    upper bounds P(chi2 - d >= x), lower bounds P(chi2 - d <= -x).
    """
    if d < 1:
        raise AssumptionError(f"degrees of freedom must be >= 1, got {d}")
    if x < 0:
        raise AssumptionError(f"deviation must be >= 0, got {x}")
    upper = exp(-x * x / (2.0 * (2.0 * d + 2.0 * x))) if x > 0 else 1.0
    lower = exp(-x * x / (4.0 * d)) if x > 0 else 1.0
    return upper, lower


def bennett_truncation_bound(n: int, x: float, sup_norm_sq: float) -> float:
    """exp(-3 n x / (8 |f - v|_inf^2)) for the truncation-residual event."""
    if x <= 0 or sup_norm_sq <= 0:
        raise AssumptionError("x and sup_norm_sq must be positive")
    return exp(-3.0 * n * x / (8.0 * sup_norm_sq))


def subset_count_bound(q: int, qstar: int):
    """(exact, bound): sum_{j<=qstar} C(q,j) and its (e q / qstar)^qstar bound."""
    if not 1 <= qstar <= q:
        raise AssumptionError(f"need 1 <= qstar <= q, got qstar={qstar}, q={q}")
    exact = sum(comb(q, j) for j in range(qstar + 1))
    log_bound = qstar * (1.0 + log(q / qstar))
    bound = exp(log_bound) if log_bound < 700 else float("inf")
    return exact, bound


def check_cprime(delta: float, cprime: float) -> bool:
    """(2/3)(1 - sqrt(c'))^2 - 8 (1+delta)/(1-delta)^2 c' >= 1/2."""
    if not 0.0 < delta < 1.0 or not 0.0 < cprime < 1.0:
        raise AssumptionError("need 0 < delta < 1 and 0 < cprime < 1")
    lhs = (2.0 / 3.0) * (1.0 - sqrt(cprime)) ** 2
    lhs -= 8.0 * (1.0 + delta) / (1.0 - delta) ** 2 * cprime
    return lhs >= 0.5


def selection_error_bound(n, sigma2, rho, kappa_l, d_l, s, qstar, q, delta,
                          cprime, p_event_c=0.0, return_terms=False):
    """Upper bound on P(J0 not within the selected set).

    Sums the proof-level exponential terms over the (l, m) grid of missed and
    spurious covariates, plus the truncation-residual term and a supplied
    estimate for the norm-equivalence failure probability.

    ``kappa_l[l-1]`` is the minimal squared norm of size-l partial sums;
    ``d_l[l-1]`` the largest additive dimension over subsets of size l.
    """
    kappa_l = np.asarray(kappa_l, dtype=float)
    d_l = np.asarray(d_l, dtype=float)
    if not 0.0 <= rho < 1.0:
        raise AssumptionError(f"rho must lie in [0,1), got {rho}")
    if np.any(kappa_l[:s] <= 0.0):
        raise AssumptionError("all kappa_l must be strictly positive")
    if len(d_l) < qstar:
        raise AssumptionError(f"d_l must cover sizes 1..{qstar}")
    if not check_cprime(delta, cprime):
        raise AssumptionError(
            f"(delta={delta}, cprime={cprime}) violates the c' feasibility condition"
        )
    c_delta = (1.0 - delta) ** 2 / (1.0 + delta)
    one_mr = 1.0 - rho * rho
    terms = {"p_event_c": float(p_event_c)}
    total = float(p_event_c)
    trunc = exp(-3.0 * n / (16.0 * d_l[qstar - 1]))
    terms["truncation"] = trunc
    total += trunc
    chi_sum = gauss1_sum = gauss2_sum = 0.0
    for l in range(1, s + 1):
        kl = kappa_l[l - 1]
        d_eff = d_l[qstar - s + l - 1]
        signal = one_mr * kl
        chi = 2.0 * exp(
            -(1.0 / 32.0) * (c_delta ** 2) * (n ** 2) * signal ** 2
            / (8.0 * sigma2 ** 2 * d_eff + c_delta * sigma2 * n * signal)
        )
        g1 = exp(-(c_delta / 2.0 ** 10) * n * signal / sigma2)
        g2 = exp(-(c_delta ** 2 / (2.0 ** 14 * cprime)) * n * signal / sigma2)
        weight = comb(s, l) * sum(comb(q - s, m) for m in range(qstar - (s - l) + 1))
        chi_sum += weight * chi
        gauss1_sum += weight * g1
        gauss2_sum += weight * g2
    terms["chi_square"] = chi_sum
    terms["gaussian_projection"] = gauss1_sum
    terms["gaussian_truncation"] = gauss2_sum
    total += chi_sum + gauss1_sum + gauss2_sum
    if return_terms:
        return total, terms
    return total


def corollary_conditions(n, sigma2, rho, kappa, kappa1, kappa_l, eps_s, d_l,
                         s, qstar, q, alpha):
    """Named sample-size conditions from the consistency corollaries, with c3 = 1."""
    d_l = np.asarray(d_l, dtype=float)
    kappa_l = np.asarray(kappa_l, dtype=float)
    one_mr = 1.0 - rho * rho
    d_qstar = d_l[qstar - 1]
    d_s = d_l[s - 1]
    d_1 = d_l[0]
    out = {}
    out["corollary2"] = max(
        sigma2 * sqrt(qstar * d_qstar * log(np.e * q / qstar)) / (one_mr * kappa),
        sigma2 * qstar * log(np.e * q / qstar) / (one_mr * kappa),
        d_qstar * log(q),
    ) <= n
    out["corollary3"] = max(
        sigma2 * sqrt(d_1 * log(q)) / (one_mr * (1.0 - eps_s) * kappa1),
        sigma2 * log(q) / (one_mr * (1.0 - eps_s) * kappa1),
        d_s * log(q),
    ) <= n
    cond14 = True
    for l in range(1, s + 1):
        cond14 &= max(
            sigma2 * sqrt(l * d_l[l - 1] * log(np.e * q / l)) / (one_mr * kappa_l[l - 1]),
            sigma2 * l * log(np.e * q / l) / (one_mr * kappa_l[l - 1]),
            d_s * log(q),
        ) <= n
    out["condition14"] = bool(cond14)
    out["nonparametric18"] = max(
        sigma2 * s ** (1.0 / (4.0 * alpha)) * sqrt(log(q))
        / kappa1 ** ((4.0 * alpha + 1.0) / (4.0 * alpha)),
        sigma2 * log(q) / kappa1,
        s ** ((2.0 * alpha + 1.0) / (2.0 * alpha)) * log(q) ** 4 / kappa1 ** (1.0 / (2.0 * alpha)),
    ) <= n
    return out


def diagnose(cfg: dict) -> dict:
    """The ``diagnose`` report of a config: RIP constant, events E and A, rho,
    kappa and, when c' is admissible, the selection error bound and its terms.

    The design is drawn from the first child of ``cfg['seed']``, the model
    from the seed itself. Above 20,000 candidate sets, RIP and event E range
    over ``sample_subsets`` and ``subset_collection`` says so. ConfigError
    when s = 0, since kappa is undefined for an empty active set.
    """
    if cfg["s"] < 1:
        raise ConfigError("diagnose needs s >= 1: kappa is undefined for an empty "
                          "active set")
    q, qstar, delta, cprime = cfg["q"], cfg["qstar"], cfg["delta"], cfg["cprime"]
    spec = BasisSpec.create(q, fixed_m(cfg, "diagnose"), centered=True)
    density = density_from_config(cfg)
    model = model_from_config(cfg)
    rng = np.random.default_rng(np.random.SeedSequence(cfg["seed"]).spawn(1)[0])
    X = density.sample(cfg["n"], q, rng)
    blocks = build_design_blocks(X, spec)
    subsets = None
    # the candidate sets J, the empty one included, that RIP and event E range over
    n_subsets = count_subsets_up_to(q, qstar, include_empty=True)
    if count_subsets_up_to(q, qstar) > 20000:
        subsets = sample_subsets(q, qstar, 2000, seed=cfg["seed"])
        n_subsets = len(subsets)
    delta_hat = rip_constant(blocks, qstar, J0=model.J0, subsets=subsets)
    rho = rho_qstar(spec, density, qstar)
    kappa, kappa_l = kappa_values(model, density)
    if population_gram_is_identity(spec, density):
        # P_U = I on every union U = J u J0, so E's normalized Gram is G_emp[U, U]
        # and its largest deviation is the RIP constant over the same unions
        max_dev = delta_hat
    else:
        G_pop, slices = full_block_gram(spec, density)
        _, max_dev = event_E_from_grams(blocks.full_gram(), G_pop, slices, qstar,
                                        model.J0, delta, subsets=subsets)
    holds_A = event_A_check(X, model, spec, density, rho, kappa, cprime)
    cprime_ok = check_cprime(delta, cprime)
    report = {
        "delta_qstar": delta_hat,
        "event_E_holds": {"delta": delta, "holds": bool(max_dev <= delta),
                          "max_deviation": max_dev},
        "subset_collection": {"sampled": subsets is not None, "subsets": n_subsets},
        "event_A_holds": bool(holds_A),
        "rho": rho,
        "kappa": kappa,
        "kappa_l": list(kappa_l),
        "cprime_admissible": cprime_ok,
    }
    s = len(model.J0)
    if kappa > 0 and cprime_ok:
        total, terms = selection_error_bound(
            cfg["n"], cfg["sigma"] ** 2, rho, kappa_l[:s],
            d_l=[spec.d_l(l) for l in range(1, qstar + 1)], s=s, qstar=qstar, q=q,
            delta=delta, cprime=cprime, return_terms=True)
        report["selection_error_bound"] = total
        report["bound_terms"] = terms
    return report
