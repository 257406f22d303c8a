"""Concentration events, explicit tail bounds, and sample-size condition checks."""

from __future__ import annotations

from math import comb, exp, inf, log, sqrt

import numpy as np

from .basis import BasisSpec, DesignBlocks, basis_matrix, build_design_blocks, \
    marginal_moments, trig_series
from .config import fixed_m
from .densities import Density
from .errors import AssumptionError, ConfigError
from .geometry import PopulationGeometry, count_subsets_up_to, kappa_values
from .simulate import density_from_config, model_from_config
from .unions import union_collection, union_deviation


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
                out.append(tuple(sorted(rng.choice(q, size=r, replace=False).tolist())))
    return sorted(set(out))


def rip_constant(blocks: DesignBlocks, qstar: int, J0=(), subsets=None) -> float:
    """max over |J| <= qstar of the operator norm of A_{J u J0}^T A_{J u J0} - I.

    This is event E's deviation under the identity population Gram. With an
    explicit ``subsets`` collection the result is the maximum over that
    collection only (a lower bound of the full constant).
    """
    slices = blocks.slices()
    return union_deviation(blocks.full_gram(), None, slices,
                           union_collection(len(slices), qstar, J0, subsets))


def event_E_from_grams(G_emp, G_pop, slices, qstar: int, J0, delta: float, subsets=None):
    """(holds, max_deviation): whether all normalized empirical Grams on
    V_{J u J0} have eigenvalues in [1-delta, 1+delta].

    ``G_pop = None`` stands for the identity population Gram. Raises
    SingularBlockError for the first union, in enumeration order, whose
    population Gram has an eigenvalue at or below EIG_FLOOR.
    """
    worst = union_deviation(G_emp, G_pop, slices,
                            union_collection(len(slices), qstar, J0, subsets))
    return worst <= delta, worst


def event_E_check(dataset, spec: BasisSpec, density: Density, qstar: int, J0,
                  delta: float):
    """(holds, max_deviation): uniform two-sided norm equivalence over all
    candidate additive subspaces.

    When the population Gram is the identity none is built, and the
    deviation is the RIP constant over the same unions.
    """
    blocks = build_design_blocks(dataset.X, spec)
    geo = PopulationGeometry(spec, density, qstar)
    G_pop = None if geo.identity else geo.gram[0]
    return event_E_from_grams(blocks.full_gram(), G_pop, blocks.slices(), qstar, J0, delta)


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
    # one marginal Gram from phi_2 on, over V_j's indices and f_j's
    G, _ = marginal_moments(np.arange(2, max(d, len(theta)) + 2), density, j)
    return np.linalg.solve(G[:d, :d], G[:d, :len(theta)] @ theta)


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
    exact = count_subsets_up_to(q, qstar, include_empty=True)
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


def _check_sizes(rho, s, qstar, d_l):
    """AssumptionError unless 0 <= rho < 1, s <= qstar and d_l covers sizes 1..qstar."""
    if not 0.0 <= rho < 1.0:
        raise AssumptionError(f"rho must lie in [0,1), got {rho}")
    if s > qstar:
        raise AssumptionError(f"need s <= qstar, got s={s}, qstar={qstar}")
    if len(d_l) < qstar:
        raise AssumptionError(f"d_l must cover sizes 1..{qstar}")


def _check_signal(kappa_l, s, sigma2, kappa=None, kappa1=None, eps_s=None, alpha=None):
    """AssumptionError unless kappa_l covers sizes 1..s with positive values,
    sigma2 is finite and >= 0 (0 is the noiseless limit) and, where given,
    kappa > 0, kappa1 > 0, 0 <= eps_s < 1 and alpha is finite and > 0."""
    if len(kappa_l) < s:
        raise AssumptionError(f"kappa_l must cover sizes 1..{s}")
    if not np.all(kappa_l[:s] > 0.0):
        raise AssumptionError("all kappa_l must be strictly positive")
    if not 0.0 <= sigma2 < inf:
        raise AssumptionError(f"sigma2 must be finite and >= 0, got {sigma2}")
    for name, value in (("kappa", kappa), ("kappa1", kappa1)):
        if value is not None and not value > 0.0:
            raise AssumptionError(f"{name} must be > 0, got {value}")
    if alpha is not None and not 0.0 < alpha < inf:
        raise AssumptionError(f"alpha must be finite and > 0, got {alpha}")
    if eps_s is not None and not 0.0 <= eps_s < 1.0:
        raise AssumptionError(f"eps_s must lie in [0,1), got {eps_s}")


def selection_error_bound(n, sigma2, rho, kappa_l, d_l, s, qstar, q, delta,
                          cprime, p_event_c=0.0):
    """(total, terms): upper bound on P(J0 not within the selected set), by term.

    Sums the proof-level exponential terms over the (l, m) grid of missed and
    spurious covariates, plus the truncation-residual term and a supplied
    estimate for the norm-equivalence failure probability.

    ``kappa_l[l-1]`` is the minimal squared norm of size-l partial sums;
    ``d_l[l-1]`` the largest additive dimension over subsets of size l.
    """
    kappa_l = np.asarray(kappa_l, dtype=float)
    d_l = np.asarray(d_l, dtype=float)
    _check_sizes(rho, s, qstar, d_l)
    _check_signal(kappa_l, s, sigma2)
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
    return total, terms


def corollary_conditions(n, sigma2, rho, kappa, kappa1, kappa_l, eps_s, d_l,
                         s, qstar, q, alpha):
    """Named sample-size conditions from the consistency corollaries, with c3 = 1."""
    d_l = np.asarray(d_l, dtype=float)
    kappa_l = np.asarray(kappa_l, dtype=float)
    if s < 1:
        raise AssumptionError(f"need s >= 1, got s={s}")
    _check_sizes(rho, s, qstar, d_l)
    _check_signal(kappa_l, s, sigma2, kappa, kappa1, eps_s, alpha)
    one_mr = 1.0 - rho * rho
    d_qstar = d_l[qstar - 1]
    d_s = d_l[s - 1]
    d_1 = d_l[0]
    out = {}
    out["corollary2"] = bool(max(
        sigma2 * sqrt(qstar * d_qstar * log(np.e * q / qstar)) / (one_mr * kappa),
        sigma2 * qstar * log(np.e * q / qstar) / (one_mr * kappa),
        d_qstar * log(q),
    ) <= n)
    out["corollary3"] = bool(max(
        sigma2 * sqrt(d_1 * log(q)) / (one_mr * (1.0 - eps_s) * kappa1),
        sigma2 * log(q) / (one_mr * (1.0 - eps_s) * kappa1),
        d_s * log(q),
    ) <= n)
    cond14 = True
    for l in range(1, s + 1):
        cond14 &= max(
            sigma2 * sqrt(l * d_l[l - 1] * log(np.e * q / l)) / (one_mr * kappa_l[l - 1]),
            sigma2 * l * log(np.e * q / l) / (one_mr * kappa_l[l - 1]),
            d_s * log(q),
        ) <= n
    out["condition14"] = bool(cond14)
    out["nonparametric18"] = bool(max(
        sigma2 * s ** (1.0 / (4.0 * alpha)) * sqrt(log(q))
        / kappa1 ** ((4.0 * alpha + 1.0) / (4.0 * alpha)),
        sigma2 * log(q) / kappa1,
        s ** ((2.0 * alpha + 1.0) / (2.0 * alpha)) * log(q) ** 4 / kappa1 ** (1.0 / (2.0 * alpha)),
    ) <= n)
    return out


def diagnose(cfg: dict) -> dict:
    """The ``diagnose`` report of a config: RIP constant, events E and A, rho,
    kappa and, when c' is admissible, the selection error bound and its terms.

    The design is drawn from the first child of ``cfg['seed']``, the model
    from the seed itself. Above 20,000 candidate sets, RIP and event E range
    over ``sample_subsets`` and ``subset_collection`` says so. ConfigError
    when s = 0 (kappa is undefined), s > qstar (no candidate J covers J0) or
    delta = 0 (the c' condition needs 0 < delta).
    """
    if cfg["s"] < 1:
        raise ConfigError("diagnose needs s >= 1: kappa is undefined for an empty "
                          "active set")
    if cfg["s"] > cfg["qstar"]:
        raise ConfigError("diagnose needs s <= qstar: no candidate set of size "
                          "<= qstar holds the active set")
    if cfg["delta"] <= 0:
        raise ConfigError("diagnose needs delta > 0: the c' condition requires 0 < delta < 1")
    q, qstar, delta, cprime = cfg["q"], cfg["qstar"], cfg["delta"], cfg["cprime"]
    spec = BasisSpec.create(q, fixed_m(cfg, "diagnose"))
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
    geo = PopulationGeometry(spec, density, qstar)
    # event E reads the Gram of all q blocks: built before rho, so rho slices it
    # instead of building the Gram of its leading blocks as well
    G_pop, slices = (None, None) if geo.identity else geo.gram
    rho = geo.rho()
    kappa, kappa_l = kappa_values(model, density)
    if geo.identity:
        # P_U = I on every union U = J u J0, so E's normalized Gram is G_emp[U, U]
        # and its largest deviation is the RIP constant over the same unions
        max_dev = delta_hat
    else:
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
            delta=delta, cprime=cprime)
        report["selection_error_bound"] = total
        report["bound_terms"] = terms
    return report
