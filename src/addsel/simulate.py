"""Synthetic additive-model data generation and seeded selection experiments."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from math import ceil, pi

import numpy as np

from .basis import BasisSpec, trig_series
from .config import DEFAULTS, parse_m_rule
from .densities import Density, GaussianCopulaDensity, TableDensity, UniformDensity
from .errors import AddselError, AssumptionError, ConfigError
from .geometry import PopulationGeometry, kappa_values
from .selection import Dataset, select_exhaustive

#: head-energy decay across frequencies in generated components
HEAD_DECAY = 0.25
#: maximal number of head frequencies
HEAD_FREQS = 3
#: the constant C_j of the eq7 truncation level (no config key sets it)
EQ7_C = 1.0
#: lowest frequency of the truncation tail gen_model adds when tail_fraction > 0
TAIL_START = 64


def density_from_config(cfg: dict) -> Density:
    """The covariate law of a config (``design.*`` keys) on its q covariates.

    This is the only place a ``design.kind`` becomes a Density. An unknown
    kind, or ``custom-density`` without ``design.table``, raises ConfigError.
    """
    kind = cfg.get("design.kind", DEFAULTS["design.kind"])
    if kind == "independent-uniform":
        return UniformDensity()
    if kind == "gaussian-copula":
        return GaussianCopulaDensity(r=cfg.get("design.r", DEFAULTS["design.r"]))
    if kind != "custom-density":
        raise ConfigError(f"unknown design kind {kind!r}")
    table = cfg.get("design.table")
    if table is None:
        raise ConfigError("custom-density law requires a density table")
    density = TableDensity(tables={j: table for j in range(cfg["q"])})
    # one table on each of the q covariates: the law is invariant under permutations
    density.exchangeable = True
    return density


@dataclass
class AdditiveModel:
    """Ground truth: per-covariate trig coefficients over phi_2, phi_3, ...

    ``theta[j][i]`` multiplies phi_{i+2}(x_j); the phi_1 coefficient is 0 by
    the centering convention. Inactive covariates hold empty arrays.
    """

    q: int
    J0: tuple
    theta: list
    sigma: float = 0.0
    alpha: tuple = ()
    Kbound: tuple = ()

    @property
    def s(self):
        return len(self.J0)

    def component_values(self, j: int, x) -> np.ndarray:
        return trig_series(self.theta[j], x)

    def f_values(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        out = np.zeros(X.shape[0])
        for j in self.J0:
            out += self.component_values(j, X[:, j])
        return out

    def component_norm_sq_uniform(self, j: int) -> float:
        """|f_j|^2 under the uniform marginal (Parseval)."""
        theta = np.asarray(self.theta[j], dtype=float)
        return float(theta @ theta)

    def sobolev_sum(self, j: int) -> float:
        theta = np.asarray(self.theta[j], dtype=float)
        if len(theta) == 0:
            return 0.0
        idx = np.arange(2, len(theta) + 2)
        a = self.alpha[j] if len(self.alpha) else 2.0
        return float(np.sum(_sobolev_weights(idx // 2, a) * theta ** 2))


def _sobolev_weights(freqs, alpha):
    """(2 pi k)^(2 alpha) per frequency k: the weights of the Sobolev-ball sum."""
    return (2.0 * pi * np.asarray(freqs, dtype=float)) ** (2.0 * alpha)


def gen_model(q, s, alpha, Kbound, kappa1_target, tail_fraction=0.0, seed=None,
              sigma=0.0, rng=None) -> AdditiveModel:
    """Random sparse additive model inside the Sobolev ball.

    Each active component has uniform-density squared norm >= kappa1_target;
    when tail_fraction > 0, extra energy is placed at frequencies >=
    TAIL_START (subject to the Sobolev budget) to create a truncation tail.
    """
    if s > q:
        raise AddselError(f"need s <= q, got s={s}, q={q}")
    if rng is None:
        rng = np.random.default_rng(seed)
    alpha_v = np.broadcast_to(np.asarray(alpha, dtype=float), (q,))
    K_v = np.broadcast_to(np.asarray(Kbound, dtype=float), (q,))
    if not np.all(K_v > 0):
        raise AddselError(f"Kbound must be positive, got {Kbound}")
    if not kappa1_target >= 0:
        raise AddselError(f"kappa1_target must be nonnegative, got {kappa1_target}")
    J0 = tuple(int(j) for j in sorted(rng.choice(q, size=s, replace=False))) if s else ()
    theta = [np.zeros(0) for _ in range(q)]
    for j in J0:
        a, K = float(alpha_v[j]), float(K_v[j])
        feasible_max = K ** 2 / _sobolev_weights(1, a)
        if kappa1_target > feasible_max:
            raise AddselError(
                f"kappa1_target={kappa1_target} infeasible for alpha={a}, K={K}; "
                f"maximum achievable is {feasible_max:.6g}"
            )
        # head energy across the lowest frequencies, drop frequencies that
        # would break the Sobolev constraint
        for nfreq in range(HEAD_FREQS, 0, -1):
            fr = np.arange(1, nfreq + 1)
            p = HEAD_DECAY ** (fr - 1.0)
            p /= p.sum()
            sob = kappa1_target * float(p @ _sobolev_weights(fr, a))
            if sob <= K ** 2:
                break
        pairs = list(zip(fr, kappa1_target * p))  # (frequency, energy)
        if tail_fraction > 0.0:
            tail_freqs = range(TAIL_START, TAIL_START + 4)
            budget = max(K ** 2 - sob, 0.0)
            tail_energy = min(tail_fraction * kappa1_target, 0.95 * budget
                              / float(np.mean(_sobolev_weights(tail_freqs, a))))
            if tail_energy > 0.0:
                pairs += [(k, tail_energy / len(tail_freqs)) for k in tail_freqs]
        th = np.zeros(2 * pairs[-1][0])
        for k, energy in pairs:
            ang = rng.uniform(0.0, 2.0 * pi)
            th[2 * k - 2] = np.sqrt(energy) * np.cos(ang)  # phi_{2k}
            th[2 * k - 1] = np.sqrt(energy) * np.sin(ang)  # phi_{2k+1}
        theta[j] = th
    return AdditiveModel(q=q, J0=J0, theta=theta, sigma=float(sigma),
                         alpha=tuple(map(float, alpha_v)),
                         Kbound=tuple(map(float, K_v)))


def model_from_config(cfg: dict, rng=None) -> AdditiveModel:
    """``gen_model`` on a config's shape, drawn from ``rng`` or else from ``cfg['seed']``."""
    return gen_model(cfg["q"], cfg["s"], cfg["alpha"], cfg["K"], cfg["kappa1"],
                     tail_fraction=cfg.get("tail_fraction", DEFAULTS["tail_fraction"]),
                     seed=cfg["seed"], sigma=cfg["sigma"], rng=rng)


def gen_response(model: AdditiveModel, X, seed) -> np.ndarray:
    """Y_i = sum_{j in J0} f_j(X_ij) + sigma * z_i with z i.i.d. standard normal."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != model.q:
        raise AddselError(f"X must be n x {model.q}")
    return add_noise(model, model.f_values(X), seed)


def add_noise(model: AdditiveModel, f, seed) -> np.ndarray:
    """f + sigma * z with z i.i.d. standard normal from ``seed``; f itself when sigma = 0."""
    rng = np.random.default_rng(seed)
    if model.sigma > 0.0:
        f = f + model.sigma * rng.standard_normal(len(f))
    return f


def m_lower_bound(Cj, Kj, qstar, eps_prime, cprime, rho, kappa, alpha_j) -> int:
    """Smallest truncation level satisfying the nonparametric lower bound."""
    if rho >= 1.0:
        raise AssumptionError(f"rho must be < 1, got {rho}")
    if min(Cj, Kj, qstar, cprime, kappa, alpha_j) <= 0:
        raise AssumptionError("all inputs must be positive")
    val = (Cj * Kj ** 2 * qstar * (1.0 + eps_prime)
           / (cprime * (1.0 - rho * rho) * kappa)) ** (1.0 / (2.0 * alpha_j))
    return max(1, int(ceil(val)))


def _resolve_m(cfg, model, density, rho, eps_prime):
    m = parse_m_rule(cfg.get("m_rule", DEFAULTS["m_rule"]))
    if m is not None:
        return m
    kappa, _ = kappa_values(model, density)
    return m_lower_bound(EQ7_C, cfg["K"], cfg["qstar"], eps_prime,
                         cfg["cprime"], rho, kappa, cfg["alpha"])


def run_single_trial(cfg, density, trial_index, child_seed, rho=0.0, eps_prime=0.0):
    rng = np.random.default_rng(child_seed)
    model = model_from_config(cfg, rng)
    m = _resolve_m(cfg, model, density, rho, eps_prime)
    spec = BasisSpec.create(cfg["q"], m)
    X = density.sample(cfg["n"], cfg["q"], rng)
    Y = gen_response(model, X, rng)
    dataset = Dataset(X, Y)
    sigma2 = cfg["sigma"] ** 2
    result = select_exhaustive(dataset, spec, cfg["qstar"], sigma2)
    chosen = result.chosen
    record = {
        "trial": trial_index,
        "J0": list(model.J0),
        "selected": list(chosen),
        "success": set(model.J0) <= set(chosen),
        "exact": tuple(model.J0) == tuple(chosen),
        "criterion_selected": result.criterion_of(chosen),
        "criterion_true": result.criterion.get(tuple(model.J0)),
        "m": m,
    }
    return record


def run_trials(cfg: dict):
    """Seeded selection trials; returns (records, summary).

    Per-trial failures are recorded, never abort the batch; a malformed
    ``m_rule`` raises ConfigError before the first trial. All randomness
    descends from cfg['seed'] via spawned child sequences.
    """
    trials = cfg["trials"]
    eq7 = parse_m_rule(cfg.get("m_rule", DEFAULTS["m_rule"])) is None
    density = density_from_config(cfg)
    rho = eps_prime = 0.0
    if eq7:
        probe = PopulationGeometry(BasisSpec.create(cfg["q"], 6), density, cfg["qstar"])
        rho = probe.rho()
        _, eps_prime = probe.epsilons()
    children = np.random.SeedSequence(cfg["seed"]).spawn(trials)

    def one(i):
        try:
            return run_single_trial(cfg, density, i, children[i], rho, eps_prime)
        except AddselError as exc:
            return {"trial": i, "error": str(exc), "error_type": type(exc).__name__}

    # trials run serially; cfg["threads"] is accepted and has no effect
    records = [one(i) for i in range(trials)]
    ok = [r for r in records if "error" not in r]
    n_ok = len(ok)
    succ = sum(r["success"] for r in ok)
    exact = sum(r["exact"] for r in ok)
    summary = {
        "trials": trials,
        "completed": n_ok,
        "errors": trials - n_ok,
        "success_rate": succ / n_ok if n_ok else float("nan"),
        "exact_rate": exact / n_ok if n_ok else float("nan"),
        "success_stderr": _binom_se(succ, n_ok),
        "exact_stderr": _binom_se(exact, n_ok),
        "errors_by_type": dict(Counter(r["error_type"] for r in records if "error" in r)),
    }
    return records, summary


def _binom_se(k, n):
    if n == 0:
        return float("nan")
    p = k / n
    return float(np.sqrt(p * (1.0 - p) / n))


def approximation_decay_experiment(alpha, K, m_grid, seed=0, max_freq=None):
    """Truncation-error decay of a Sobolev-ball function with polynomial tails.

    Returns exact L2 and sup-norm style truncation errors over m_grid and
    their log-log slopes.
    """
    m_grid = np.asarray(m_grid, dtype=int)
    if len(m_grid) < 4 or np.any(np.diff(m_grid) <= 0):
        raise AddselError("m_grid must be increasing with at least 4 points")
    rng = np.random.default_rng(seed)
    n_freq = max_freq if max_freq is not None else 512 * int(m_grid[-1])
    freqs = np.arange(1, n_freq + 1)
    mag = freqs ** (-(alpha + 0.5 + 0.05))
    signs = rng.choice([-1.0, 1.0], size=n_freq)
    theta = np.zeros(2 * n_freq)          # index i <-> phi_{i+2}
    theta[0::2] = mag * signs             # cosine coefficients phi_{2k}
    sob = float(np.sum(_sobolev_weights(freqs, alpha) * mag ** 2))
    scale = K / np.sqrt(sob)
    theta *= scale
    basis_idx = np.arange(2, 2 * n_freq + 2)
    l2 = np.array([float(np.sum(theta[basis_idx > m] ** 2)) for m in m_grid])
    ell1 = np.array([float(np.sum(np.abs(theta[basis_idx > m]))) for m in m_grid])
    sup = 2.0 * ell1 ** 2
    out = {"m_grid": m_grid.tolist(), "l2_errors": l2.tolist(),
           "sup_errors": sup.tolist()}
    if np.all(l2 < 1e-28):
        out.update(l2_slope=None, sup_slope=None, exact_representation=True)
        return out
    logm = np.log(m_grid)
    out["l2_slope"] = float(np.polyfit(logm, np.log(l2), 1)[0])
    out["sup_slope"] = float(np.polyfit(logm, np.log(sup), 1)[0])
    out["exact_representation"] = False
    return out
