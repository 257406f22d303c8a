"""Split-sample estimation of a single additive component after selection."""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil

import numpy as np

from .basis import BasisSpec, block_slices, build_design_block, marginal_quadrature, \
    trig_series
from .config import DEFAULTS, fixed_m
from .densities import Density
from .errors import AddselError, ConfigError
from .selection import RANK_RTOL, Dataset, select_exhaustive
from .simulate import AdditiveModel, density_from_config, gen_response, model_from_config

#: bootstrap resamples of the reps behind rate_experiment's slope band
N_BOOT = 200


@dataclass
class ComponentEstimate:
    """Least-squares fit of one component on the held-out half sample.

    ``coefficients[i]`` multiplies phi_{i+2}(x_target) (centered convention).
    """

    target: int
    coefficients: np.ndarray
    selected: tuple
    m_target: int
    n_half: int

    def values(self, x) -> np.ndarray:
        return trig_series(self.coefficients, x)


def default_m_target(n_half: int, alpha: float) -> int:
    """Bias-variance balancing truncation level ~ n^(1/(2 alpha + 1))."""
    return max(1, int(ceil(n_half ** (1.0 / (2.0 * alpha + 1.0)))))


def estimate_component(dataset: Dataset, spec: BasisSpec, qstar: int, sigma2: float,
                       target: int, m_target: int | None = None,
                       alpha: float = 2.0) -> ComponentEstimate:
    """Select on the first half, refit by least squares on the second half.

    The target covariate is always included in the refit set, at its own
    (typically finer) truncation level m_target. One least-squares solve
    gives both the coefficients and the singular values of the rank check.
    """
    n2 = dataset.n
    if n2 < 2 or n2 % 2:
        raise AddselError(f"split-sample estimation needs an even sample size, got {n2}")
    if not 0 <= target < spec.q:
        raise AddselError(f"target covariate {target} out of range for q={spec.q}")
    n = n2 // 2
    if m_target is None:
        m_target = default_m_target(n, alpha)
    first = Dataset(dataset.X[:n], dataset.Y[:n])
    result = select_exhaustive(first, spec, qstar, sigma2)
    J_fit = tuple(sorted(set(result.chosen) | {target}))

    m_fit = list(spec.m)
    m_fit[target] = max(m_target, 2)
    fit_spec = BasisSpec.create(spec.q, tuple(m_fit), centered=True)
    X2, Y2 = dataset.X[n:], dataset.Y[n:]
    if np.any(X2 < 0.0) or np.any(X2 > 1.0):
        raise AddselError("design entries must lie in [0,1]")
    # only the refit set's blocks: the other covariates play no part in the fit
    A = np.concatenate([build_design_block(X2[:, j], fit_spec.m[j], fit_spec.centered[j])
                        for j in J_fit], axis=1)
    coef, _, _, s = np.linalg.lstsq(A, Y2 / np.sqrt(n), rcond=None)
    if A.shape[1] > A.shape[0] or s[-1] <= RANK_RTOL * s[0]:
        raise AddselError(
            f"second-half design for J={J_fit} is rank deficient "
            f"(smallest/largest singular value {s[-1]:.3e}/{s[0]:.3e}); "
            "reduce m_target or increase n"
        )
    theta = coef[block_slices([fit_spec.dim(j) for j in J_fit])[J_fit.index(target)]]
    return ComponentEstimate(target=target, coefficients=np.asarray(theta, dtype=float),
                             selected=result.chosen, m_target=m_target, n_half=n)


def component_risk(model: AdditiveModel, estimate: ComponentEstimate,
                   density: Density | None = None) -> float:
    """Squared L2(P) distance between the true and fitted target component."""
    j = estimate.target
    theta_true = np.asarray(model.theta[j], dtype=float)
    theta_hat = np.asarray(estimate.coefficients, dtype=float)
    if density is None or density.uniform_marginal(j):
        # Parseval: coefficient differences plus the untouched tail
        k = max(len(theta_true), len(theta_hat))
        a = np.zeros(k)
        a[:len(theta_true)] = theta_true
        a[:len(theta_hat)] -= theta_hat
        return float(a @ a)
    x, p = marginal_quadrature(density, j)
    diff = model.component_values(j, x) - estimate.values(x)
    return float(np.mean(diff ** 2 * p))


def _mean_of_completed(risks):
    """Row means over the completed reps (failed reps hold NaN); NaN for a row
    with none. Bitwise equal to np.nanmean(risks, axis=1), without its warning."""
    done = ~np.isnan(risks)
    count = done.sum(axis=1)
    total = np.where(done, risks, 0.0).sum(axis=1)
    return np.divide(total, count, out=np.full(len(total), np.nan), where=count > 0)


def rate_experiment(cfg: dict):
    """Risk of the split-sample component fit across sample sizes.

    Returns mean risks per n, the fitted log-log slope, and a bootstrap
    percentile band for the slope. Models are redrawn per repetition.
    ConfigError when s = 0: the target is made active by relabelling an
    active covariate.
    """
    if cfg["s"] < 1:
        raise ConfigError("estimate needs s >= 1: the target component is placed on "
                          "an active covariate")
    n_grid = np.asarray(cfg["n_grid"], dtype=int)
    reps = int(cfg.get("reps", DEFAULTS["reps"]))
    if len(n_grid) < 3 or np.any(np.diff(n_grid) <= 0):
        raise AddselError("n_grid must be increasing with at least 3 points")
    spec = BasisSpec.create(cfg["q"], fixed_m(cfg, "estimate"), centered=True)
    density = density_from_config(cfg)
    target = int(cfg.get("target", DEFAULTS["target"]))
    alpha = float(cfg["alpha"])
    children = np.random.SeedSequence(cfg["seed"]).spawn(len(n_grid) * reps)
    risks = np.full((len(n_grid), reps), np.nan)
    errors = 0
    m_t = int(cfg["m_target"]) if cfg.get("m_target") else None
    for i, n in enumerate(n_grid):
        for r in range(reps):
            rng = np.random.default_rng(children[i * reps + r])
            try:
                model = model_from_config(cfg, rng)
                if target not in model.J0:
                    # force the target active: relabel the first active covariate
                    J0 = list(model.J0)
                    model.theta[target] = model.theta[J0[0]]
                    model.theta[J0[0]] = np.zeros(0)
                    J0[0] = target
                    model.J0 = tuple(sorted(J0))
                X = density.sample(2 * n, cfg["q"], rng)
                Y = gen_response(model, X, rng)
                est = estimate_component(Dataset(X, Y), spec, cfg["qstar"],
                                         cfg["sigma"] ** 2, target, m_target=m_t,
                                         alpha=alpha)
                risks[i, r] = component_risk(model, est, density)
            except AddselError:
                errors += 1
    mean_risk = _mean_of_completed(risks)
    out = {"n_grid": n_grid.tolist(), "mean_risk": mean_risk.tolist(),
           "reps": reps, "errors": errors}
    if np.any(~np.isfinite(mean_risk)) or np.any(mean_risk <= 1e-28):
        out.update(slope=None, slope_band=None, degenerate=True)
        return out
    logn = np.log(n_grid)
    out["slope"] = float(np.polyfit(logn, np.log(mean_risk), 1)[0])
    rng = np.random.default_rng(np.random.SeedSequence(cfg["seed"]).spawn(1)[0])
    boot = []
    for _ in range(N_BOOT):
        idx = rng.integers(0, reps, size=reps)
        means = _mean_of_completed(risks[:, idx])
        if np.all(np.isfinite(means)) and np.all(means > 0):
            boot.append(np.polyfit(logn, np.log(means), 1)[0])
    if boot:
        lo, hi = np.percentile(boot, [2.5, 97.5])
        out["slope_band"] = [float(lo), float(hi)]
    else:
        out["slope_band"] = None
    out["degenerate"] = False
    return out
