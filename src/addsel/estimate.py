"""Split-sample estimation of a single additive component after selection."""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil, floor

import numpy as np

from .basis import BasisSpec, DesignBlocks, basis_matrix, build_design_blocks, \
    check_unit_interval, marginal_quadrature, trig_series
from .config import DEFAULTS, fixed_m
from .densities import Density
from .errors import AddselError, AssumptionError, ConfigError
from .selection import RANK_RTOL, Dataset, select_exhaustive, select_on_blocks
from .simulate import AdditiveModel, add_noise, density_from_config, model_from_config

#: bootstrap resamples of the reps behind rate_experiment's slope band
N_BOOT = 200


@dataclass
class ComponentEstimate:
    """Least-squares fit of one component on the held-out half sample.

    ``coefficients[i]`` multiplies phi_{i+2}(x_target).
    """

    target: int
    coefficients: np.ndarray
    selected: tuple
    m_target: int
    n_half: int

    def values(self, x) -> np.ndarray:
        return trig_series(self.coefficients, x)


def default_m_target(n_half: int, alpha: float) -> int:
    """Bias-variance balancing truncation level ~ n^(1/(2 alpha + 1)), for alpha > 0."""
    if not alpha > 0:
        raise AssumptionError(f"smoothness alpha must be positive, got {alpha}")
    return max(1, int(ceil(n_half ** (1.0 / (2.0 * alpha + 1.0)))))


def _half_and_level(n2: int, spec: BasisSpec, target: int, m_target, alpha):
    """(n, m_target): the half-sample size of 2n rows and the target's level, by
    default_m_target unless given; AddselError for an odd sample or a target
    outside the q covariates."""
    if n2 < 2 or n2 % 2:
        raise AddselError(f"split-sample estimation needs an even sample size, got {n2}")
    if not 0 <= target < spec.q:
        raise AddselError(f"target covariate {target} out of range for q={spec.q}")
    n = n2 // 2
    return n, default_m_target(n, alpha) if m_target is None else m_target


def _refit(blocks: dict, Y2, target: int) -> np.ndarray:
    """The target's coefficients in one least-squares fit of Y2 / sqrt(n) on the
    second-half blocks of J_fit (covariate -> scaled block, ascending).

    One solve gives both the coefficients and the singular values of the rank
    check; AddselError when the design is rank deficient.
    """
    A = np.concatenate(list(blocks.values()), axis=1)
    coef, _, _, s = np.linalg.lstsq(A, Y2 / np.sqrt(len(Y2)), rcond=None)
    if A.shape[1] > A.shape[0] or s[-1] <= RANK_RTOL * s[0]:
        raise AddselError(
            f"second-half design for J={tuple(blocks)} is rank deficient "
            f"(smallest/largest singular value {s[-1]:.3e}/{s[0]:.3e}); "
            "reduce m_target or increase n"
        )
    start = sum(B.shape[1] for j, B in blocks.items() if j < target)
    return coef[start:start + blocks[target].shape[1]]


def estimate_component(dataset: Dataset, spec: BasisSpec, qstar: int, sigma2: float,
                       target: int, m_target: int | None = None,
                       alpha: float = 2.0) -> ComponentEstimate:
    """Select on the first half, refit by least squares on the second half.

    The target covariate is always included in the refit set, at its own
    (typically finer) truncation level m_target.
    """
    n, m_target = _half_and_level(dataset.n, spec, target, m_target, alpha)
    first = Dataset(dataset.X[:n], dataset.Y[:n])
    result = select_exhaustive(first, spec, qstar, sigma2)
    J_fit = sorted(set(result.chosen) | {target})

    # m_j = 1 outside J_fit: those covariates get blocks without columns
    m_fit = [spec.m[j] if j in J_fit else 1 for j in range(spec.q)]
    m_fit[target] = max(m_target, 2)
    design = build_design_blocks(dataset.X[n:], BasisSpec.create(spec.q, m_fit))
    theta = _refit({j: design.blocks[j] for j in J_fit}, dataset.Y[n:], target)
    return ComponentEstimate(target=target, coefficients=np.asarray(theta, dtype=float),
                             selected=result.chosen, m_target=m_target, n_half=n)


def _simulated_estimate(model: AdditiveModel, X, rng, spec: BasisSpec, qstar: int,
                        sigma2: float, target: int, m_target: int | None,
                        alpha: float) -> ComponentEstimate:
    """``estimate_component(Dataset(X, gen_response(model, X, rng)), ...)`` bit for
    bit, with each covariate's harmonics evaluated once.

    Each covariate gets one unscaled basis_matrix table, on all 2n rows for the
    active covariates and the target and on the first n rows for the others, as
    wide as the response, the selection and the refit need. The response, the
    first-half blocks (written into one first-half design matrix) and the
    second-half refit blocks are its slices, through
    the reference path's operations in its order: a row slice or a column
    prefix of basis_matrix(ks, x) is basis_matrix on that slice or prefix,
    bitwise. Only a selected covariate that is neither active nor the target
    is evaluated again, on the second half.
    """
    n, m_target = _half_and_level(len(X), spec, target, m_target, alpha)
    check_unit_interval(X)
    scale = np.sqrt(n)
    m_fit = {j: spec.m[j] for j in model.J0}
    m_fit[target] = max(m_target, 2)
    f = np.zeros(2 * n)
    dims = [spec.dim(j) for j in range(spec.q)]
    first = DesignBlocks.from_matrix(np.empty((n, sum(dims))), dims)
    second = {}
    for j in range(spec.q):
        theta_j = model.theta[j] if j in model.J0 else ()
        width = max(spec.m[j], len(theta_j) + 1, m_fit.get(j, 1))
        table = basis_matrix(np.arange(2, width + 1), X[:, j] if j in m_fit else X[:n, j])
        if j in model.J0:
            # gen_response's product: a contiguous (2n, len(theta_j)) matrix
            f += np.ascontiguousarray(table[:, :len(theta_j)]) @ theta_j
        np.divide(table[:n, :dims[j]], scale, out=first.blocks[j])
        if j in m_fit:
            second[j] = table[n:, :m_fit[j] - 1] / scale
        del table
    Y = add_noise(model, f, rng)
    Dataset(X, Y)  # refuses non-finite entries
    result = select_on_blocks(first, Y[:n], spec, qstar, sigma2)
    del first
    blocks = {j: second[j] if j in second
              else basis_matrix(spec.basis_indices(j), X[n:, j]) / scale
              for j in sorted(set(result.chosen) | {target})}
    theta = _refit(blocks, Y[n:], target)
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


def _percentiles(values, ps):
    """np.percentile(values, ps) under numpy's default linear method, bit for bit,
    for percentiles ps in [0, 100]; as floats, NaN for each when any value is NaN.

    numpy's own routine calls np.unique, which loads numpy.ma. Each p reads
    the values at the virtual index v = (n - 1) p / 100 and lerps from the
    lower neighbour for a weight t below 0.5 and back from the upper one
    otherwise, as numpy's _lerp does; from v >= n - 1 on both neighbours are
    the last value (index -1) and t = v + 1. The values are partitioned at the
    same sorted indexes as numpy's, so even tied zeros of either sign land alike.
    """
    a = np.array(values, dtype=float)
    n = len(a)
    spots = []
    for p in ps:
        v = (n - 1) * (p / 100)
        i = floor(v) if v < n - 1 else -1
        spots.append((v, i, i + 1 if i >= 0 else -1))
    a.partition(sorted({0, -1}.union(*((i, j) for _, i, j in spots))))
    if np.isnan(a[-1]):
        return [float("nan")] * len(spots)
    out = []
    for v, i, j in spots:
        t = v - i
        d = a[j] - a[i]
        out.append(float(a[j] - d * (1 - t) if t >= 0.5 else a[i] + d * t))
    return out


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
    if len(n_grid) < 3 or np.any(np.diff(n_grid) <= 0) or n_grid[0] < 1:
        raise AddselError("n_grid must be positive and increasing with at least 3 points")
    spec = BasisSpec.create(cfg["q"], fixed_m(cfg, "estimate"))
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
                est = _simulated_estimate(model, X, rng, spec, cfg["qstar"],
                                          cfg["sigma"] ** 2, target, m_t, alpha)
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
        out["slope_band"] = _percentiles(boot, (2.5, 97.5))
    else:
        out["slope_band"] = None
    out["degenerate"] = False
    return out
