"""Split-sample estimation of one additive component after model selection.

Half the sample picks the active covariates; the other half refits the target
component by least squares at a finer truncation level. The resulting risk
decays at the one-dimensional nonparametric rate n^(-2 alpha / (2 alpha + 1)),
untouched by the other q - 1 covariates.
"""

import numpy as np

from addsel import (BasisSpec, Dataset, UniformDensity, component_risk,
                    default_m_target, estimate_component, gen_model, gen_response,
                    rate_experiment)


def single_fit():
    print("=== one split-sample fit ===")
    model = gen_model(q=4, s=2, alpha=2.0, Kbound=40.0, kappa1_target=1.0,
                      seed=2, sigma=0.4)
    target = model.J0[0]
    X = UniformDensity().sample(1600, 4, np.random.default_rng(3))
    Y = gen_response(model, X, seed=4)
    spec = BasisSpec.create(4, 5)
    est = estimate_component(Dataset(X, Y), spec, 2, model.sigma ** 2, target)
    print(f"target covariate     {target} (active set {model.J0})")
    print(f"selected on half 1   {est.selected}")
    print(f"refit level          m_target = {est.m_target} "
          f"(rule: ceil(n^(1/(2a+1))) = {default_m_target(est.n_half, 2.0)})")
    print(f"squared L2 risk      {component_risk(model, est):.5f}")
    x = np.linspace(0.05, 0.95, 7)
    print("x        truth     fit")
    for xi, t, f in zip(x, model.component_values(target, x), est.values(x)):
        print(f"{xi:.2f} {t:9.4f} {f:9.4f}")


def rate_study():
    print("\n=== risk decay across sample sizes ===")
    cfg = dict(q=4, s=2, qstar=2, sigma=0.5, alpha=2.0, K=40.0, kappa1=1.0,
               seed=9, target=0, m_target=0, n_grid=[512, 1024, 2048, 4096],
               reps=10, m_rule="fixed:5")
    out = rate_experiment(cfg)
    print(f"{'n':>6} {'mean risk':>11}")
    for n, r in zip(out["n_grid"], out["mean_risk"]):
        print(f"{n:6d} {r:11.6f}")
    lo, hi = out["slope_band"]
    print(f"log-log slope {out['slope']:.3f}  (bootstrap band [{lo:.3f}, {hi:.3f}])")
    print("for alpha = 2 the theoretical exponent is -2*2/(2*2+1) = -0.8;")
    print("the slope reflects it once n is large enough for selection to be")
    print("reliable and the discretized truncation level to track n^(1/5).")


if __name__ == "__main__":
    single_fit()
    rate_study()
