"""Concentration diagnostics: how tight are the theoretical guarantees?

Compares closed-form chi-square tail bounds with Monte Carlo, evaluates the
restricted-isometry constant of random designs, and contrasts the proven
selection-error bound with observed failure frequencies.
"""

import numpy as np

from addsel import (BasisSpec, chi2_tail_bounds, rip_constant, run_trials,
                    selection_error_bound, subset_count_bound)
from addsel.basis import build_design_blocks


def chi_square_tails():
    print("=== chi-square tail bounds vs Monte Carlo (d = 5) ===")
    rng = np.random.default_rng(0)
    sample = rng.chisquare(5, 10 ** 5)
    print(f"{'x':>4} {'MC upper':>10} {'bound':>10} {'MC lower':>10} {'bound':>10}")
    for x in (1.0, 2.0, 5.0, 10.0):
        up, lo = chi2_tail_bounds(5, x)
        f_up = np.mean(sample - 5 >= x)
        f_lo = np.mean(sample - 5 <= -x)
        print(f"{x:4.0f} {f_up:10.4f} {up:10.4f} {f_lo:10.4f} {lo:10.4f}")
    print("the closed forms always dominate, at the price of slack.\n")


def rip_growth():
    print("=== restricted isometry constant vs sample size ===")
    rng = np.random.default_rng(1)
    spec = BasisSpec.create(6, 4)
    print(f"{'n':>6} {'delta':>8}")
    for n in (100, 200, 400, 800, 1600):
        blocks = build_design_blocks(rng.random((n, 6)), spec)
        print(f"{n:6d} {rip_constant(blocks, 2):8.3f}")
    print("empirical Grams converge to the identity at the usual 1/sqrt(n) pace.\n")


def bound_vs_reality():
    print("=== proven failure bound vs observed failure frequency ===")
    q, s, qstar, sigma = 8, 2, 2, 0.5
    spec = BasisSpec.create(q, 5)
    d_l = [spec.d_l(1), spec.d_l(2)]
    exact, bnd = subset_count_bound(q, qstar)
    print(f"candidate subsets: {exact} (combinatorial bound {bnd:.1f})")
    print(f"{'n':>6} {'observed':>9} {'bound':>12}")
    for n in (200, 400, 800):
        cfg = dict(n=n, q=q, s=s, qstar=qstar, sigma=sigma, alpha=2.0, K=40.0,
                   kappa1=1.0, trials=80, seed=7, threads=2, m_rule="fixed:5")
        _, summary = run_trials(cfg)
        observed = 1.0 - summary["success_rate"]
        bound, _ = selection_error_bound(n, sigma ** 2, 0.0, [1.0, 2.0], d_l,
                                         s, qstar, q, delta=0.5, cprime=0.002)
        print(f"{n:6d} {observed:9.3f} {min(bound, 999.0):12.4g}")
    print("the bound carries large proof constants (powers of two up to 2^14),")
    print("so it dominates reality by orders of magnitude at practical n; its")
    print("value is the exponential decay pattern, not the absolute level.")


if __name__ == "__main__":
    chi_square_tails()
    rip_growth()
    bound_vs_reality()
