"""Acceptance gate: twelve end-to-end criteria, one pass/fail line each.

Criterion 3 checks the chain 1 - eps_{2q*} >= (1 - rho_{q*})^(ceil(log2 q*) + 1)
between the eigenvalue-spread constant and the minimal-angle cosine, which
follows from |f+g|^2 >= (1 - rho)(|f|^2 + |g|^2) by recursive halving.
"""

import json

import numpy as np
import pytest

from addsel import (BasisSpec, Dataset, GaussianCopulaDensity, PopulationGeometry,
                    UniformDensity, approximation_decay_experiment,
                    chi2_tail_bounds, check_ric_chain,
                    event_E_check, m_lower_bound, phi_2qstar, rate_experiment,
                    rip_constant, run_trials, sample_subsets,
                    selection_error_bound)
from addsel import geometry
from addsel.basis import DesignBlocks, build_design_blocks, full_block_gram
from addsel.cli import main as cli_main
from addsel.diagnostics import event_E_from_grams
from addsel.geometry import (_inv_sqrt, epsilons_from_gram,
                             population_projection_gap, rho_from_gram)
from addsel.selection import empirical_projection_gap, project, project_norm_sq


def _report(num, name, ok, detail=""):
    line = f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {name}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def _random_block_gram(rng, q=4, dim=2, rows=None):
    """Random correlated Gram with identity diagonal blocks."""
    d = q * dim
    if rows is None:
        rows = int(rng.integers(3 * d, 40 * d))
    A = rng.standard_normal((rows, d))
    G = A.T @ A / rows
    slices = [slice(j * dim, (j + 1) * dim) for j in range(q)]
    W = np.zeros_like(G)
    for s in slices:
        W[s, s] = _inv_sqrt(G[s, s])
    G = W @ G @ W
    return 0.5 * (G + G.T), slices


def test_criterion_01_empirical_pythagoras():
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(100):
        n, q = 60, 5
        X = rng.random((n, q))
        spec = BasisSpec.create(q, 4)
        blocks = build_design_blocks(X, spec)
        J0 = tuple(sorted(rng.choice(q, size=2, replace=False)))
        c = rng.standard_normal(spec.d_J(J0))
        f = blocks.concat(J0) @ c * np.sqrt(n)  # f lies in the additive span
        J = tuple(sorted(rng.choice(q, size=int(rng.integers(0, 3)), replace=False)))
        ds = Dataset(X, np.zeros(n))
        gap = empirical_projection_gap(ds, spec, J, J0, f, blocks=blocks)
        resid = f - project(blocks.concat(J), f)
        direct = resid @ resid / n
        worst = max(worst, abs(gap - direct) / (f @ f / n))
    _report(1, "empirical Pythagoras identity", worst <= 1e-8,
            f"max relative deviation {worst:.2e}")


def test_criterion_02_population_projection_gap():
    rng = np.random.default_rng(202)
    qstar = 2
    violations = 0
    for _ in range(100):
        G, slices = _random_block_gram(rng)
        q = len(slices)
        rho = rho_from_gram(G, slices, qstar)
        J0 = tuple(sorted(rng.choice(q, size=2, replace=False)))
        size = int(rng.integers(1, qstar + 1))
        J = tuple(sorted(rng.choice(q, size=size, replace=False)))
        missed = sorted(set(J0) - set(J))
        if not missed:
            continue
        coef = np.zeros(G.shape[0])
        for j in J0:
            coef[slices[j]] = rng.standard_normal(slices[j].stop - slices[j].start)
        gap = population_projection_gap(G, slices, J, coef)
        c2 = np.zeros_like(coef)
        for j in missed:
            c2[slices[j]] = coef[slices[j]]
        missed_norm = float(c2 @ G @ c2)
        if gap < (1.0 - rho * rho) * missed_norm - 1e-10:
            violations += 1
    _report(2, "population projection gap lower bound", violations == 0,
            f"{violations} violations in 100 instances")


def test_criterion_03_eigenvalue_chain():
    # check of: 1 - eps_{2q*} >= (1 - rho_{q*})^(ceil(log2 q*) + 1).
    # Two subspaces at cosine rho give |f+g|^2 >= (1 - rho)(|f|^2 + |g|^2);
    # halving |J| <= 2q* down to single blocks takes ceil(log2 q*) + 1 levels.
    rng = np.random.default_rng(303)
    qstar = 2
    violations = 0
    for _ in range(100):
        G, slices = _random_block_gram(rng)
        rho = rho_from_gram(G, slices, qstar)
        eps, _ = epsilons_from_gram(G, slices, qstar)
        if not check_ric_chain(rho, eps, qstar):
            violations += 1
    _report(3, "eigenvalue-spread vs angle chain inequality", violations == 0,
            f"{violations} violations in 100 random designs")


def test_criterion_04_sup_norm_ratio_bound(monkeypatch):
    # the whole 4096 x 4096 grid for |J| = 2, not the halved default
    monkeypatch.setattr(geometry, "GRID_BUDGET", 4096 ** 2)
    spec = BasisSpec.create(3, 5)
    qstar = 1
    failures = []
    for dens, label in ((UniformDensity(), "uniform"),
                        (GaussianCopulaDensity(r=0.3), "copula r=0.3"),
                        (GaussianCopulaDensity(r=0.6), "copula r=0.6")):
        phi = phi_2qstar(spec, dens, qstar, grid_size=4096)
        eps, _ = PopulationGeometry(spec, dens, qstar).epsilons()
        c = dens.c
        if phi ** 2 > 2.0 / (c * (1.0 - eps)) + 1e-10:
            failures.append(label)
    _report(4, "sup-norm ratio upper bound", not failures,
            f"violations: {failures or 'none'}")


def test_criterion_05_chi_square_tails():
    rng = np.random.default_rng(505)
    n_mc = 10 ** 5
    bad = []
    for d in (1, 2, 5, 20):
        sample = rng.chisquare(d, n_mc)
        for x in (1.0, 2.0, 5.0, 10.0, 20.0):
            up, lo = chi2_tail_bounds(d, x)
            f_up = np.mean(sample - d >= x)
            f_lo = np.mean(sample - d <= -x)
            se_up = np.sqrt(f_up * (1 - f_up) / n_mc)
            se_lo = np.sqrt(f_lo * (1 - f_lo) / n_mc)
            if f_up > up + 3 * se_up or f_lo > lo + 3 * se_lo:
                bad.append((d, x))
    _report(5, "chi-square tail bounds dominate Monte Carlo", not bad,
            f"violations: {bad or 'none'}")


def test_criterion_06_noiseless_exact_recovery():
    total = exact = 0
    for q, s, n in ((8, 2, 100), (12, 3, 200)):
        cfg = dict(n=n, q=q, s=s, qstar=s, sigma=0.0, alpha=2.0, K=40.0,
                   kappa1=1.0, trials=25, seed=606, threads=1,
                   m_rule="fixed:7", tail_fraction=0.0)
        records, summary = run_trials(cfg)
        total += summary["completed"]
        exact += round(summary["exact_rate"] * summary["completed"])
    _report(6, "noiseless exact recovery", exact == total == 50,
            f"{exact}/{total} exact")


# shared between criteria 7 and 8
_C7_GRID = (100, 200, 400, 800)
_C7_CFG = dict(q=8, s=2, qstar=2, sigma=0.5, alpha=2.0, K=40.0, kappa1=1.0,
               m_rule="eq7", cprime=0.002, delta=0.5, trials=200, seed=707,
               threads=4, tail_fraction=0.0)
_c7_results = {}


def _run_c7_grid():
    if not _c7_results:
        for n in _C7_GRID:
            cfg = dict(_C7_CFG, n=n)
            _, summary = run_trials(cfg)
            _c7_results[n] = summary
    return _c7_results


def test_criterion_07_consistency_trend():
    res = _run_c7_grid()
    rates = [res[n]["exact_rate"] for n in _C7_GRID]
    ses = [res[n]["exact_stderr"] for n in _C7_GRID]
    ok_final = rates[-1] >= 0.95
    ok_mono = all(
        rates[i + 1] >= rates[i] - 2.0 * np.hypot(ses[i], ses[i + 1])
        for i in range(len(rates) - 1)
    )
    _report(7, "exact-recovery frequency rises with n", ok_final and ok_mono,
            "rates " + ", ".join(f"{r:.3f}" for r in rates))


def test_criterion_08_bound_dominance():
    res = _run_c7_grid()
    m = m_lower_bound(1.0, _C7_CFG["K"], 2, 0.0, _C7_CFG["cprime"], 0.0, 1.0, 2.0)
    spec = BasisSpec.create(_C7_CFG["q"], m)
    d_l = [spec.d_l(1), spec.d_l(2)]
    dens = UniformDensity()
    rng = np.random.default_rng(808)
    details = []
    ok = True
    for n in _C7_GRID:
        fail_freq = 1.0 - res[n]["success_rate"]
        se = np.sqrt(fail_freq * (1.0 - fail_freq) / res[n]["completed"])
        # Monte Carlo estimate of the norm-equivalence failure probability
        misses = 0
        reps = 8
        for _ in range(reps):
            X = dens.sample(n, _C7_CFG["q"], rng)
            holds, _ = event_E_check(Dataset(X, np.zeros(n)), spec, dens, 2,
                                     (0, 1), _C7_CFG["delta"])
            misses += not holds
        p_ec = misses / reps
        bound, _ = selection_error_bound(
            n, _C7_CFG["sigma"] ** 2, 0.0, [1.0, 2.0], d_l, 2, 2,
            _C7_CFG["q"], _C7_CFG["delta"], _C7_CFG["cprime"], p_event_c=p_ec)
        details.append(f"n={n}: freq {fail_freq:.3f} <= bound {min(bound, 99.0):.3g}")
        if fail_freq > bound + 3 * se:
            ok = False
    _report(8, "failure frequency below theoretical bound", ok, "; ".join(details))


def test_criterion_09_gaussian_rip_regime():
    n, q, qstar = 400, 100, 5
    trials = 50
    rng = np.random.default_rng(909)
    below = 0
    identity_ok = True
    for t in range(trials):
        A = rng.standard_normal((n, q)) / np.sqrt(n)
        blocks = DesignBlocks([A[:, j:j + 1] for j in range(q)])
        subsets = sample_subsets(q, qstar, 2000, seed=t)
        delta_hat = rip_constant(blocks, qstar, subsets=subsets)
        below += delta_hat <= 0.5
        # the norm-equivalence event must coincide with {delta <= threshold}
        G_emp = A.T @ A
        slices = [slice(j, j + 1) for j in range(q)]
        # probe thresholds on both sides of the boundary; the two code paths
        # agree only up to floating point, so avoid the exact tie
        for thr in (0.3, 0.5, delta_hat - 1e-9, delta_hat + 1e-9):
            holds, dev = event_E_from_grams(G_emp, np.eye(q), slices, qstar,
                                            (), thr, subsets=subsets)
            if holds != (delta_hat <= thr) or abs(dev - delta_hat) > 1e-10:
                identity_ok = False
    ok = below >= 0.95 * trials and identity_ok
    _report(9, "Gaussian design RIP regime", ok,
            f"delta<=0.5 in {below}/{trials} trials, event identity "
            f"{'exact' if identity_ok else 'BROKEN'}")


def test_criterion_10_approximation_rates():
    grid = [8, 16, 32, 64, 128]
    bad = []
    for alpha in (1.0, 2.0):
        out = approximation_decay_experiment(alpha, 30.0, grid, seed=10)
        if abs(out["l2_slope"] - (-2.0 * alpha)) > 0.3:
            bad.append(("l2", alpha, out["l2_slope"]))
        if abs(out["sup_slope"] - (-(2.0 * alpha - 1.0))) > 0.3:
            bad.append(("sup", alpha, out["sup_slope"]))
    _report(10, "truncation-error decay rates", not bad,
            f"off-target slopes: {bad or 'none'}")


def test_criterion_11_component_estimation_rate():
    cfg = dict(q=4, s=2, qstar=2, sigma=0.5, alpha=2.0, K=40.0, kappa1=1.0,
               seed=1111, target=0, m_target=0,
               n_grid=[512, 1024, 2048, 4096, 8192], reps=20,
               m_rule="fixed:5", tail_fraction=0.0)
    out = rate_experiment(cfg)
    slope = out["slope"]
    ok = out["errors"] == 0 and slope is not None and abs(slope - (-0.8)) <= 0.15
    _report(11, "component estimation risk rate", ok,
            f"slope {slope:.3f} vs target -0.8 +/- 0.15")


def test_criterion_12_cli_determinism(tmp_path):
    cfg_path = tmp_path / "cfg.txt"
    cfg_path.write_text("n = 120\nq = 5\ns = 2\nqstar = 2\nsigma = 0.3\n"
                        "trials = 4\nseed = 12\n")
    ok = True
    for command in ("geometry", "simulate", "diagnose"):
        a = tmp_path / f"{command}_a.jsonl"
        b = tmp_path / f"{command}_b.jsonl"
        rc1 = cli_main([command, "--config", str(cfg_path), "--out", str(a)])
        rc2 = cli_main([command, "--config", str(cfg_path), "--out", str(b),
                        "--threads", "3"])
        if rc1 or rc2 or a.read_bytes() != b.read_bytes():
            ok = False
    _report(12, "byte-identical reruns for fixed seed", ok)
