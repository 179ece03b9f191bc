"""Acceptance battery: ten behavioral gates, one pass/fail line each.

Run with -s to see the per-criterion lines as they complete:

    pytest tests/test_acceptance.py -s

Every gate recomputes its expectation through an independent route (dense
solves, analytic moments, brute-force baselines) and checks the package
output at a fixed tolerance.  Budgeted gates also enforce their wall-clock
limit.
"""

import math
import time
from fractions import Fraction

import numpy as np

from sgpts.benchmarks import get_benchmark, random_search
from sgpts.engine import (
    RunConfig,
    growth_exponents,
    growth_schedule,
    regret_bound,
    resolve_config,
    run_sgp_ts,
)
from sgpts.exact_gp import Dataset, batch_sigma_bound, fit_exact
from sgpts.kernels import KernelSpec, kernel_matrix, mercer_truncate, rff_sample, tail_mass
from sgpts.sampling import DrawSetup, decoupled_mean_cov, derive_seed
from sgpts.svgp import (
    approximation_constants,
    elbo,
    fit_svgp_closed_form,
    kl_to_exact,
    precision_sup_norm,
    trace_residual,
)
from sgpts.util import rng_from_path


def _gate(num: int, name: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num:02d}] {name}: {status} ({detail})")
    assert ok, f"criterion {num} {name}: {detail}"


def _feature_instance(rng, n=12, m=14, tau=0.5):
    """Feature-variant fit on separated inputs; the shared audit family."""
    spec = KernelSpec(family="se", dim=1, lengthscales=(0.25,))
    fm = mercer_truncate(spec, 128, [0.0], [1.0])
    X = np.linspace(0.04, 0.96, n).reshape(-1, 1) + rng.uniform(-0.02, 0.02, (n, 1))
    data = Dataset(X, 0.5 * rng.normal(size=n), 1, n)
    model = fit_svgp_closed_form(data, spec, tau, feature_map=fm, m=m)
    return data, spec, fm, model


def test_criterion_01_exact_gp_oracle():
    t0 = time.monotonic()
    rng = rng_from_path(404, 1)
    worst = 0.0
    for i in range(100):
        d = int(rng.integers(1, 4))
        n = int(rng.integers(2, 31))
        X = rng.uniform(0.0, 1.0, size=(n, d))
        y = rng.normal(size=n)
        if i % 2 == 0:
            spec = KernelSpec(family="se", dim=d,
                              lengthscales=(float(rng.uniform(0.2, 0.6)),) * d)
        else:
            spec = KernelSpec(family="matern", dim=d, nu=(1.5, 2.5)[i % 4 == 1],
                              lengthscales=(float(rng.uniform(0.2, 0.6)),) * d)
        tau = float(rng.uniform(0.05, 0.5))
        post = fit_exact(Dataset(X, y, 1, n), spec, tau)
        Xs = rng.uniform(0.0, 1.0, size=(7, d))
        mean, var = post.predict(Xs)
        K = kernel_matrix(spec, X) + tau * np.eye(n)
        Ks = kernel_matrix(spec, Xs, X)
        mean_o = Ks @ np.linalg.solve(K, y)
        var_o = spec.variance - np.sum(Ks * np.linalg.solve(K, Ks.T).T, axis=1)
        worst = max(worst, float(np.abs(mean - mean_o).max()),
                    float(np.abs(var - var_o).max()))
    secs = time.monotonic() - t0
    ok = worst <= 1e-8 and secs < 10.0
    _gate(1, "exact-gp-oracle", ok,
          f"max deviation {worst:.2e} over 100 instances in {secs:.1f}s")


def test_criterion_02_svgp_collapse():
    rng = rng_from_path(404, 2)
    worst = 0.0
    worst_theta = 0.0
    for _ in range(20):
        n = int(rng.integers(5, 15))
        X = np.linspace(0.05, 0.95, n).reshape(-1, 1) + rng.uniform(-0.01, 0.01, (n, 1))
        data = Dataset(X, rng.normal(size=n), 1, n)
        spec = KernelSpec(family="se", dim=1, lengthscales=(0.14,))
        tau = float(rng.uniform(0.1, 0.4))
        exact = fit_exact(data, spec, tau)
        model = fit_svgp_closed_form(data, spec, tau, Z=X)
        Xs = np.linspace(0.0, 1.0, 15).reshape(-1, 1)
        me, ve = exact.predict(Xs)
        ma, va = model.predict(Xs)
        worst = max(worst, float(np.abs(me - ma).max()), float(np.abs(ve - va).max()),
                    abs(elbo(data, model) - exact.log_marginal()))
        worst_theta = max(worst_theta, trace_residual(data, model))
    ok = worst <= 1e-6 and worst_theta <= 1e-8
    _gate(2, "svgp-collapse", ok,
          f"max gap {worst:.2e}, max trace residual {worst_theta:.2e} over 20 instances")


def test_criterion_03_sampler_moments():
    t0 = time.monotonic()
    rng = rng_from_path(404, 3)
    n = 20
    X = np.linspace(0.03, 0.97, n).reshape(-1, 1) + rng.uniform(-0.01, 0.01, (n, 1))
    y = np.sin(6.0 * X[:, 0]) + 0.3 * rng.normal(size=n)
    data = Dataset(X, y, 1, n)
    spec = KernelSpec(family="se", dim=1, lengthscales=(0.2,))
    tau = 0.2
    model = fit_svgp_closed_form(data, spec, tau, Z=X)
    exact = fit_exact(data, spec, tau)
    fm = rff_sample(spec, 4000, seed=17)
    probes = np.array([[0.1], [0.3], [0.5], [0.7], [0.9]])
    me, ve = exact.predict(probes)
    # realized truncation defect of the sampling rule at the probes
    _, cov_s = decoupled_mean_cov(model, fm, 1.0, probes)
    slack = np.abs(np.diag(cov_s) - ve)
    n_draws = 20_000
    s1, s2 = DrawSetup(model, fm, 1.0), DrawSetup(model, fm, 2.0)
    d1 = np.stack([s1.draw(np.random.default_rng(derive_seed(1001, b))).eval_many(probes)
                   for b in range(n_draws)])
    d2 = np.stack([s2.draw(np.random.default_rng(derive_seed(1002, b))).eval_many(probes)
                   for b in range(n_draws)])
    mean_gap = np.abs(d1.mean(axis=0) - me)
    se = np.sqrt(ve / n_draws)
    v1 = d1.var(axis=0, ddof=1)
    ratio2 = d2.var(axis=0, ddof=1) / ve
    mean_ok = bool(np.all(mean_gap <= 4.0 * se))
    var_ok = bool(np.all((v1 >= 0.9 * ve - slack) & (v1 <= 1.1 * ve + slack)))
    alpha_ok = bool(np.all((ratio2 >= 3.6) & (ratio2 <= 4.4)))
    secs = time.monotonic() - t0
    ok = mean_ok and var_ok and alpha_ok and secs < 120.0
    _gate(3, "sampler-moments", ok,
          f"worst mean gap {mean_gap.max():.4f} vs 4se {float((4*se).max()):.4f}, "
          f"var ratio [{float((v1/ve).min()):.3f}, {float((v1/ve).max()):.3f}], "
          f"alpha=2 ratio [{ratio2.min():.3f}, {ratio2.max():.3f}] in {secs:.0f}s")


def test_criterion_04_kl_certificate():
    rng = rng_from_path(404, 4)
    tau = 0.5
    worst_margin = -np.inf
    worst_size = 0.0
    for _ in range(10):
        data, spec, fm, model = _feature_instance(rng, tau=tau)
        delta_m = tail_mass(fm, model.m_count, fm.count)
        sizing = 2.0 * data.n * delta_m / tau
        worst_size = max(worst_size, sizing)
        kl = kl_to_exact(data, model)
        theta = trace_residual(data, model)
        worst_margin = max(worst_margin, kl - theta / tau)
    ok = worst_size < 0.1 and worst_margin <= 0.0
    _gate(4, "kl-certificate", ok,
          f"sizing max {worst_size:.2e} (< 0.1), worst KL minus budget {worst_margin:.2e}")


def test_criterion_05_assumption_audit():
    rng = rng_from_path(404, 5)
    tau = 0.5
    grid = np.linspace(0.0, 1.0, 200).reshape(-1, 1)
    tiny = 1e-9
    passed = 0
    for _ in range(20):
        data, spec, fm, model = _feature_instance(rng, tau=tau)
        q = approximation_constants(
            t=data.n, B=1, m_t=model.m_count, tau=tau, delta=0.05,
            delta_m=tail_mass(fm, model.m_count, fm.count),
            delta_M=tail_mass(fm, fm.count - 1, fm.count),
            prec_norm=precision_sup_norm(model), variant="features",
        )
        exact = fit_exact(data, spec, tau)
        mu, var = exact.predict(grid)
        sig = np.sqrt(np.maximum(var, 0.0))
        mu_a, _ = model.predict(grid)
        _, cov_s = decoupled_mean_cov(model, fm, 1.0, grid)
        sig_s = np.sqrt(np.maximum(np.diag(cov_s), 0.0))
        mean_ok = np.all(np.abs(mu_a - mu) <= q.c * sig + tiny)
        upper_ok = np.all(sig_s <= q.a_over * sig + q.eps + tiny)
        lower_ok = np.all(sig_s >= sig / q.a_under - q.eps - tiny)
        passed += bool(mean_ok and upper_ok and lower_ok)
    _gate(5, "assumption-audit", passed >= 19,
          f"{passed}/20 trials sandwiched on the 200-point grid")


def test_criterion_06_batch_sigma_lemma():
    worst = -np.inf
    runs = 0
    for objective in ("multimodal1d", "multimodal2d"):
        bench = get_benchmark(objective)
        for T, B in ((3, 2), (4, 3), (3, 3)):
            for seed in range(5):
                cfg = RunConfig(objective=objective, T=T, B=B, m=8, M=96,
                                lengthscale=(0.2,), grid_cap=800)
                log = run_sgp_ts(cfg, bench, seed)
                rcfg = resolve_config(cfg, bench)
                spec = KernelSpec(family=rcfg.kernel, dim=bench.dim,
                                  lengthscales=rcfg.lengthscale, variance=rcfg.variance)
                lhs, rhs = batch_sigma_bound(log.to_dataset(), spec, rcfg.tau)
                worst = max(worst, lhs - rhs)
                runs += 1
    _gate(6, "batch-sigma-lemma", runs == 30 and worst <= 1e-9,
          f"worst lhs minus rhs {worst:.2e} over {runs} recorded runs")


def test_criterion_07_regret_vs_random():
    bench1 = get_benchmark("multimodal1d")
    cfg1 = RunConfig(objective="multimodal1d", T=30, B=10, m=20, M=256,
                     lengthscale=(0.05,), inducing="greedy", grid_cap=2000)
    t0 = time.monotonic()
    finals, halves = [], []
    for seed in range(10):
        log = run_sgp_ts(cfg1, bench1, seed)
        finals.append(log.final_simple_regret)
        cum = {r.t: r.cum_regret for r in log.rows}
        halves.append((cum[15] / 150.0, (cum[30] - cum[15]) / 150.0))
    secs1 = time.monotonic() - t0
    rand1 = float(np.mean([random_search(bench1, bench1.noise_var, 300, s, 10)
                           .final_simple_regret for s in range(10)]))
    ours1 = float(np.mean(finals))
    first = float(np.mean([h[0] for h in halves]))
    second = float(np.mean([h[1] for h in halves]))
    part1 = ours1 < 0.5 * rand1 and second < first and secs1 < 300.0

    bench2 = get_benchmark("hartmann6")
    cfg2 = RunConfig(objective="hartmann6", T=25, B=20, m=100, M=512,
                     lengthscale=(0.2,), features="rff", inducing="kmeans",
                     grid_cap=40000)
    t1 = time.monotonic()
    ours2 = float(np.mean([run_sgp_ts(cfg2, bench2, s).final_simple_regret
                           for s in range(5)]))
    secs2 = time.monotonic() - t1
    rand2 = float(np.mean([random_search(bench2, bench2.noise_var, 500, s, 20)
                           .final_simple_regret for s in range(5)]))
    part2 = rand2 >= 2.0 * ours2 and secs2 < 1200.0

    _gate(7, "regret-vs-random", part1 and part2,
          f"1d: {ours1:.4f} vs random {rand1:.4f}, per-eval halves "
          f"{first:.4f}->{second:.4f}, {secs1:.0f}s; hartmann6: {ours2:.3f} vs "
          f"random {rand2:.3f} ({rand2/max(ours2,1e-12):.1f}x), {secs2:.0f}s")


def test_criterion_08_theory_bound_dominance():
    bench = get_benchmark("multimodal1d")
    cfg = RunConfig(objective="multimodal1d", T=10, B=2, variant="features",
                    lengthscale=(0.2,), m=14, M=128, alpha_mode="theoretical",
                    delta=0.2, grid_cap=800)
    rcfg = resolve_config(cfg, bench)
    worst_margin = np.inf
    kappa_max = 0.0
    aborted = 0
    for seed in range(5):
        log = run_sgp_ts(cfg, bench, seed)
        aborted += log.aborted
        cum_at = {r.t: r.cum_regret for r in log.rows}
        for s in log.steps:
            if not math.isnan(s.kappa_t):
                kappa_max = max(kappa_max, s.kappa_t)
            b = regret_bound(
                T=s.t, B=rcfg.B, tau=rcfg.tau, gamma_T=s.gamma_t, beta_T=s.beta_t,
                alpha_T=s.alpha_t,
                a_over=1.0 if math.isnan(s.a_over_t) else s.a_over_t,
                eps=0.0 if math.isnan(s.eps_t) else s.eps_t, b_norm=rcfg.b_norm,
            )
            worst_margin = min(worst_margin, b - cum_at[s.t])
    ok = aborted == 0 and kappa_max < 1.0 / 3.0 and worst_margin >= 0.0
    _gate(8, "theory-bound-dominance", ok,
          f"kappa max {kappa_max:.3f} (< 1/3), worst bound margin {worst_margin:.2f}, "
          f"{aborted} aborts over 5 seeds")


def test_criterion_09_schedule_arithmetic():
    cases_ok = (
        growth_exponents(2.5, 1, "features") == (Fraction(1, 5), Fraction(6, 25))
        and growth_exponents(2.5, 1, "points") == (Fraction(1, 2), Fraction(3, 10))
        and growth_exponents(1.5, 2, "points") == (Fraction(4), Fraction(10, 3))
        and growth_schedule("matern", 2.5, 1, 1024, "features") == (4, 6)
        and growth_schedule("se", 2.5, 1, math.e ** 3, "features") == (3, 3)
        and growth_schedule("se", 2.5, 2, math.e ** 2, "points") == (4, 4)
        and growth_schedule("se", 2.5, 3, math.e ** 2, "features") == (8, 8)
    )
    _gate(9, "schedule-arithmetic", bool(cases_ok),
          "exponent fractions and log-power sizes match exactly")


def test_criterion_10_determinism():
    specs = [
        (RunConfig(objective="multimodal2d", T=3, B=3, m=8, M=96,
                   lengthscale=(0.2,), grid_cap=400), "multimodal2d"),
        (RunConfig(objective="multimodal1d", T=3, B=2, variant="features", m=14,
                   M=128, lengthscale=(0.2,), alpha_mode="theoretical", delta=0.2,
                   grid_cap=400), "multimodal1d"),
    ]
    identical = True
    for cfg, objective in specs:
        bench = get_benchmark(objective)
        a = run_sgp_ts(cfg, bench, 5)
        b = run_sgp_ts(cfg, bench, 5)
        identical = identical and a.to_csv().encode() == b.to_csv().encode()
        identical = identical and a.steps_to_csv().encode() == b.steps_to_csv().encode()
    _gate(10, "determinism", identical,
          "repeated runs give byte-identical run and step CSVs")
