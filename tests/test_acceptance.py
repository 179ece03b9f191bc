"""Acceptance battery: ten behavioral gates, one pass/fail line each.

Run with -s to see the per-criterion lines as they complete:

    pytest tests/test_acceptance.py -s

Every gate recomputes its expectation through an independent route (dense
solves, analytic moments, brute-force baselines) and checks the package
output at a fixed tolerance.  Criteria 01-04, 09 and 10 are the checks of
`sgpts verify` at their full sizes.  Budgeted gates also enforce their
wall-clock limit.
"""

import math
import time

import numpy as np

from sgpts import verify
from sgpts.benchmarks import get_benchmark, random_search
from sgpts.engine import RunConfig, resolve_config, run_sgp_ts, step_regret_bound
from sgpts.exact_gp import batch_sigma_bound, fit_exact
from sgpts.kernels import KernelSpec, tail_mass
from sgpts.sampling import decoupled_mean_cov
from sgpts.svgp import approximation_constants, precision_sup_norm
from sgpts.util import rng_from_path


def _gate(num: int, name: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num:02d}] {name}: {status} ({detail})")
    assert ok, f"criterion {num} {name}: {detail}"


def test_criterion_01_exact_gp_oracle():
    t0 = time.monotonic()
    ok, detail = verify.check_exact_oracle()
    secs = time.monotonic() - t0
    _gate(1, "exact-gp-oracle", ok and secs < 10.0, f"{detail} in {secs:.1f}s")


def test_criterion_02_svgp_collapse():
    _gate(2, "svgp-collapse", *verify.check_svgp_collapse())


def test_criterion_03_sampler_moments():
    t0 = time.monotonic()
    ok, detail = verify.check_sampler_moments()
    secs = time.monotonic() - t0
    _gate(3, "sampler-moments", ok and secs < 120.0, f"{detail} in {secs:.0f}s")


def test_criterion_04_kl_certificate():
    _gate(4, "kl-certificate", *verify.check_kl_certificate())


def test_criterion_05_assumption_audit():
    rng = rng_from_path(404, 5)
    tau = 0.5
    grid = np.linspace(0.0, 1.0, 200).reshape(-1, 1)
    tiny = 1e-9
    passed = 0
    for _ in range(20):
        data, spec, fm, model = verify._feature_instance(rng)
        q = approximation_constants(
            t=data.n, B=1, m_t=model.m_count, tau=tau, delta=0.05,
            delta_m=tail_mass(fm, model.m_count),
            delta_M=tail_mass(fm, fm.count - 1),
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
            worst_margin = min(worst_margin, step_regret_bound(rcfg, s) - cum_at[s.t])
    ok = aborted == 0 and kappa_max < 1.0 / 3.0 and worst_margin >= 0.0
    _gate(8, "theory-bound-dominance", ok,
          f"kappa max {kappa_max:.3f} (< 1/3), worst bound margin {worst_margin:.2f}, "
          f"{aborted} aborts over 5 seeds")


def test_criterion_09_schedule_arithmetic():
    _gate(9, "schedule-arithmetic", *verify.check_growth_exponents())


def test_criterion_10_determinism():
    _gate(10, "determinism", *verify.check_run_determinism())
