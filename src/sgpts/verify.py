"""Self-contained correctness checks runnable from the command line.

Each check builds fresh random instances, recomputes the expected answer
through an independent dense or analytic route, and compares.  The quick
level keeps every check small enough for the whole battery to finish within
a minute; the full level raises the Monte-Carlo draw counts to the scale the
moment tolerances are stated at.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np
from scipy.stats import norm

from .benchmarks import get_benchmark
from .engine import RunConfig, growth_exponents, run_sgp_ts
from .exact_gp import Dataset, batch_sigma_bound, fit_exact
from .kernels import KernelSpec, kernel_matrix, mercer_truncate, rff_sample
from .sampling import DrawSetup, derive_seed
from .svgp import elbo, fit_svgp_closed_form, kl_to_exact, trace_residual
from .util import rng_from_path


@dataclass(frozen=True)
class CheckResult:
    name: str
    ok: bool
    detail: str
    seconds: float


def _timed(name, fn):
    t0 = time.time()
    ok, detail = fn()
    return CheckResult(name, bool(ok), detail, time.time() - t0)


def _random_instance(rng, d, n, lengthscale):
    X = rng.uniform(0.0, 1.0, size=(n, d))
    y = rng.normal(scale=1.0, size=n)
    spec = KernelSpec(family="se", dim=d, lengthscales=(lengthscale,) * d)
    return Dataset(X, y, 1, n), spec


def check_exact_oracle(instances: int = 20) -> tuple[bool, str]:
    """Posterior mean/variance against a dense linear solve."""
    rng = rng_from_path(2024, 1)
    worst = 0.0
    for i in range(instances):
        d = int(rng.integers(1, 3))
        n = int(rng.integers(3, 25))
        data, spec = _random_instance(rng, d, n, 0.3)
        tau = float(rng.uniform(0.05, 0.5))
        post = fit_exact(data, spec, tau)
        Xs = rng.uniform(0, 1, size=(7, d))
        mean, var = post.predict(Xs)
        K = kernel_matrix(spec, data.X) + tau * np.eye(n)
        Ks = kernel_matrix(spec, Xs, data.X)
        mean_o = Ks @ np.linalg.solve(K, data.y)
        var_o = spec.variance - np.sum(Ks * np.linalg.solve(K, Ks.T).T, axis=1)
        worst = max(worst, float(np.abs(mean - mean_o).max()),
                    float(np.abs(var - var_o).max()))
    return worst <= 1e-8, f"max deviation {worst:.2e} over {instances} instances"


def check_svgp_collapse(instances: int = 5) -> tuple[bool, str]:
    """Full-rank variational fit must equal the exact posterior."""
    rng = rng_from_path(2024, 2)
    worst = 0.0
    worst_theta = 0.0
    for i in range(instances):
        n = int(rng.integers(5, 12))
        X = np.linspace(0.05, 0.95, n).reshape(-1, 1) + rng.uniform(-0.01, 0.01, (n, 1))
        data = Dataset(X, rng.normal(size=n), 1, n)
        spec = KernelSpec(family="se", dim=1, lengthscales=(0.14,))
        tau = float(rng.uniform(0.1, 0.4))
        exact = fit_exact(data, spec, tau)
        model = fit_svgp_closed_form(data, spec, tau, Z=X)
        Xs = np.linspace(0, 1, 15).reshape(-1, 1)
        me, ve = exact.predict(Xs)
        ma, va = model.predict(Xs)
        worst = max(worst, float(np.abs(me - ma).max()), float(np.abs(ve - va).max()),
                    abs(elbo(data, model) - exact.log_marginal()))
        worst_theta = max(worst_theta, trace_residual(data, model))
    ok = worst <= 1e-6 and worst_theta <= 1e-8
    return ok, f"max gap {worst:.2e}, max trace residual {worst_theta:.2e}"


def check_sampler_moments(n_draws: int = 1500) -> tuple[bool, str]:
    """Empirical draw moments against the exact posterior on a collapse case."""
    rng = rng_from_path(2024, 3)
    n = 10
    X = np.linspace(0.05, 0.95, n).reshape(-1, 1) + rng.uniform(-0.01, 0.01, (n, 1))
    data = Dataset(X, rng.normal(size=n), 1, n)
    spec = KernelSpec(family="se", dim=1, lengthscales=(0.25,))
    model = fit_svgp_closed_form(data, spec, 0.2, Z=X)
    exact = fit_exact(data, spec, 0.2)
    fm = rff_sample(spec, 512, seed=42)
    probes = np.array([[0.2], [0.5], [0.8]])
    setup = DrawSetup(model, fm, 1.0)
    draws = np.stack([
        setup.draw(np.random.default_rng(derive_seed(77, b))).eval_many(probes)
        for b in range(n_draws)
    ])
    me, ve = exact.predict(probes)
    dm = np.abs(draws.mean(axis=0) - me)
    se = draws.std(axis=0, ddof=1) / math.sqrt(n_draws)
    ratio = draws.var(axis=0, ddof=1) / ve
    slack = 4.0 * math.sqrt(2.0 / n_draws) + 0.02
    mean_ok = bool(np.all(dm <= 4 * se))
    var_ok = bool(np.all((ratio >= 0.9 - slack) & (ratio <= 1.1 + slack)))
    return mean_ok and var_ok, (
        f"{n_draws} draws: worst mean gap {dm.max():.3f} vs 4se {float((4*se).max()):.3f}, "
        f"variance ratios in [{ratio.min():.3f}, {ratio.max():.3f}]"
    )


def check_kl_certificate(instances: int = 3) -> tuple[bool, str]:
    """Feature-variant KL to the exact posterior under its trace budget."""
    rng = rng_from_path(2024, 4)
    spec = KernelSpec(family="se", dim=1, lengthscales=(0.25,))
    fm = mercer_truncate(spec, 128, [0.0], [1.0])
    worst_margin = -np.inf
    for i in range(instances):
        # m keeps the trace budget above the KL float floor; separated inputs
        # keep the compared Gaussians numerically non-degenerate
        n = 12
        X = np.linspace(0.04, 0.96, n).reshape(-1, 1) + rng.uniform(-0.02, 0.02, (n, 1))
        data = Dataset(X, 0.5 * rng.normal(size=n), 1, n)
        tau = 0.5
        model = fit_svgp_closed_form(data, spec, tau, feature_map=fm, m=14)
        kl = kl_to_exact(data, model)
        theta = trace_residual(data, model)
        margin = kl - theta / tau
        worst_margin = max(worst_margin, margin)
    return worst_margin <= 0.0, f"worst KL minus budget: {worst_margin:.3e}"


def check_elbo(instances: int = 3) -> tuple[bool, str]:
    """Closed-form fit maximizes the bound among jittered competitors."""
    rng = rng_from_path(2024, 5)
    worst = np.inf
    for i in range(instances):
        n = 9
        X = np.linspace(0.05, 0.95, n).reshape(-1, 1)
        data = Dataset(X, rng.normal(size=n), 1, n)
        spec = KernelSpec(family="se", dim=1, lengthscales=(0.2,))
        model = fit_svgp_closed_form(data, spec, 0.2, Z=X[::2])
        base = elbo(data, model)
        for _ in range(4):
            bump = rng.normal(scale=0.05, size=model.m_vec.shape)
            worst = min(worst, base - elbo(data, _shift_mean(model, bump)))
    return worst >= -1e-9, f"smallest margin over mean jitters: {worst:.3e}"


def _shift_mean(model, bump):
    from .svgp import SvgpModel

    return SvgpModel(spec=model.spec, tau=model.tau, m_vec=model.m_vec + bump,
                     S_mat=model.S_mat, Z=model.Z)


def check_batch_sigma(runs: int = 3) -> tuple[bool, str]:
    """Deviation-sum lemma on random batched datasets."""
    rng = rng_from_path(2024, 6)
    spec = KernelSpec(family="se", dim=1, lengthscales=(0.2,))
    worst = -np.inf
    for i in range(runs):
        T, B = 4, 3
        X = rng.uniform(0, 1, size=(T * B, 1))
        data = Dataset(X, rng.normal(size=T * B), B, T)
        lhs, rhs = batch_sigma_bound(data, spec, 0.2)
        worst = max(worst, lhs - rhs)
    return worst <= 1e-9, f"worst lhs minus rhs: {worst:.3e}"


def check_anti_concentration() -> tuple[bool, str]:
    """Gaussian tail sandwich used by the exploration argument."""
    cs = np.linspace(0.5, 5.0, 100)
    tail = 1.0 - norm.cdf(cs)
    lower = np.exp(-(cs**2)) / (4.0 * cs * np.sqrt(np.pi))
    upper = 0.5 * np.exp(-(cs**2) / 2.0)
    ok = bool(np.all(tail >= lower) and np.all(tail <= upper))
    return ok, "1 - Phi(c) bracketed on [0.5, 5]"


def check_growth_exponents() -> tuple[bool, str]:
    from fractions import Fraction

    cases = [
        (growth_exponents(2.5, 1, "features"), (Fraction(1, 5), Fraction(6, 25))),
        (growth_exponents(2.5, 1, "points"), (Fraction(1, 2), Fraction(3, 10))),
        (growth_exponents(1.5, 2, "points"), (Fraction(4, 1), Fraction(10, 3))),
    ]
    ok = all(got == want for got, want in cases)
    return ok, "rational exponents reproduced exactly"


def check_run_determinism() -> tuple[bool, str]:
    bench = get_benchmark("multimodal1d")
    cfg = RunConfig(objective="multimodal1d", T=3, B=3, lengthscale=(0.1,), m=8,
                    M=64, grid_cap=400)
    a = run_sgp_ts(cfg, bench, seed=5)
    b = run_sgp_ts(cfg, bench, seed=5)
    ok = a.to_csv() == b.to_csv() and a.steps_to_csv() == b.steps_to_csv()
    return ok, "identical seed reproduced the trace byte for byte"


def run_checks(level: str = "quick") -> list[CheckResult]:
    if level not in ("quick", "full"):
        raise ValueError("level must be quick or full")
    big = level == "full"
    checks = [
        ("exact posterior vs dense solve",
         lambda: check_exact_oracle(100 if big else 20)),
        ("variational collapse to exact", lambda: check_svgp_collapse(20 if big else 5)),
        ("sampler moments vs posterior",
         lambda: check_sampler_moments(20_000 if big else 1500)),
        ("KL certificate", lambda: check_kl_certificate(10 if big else 3)),
        ("closed-form bound optimality", lambda: check_elbo(10 if big else 3)),
        ("batch deviation lemma", lambda: check_batch_sigma(10 if big else 3)),
        ("gaussian tail sandwich", check_anti_concentration),
        ("growth exponents", check_growth_exponents),
        ("run determinism", check_run_determinism),
    ]
    return [_timed(name, fn) for name, fn in checks]


def format_results(results: list[CheckResult]) -> str:
    width = max(len(r.name) for r in results)
    lines = []
    for r in results:
        status = "PASS" if r.ok else "FAIL"
        lines.append(f"{r.name:<{width}}  {status}  {r.seconds:6.2f}s  {r.detail}")
    n_fail = sum(not r.ok for r in results)
    lines.append(f"{len(results) - n_fail}/{len(results)} checks passed")
    return "\n".join(lines)
