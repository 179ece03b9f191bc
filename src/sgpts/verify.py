"""Self-contained correctness checks runnable from the command line.

Each check builds fresh random instances, recomputes the expected answer
through an independent dense or analytic route, and compares.  Six checks
are the only implementation of acceptance criteria 01-04, 09 and 10, which
call them: the full level runs them at their acceptance sizes, and the quick
level runs the same instance streams small enough for the whole battery to
finish within a minute.  check_regret_vs_random judges runs its caller made.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .benchmarks import get_benchmark
from .engine import RunConfig, growth_exponents, growth_schedule, run_sgp_ts
from .errors import InvalidInputError
from .exact_gp import Dataset, batch_sigma_bound, fit_exact
from .kernels import KernelSpec, kernel_matrix, mercer_truncate, rff_sample, tail_mass
from .sampling import DrawSetup, decoupled_mean_cov, derive_seed
from .svgp import SvgpModel, elbo, fit_svgp_closed_form, kl_to_exact, trace_residual
from .util import rng_from_path


@dataclass(frozen=True)
class CheckResult:
    name: str
    ok: bool
    detail: str
    seconds: float


def _timed(name, fn):
    t0 = time.monotonic()
    ok, detail = fn()
    return CheckResult(name, bool(ok), detail, time.monotonic() - t0)


def _feature_instance(rng):
    """Feature-variant fit on separated inputs; the shared audit family."""
    n, m, tau = 12, 14, 0.5
    spec = KernelSpec(family="se", dim=1, lengthscales=(0.25,))
    fm = mercer_truncate(spec, 128, [0.0], [1.0])
    X = np.linspace(0.04, 0.96, n).reshape(-1, 1) + rng.uniform(-0.02, 0.02, (n, 1))
    data = Dataset(X, 0.5 * rng.normal(size=n), 1, n)
    model = fit_svgp_closed_form(data, spec, tau, feature_map=fm, m=m)
    return data, spec, fm, model


def check_exact_oracle(instances: int = 100) -> tuple[bool, str]:
    """Posterior mean/variance against a dense linear solve (criterion 01)."""
    rng = rng_from_path(404, 1)
    worst = 0.0
    for i in range(instances):
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
    return worst <= 1e-8, f"max deviation {worst:.2e} over {instances} instances"


def check_svgp_collapse(instances: int = 20) -> tuple[bool, str]:
    """Full-rank variational fit must equal the exact posterior (criterion 02)."""
    rng = rng_from_path(404, 2)
    worst = 0.0
    worst_theta = 0.0
    for _ in range(instances):
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
    return ok, (f"max gap {worst:.2e}, max trace residual {worst_theta:.2e} "
                f"over {instances} instances")


def check_sampler_moments(n_draws: int = 20_000) -> tuple[bool, str]:
    """Draw moments at alpha = 1 and 2 against the exact posterior (criterion 03).

    The variance band is widened by the realized truncation defect of the
    sampling rule at the probes, taken from its analytic covariance.
    """
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
    _, cov_s = decoupled_mean_cov(model, fm, 1.0, probes)
    slack = np.abs(np.diag(cov_s) - ve)
    s1, s2 = DrawSetup(model, fm, 1.0), DrawSetup(model, fm, 2.0)
    d1 = s1.values(probes, [derive_seed(1001, b) for b in range(n_draws)])
    d2 = s2.values(probes, [derive_seed(1002, b) for b in range(n_draws)])
    mean_gap = np.abs(d1.mean(axis=0) - me)
    se = np.sqrt(ve / n_draws)
    v1 = d1.var(axis=0, ddof=1)
    ratio2 = d2.var(axis=0, ddof=1) / ve
    mean_ok = bool(np.all(mean_gap <= 4.0 * se))
    var_ok = bool(np.all((v1 >= 0.9 * ve - slack) & (v1 <= 1.1 * ve + slack)))
    alpha_ok = bool(np.all((ratio2 >= 3.6) & (ratio2 <= 4.4)))
    return mean_ok and var_ok and alpha_ok, (
        f"worst mean gap {mean_gap.max():.4f} vs 4se {float((4*se).max()):.4f}, "
        f"var ratio [{float((v1/ve).min()):.3f}, {float((v1/ve).max()):.3f}], "
        f"alpha=2 ratio [{ratio2.min():.3f}, {ratio2.max():.3f}]"
    )


def check_kl_certificate(instances: int = 10) -> tuple[bool, str]:
    """Feature-variant KL under its trace budget, at a valid sizing (criterion 04)."""
    rng = rng_from_path(404, 4)
    worst_margin = -np.inf
    worst_size = 0.0
    for _ in range(instances):
        data, spec, fm, model = _feature_instance(rng)
        delta_m = tail_mass(fm, model.m_count)
        worst_size = max(worst_size, 2.0 * data.n * delta_m / model.tau)
        kl = kl_to_exact(data, model)
        theta = trace_residual(data, model)
        worst_margin = max(worst_margin, kl - theta / model.tau)
    ok = worst_size < 0.1 and worst_margin <= 0.0
    return ok, (f"sizing max {worst_size:.2e} (< 0.1), "
                f"worst KL minus budget {worst_margin:.2e}")


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


def check_growth_exponents() -> tuple[bool, str]:
    """Exact exponent fractions and log-power schedule sizes (criterion 09)."""
    ok = (
        growth_exponents(2.5, 1, "features") == (Fraction(1, 5), Fraction(6, 25))
        and growth_exponents(2.5, 1, "points") == (Fraction(1, 2), Fraction(3, 10))
        and growth_exponents(1.5, 2, "points") == (Fraction(4), Fraction(10, 3))
        and growth_schedule("matern", 2.5, 1, 1024, "features") == (4, 6)
        and growth_schedule("se", 2.5, 1, math.e ** 3, "features") == (3, 3)
        and growth_schedule("se", 2.5, 2, math.e ** 2, "points") == (4, 4)
        and growth_schedule("se", 2.5, 3, math.e ** 2, "features") == (8, 8)
    )
    return ok, "exponent fractions and log-power sizes match exactly"


def check_run_determinism() -> tuple[bool, str]:
    """Repeated seeded runs give byte-identical logs (criterion 10)."""
    configs = [
        RunConfig(objective="multimodal2d", T=3, B=3, m=8, M=96,
                  lengthscale=(0.2,), grid_cap=400),
        RunConfig(objective="multimodal1d", T=3, B=2, variant="features", m=14,
                  M=128, lengthscale=(0.2,), alpha_mode="theoretical", delta=0.2,
                  grid_cap=400),
    ]
    identical = True
    for cfg in configs:
        bench = get_benchmark(cfg.objective)
        a = run_sgp_ts(cfg, bench, 5)
        b = run_sgp_ts(cfg, bench, 5)
        identical = identical and a.to_csv().encode() == b.to_csv().encode()
        identical = identical and a.steps_to_csv().encode() == b.steps_to_csv().encode()
    return identical, "repeated runs give byte-identical run and step CSVs"


def check_regret_vs_random(logs: list, base_logs: list) -> tuple[bool, str]:
    """Random search's mean final simple regret is more than twice the runs'
    (criterion 07); base_logs[i] is random_search at logs[i]'s run_seed."""
    if not logs or [g.run_seed for g in logs] != [g.run_seed for g in base_logs]:
        raise InvalidInputError("runs and baselines must pair up by run_seed")
    ours, rand = (float(np.mean([g.final_simple_regret for g in group]))
                  for group in (logs, base_logs))
    ratio = rand / ours if ours > 0 else math.inf
    return rand > 2.0 * ours, (f"mean final simple regret {ours:.4f} vs random {rand:.4f} "
                               f"(ratio {ratio:.2f}) over {len(logs)} seeds")


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
        ("schedule arithmetic", check_growth_exponents),
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
