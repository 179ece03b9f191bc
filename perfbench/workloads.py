"""The benchmark's workloads and the metrics each one reports.

All load is a closed loop: each optimisation run (or posterior draw) starts
only after the previous one finished, in this one process.

TS workloads run full ``run_sgp_ts`` calls.  Each invocation first runs a
fixed panel of run seeds 0..panel-1 (the quality guard and the recorded
digests), then runs seeded by ``--seed`` until the time is up.  The objective
the run receives is wrapped to timestamp its calls; every step makes two, the
batch and then the believed-best point, and the decision latency of step t is
the non-objective time between the batches of steps t-1 and t.
"""

from __future__ import annotations

import dataclasses
import math
import resource
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from sgpts import benchmarks, engine, exact_gp, kernels, sampling, svgp
from sgpts.util import rng_from_path

from . import gate
from .tracer import Tracer, layer_metrics, self_times

ROOT = Path(__file__).resolve().parent.parent
DEFAULT_SEED = 0
HARD_STOP_S = 120.0      # no run is started past this, whatever minimum is unmet
PERCENTILE_BEYOND = 10   # a reported percentile keeps this many samples above it


# ---------------------------------------------------------------------------
# statistics


def min_samples(q: float, beyond: int = PERCENTILE_BEYOND) -> int:
    """Fewest samples for which the q-th percentile has `beyond` samples above it."""
    n = beyond
    while n - math.ceil(q / 100.0 * n) < beyond:
        n += 1
    return n


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q)) if len(values) else 0.0


def decide_samples(stamps, B: int) -> list:
    """Decision latency of steps 2..T from (start, end, rows) objective-call stamps.

    Calls alternate batch (B rows) and believed best (1 row).  The sample for
    step t is the time between the end of batch t-1 and the start of batch t,
    less the believed-best call in between.
    """
    if len(stamps) % 2 or any(rows != 1 for _, _, rows in stamps[1::2]) \
            or any(rows != B for _, _, rows in stamps[0::2]):
        raise ValueError("objective calls do not alternate batch and believed best")
    out = []
    for k in range(2, len(stamps), 2):
        bb_start, bb_end, _ = stamps[k - 1]
        out.append(stamps[k][0] - stamps[k - 2][1] - (bb_end - bb_start))
    return out


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


# ---------------------------------------------------------------------------
# TS workloads


@dataclass(frozen=True)
class TsConfig:
    label: str
    path: str            # relative to the repo root
    overrides: tuple = ()

    def load(self):
        cfg = engine.parse_config((ROOT / self.path).read_text(), self.overrides)
        return cfg, benchmarks.get_benchmark(cfg.objective)


@dataclass(frozen=True)
class TsWorkload:
    configs: tuple       # a round runs each config once, in this order
    panel: int           # rounds with the fixed run seeds 0..panel-1
    absent: tuple = ()   # layers the workload never calls: their .calls and .self_s are 0
    min_decide: int = min_samples(90)


@dataclass
class TsRun:
    label: str
    run_seed: int
    panel: bool
    wall: float = 0.0
    setup: float = 0.0
    decide: list = field(default_factory=list)
    queries: int = 0
    simple_regret: float = 0.0
    run_csv: str = ""
    steps_csv: str = ""
    problems: list = field(default_factory=list)


def fill_seed(seed: int, k: int) -> int:
    """Run seed of the k-th time-filling round; disjoint from the panel and other seeds."""
    return 1000 * (seed + 1) + k


def ts_rounds(workload: TsWorkload, seed: int):
    """(run seed, in panel) of every round, panel first, without end."""
    for k in range(workload.panel):
        yield k, True
    k = 0
    while True:
        yield fill_seed(seed, k), False
        k += 1


def one_ts_run(config: TsConfig, cfg, bench, run_seed: int, panel: bool, digests: dict,
               tracer: Tracer | None = None) -> TsRun:
    run = TsRun(config.label, run_seed, panel)
    stamps = []
    objective = bench.fn

    def observed(X):
        start = time.perf_counter()
        out = objective(X)
        stamps.append((start, time.perf_counter(), X.shape[0]))
        return out

    observed_bench = dataclasses.replace(bench, fn=observed)
    if tracer is not None:
        tracer.new_scope(m_requested=cfg.m)
    start = time.perf_counter()
    try:
        log = engine.run_sgp_ts(cfg, observed_bench, run_seed)
    except Exception as exc:  # a run that raises is counted as failed; the workload goes on
        run.problems.append(f"raised {type(exc).__name__}: {exc}")
        return run
    run.wall = time.perf_counter() - start
    run.setup = stamps[0][0] - start if stamps else run.wall
    run.queries = len(log.rows)
    run.simple_regret = log.final_simple_regret
    run.run_csv, run.steps_csv = log.to_csv(), log.steps_to_csv()
    run.problems += gate.log_problems(log, cfg, bench)
    run.problems += gate.digest_problems(f"{config.label}:{run_seed}", run.run_csv, digests)
    try:
        run.decide = decide_samples(stamps, cfg.B)
    except ValueError as exc:
        run.problems.append(str(exc))
    return run


def run_ts(workload: TsWorkload, seed: int, seconds: float, digests: dict):
    """Panel rounds, then seeded rounds while the next one fits in `seconds`.

    Returns the runs and the wall time of all rounds.
    """
    loaded = [(c, *c.load()) for c in workload.configs]
    runs, round_walls = [], []
    start = time.perf_counter()
    for run_seed, panel in ts_rounds(workload, seed):
        now = time.perf_counter() - start
        if not panel:
            enough = sum(len(r.decide) for r in runs) >= workload.min_decide
            if now > HARD_STOP_S or (enough and now + _median(round_walls) > seconds):
                break
        t0 = time.perf_counter()
        runs += [one_ts_run(c, cfg, bench, run_seed, panel, digests)
                 for c, cfg, bench in loaded]
        round_walls.append(time.perf_counter() - t0)
    return runs, time.perf_counter() - start


def ts_metrics(workload: TsWorkload, runs, wall: float) -> tuple:
    """End-to-end metrics and the number of decision samples behind the percentiles."""
    ok = [r for r in runs if not r.problems]
    decide = [d for r in ok for d in r.decide]
    queries = sum(r.queries for r in ok)
    return {
        # time to first batch, one median per config, summed over the round
        "setup_s": sum(_median([r.setup for r in ok if r.label == c.label])
                       for c in workload.configs),
        "decide_s_p50": percentile(decide, 50),
        "decide_s_p90": percentile(decide, 90),
        "queries_per_s": queries / wall,
        "draws_per_s": queries / wall,      # each query is the argmax of one draw
        "peak_rss_mb": peak_rss_mb(),
        "final_simple_regret": float(np.mean([r.simple_regret for r in runs if r.panel])),
    }, len(decide)


def trace_ts(workload: TsWorkload, seed: int, digests: dict):
    """Each panel run untraced, then traced; the traced CSVs must match byte for byte.

    Plain and traced runs alternate, so that a drift in the host's speed
    falls on both sides of the overhead alike.
    """
    loaded = [(c, *c.load()) for c in workload.configs]
    tracer = Tracer()
    plain, traced = [], []
    for k in range(workload.panel):
        for c, cfg, bench in loaded:
            plain.append(one_ts_run(c, cfg, bench, k, True, digests))
            with tracer.installed():
                traced.append(one_ts_run(c, cfg, bench, k, True, digests, tracer))
    for a, b in zip(plain, traced):
        if (a.run_csv, a.steps_csv) != (b.run_csv, b.steps_csv):
            b.problems.append(f"{b.label}:{b.run_seed}: traced CSVs differ from untraced")
    traced_wall = sum(r.wall for r in traced)
    return plain + traced, tracer, traced_wall - sum(r.wall for r in plain), traced_wall


# ---------------------------------------------------------------------------
# draw-moments: the instance of acceptance criterion 03


PROBES = np.array([[0.1], [0.3], [0.5], [0.7], [0.9]])
ALPHAS = (1.0, 2.0)


@dataclass(frozen=True)
class DrawWorkload:
    n_min: int = 4000      # draws per alpha, at least
    panel: int = 2000      # leading draws per alpha with seeds independent of --seed
    block: int = 50        # draws per alpha between set-ups and deadline checks
    features: int = 4000
    fm_seed: int = 17
    traced_draws: int = 400  # per alpha, in each half of a traced run
    absent: tuple = ()       # layers the workload never calls: their .calls and .self_s are 0


@dataclass
class DrawInstance:
    model: object
    fm: object
    mean_exact: np.ndarray
    var_exact: np.ndarray
    slack: np.ndarray


def criterion03_data():
    rng = rng_from_path(404, 3)
    n = 20
    X = np.linspace(0.03, 0.97, n).reshape(-1, 1) + rng.uniform(-0.01, 0.01, (n, 1))
    y = np.sin(6.0 * X[:, 0]) + 0.3 * rng.normal(size=n)
    spec = kernels.KernelSpec(family="se", dim=1, lengthscales=(0.2,))
    return exact_gp.Dataset(X, y, 1, n), spec, 0.2


def draw_seed(workload: DrawWorkload, seed: int, alpha: float, b: int) -> int:
    """Panel draws use criterion 03's own seeds (1001, b) and (1002, b)."""
    key = 1001 + ALPHAS.index(alpha)
    return sampling.derive_seed(key if b < workload.panel else key + 2 * (seed + 1), b)


def draw_setup(workload: DrawWorkload, seed: int) -> DrawInstance:
    """Fit, reference posterior, feature map, sampler moments and the first draw."""
    data, spec, tau = criterion03_data()
    model = svgp.fit_svgp_closed_form(data, spec, tau, Z=data.X)
    mean_exact, var_exact = exact_gp.fit_exact(data, spec, tau).predict(PROBES)
    fm = kernels.rff_sample(spec, workload.features, seed=workload.fm_seed)
    _, cov = sampling.decoupled_mean_cov(model, fm, 1.0, PROBES)
    sampling.draw_sample(model, fm, 1.0, draw_seed(workload, seed, 1.0, 0)).eval_many(PROBES)
    slack = np.abs(np.diag(cov) - var_exact)
    return DrawInstance(model, fm, mean_exact, var_exact, slack)


def draw_block(workload: DrawWorkload, inst: DrawInstance, seed: int, alpha: float, b0: int,
               values, lat):
    """One block of draws at alpha from index b0; appends probe values and latencies."""
    failed = 0
    for b in range(b0, b0 + workload.block):
        t0 = time.perf_counter()
        try:
            v = sampling.draw_sample(inst.model, inst.fm, alpha,
                                     draw_seed(workload, seed, alpha, b)).eval_many(PROBES)
        except Exception:  # a draw that raises is counted as failed
            failed += 1
            continue
        lat.append(time.perf_counter() - t0)
        if np.all(np.isfinite(v)):
            values.append(v)
        else:
            failed += 1
    return failed


@dataclass
class DrawRun:
    inst: DrawInstance
    setup_times: list
    values: dict          # alpha -> list of probe-value arrays
    lat: list             # seconds per draw, both alphas
    failed: int
    loop_wall: float

    @property
    def draws(self) -> int:
        return sum(len(v) for v in self.values.values())


def run_draws(workload: DrawWorkload, seed: int, seconds: float,
              n_min: int | None = None) -> DrawRun:
    """Blocks of draws at each alpha until `seconds` have passed, at least n_min per alpha.

    A set-up precedes every block, so that their median spans the whole run;
    all draws come from the first set-up's instance.
    """
    n_min = workload.n_min if n_min is None else n_min
    start = time.perf_counter()
    run = DrawRun(None, [], {a: [] for a in ALPHAS}, [], 0, 0.0)
    block_walls, b = [], 0
    while time.perf_counter() - start <= HARD_STOP_S and (
            b < n_min or time.perf_counter() - start + _median(block_walls) <= seconds):
        t0 = time.perf_counter()
        inst = draw_setup(workload, seed)
        t1 = time.perf_counter()
        run.setup_times.append(t1 - t0)
        run.inst = run.inst or inst
        for alpha in ALPHAS:
            run.failed += draw_block(workload, run.inst, seed, alpha, b,
                                     run.values[alpha], run.lat)
        block_walls.append(time.perf_counter() - t1)
        run.loop_wall += block_walls[-1]
        b += workload.block
    return run


def probe_regret(values, mean_exact) -> float:
    """Mean simple regret, on the exact posterior mean, of each draw's best probe."""
    v = np.asarray(values)
    return float(np.mean(mean_exact.max() - mean_exact[np.argmax(v, axis=1)]))


def draw_metrics(workload: DrawWorkload, run: DrawRun) -> dict:
    panel = workload.panel
    return {
        "setup_s": _median(run.setup_times),
        "decide_s_p50": percentile(run.lat, 50),
        "decide_s_p90": percentile(run.lat, 90),
        "queries_per_s": run.draws * PROBES.shape[0] / run.loop_wall,
        "draws_per_s": run.draws / run.loop_wall,
        "peak_rss_mb": peak_rss_mb(),
        "final_simple_regret": probe_regret(run.values[1.0][:panel] + run.values[2.0][:panel],
                                            run.inst.mean_exact),
    }


def trace_draws(workload: DrawWorkload, seed: int):
    """Draws untraced, then the same draws traced; the probe values must match bitwise.

    The whole traced series is one scope: every draw comes from one fitted model.
    """
    t0 = time.perf_counter()
    n = workload.traced_draws
    plain = run_draws(workload, seed, 0.0, n_min=n)
    plain_wall = time.perf_counter() - t0
    tracer = Tracer()
    t0 = time.perf_counter()
    with tracer.installed():
        tracer.new_scope(m_requested=criterion03_data()[0].n)
        traced = run_draws(workload, seed, 0.0, n_min=n)
    traced_wall = time.perf_counter() - t0
    problems = [f"alpha={a}: traced draws differ from untraced" for a in ALPHAS
                if np.asarray(plain.values[a]).tobytes() != np.asarray(traced.values[a]).tobytes()]
    return plain, traced, problems, tracer, traced_wall - plain_wall, traced_wall


# ---------------------------------------------------------------------------
# registry and entry


_SAMPLER = ("sampling.draw_sample", "sampling.SampleFunction.eval_many",
            "sampling.decoupled_mean_cov", "exact_gp.fit_exact")
_THEORY = ("svgp.precision_sup_norm", "svgp.approximation_constants")
_TS_LOOP = ("sampling.select_batch", "sampling.build_grid", "exact_gp.information_gain",
            "exact_gp.information_gain_points", "engine.believed_best", "engine.run_sgp_ts",
            "benchmarks.Benchmark.evaluate")

WORKLOADS = {
    "ts-hartmann6": TsWorkload(
        configs=(TsConfig("hartmann6-cap8000", "configs/hartmann6.cfg", ("grid_cap=8000",)),),
        panel=3,
        absent=_SAMPLER + _THEORY + ("kernels.mercer_truncate", "svgp.select_inducing_greedy"),
    ),
    "ts-mercer1d": TsWorkload(
        configs=(TsConfig("multimodal1d", "configs/multimodal1d.cfg"),
                 TsConfig("theoretical", "configs/theoretical.cfg")),
        panel=4,
        absent=_SAMPLER + ("kernels.rff_sample", "svgp.select_inducing_kmeans"),
    ),
    "draw-moments": DrawWorkload(
        absent=_THEORY + _TS_LOOP + ("kernels.mercer_truncate", "svgp.select_inducing_kmeans",
                                     "svgp.select_inducing_greedy"),
    ),
}


@dataclass
class Result:
    correct: bool
    attempted: int
    failed: int
    metrics: dict
    detail: dict
    spans: list | None = None     # [name, start, end, parent, scope] of a traced run


def run_workload(name: str, seed: int, seconds: float, trace: bool, workload=None) -> Result:
    """Run one workload; end-to-end metrics untraced, per-layer metrics when `trace`."""
    workload = WORKLOADS[name] if workload is None else workload
    digests = gate.load_digests()
    if isinstance(workload, TsWorkload):
        if trace:
            runs, tracer, overhead, traced_wall = trace_ts(workload, seed, digests)
            metrics = layer_metrics(tracer)
            metrics["trace.overhead_s"] = overhead
            detail = {"coverage": _coverage(tracer, traced_wall)}
        else:
            runs, wall = run_ts(workload, seed, seconds, digests)
            metrics, n_decide = ts_metrics(workload, runs, wall)
            detail = {"decide_samples": n_decide, "wall_s": wall}
        problems = [f"{r.label}:{r.run_seed}: {p}" for r in runs for p in r.problems]
        detail["runs"] = [{"label": r.label, "run_seed": r.run_seed, "wall_s": r.wall,
                           "setup_s": r.setup, "problems": r.problems} for r in runs]
        n_failed = sum(1 for r in runs if r.problems)
        return Result(not problems, len(runs), n_failed, metrics,
                      {**detail, "problems": problems}, tracer.spans if trace else None)
    if trace:
        plain, traced, problems, tracer, overhead, traced_wall = trace_draws(workload, seed)
        metrics = layer_metrics(tracer)
        metrics["trace.overhead_s"] = overhead
        n_failed = plain.failed + traced.failed
        return Result(not problems and not n_failed, plain.draws + traced.draws + n_failed,
                      n_failed, metrics, {"problems": problems, "traced_wall_s": traced_wall},
                      tracer.spans)
    run = run_draws(workload, seed, seconds)
    problems = gate.moment_problems(run.values[1.0], run.values[2.0], run.inst.mean_exact,
                                    run.inst.var_exact, run.inst.slack)
    return Result(not problems and not run.failed, run.draws + run.failed, run.failed,
                  draw_metrics(workload, run),
                  {"problems": problems, "draws_per_alpha": len(run.values[1.0]),
                   "setups": len(run.setup_times)})


def _coverage(tracer: Tracer, traced_wall: float) -> dict:
    """Share of traced run wall time left in run_sgp_ts itself (outside every child span)."""
    own = sum(s for span, s in zip(tracer.spans, self_times(tracer.spans))
              if span[0] == "engine.run_sgp_ts")
    return {"run_sgp_ts_self_s": own, "traced_run_wall_s": traced_wall,
            "run_sgp_ts_self_frac": own / traced_wall if traced_wall else 0.0}
