"""Self-tests of the benchmark harness: statistics, tracing, the gate, tiny workloads.

    python3 -m pytest perfbench/tests -q
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
for _p in (str(ROOT / "src"), str(ROOT)):
    if _p not in sys.path:
        sys.path.insert(0, _p)

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import sgpts  # noqa: E402
from perfbench import gate, workloads  # noqa: E402
from perfbench.run import select_metrics  # noqa: E402
from perfbench.tracer import Tracer, layer_metrics, self_times  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

TINY_H6 = workloads.TsWorkload(
    configs=(workloads.TsConfig("tiny-h6", "configs/hartmann6.cfg",
                                ("T=3", "B=2", "m=5", "M=16", "grid_cap=50")),),
    panel=1, min_decide=5, absent=workloads.WORKLOADS["ts-hartmann6"].absent,
)
TINY_MERCER = workloads.TsWorkload(
    configs=(workloads.TsConfig("tiny-mm1d", "configs/multimodal1d.cfg", ("T=3", "B=2")),
             workloads.TsConfig("tiny-theory", "configs/theoretical.cfg", ("T=3",))),
    panel=1, min_decide=2, absent=workloads.WORKLOADS["ts-mercer1d"].absent,
)
TINY_DRAWS = dataclasses.replace(workloads.WORKLOADS["draw-moments"], n_min=20, panel=10,
                                 block=10, features=200, traced_draws=10)


# -- statistics -------------------------------------------------------------


def test_p90_needs_a_hundred_samples_for_ten_beyond():
    assert workloads.min_samples(90) == 100
    assert workloads.min_samples(50) == 20
    assert workloads.TsWorkload(configs=(), panel=1).min_decide == 100
    values = np.arange(100, dtype=float)
    assert np.sum(values > workloads.percentile(values, 90)) >= 10


def test_run_extends_until_the_percentile_has_enough_samples():
    runs, _ = workloads.run_ts(TINY_H6, seed=3, seconds=0.0, digests={})
    assert all(r.setup > 0 and not r.problems for r in runs)
    # T=3 gives 2 samples a run: the panel run plus two seeded runs reach 5
    assert [r.run_seed for r in runs] == [0, workloads.fill_seed(3, 0),
                                          workloads.fill_seed(3, 1)]
    assert sum(len(r.decide) for r in runs) >= TINY_H6.min_decide


def test_self_time_subtracts_nested_children():
    spans = [
        ["root", 0.0, 10.0, -1, 1],
        ["a", 1.0, 4.0, 0, 1],
        ["a.inner", 2.0, 3.0, 1, 1],
        ["b", 5.0, 6.0, 0, 1],
        ["other_root", 11.0, 12.5, -1, 1],
    ]
    assert self_times(spans) == pytest.approx([6.0, 2.0, 1.0, 1.0, 1.5])


def test_decide_samples_skip_the_believed_best_call():
    B = 4
    stamps = [(0.0, 1.0, B), (3.0, 3.5, 1),      # step 1: batch, believed best
              (6.0, 7.0, B), (8.0, 8.25, 1),     # step 2
              (10.0, 11.0, B), (11.5, 12.0, 1)]  # step 3
    assert workloads.decide_samples(stamps, B) == pytest.approx([4.5, 2.75])
    with pytest.raises(ValueError):
        workloads.decide_samples(stamps[:-1], B)
    with pytest.raises(ValueError):
        workloads.decide_samples([(0.0, 1.0, 1), (2.0, 3.0, B)], B)


# -- tracer -----------------------------------------------------------------


def _sgpts_bindings():
    mods = [m for n, m in sys.modules.items() if n == "sgpts" or n.startswith("sgpts.")]
    out = {(m.__name__, k): v for m in mods for k, v in vars(m).items() if callable(v)}
    for cls in (sgpts.FeatureMap, sgpts.SampleFunction, sgpts.Benchmark):
        out.update({(cls.__name__, k): v for k, v in vars(cls).items()})
    return out


def test_tracer_patches_every_lookup_and_restores_it():
    before = _sgpts_bindings()
    tracer = Tracer()
    with tracer.installed():
        assert sgpts.engine.select_batch is not before[("sgpts.sampling", "select_batch")]
        assert sgpts.engine.select_batch is sgpts.sampling.select_batch
        assert sgpts.svgp.kernel_matrix is sgpts.kernels.kernel_matrix
        assert sgpts.sampling.SampleFunction.eval_many is not before[
            ("SampleFunction", "eval_many")]
        spec = sgpts.KernelSpec(family="se", dim=1, lengthscales=(0.3,))
        fm = sgpts.engine.rff_sample(spec, 8, 1)
        X = np.linspace(0.0, 1.0, 5).reshape(-1, 1)
        fm.features(X)
        fm.features(X.copy())
    assert _sgpts_bindings() == before
    names = [s[0] for s in tracer.spans]
    assert names == ["kernels.rff_sample", "kernels.FeatureMap.features",
                     "kernels.FeatureMap.features"]
    metrics = layer_metrics(tracer)
    assert metrics["kernels.FeatureMap.features.cells"] == 80
    assert metrics["kernels.FeatureMap.features.repeat_frac"] == 0.5


# -- correctness gate -------------------------------------------------------


def test_gate_rejects_a_perturbed_digest():
    config = TINY_H6.configs[0]
    cfg, bench = config.load()
    good = workloads.one_ts_run(config, cfg, bench, 0, True, {})
    assert good.problems == []
    key = f"{config.label}:0"
    digest = gate.csv_digest(good.run_csv)
    again = workloads.one_ts_run(config, cfg, bench, 0, True, {key: digest})
    assert again.problems == []
    perturbed = ("0" if digest[0] != "0" else "1") + digest[1:]
    bad = workloads.one_ts_run(config, cfg, bench, 0, True, {key: perturbed})
    assert len(bad.problems) == 1 and "differs from recorded" in bad.problems[0]


def test_gate_rejects_a_broken_log():
    config = TINY_H6.configs[0]
    cfg, bench = config.load()
    log = sgpts.run_sgp_ts(cfg, bench, 0)
    assert gate.log_problems(log, cfg, bench) == []
    log.rows[-1] = dataclasses.replace(log.rows[-1], x=(2.0,) * 6, cum_regret=-1.0)
    problems = gate.log_problems(log, cfg, bench)
    assert any("outside the box" in p for p in problems)
    assert any("cum_regret decreases" in p for p in problems)
    log.rows.pop()
    assert any("rows, expected" in p for p in gate.log_problems(log, cfg, bench))


def test_moment_checks_accept_exact_moments_and_reject_a_scaled_variance():
    rng = np.random.default_rng(0)
    mean, var = np.array([0.0, 1.0]), np.array([1.0, 0.5])
    d1 = mean + np.sqrt(var) * rng.standard_normal((20_000, 2))
    d2 = mean + 2.0 * np.sqrt(var) * rng.standard_normal((20_000, 2))
    assert gate.moment_problems(d1, d2, mean, var, np.zeros(2)) == []
    assert len(gate.moment_problems(d1 * 1.2, d2, mean, var, np.zeros(2))) == 2


# -- tiny smoke runs of each workload --------------------------------------


@pytest.mark.parametrize("workload", [TINY_H6, TINY_MERCER], ids=["ts-hartmann6", "ts-mercer1d"])
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_ts_workload(workload, trace):
    result = workloads.run_workload("tiny", 5, 0.0, trace, workload=workload)
    assert result.correct, result.detail["problems"]
    assert result.failed == 0 and result.attempted >= 1
    metrics = select_metrics(result.metrics, SPEC["per_layer" if trace else "end_to_end"],
                             workload.absent)
    assert set(metrics) == {m["name"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    if trace:
        assert result.metrics["engine.run_sgp_ts.calls"] == workload.panel * len(workload.configs)
        assert result.spans
    else:
        assert all(m["value"] > 0 for m in metrics.values())


def test_tiny_draw_moments():
    result = workloads.run_workload("tiny", 5, 0.0, False, workload=TINY_DRAWS)
    assert result.failed == 0
    assert result.attempted == 2 * TINY_DRAWS.n_min
    metrics = select_metrics(result.metrics, SPEC["end_to_end"], TINY_DRAWS.absent)
    # ten panel draws per alpha may all pick the best probe, so regret can be 0 here
    assert metrics.pop("final_simple_regret")["value"] >= 0
    assert all(m["value"] > 0 for m in metrics.values())
    traced = workloads.run_workload("tiny", 5, 0.0, True, workload=TINY_DRAWS)
    assert traced.correct, traced.detail["problems"]
    # one set-up, with its first draw, before each block
    assert traced.metrics["sampling.draw_sample.calls"] == 2 * TINY_DRAWS.traced_draws + 1
    select_metrics(traced.metrics, SPEC["per_layer"], TINY_DRAWS.absent)


def test_a_missing_layer_is_zero_only_where_declared_absent():
    wanted = [{"name": "sampling.draw_sample.self_s", "unit": "s", "better": "lower"}]
    assert select_metrics({}, wanted, ("sampling.draw_sample",)) == {
        "sampling.draw_sample.self_s": {"value": 0, "unit": "s"}}
    with pytest.raises(KeyError):
        select_metrics({}, wanted, ("sampling.select_batch",))
    with pytest.raises(KeyError):
        select_metrics({}, [{"name": "sampling.build_grid.points", "unit": "count"}],
                       ("sampling.build_grid",))


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "draw-moments",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
