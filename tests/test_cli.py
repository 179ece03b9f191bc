"""End-to-end tests of the command-line interface (in-process, via main)."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from sgpts import cli, util, verify
from sgpts.cli import main

TINY = """\
# short optimization run used by the CLI tests
objective = multimodal1d
T = 4
B = 3
lengthscale = 0.1
m = 10
M = 96
grid_cap = 800
"""

THEORY = """\
objective = multimodal1d
T = 5
B = 2
lengthscale = 0.2
m = 14
M = 128
alpha_mode = theoretical
delta = 0.2
grid_cap = 800
"""


def write_config(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_run_writes_expected_files(tmp_path, capsys):
    cfg = write_config(tmp_path, TINY)
    out = tmp_path / "runs"
    code = main(["run", "--config", cfg, "--seeds", "0,1,2", "--out", str(out)])
    assert code == 0
    for seed in (0, 1, 2):
        assert (out / f"run_seed{seed}.csv").exists()
        assert (out / f"steps_seed{seed}.csv").exists()
    assert (out / "summary.csv").exists()
    lines = (out / "summary.csv").read_text().splitlines()
    assert lines[0] == "seed,final_cum_regret,final_simple_regret,wall_time_s,aborted"
    assert len(lines) == 4
    printed = capsys.readouterr().out
    assert "seed 0:" in printed and "seed 2:" in printed


def test_run_rerun_is_byte_identical(tmp_path):
    cfg = write_config(tmp_path, TINY)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["run", "--config", cfg, "--seeds", "7", "--out", str(out_a)]) == 0
    assert main(["run", "--config", cfg, "--seeds", "7", "--out", str(out_b)]) == 0
    for name in ("run_seed7.csv", "steps_seed7.csv"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_run_override_wins(tmp_path):
    cfg = write_config(tmp_path, TINY)
    out = tmp_path / "runs"
    code = main(["run", "--config", cfg, "--seeds", "0", "--out", str(out),
                 "--override", "T=2"])
    assert code == 0
    rows = (out / "run_seed0.csv").read_text().splitlines()
    assert len(rows) == 1 + 2 * 3


def test_missing_objective_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path, "T = 3\nB = 2\n")
    code = main(["run", "--config", cfg, "--seeds", "0", "--out", str(tmp_path / "o")])
    assert code == 2
    assert "objective" in capsys.readouterr().err


def test_unknown_field_exits_2_with_line_number(tmp_path, capsys):
    cfg = write_config(tmp_path, "objective = multimodal1d\nwibble = 3\n")
    code = main(["run", "--config", cfg, "--seeds", "0", "--out", str(tmp_path / "o")])
    assert code == 2
    err = capsys.readouterr().err
    assert "line 2" in err and "wibble" in err


def test_missing_config_file_exits_2(tmp_path, capsys):
    code = main(["run", "--config", str(tmp_path / "nope.cfg"), "--seeds", "0",
                 "--out", str(tmp_path / "o")])
    assert code == 2
    assert "nope.cfg" in capsys.readouterr().err


def test_bad_seeds_exit_2(tmp_path, capsys):
    cfg = write_config(tmp_path, TINY)
    code = main(["run", "--config", cfg, "--seeds", "1,x", "--out", str(tmp_path / "o")])
    assert code == 2
    assert "--seeds" in capsys.readouterr().err


def degenerate_run(verb, seeds, out):
    """multimodal1d.cfg with tau = 1e-3 and k-means inducing points: at seed 2
    the refit's 20 x 20 Sigma fails to factor even with jitter, and the run
    ends in NumericalDegeneracyError; seed 3 finishes."""
    config = Path(__file__).resolve().parent.parent / "configs" / "multimodal1d.cfg"
    return main([verb, "--config", str(config), "--override", "tau=1e-3",
                 "--override", "inducing=kmeans", "--seeds", seeds, "--out", str(out)])


def test_run_keeps_the_seeds_that_finish_when_another_fails(tmp_path, capsys):
    out = tmp_path / "runs"
    assert degenerate_run("run", "2,3", out) == 1
    assert sorted(p.name for p in out.iterdir()) == [
        "run_seed3.csv", "steps_seed3.csv", "summary.csv"]
    summary = (out / "summary.csv").read_text().splitlines()
    assert len(summary) == 2 and summary[1].startswith("3,")
    captured = capsys.readouterr()
    assert "seed 3:" in captured.out and "seed 2:" not in captured.out
    assert "seed 2 failed: NumericalDegeneracyError: Cholesky failed" in captured.err
    assert "Traceback" not in captured.err


def test_degenerate_bench_run_is_an_error_line(tmp_path, capsys):
    assert degenerate_run("bench", "2", tmp_path / "bench") == 1
    err = capsys.readouterr().err
    assert err.startswith("error: Cholesky failed") and "Traceback" not in err


def test_thread_cap_pool_path(tmp_path, monkeypatch):
    # two CPUs, whatever the host has, so the two seeds run in the pool
    monkeypatch.setattr(util, "_cpus", lambda: 2)
    monkeypatch.setenv("SGPTS_THREADS", "2")
    assert cli._pool_size(2) == 2
    cfg = write_config(tmp_path, TINY)
    out = tmp_path / "runs"
    code = main(["run", "--config", cfg, "--seeds", "3,4", "--out", str(out)])
    assert code == 0
    assert (out / "run_seed3.csv").exists() and (out / "run_seed4.csv").exists()
    # pooled execution must not change the logs
    solo = tmp_path / "solo"
    monkeypatch.setenv("SGPTS_THREADS", "1")
    assert main(["run", "--config", cfg, "--seeds", "3", "--out", str(solo)]) == 0
    assert (out / "run_seed3.csv").read_bytes() == (solo / "run_seed3.csv").read_bytes()


def test_pool_counts_the_cpus_this_process_may_run_on(monkeypatch):
    # under an affinity mask of one CPU the seeds run one after another, as
    # the grid is scored on one thread; SGPTS_THREADS still sets the count
    monkeypatch.delenv("SGPTS_THREADS", raising=False)
    monkeypatch.setattr(util, "_cpus", lambda: 1)
    assert cli._pool_size(4) == 1 and util._grid_threads() == 1
    monkeypatch.setattr(util, "_cpus", lambda: 3)
    assert cli._pool_size(4) == 3 and cli._pool_size(2) == 2
    monkeypatch.setenv("SGPTS_THREADS", "2")
    assert cli._pool_size(4) == 2


def test_pool_is_capped_by_the_cpus_too(monkeypatch):
    # SGPTS_THREADS caps the workers as it caps the grid threads: above the
    # CPU count it does not fork more workers than there are CPUs
    monkeypatch.setattr(util, "_cpus", lambda: 1)
    monkeypatch.setenv("SGPTS_THREADS", "4")
    assert cli._pool_size(4) == 1 and util._grid_threads() == 1


def test_process_pool_after_threaded_scoring():
    # A run in the parent scores its 8000-point grid on two threads, so the
    # scoring pool has a live worker when the process pool forks.  The forked
    # runs must not wait on that pool's threads, must score on their own
    # thread only, and must log what the parent logged for the same seed.
    repo = Path(__file__).resolve().parent.parent
    script = (
        "import json, sys, threading\n"
        "from pathlib import Path\n"
        "from sgpts import cli, util\n"
        "from sgpts.engine import parse_config\n"
        "cfg = parse_config(Path('configs/hartmann6.cfg').read_text(),\n"
        "                   ('grid_cap=8000', 'T=4'))\n"
        "solo = cli._one_run(cfg, 0)[1].to_csv()\n"
        "parent_threads = threading.active_count()\n"
        "one_run = cli._one_run\n"
        "def counted(cfg, seed):\n"
        "    seed, log, _ = one_run(cfg, seed)\n"
        "    return seed, log, (util._grid_threads(), threading.active_count())\n"
        "cli._one_run = counted\n"
        "results = cli._run_all(cfg, [0, 1])\n"
        "json.dump({'parent_threads': parent_threads, 'same': results[0][1].to_csv() == solo,\n"
        "           'workers': [r[2] for r in results]}, sys.stdout)\n"
    )
    env = dict(os.environ, SGPTS_THREADS="2", PYTHONPATH=os.pathsep.join(
        filter(None, [str(repo / "src"), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", script], cwd=repo, env=env,
                          capture_output=True, text=True, check=True, timeout=120)
    got = json.loads(proc.stdout)
    assert got["parent_threads"] == min(2, len(os.sched_getaffinity(0)))
    assert got["same"]
    assert got["workers"] == [[1, 1], [1, 1]]


def test_bound_overlay(tmp_path):
    cfg = write_config(tmp_path, THEORY)
    out = tmp_path / "runs"
    assert main(["run", "--config", cfg, "--seeds", "0,1", "--out", str(out)]) == 0
    assert main(["bound", "--config", cfg, "--out", str(out)]) == 0
    for seed in (0, 1):
        lines = (out / f"bound_seed{seed}.csv").read_text().splitlines()
        assert lines[0] == "t,cum_regret,bound"
        assert len(lines) == 1 + 5
        for line in lines[1:]:
            _, cum, bound = line.split(",")
            assert float(bound) >= float(cum)


def test_bound_on_fixed_alpha_run(tmp_path):
    # nan theory columns fall back to a_over=1, eps=0 instead of crashing
    cfg = write_config(tmp_path, TINY)
    out = tmp_path / "runs"
    assert main(["run", "--config", cfg, "--seeds", "0", "--out", str(out)]) == 0
    assert main(["bound", "--config", cfg, "--out", str(out)]) == 0
    lines = (out / "bound_seed0.csv").read_text().splitlines()
    assert len(lines) == 1 + 4
    assert all(np.isfinite(float(line.split(",")[2])) for line in lines[1:])


def test_bound_without_runs_fails(tmp_path, capsys):
    cfg = write_config(tmp_path, TINY)
    code = main(["bound", "--config", cfg, "--out", str(tmp_path / "empty")])
    assert code == 1
    assert "no run logs" in capsys.readouterr().err


def test_verify_quick(capsys):
    assert main(["verify", "--level", "quick"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out


def test_verify_failing_check_exits_1(capsys, monkeypatch):
    monkeypatch.setattr(verify, "check_growth_exponents", lambda: (False, "forced"))
    assert main(["verify"]) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out and "7/8 checks passed" in out


def test_import_leaves_scipy_stats_and_optimize_unloaded():
    # together they took an import of sgpts from 58 to 100 MB resident.  Runs
    # of the shipped configs, and a multi-seed `run` whose seeds go to pool
    # workers, must leave scipy.stats out too: it served only the Halton set
    repo = Path(__file__).resolve().parent.parent
    script = (
        "import os, sys, tempfile\n"
        "from pathlib import Path\n"
        "from sgpts import cli, util\n"
        "from sgpts.benchmarks import get_benchmark\n"
        "from sgpts.engine import parse_config, run_sgp_ts\n"
        "def loaded():\n"
        "    return sorted(m for m in ('scipy.stats', 'scipy.optimize') if m in sys.modules)\n"
        "print(loaded())\n"
        "for name, over in (('multimodal1d', ()), ('theoretical', ()),\n"
        "                   ('hartmann6', ('grid_cap=500', 'T=2'))):\n"
        "    cfg = parse_config(Path(f'configs/{name}.cfg').read_text(), over)\n"
        "    run_sgp_ts(cfg, get_benchmark(cfg.objective), 0)\n"
        "print(loaded())\n"
        "parent, one_run = os.getpid(), cli._one_run\n"
        "def checked(cfg, seed):\n"
        "    if os.getpid() == parent or 'scipy.stats' in sys.modules:\n"
        "        raise RuntimeError('not a pool worker, or scipy.stats loaded before the run')\n"
        "    result = one_run(cfg, seed)\n"
        "    if 'scipy.stats' in sys.modules:\n"
        "        raise RuntimeError('the run loaded scipy.stats in a pool worker')\n"
        "    return result\n"
        "cli._one_run = checked\n"
        "util._cpus = lambda: 2\n"
        "with tempfile.TemporaryDirectory() as out:\n"
        "    assert cli.main(['run', '--config', 'configs/multimodal1d.cfg',\n"
        "                     '--seeds', '0,1', '--out', out]) == 0\n"
        "print(loaded())\n"
    )
    env = {k: v for k, v in os.environ.items() if k != "SGPTS_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(repo / "src"),
                                                      os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", script], cwd=repo, env=env,
                          capture_output=True, text=True, check=True, timeout=300)
    assert proc.stdout.split("\n")[0] == "[]"
    assert all("scipy.stats" not in line for line in proc.stdout.splitlines())


def test_verify_unknown_level_raises():
    with pytest.raises(ValueError):
        verify.run_checks("bogus")


def test_bench_comparison(tmp_path, capsys):
    cfg = write_config(tmp_path, TINY)
    out = tmp_path / "bench"
    code = main(["bench", "--config", cfg, "--seeds", "0,1", "--out", str(out)])
    assert code == 0
    lines = (out / "comparison.csv").read_text().splitlines()
    assert lines[0] == "method,mean_final_simple_regret"
    assert lines[1].startswith("sgpts,") and lines[2].startswith("random,")
    for seed in (0, 1):
        assert (out / f"baseline_seed{seed}.csv").exists()
    assert "regret-vs-random: " in capsys.readouterr().out


def test_certify_single_objective(capsys):
    assert main(["certify", "--objective", "multimodal1d"]) == 0
    out = capsys.readouterr().out
    assert "multimodal1d" in out and "ok" in out


def test_certify_unknown_objective(capsys):
    assert main(["certify", "--objective", "nope"]) == 2
    assert "nope" in capsys.readouterr().err


def test_entry_point_requires_verb():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
