"""Command-line front end: runs, verification, bound overlays, baselines."""

from __future__ import annotations

import argparse
import csv
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from . import util
from .benchmarks import BENCHMARKS, certify, get_benchmark
from .engine import (RunConfig, parse_config, random_search, resolve_config, run_sgp_ts,
                     step_regret_bound)
from .errors import InvalidInputError, NumericalDegeneracyError
from .util import format_float
from .verify import check_regret_vs_random, format_results, run_checks


def _pool_size(n_jobs: int) -> int:
    """Workers for n_jobs runs: as many as the threads that would score a
    grid, the CPUs this process may run on capped by SGPTS_THREADS."""
    return max(1, min(n_jobs, util._grid_threads()))


def _score_on_one_thread() -> None:
    """Set-up of a pool worker: the pool already fills the CPUs, so each of its
    runs scores its grid on its own thread."""
    os.environ["SGPTS_THREADS"] = "1"


def _parse_seeds(text: str) -> list[int]:
    try:
        seeds = [int(p) for p in text.split(",") if p.strip() != ""]
    except ValueError:
        raise InvalidInputError(f"bad --seeds value '{text}'") from None
    if not seeds:
        raise InvalidInputError("at least one seed is required")
    return seeds


def _load_config(args) -> RunConfig:
    return parse_config(Path(args.config).read_text(), tuple(args.override))


def _one_run(cfg: RunConfig, seed: int):
    """(seed, log, seconds); a run that ends in NumericalDegeneracyError has
    that error in place of its log."""
    bench = get_benchmark(cfg.objective)
    t0 = time.time()
    try:
        log = run_sgp_ts(cfg, bench, seed)
    except NumericalDegeneracyError as e:
        log = e
    return seed, log, time.time() - t0


def _run_all(cfg: RunConfig, seeds: list[int]):
    workers = _pool_size(len(seeds))
    if workers == 1:
        return [_one_run(cfg, s) for s in seeds]
    with ProcessPoolExecutor(max_workers=workers,
                             initializer=_score_on_one_thread) as pool:
        futs = [pool.submit(_one_run, cfg, s) for s in seeds]
        return [f.result() for f in futs]


def _write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)


def _summary_csv(results) -> str:
    lines = ["seed,final_cum_regret,final_simple_regret,wall_time_s,aborted"]
    for seed, log, secs in results:
        lines.append(
            f"{seed},{format_float(log.final_cum_regret)},"
            f"{format_float(log.final_simple_regret)},{secs:.3f},{int(log.aborted)}"
        )
    return "\n".join(lines) + "\n"


def _finished(results) -> list:
    """The results of the runs that finished; each failed seed is named, with
    its error, on stderr."""
    for seed, log, _ in results:
        if isinstance(log, Exception):
            print(f"seed {seed} failed: {type(log).__name__}: {log}", file=sys.stderr)
    return [r for r in results if not isinstance(r[1], Exception)]


def cmd_run(args) -> int:
    cfg = _load_config(args)
    seeds = _parse_seeds(args.seeds)
    outdir = Path(args.out)
    results = _finished(_run_all(cfg, seeds))
    for seed, log, _ in results:
        _write(outdir / f"run_seed{seed}.csv", log.to_csv())
        _write(outdir / f"steps_seed{seed}.csv", log.steps_to_csv())
    _write(outdir / "summary.csv", _summary_csv(results))
    aborted = [seed for seed, log, _ in results if log.aborted]
    for seed, log, _ in results:
        status = "aborted: " + log.abort_reason if log.aborted else "ok"
        print(f"seed {seed}: cum={log.final_cum_regret:.4f} "
              f"simple={log.final_simple_regret:.4f} ({status})")
    if aborted:
        print(f"aborted seeds: {', '.join(map(str, aborted))}", file=sys.stderr)
    return 1 if aborted or len(results) < len(seeds) else 0


def cmd_verify(args) -> int:
    results = run_checks(args.level)
    print(format_results(results))
    return 0 if all(r.ok for r in results) else 1


def _read_csv(path: Path) -> list[dict]:
    with path.open() as fh:
        return list(csv.DictReader(fh))


def cmd_bound(args) -> int:
    cfg = _load_config(args)
    bench = get_benchmark(cfg.objective)
    cfg = resolve_config(cfg, bench)
    outdir = Path(args.out)
    run_files = sorted(outdir.glob("run_seed*.csv"))
    if not run_files:
        print(f"no run logs found under {outdir}", file=sys.stderr)
        return 1
    for run_file in run_files:
        seed = run_file.stem.replace("run_seed", "")
        steps_file = outdir / f"steps_seed{seed}.csv"
        if not steps_file.exists():
            print(f"missing {steps_file}", file=sys.stderr)
            return 1
        rows = _read_csv(run_file)
        steps = _read_csv(steps_file)
        cum_at = {int(r["t"]): float(r["cum_regret"]) for r in rows}
        lines = ["t,cum_regret,bound"]
        for s in steps:
            t = int(s["t"])
            bound = step_regret_bound(cfg, SimpleNamespace(**{k: float(v) for k, v in s.items()}))
            lines.append(f"{t},{format_float(cum_at[t])},{format_float(bound)}")
        _write(outdir / f"bound_seed{seed}.csv", "\n".join(lines) + "\n")
        print(f"seed {seed}: wrote {len(steps)} bound rows")
    return 0


def cmd_bench(args) -> int:
    cfg = _load_config(args)
    bench = get_benchmark(cfg.objective)
    seeds = _parse_seeds(args.seeds)
    outdir = Path(args.out)
    logs = [log for _, log, _ in _finished(_run_all(cfg, seeds))]
    if not logs:
        return 1
    base_logs = [random_search(cfg, bench, log.run_seed) for log in logs]
    for log, blog in zip(logs, base_logs):
        _write(outdir / f"run_seed{log.run_seed}.csv", log.to_csv())
        _write(outdir / f"baseline_seed{blog.run_seed}.csv", blog.to_csv())
    lines = ["method,mean_final_simple_regret"]
    for name, group in (("sgpts", logs), ("random", base_logs)):
        lines.append(f"{name},{format_float(np.mean([g.final_simple_regret for g in group]))}")
    _write(outdir / "comparison.csv", "\n".join(lines) + "\n")
    ok, detail = check_regret_vs_random(logs, base_logs)
    partial = f" (partial, {len(logs)} of {len(seeds)} seeds)" if len(logs) < len(seeds) else ""
    print(f"regret-vs-random{partial}: {'PASS' if ok else 'FAIL'} ({detail})")
    return 1 if partial else 0


def cmd_certify(args) -> int:
    names = [args.objective] if args.objective else sorted(BENCHMARKS)
    failures = 0
    for name in names:
        report = certify(get_benchmark(name), seed=args.seed)
        status = "ok" if report["ok"] else "EXCEEDED"
        print(f"{name}: f_star={report['f_star']:.6f} "
              f"best_found={max(report['probe_best'], report['refined_best']):.6f} "
              f"gap={report['gap']:.2e} {status}")
        failures += not report["ok"]
    return 0 if failures == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sgpts",
        description="Scalable Thompson-sampling optimization with sparse GP surrogates",
    )
    sub = parser.add_subparsers(dest="verb", required=True)
    config = argparse.ArgumentParser(add_help=False)
    config.add_argument("--config", required=True, help="key=value config file")
    config.add_argument("--override", action="append", default=[],
                        help="key=value config override (repeatable)")

    run_p = sub.add_parser("run", parents=[config],
                           help="execute optimization runs and write CSV logs")
    run_p.add_argument("--seeds", default="0", help="comma-separated seed list")
    run_p.add_argument("--out", default="runs", help="output directory")
    run_p.set_defaults(fn=cmd_run)

    ver_p = sub.add_parser("verify", help="run the native correctness checks")
    ver_p.add_argument("--level", choices=("quick", "full"), default="quick")
    ver_p.set_defaults(fn=cmd_verify)

    bound_p = sub.add_parser("bound", parents=[config],
                             help="overlay the regret bound on finished runs")
    bound_p.add_argument("--out", default="runs", help="directory holding run CSVs")
    bound_p.set_defaults(fn=cmd_bound)

    bench_p = sub.add_parser("bench", parents=[config],
                             help="compare against the random-search baseline")
    bench_p.add_argument("--seeds", default="0,1,2")
    bench_p.add_argument("--out", default="bench")
    bench_p.set_defaults(fn=cmd_bench)

    cert_p = sub.add_parser("certify", help="re-check the stored benchmark optima")
    cert_p.add_argument("--objective", default=None, help="one name (default: all)")
    cert_p.add_argument("--seed", type=int, default=0)
    cert_p.set_defaults(fn=cmd_certify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (InvalidInputError, FileNotFoundError, NumericalDegeneracyError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1 if isinstance(e, NumericalDegeneracyError) else 2


if __name__ == "__main__":
    sys.exit(main())
