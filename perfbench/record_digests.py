"""Record the run-CSV digests that the correctness gate compares against.

    python3 perfbench/record_digests.py

Runs each TS workload's panel and its first time-filling rounds at the
default seed, and rewrites perfbench/digests.json.  Run it only on a commit
whose run CSVs are known to be right.
"""

import itertools
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# time-filling rounds recorded beyond the panel, per workload
FILL_ROUNDS = {"ts-hartmann6": 4, "ts-mercer1d": 40}


def main() -> int:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.run import pin_blas_threads
    pin_blas_threads()
    from perfbench import gate, workloads

    digests = {}
    for name, fills in FILL_ROUNDS.items():
        workload = workloads.WORKLOADS[name]
        loaded = [(c, *c.load()) for c in workload.configs]
        rounds = workloads.ts_rounds(workload, workloads.DEFAULT_SEED)
        for run_seed, panel in itertools.islice(rounds, workload.panel + fills):
            for config, cfg, bench in loaded:
                run = workloads.one_ts_run(config, cfg, bench, run_seed, panel, {})
                if run.problems:
                    print(f"{config.label}:{run_seed}: {run.problems}", file=sys.stderr)
                    return 1
                digests[f"{config.label}:{run_seed}"] = gate.csv_digest(run.run_csv)
            print(f"{name}: round {run_seed} recorded", flush=True)
    gate.DIGESTS_PATH.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
