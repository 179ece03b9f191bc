"""Run one benchmark workload; the last line of stdout is the JSON result.

    python3 perfbench/run.py --workload ts-hartmann6 --seed 0 --seconds 40 --trace 0

Run from the root of a checkout.  --trace 0 reports the end-to-end metrics
named in BENCHMARK.json, --trace 1 the per-layer ones from a traced run.  The
full result, with the machine record (and the spans when traced), is also
written under .perfbench_out/.
"""

import argparse
import json
import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def pin_blas_threads() -> None:
    """One BLAS thread; takes effect only before numpy is first imported."""
    for var in BLAS_VARS:
        os.environ[var] = "1"


def machine_record() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "blas_threads": {v: os.environ.get(v) for v in BLAS_VARS},
    }


def select_metrics(values: dict, wanted: list, absent=()) -> dict:
    """The metrics BENCHMARK.json names, with their units.

    A layer listed in `absent` is one the workload never calls: it has no
    span, and its calls and self time are 0.  Any other missing metric is an
    error, so a renamed or dropped layer cannot read as a gain.
    """
    out = {}
    for m in wanted:
        name = m["name"]
        layer, _, suffix = name.rpartition(".")
        if name in values:
            value = values[name]
        elif layer in absent and suffix in ("calls", "self_s"):
            value = 0
        else:
            raise KeyError(f"workload produced no metric {name!r}")
        out[name] = {"value": value, "unit": m["unit"]}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "sgpts" / "__init__.py").is_file():
        print(f"perfbench: no sgpts sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    pin_blas_threads()
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; known: "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    machine = machine_record()
    result = workloads.run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    metrics = select_metrics(result.metrics,
                             spec["per_layer" if args.trace else "end_to_end"],
                             workloads.WORKLOADS[args.workload].absent)

    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(
        {"workload": args.workload, "seed": args.seed, "machine": machine,
         "correct": result.correct, "attempted": result.attempted, "failed": result.failed,
         "metrics": metrics, "all_metrics": result.metrics, "detail": result.detail},
        indent=1))
    if result.spans is not None:
        (OUT_DIR / f"{stem}.spans.json").write_text(json.dumps(result.spans))

    print("machine " + json.dumps(machine))
    for problem in result.detail.get("problems", []):
        print(f"FAILED {problem}")
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": result.correct, "attempted": result.attempted,
                      "failed": result.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
