"""Correctness gate: a run whose output breaks any of these checks counts as failed."""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

DIGESTS_PATH = Path(__file__).resolve().parent / "digests.json"


def load_digests() -> dict:
    return json.loads(DIGESTS_PATH.read_text())


def csv_digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def log_problems(log, cfg, bench) -> list:
    """Invariants every finished run log must satisfy."""
    problems = []
    if log.aborted:
        problems.append(f"aborted: {log.abort_reason}")
    if len(log.rows) != cfg.T * cfg.B:
        problems.append(f"{len(log.rows)} rows, expected T*B = {cfg.T * cfg.B}")
    for prev, row in zip(log.rows, log.rows[1:]):
        if row.cum_regret < prev.cum_regret:
            problems.append(f"cum_regret decreases at t={row.t}, b={row.b}")
            break
    if any(r.simple_regret < -1e-9 for r in log.rows):
        problems.append("simple_regret below -1e-9")
    lo, hi = np.asarray(bench.lo), np.asarray(bench.hi)
    if any(np.any(np.asarray(r.x) < lo) or np.any(np.asarray(r.x) > hi) for r in log.rows):
        problems.append("a queried point lies outside the box")
    return problems


def digest_problems(key: str, run_csv: str, digests: dict) -> list:
    """Compare a run CSV with the digest recorded for the same config and run seed."""
    want = digests.get(key)
    if want is None:
        return []
    got = csv_digest(run_csv)
    if got != want:
        return [f"{key}: run CSV sha256 {got[:16]} differs from recorded {want[:16]}"]
    return []


def moment_problems(d1, d2, mean_exact, var_exact, slack) -> list:
    """Acceptance criterion 03's checks on draws at alpha = 1 (d1) and alpha = 2 (d2).

    Mean gap within 4 standard errors, alpha = 1 variance within
    [0.9, 1.1] of the exact variance widened by the truncation slack, and
    alpha = 2 variance ratio within [3.6, 4.4].
    """
    d1, d2 = np.asarray(d1), np.asarray(d2)
    problems = []
    gap = np.abs(d1.mean(axis=0) - mean_exact)
    se = np.sqrt(var_exact / d1.shape[0])
    if not np.all(gap <= 4.0 * se):
        problems.append(f"mean gap {gap.max():.4g} exceeds 4 se {float((4 * se).max()):.4g}")
    v1 = d1.var(axis=0, ddof=1)
    if not np.all((v1 >= 0.9 * var_exact - slack) & (v1 <= 1.1 * var_exact + slack)):
        problems.append(f"alpha=1 variance ratio [{(v1 / var_exact).min():.3f}, "
                        f"{(v1 / var_exact).max():.3f}] outside [0.9, 1.1] plus slack")
    ratio2 = d2.var(axis=0, ddof=1) / var_exact
    if not np.all((ratio2 >= 3.6) & (ratio2 <= 4.4)):
        problems.append(f"alpha=2 variance ratio [{ratio2.min():.3f}, {ratio2.max():.3f}] "
                        "outside [3.6, 4.4]")
    return problems
