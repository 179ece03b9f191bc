"""Shared numerics and deterministic seed derivation.

Seed scheme: every random stream is keyed by an integer path that starts at
the run seed, hashed through ``numpy.random.SeedSequence``: ``rng_from_path``
turns a path into a generator, ``sampling.derive_seed`` into a 32-bit seed.
``engine.run_sgp_ts`` keys its streams as follows:

* draw b of step t: ``default_rng(derive_seed(derive_seed(run_seed, t), b))``;
* observation noise of step t: ``rng_from_path(run_seed, t, 7777)``;
* k-means refit after step t: ``rng_from_path(derive_seed(run_seed, t, 303), 0x4B4D)``;
* random features: ``rng_from_path(derive_seed(run_seed, 909), 0x52FF)``.

The same path always yields the same stream, independent of call order.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np
from scipy.linalg import cholesky

from .errors import InvalidInputError, NumericalDegeneracyError

JITTER = 1e-10


def thread_cap(default: int) -> int:
    """SGPTS_THREADS when it holds a positive integer, else default."""
    cap = os.environ.get("SGPTS_THREADS", "")
    return int(cap) if cap.isdigit() and int(cap) > 0 else default


# fewest points in a chunk of a grid that threads share; below about 4000
# points OpenBLAS may take another kernel for a draw's U_c V, and its values
# move in their last bits
_GRID_CHUNK = 4000


def _cpus() -> int:
    """The CPUs this process may run on."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _grid_threads() -> int:
    """Threads that work on a grid, the calling one included: _cpus() capped
    by SGPTS_THREADS, read on every call."""
    cpus = _cpus()
    return min(cpus, thread_cap(cpus))


def point_shares(n: int) -> list:
    """The chunks of range(n) as (lo, hi) pairs, dealt to threads: share t
    holds chunks t, t + T, t + 2T, ...

    There are n // _GRID_CHUNK chunks of near-equal size, at least one, with
    boundaries that depend on n alone; T = min(chunks, _grid_threads()).
    """
    k = max(1, n // _GRID_CHUNK)
    spans = [(i * n // k, (i + 1) * n // k) for i in range(k)]
    threads = min(k, _grid_threads()) if k > 1 else 1
    return [spans[t::threads] for t in range(threads)]


def run_shares(fn, count: int) -> None:
    """fn(t) for every t < count: t = 0 on the calling thread, the rest on the
    process's pool.  Returns once every call is done, raising the first error."""
    futures = [_pool.submit(fn, t) for t in range(1, count)]
    try:
        fn(0)
    finally:
        for f in futures:
            f.exception()   # waits: no worker may still write after the return
    for f in futures:
        f.result()


_pool: ThreadPoolExecutor


def _renew_pool() -> None:
    """Make the threads that work beside the calling thread: at import, and
    in a forked child, which inherits the pool object but none of its
    threads.  They start on first use and are kept for the life of the
    process: fresh threads would pay their page faults again."""
    global _pool
    _pool = ThreadPoolExecutor(max_workers=max(1, _cpus() - 1), thread_name_prefix="sgpts-grid")


_renew_pool()
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_renew_pool)


def rng_from_path(*path: int) -> np.random.Generator:
    """Deterministic generator for an integer key path."""
    if not path:
        raise InvalidInputError("seed path must be non-empty")
    return np.random.default_rng(np.random.SeedSequence([int(p) & 0xFFFFFFFF for p in path]))


def chol_psd(mat: np.ndarray):
    """Lower Cholesky factor with a single jitter retry.

    First attempt is on the matrix as given; on failure 1e-10 is added to the
    diagonal once.  A second failure raises NumericalDegeneracyError.
    """
    try:
        return cholesky(mat, lower=True)
    except np.linalg.LinAlgError:
        pass
    # one copy, jittered in place; adding 0.0 turns a -0.0 into 0.0, as
    # adding JITTER * I would, so the factor keeps that sum's bits
    jittered = np.add(mat, 0.0, dtype=float)
    jittered.flat[:: mat.shape[0] + 1] += JITTER
    try:
        return cholesky(jittered, lower=True)
    except np.linalg.LinAlgError as exc:
        raise NumericalDegeneracyError(
            f"Cholesky failed for {mat.shape[0]}x{mat.shape[0]} matrix even with jitter"
        ) from exc


def as_box(lower, upper) -> tuple[np.ndarray, np.ndarray]:
    """Validate a box domain given as per-dimension lower/upper arrays."""
    lo = np.atleast_1d(np.asarray(lower, dtype=float))
    hi = np.atleast_1d(np.asarray(upper, dtype=float))
    if lo.ndim != 1 or lo.shape != hi.shape:
        raise InvalidInputError("domain bounds must be 1-d arrays of equal length")
    if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
        raise InvalidInputError("domain bounds must be finite")
    if np.any(hi <= lo):
        raise InvalidInputError("every upper bound must exceed the lower bound")
    return lo, hi


def format_float(x: float) -> str:
    """Shortest round-trip decimal form, used for byte-stable CSV output."""
    return repr(float(x))


def clamp_variance(var: np.ndarray) -> np.ndarray:
    """Zero out round-off negatives above -1e-12; anything lower is a real failure."""
    var = np.asarray(var)
    if np.any(var < -1e-12):
        raise NumericalDegeneracyError(
            f"predictive variance fell to {var.min():.3e}, below the clamp window"
        )
    return np.maximum(var, 0.0)
