"""Shared numerics, deterministic seed derivation and the threads beside the caller.

Threads: together(n, *calls) is the one way work runs on the process's
pool, beside the calling thread, and documents how long that work lives;
over_chunks deals the chunks of a grid to threads through it.

Seed scheme: every random stream is keyed by an integer path that starts at
the run seed, hashed through ``numpy.random.SeedSequence``: ``rng_from_path``
turns a path into a generator, ``derive_seed`` into a 32-bit seed.
``engine.run_sgp_ts`` keys its streams as follows:

* draw b of step t: ``default_rng(derive_seed(derive_seed(run_seed, t), b))``;
* observation noise of step t: ``rng_from_path(run_seed, t, 7777)``;
* k-means refit after step t: ``rng_from_path(derive_seed(run_seed, t, 303), 0x4B4D)``;
* random features: ``rng_from_path(derive_seed(run_seed, 909), 0x52FF)``.

The same path always yields the same stream, independent of call order.
"""

from __future__ import annotations

import functools
import os
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
from scipy.linalg import cholesky

from .errors import InvalidInputError, NumericalDegeneracyError

JITTER = 1e-10


# fewest points in a chunk of a grid that threads share.  Against one product
# over the whole grid, a chunk's W F_c and k(X_c, Z) keep their bits, and so
# does a draw's U_c V at the pinned shapes (RFF M = 512, B = 20, m = 20 to
# 100, at 8000 and 40000 points).  OpenBLAS may pick its GEMM kernel by a
# product's size: at chunk widths of 1024 and 2048, U_c V moved in its last
# bits at m = 20 to 60, and a config whose B m is below the pinned ones may
# still see that against an unchunked product
_GRID_CHUNK = 4000


def _cpus() -> int:
    """The CPUs this process may run on."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _grid_threads() -> int:
    """Threads that work on a grid, the calling one included: _cpus(), capped
    by SGPTS_THREADS when it holds a positive integer, read on every call."""
    cpus, cap = _cpus(), os.environ.get("SGPTS_THREADS", "")
    return min(cpus, int(cap)) if cap.isdigit() and int(cap) > 0 else cpus


def _spread(n: int) -> int:
    """Threads that work on range(n): min(chunks, _grid_threads()), or 1 on
    a thread of the pool itself, whose nested work must not wait on the
    pool it occupies."""
    if threading.current_thread().name.startswith(_POOL_NAME):
        return 1
    return min(max(1, n // _GRID_CHUNK), _grid_threads())


def together(n: int, *calls) -> list:
    """The values of calls(), in call order, once every call has finished.

    The first call runs on the calling thread.  The others run on the
    process's pool when _spread(n) > 1, beside it; otherwise every call runs
    here, in order.  n is the size of the grid the caller works on, so a run
    takes the pool exactly where its grid scoring does: below that, as for
    one-chunk grids and a few probe points, the dispatch costs more than the
    overlap saves.  No pool task outlives the call: when a call fails, the
    first error is raised only after every started call has finished, the
    calling thread's own error before the pool's, and the pool's in call
    order.  A call runs the same code on the same inputs on either thread,
    so its value has the same bits.  Threads overlap only where all but one
    are in calls that release the GIL, such as numpy's loops and BLAS
    (scipy.linalg's LAPACK wrappers hold it).
    """
    if _spread(n) == 1:
        return [call() for call in calls]
    pending = [_pool.submit(call) for call in calls[1:]]
    try:
        first = calls[0]()
    finally:
        for task in pending:
            task.exception()   # waits for the task without raising
    return [first] + [task.result() for task in pending]


def over_chunks(n: int, fn, scratch: tuple | None = None) -> None:
    """fn(lo, hi, buf) for every chunk range(lo, hi) of range(n), across threads.

    The chunks: n // _GRID_CHUNK spans of near-equal size, at least one, so
    every chunk has at least _GRID_CHUNK points and a set under twice that is
    one chunk.  Their bounds depend on n alone.  The threads: T = _spread(n)
    shares go to together, so share 0 runs on the calling thread and share t
    takes chunks t, t + T, t + 2T, ...  When each call writes only its own
    chunk's part of the result, the result has the same bits for every
    thread count.

    buf is None, or with scratch = (rows, cols) the share's own buffer of
    shape (min(rows, widest chunk), cols).  The buffers are made here, on
    the calling thread: made on a worker, a buffer would stay resident in
    that thread's malloc arena between calls.
    """
    k = max(1, n // _GRID_CHUNK)
    spans = [(i * n // k, (i + 1) * n // k) for i in range(k)]
    threads = _spread(n)
    width = max(hi - lo for lo, hi in spans)
    bufs = [None if scratch is None else np.empty((min(scratch[0], width), scratch[1]))
            for _ in range(threads)]

    def share(t: int) -> None:
        for lo, hi in spans[t::threads]:
            fn(lo, hi, bufs[t])

    together(n, *[functools.partial(share, t) for t in range(threads)])


_POOL_NAME = "sgpts-grid"
_pool: ThreadPoolExecutor


def _renew_pool() -> None:
    """Make the threads that work beside the calling thread: at import, and
    in a forked child, which inherits the pool object but none of its
    threads.  They start on first use and are kept for the life of the
    process: fresh threads would pay their page faults again."""
    global _pool
    _pool = ThreadPoolExecutor(max_workers=max(1, _cpus() - 1), thread_name_prefix=_POOL_NAME)


_renew_pool()
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_renew_pool)


def _seed_sequence(path: tuple) -> np.random.SeedSequence:
    """The SeedSequence of an integer key path, each key masked to 32 bits."""
    if not path:
        raise InvalidInputError("seed path must be non-empty")
    return np.random.SeedSequence([int(p) & 0xFFFFFFFF for p in path])


def rng_from_path(*path: int) -> np.random.Generator:
    """Deterministic generator for an integer key path."""
    return np.random.default_rng(_seed_sequence(path))


def derive_seed(*path: int) -> int:
    """Deterministic 32-bit child seed for an integer key path."""
    return int(_seed_sequence(path).generate_state(1)[0])


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
