"""Shared numerics, deterministic seed derivation and the threads beside the caller.

Threads: together(n, *calls) is the one way work runs on the process's
pool, beside the calling thread, and documents how long that work lives;
over_chunks deals the chunks of a grid to threads through it.

LAPACK and BLAS: one private section says how the library's factorizations
and BLAS calls run.  chol_psd factors through scipy's own dpotrf, called
without the GIL, and _one_blas_thread sets every bundled OpenBLAS to one
thread for the length of a run.

Seed scheme: every random stream is keyed by an integer path that starts at
the run seed, hashed through ``numpy.random.SeedSequence``: ``rng_from_path``
turns a path into a generator, ``derive_seed`` into a 32-bit seed.
``engine.run_sgp_ts`` and its baseline, ``engine.random_search``, key these:

* draw b of step t: ``default_rng(derive_seed(derive_seed(run_seed, t), b))``;
* observation noise of step t, in both: ``rng_from_path(run_seed, t, 7777)``;
* the baseline's uniform points of step t: ``rng_from_path(run_seed, t, 5050)``;
* k-means refit after step t: ``rng_from_path(derive_seed(run_seed, t, 303), 0x4B4D)``;
* random features: ``rng_from_path(derive_seed(run_seed, 909), 0x52FF)``.

The same path always yields the same stream, independent of call order.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import os
import threading
from collections import namedtuple
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import scipy
from scipy.linalg import cython_lapack

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
    are in calls that release the GIL, such as numpy's loops, BLAS and
    chol_psd's factor, so a run's realized gamma factors beside its refit.
    Inside a run BLAS works on one thread (_one_blas_thread), and these
    threads are the run's only parallelism.
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
    the calling thread (made on a worker, a buffer would stay resident in
    that thread's malloc arena between calls), as one array.  glibc's malloc
    keeps a freed block of that size in its heap for the next call; freed
    one by one, a run's per-step buffers came back as fresh pages, each
    faulted in on first touch (about 800 a step for hartmann6.cfg's two
    4000 x 100 buffers at grid_cap=8000).
    """
    k = max(1, n // _GRID_CHUNK)
    spans = [(i * n // k, (i + 1) * n // k) for i in range(k)]
    threads = _spread(n)
    width = max(hi - lo for lo, hi in spans)
    bufs = [None] * threads if scratch is None else list(
        np.empty((threads, min(scratch[0], width), scratch[1])))

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


# ---- how the library's LAPACK and BLAS calls run -------------------------

_capsule_name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(
    ("PyCapsule_GetName", ctypes.pythonapi))
_capsule_pointer = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
    ("PyCapsule_GetPointer", ctypes.pythonapi))


def _lapack(name: str, nargs: int):
    """scipy's LAPACK routine name, through the function pointer that
    scipy.linalg.cython_lapack exports, as a ctypes function of nargs pointer
    arguments.  ctypes releases the GIL for the length of each call, which
    scipy.linalg's own wrappers hold."""
    capsule = cython_lapack.__pyx_capi__[name]
    pointer = _capsule_pointer(capsule, _capsule_name(capsule))
    return ctypes.CFUNCTYPE(None, *[ctypes.c_void_p] * nargs)(pointer)


_potrf, _laset = _lapack("dpotrf", 5), _lapack("dlaset", 7)
_LOWER, _UPPER, _ZERO = (ctypes.byref(v) for v in
                         (ctypes.c_char(b"L"), ctypes.c_char(b"U"), ctypes.c_double(0.0)))


def _factor(mat) -> np.ndarray:
    """scipy.linalg.cholesky(mat, lower=True) bit for bit, in the same Fortran
    layout, without the GIL: dpotrf on a Fortran-ordered copy, then dlaset
    sets the strict upper triangle to 0.0, as scipy's clean=True does.  A
    non-finite entry raises ValueError, a leading minor that is not positive
    definite LinAlgError."""
    a = np.array(np.asarray_chkfinite(mat), dtype=float, order="F")
    n = a.shape[0]
    if a.shape != (n, n):
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if n == 0:
        return a
    size, info = ctypes.c_int(n), ctypes.c_int(0)
    data = a.ctypes.data
    _potrf(_LOWER, ctypes.byref(size), data, ctypes.byref(size), ctypes.byref(info))
    if info.value > 0:
        raise np.linalg.LinAlgError(f"{info.value}-th leading minor is not positive definite")
    if n > 1:
        # the strict upper triangle is the upper one, diagonal included, of
        # the (n - 1)-square block that starts at a[0, 1]
        block = ctypes.byref(ctypes.c_int(n - 1))
        _laset(_UPPER, block, block, _ZERO, _ZERO, data + n * a.itemsize, ctypes.byref(size))
    return a


def chol_psd(mat: np.ndarray):
    """Lower Cholesky factor with a single jitter retry.

    First attempt is on the matrix as given; on failure 1e-10 is added to the
    diagonal once.  A second failure raises NumericalDegeneracyError.  The
    factor is scipy.linalg.cholesky(mat, lower=True)'s, bit for bit, computed
    without holding the GIL, so a thread beside it keeps running.
    """
    try:
        return _factor(mat)
    except np.linalg.LinAlgError:
        pass
    # one copy, jittered in place; adding 0.0 turns a -0.0 into 0.0, as
    # adding JITTER * I would, so the factor keeps that sum's bits
    jittered = np.add(mat, 0.0, dtype=float)
    jittered.flat[:: mat.shape[0] + 1] += JITTER
    try:
        return _factor(jittered)
    except np.linalg.LinAlgError as exc:
        raise NumericalDegeneracyError(
            f"Cholesky failed for {mat.shape[0]}x{mat.shape[0]} matrix even with jitter"
        ) from exc


_OpenBlas = namedtuple("_OpenBlas", "set_threads get_threads corename")


@functools.cache
def _openblas() -> tuple:
    """An _OpenBlas of ctypes functions for each OpenBLAS that the numpy and
    scipy wheels bundle in their <package>.libs folder, found by the names it
    exports (numpy's end in 64_); empty under any other BLAS.  The libraries
    are loaded already, so opening one returns the instance in use."""
    found = []
    for package in (np, scipy):
        root = Path(package.__file__).parent
        for path in sorted(root.parent.glob(f"{root.name}.libs/*openblas*")):
            lib = ctypes.CDLL(str(path))
            for suffix in ("64_", ""):
                names = [f"scipy_openblas_{what}{suffix}"
                         for what in ("set_num_threads", "get_num_threads", "get_corename")]
                if all(hasattr(lib, name) for name in names):
                    handle = _OpenBlas(*(getattr(lib, name) for name in names))
                    handle.set_threads.argtypes = [ctypes.c_int]
                    handle.corename.restype = ctypes.c_char_p
                    found.append(handle)
                    break
    return tuple(found)


_blas_lock = threading.Lock()
_blas_users = 0
_blas_saved: list = []


@contextlib.contextmanager
def _one_blas_thread():
    """Every OpenBLAS of _openblas() at one thread inside the block.  The
    first of overlapping blocks saves each library's thread count and the
    last to end restores it, so runs on several threads pin BLAS together.
    A run's threads are then the grid chunks and together's calls alone, and
    a factor rounds the same whatever the caller's BLAS threads."""
    global _blas_users, _blas_saved
    with _blas_lock:
        if _blas_users == 0:
            _blas_saved = [(lib, lib.get_threads()) for lib in _openblas()]
            for lib, _ in _blas_saved:
                lib.set_threads(1)
        _blas_users += 1
    try:
        yield
    finally:
        with _blas_lock:
            _blas_users -= 1
            if _blas_users == 0:
                for lib, threads in _blas_saved:
                    lib.set_threads(threads)


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
