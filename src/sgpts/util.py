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

import numpy as np
from scipy.linalg import cholesky

from .errors import InvalidInputError, NumericalDegeneracyError

JITTER = 1e-10


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
    try:
        return cholesky(mat + JITTER * np.eye(mat.shape[0]), lower=True)
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
