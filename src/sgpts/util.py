"""Shared numerics and deterministic seed derivation.

Seed scheme: every random stream is keyed by an integer path appended to the
run seed, hashed through ``numpy.random.SeedSequence``.  Step streams use
``(run_seed, t)``, per-draw streams ``(run_seed, t, b)``, and auxiliary
streams append one more tag.  The same path always yields the same stream,
independent of call order.
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
