"""Exact GP regression, information gain, and concentration radii.

The posterior after n observations (X, y) with noise variance tau is

    mean(x) = k(X, x)^T (K + tau I)^{-1} y
    cov(x, x') = k(x, x') - k(X, x)^T (K + tau I)^{-1} k(X, x')

computed through a Cholesky factor of K + tau I.  Everything else in the
module is bookkeeping around that identity: realized information gain
(1/2) log det(I + K / tau), growth envelopes for it, the confidence radius
used by the exploration schedule, and the per-batch posterior-deviation
audit that regret certificates rest on.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_triangular

from .errors import InvalidInputError
from .kernels import KernelSpec, _as_points, kernel_matrix
from .util import chol_psd, clamp_variance


@dataclass(frozen=True)
class Dataset:
    """Batched observations: steps batches of batch_size points each."""

    X: np.ndarray
    y: np.ndarray
    batch_size: int
    steps: int

    def __post_init__(self):
        X = np.asarray(self.X, dtype=float)
        y = np.asarray(self.y, dtype=float)
        if X.ndim != 2:
            raise InvalidInputError("X must be 2-d")
        if y.shape != (X.shape[0],):
            raise InvalidInputError("y must be 1-d with one entry per row of X")
        if self.batch_size < 1:
            raise InvalidInputError("batch_size must be >= 1")
        if X.shape[0] != self.steps * self.batch_size:
            raise InvalidInputError("row count must equal steps * batch_size")
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "y", y)

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def dim(self) -> int:
        return self.X.shape[1]

    @functools.cached_property
    def distinct_rows(self) -> np.ndarray:
        """np.unique(X, axis=0), read-only, computed on the first read and kept."""
        rows = np.unique(self.X, axis=0)
        rows.flags.writeable = False
        return rows

    @staticmethod
    def empty(dim: int, batch_size: int) -> "Dataset":
        return Dataset(np.empty((0, dim)), np.empty(0), batch_size, 0)

    def append_batch(self, Xb, yb) -> "Dataset":
        """New dataset with one more batch; steps increases by exactly 1."""
        Xb = np.asarray(Xb, dtype=float)
        yb = np.asarray(yb, dtype=float)
        if Xb.shape != (self.batch_size, self.dim):
            raise InvalidInputError(
                f"batch must have shape ({self.batch_size}, {self.dim}), got {Xb.shape}"
            )
        return Dataset(
            np.vstack([self.X, Xb]), np.concatenate([self.y, yb]), self.batch_size, self.steps + 1
        )

    def batch(self, t: int) -> tuple[np.ndarray, np.ndarray]:
        """Rows of batch t (1-based)."""
        if not 1 <= t <= self.steps:
            raise InvalidInputError(f"step {t} out of range")
        sl = slice((t - 1) * self.batch_size, t * self.batch_size)
        return self.X[sl], self.y[sl]

    def prefix(self, t: int) -> "Dataset":
        """Dataset restricted to the first t batches."""
        if not 0 <= t <= self.steps:
            raise InvalidInputError(f"step {t} out of range")
        k = t * self.batch_size
        return Dataset(self.X[:k], self.y[:k], self.batch_size, t)


class ExactPosterior:
    """Cholesky-backed exact GP posterior; empty data reduces to the prior."""

    def __init__(self, data: Dataset, spec: KernelSpec, tau: float):
        if tau <= 0:
            raise InvalidInputError("noise variance tau must be positive")
        if not (np.all(np.isfinite(data.X)) and np.all(np.isfinite(data.y))):
            raise InvalidInputError("observations must be finite")
        if data.dim != spec.dim:
            raise InvalidInputError("dataset dimension does not match the kernel")
        self.data = data
        self.spec = spec
        self.tau = float(tau)
        if data.n:
            # K + tau I in place: the same bits as the out-of-place sum
            K = kernel_matrix(spec, data.X)
            K.flat[:: data.n + 1] += self.tau
            self._L = chol_psd(K)
            self._alpha = solve_triangular(
                self._L.T, solve_triangular(self._L, data.y, lower=True), lower=False
            )
        else:
            self._L = None
            self._alpha = None

    def predict(self, X) -> tuple[np.ndarray, np.ndarray]:
        """Posterior mean and variance at each row of X."""
        X = _as_points(self.spec.dim, X)
        prior_var = np.full(X.shape[0], self.spec.variance)
        if self._L is None:
            return np.zeros(X.shape[0]), prior_var
        Kxs = kernel_matrix(self.spec, self.data.X, X)
        mean = Kxs.T @ self._alpha
        V = solve_triangular(self._L, Kxs, lower=True)
        var = prior_var - np.sum(V * V, axis=0)
        return mean, clamp_variance(var)

    def cov(self, X) -> np.ndarray:
        """Posterior covariance matrix at the rows of X."""
        X = _as_points(self.spec.dim, X)
        prior = kernel_matrix(self.spec, X)
        if self._L is None:
            return prior
        V = solve_triangular(self._L, kernel_matrix(self.spec, self.data.X, X), lower=True)
        return prior - V.T @ V

    def log_marginal(self) -> float:
        """log p(y) under the prior, the quantity any evidence bound sits below."""
        if self._L is None:
            return 0.0
        n = self.data.n
        return float(
            -0.5 * self.data.y @ self._alpha
            - np.sum(np.log(np.diag(self._L)))
            - 0.5 * n * math.log(2.0 * math.pi)
        )


def fit_exact(data: Dataset, spec: KernelSpec, tau: float) -> ExactPosterior:
    return ExactPosterior(data, spec, tau)


def information_gain(data: Dataset, spec: KernelSpec, tau: float) -> float:
    """Realized information gain (1/2) log det(I + K / tau) of the observed inputs."""
    return information_gain_points(data.X, spec, tau)


def information_gain_points(X: np.ndarray, spec: KernelSpec, tau: float) -> float:
    """(1/2) log det(I + K / tau) at the points X, read as kernel_matrix reads them."""
    if tau <= 0:
        raise InvalidInputError("tau must be positive")
    X = _as_points(spec.dim, X)
    if X.shape[0] == 0:
        return 0.0
    # I + K / tau in place, with the bits of the out-of-place expression: no
    # identity and no second n x n array
    K = kernel_matrix(spec, X)
    K /= tau
    K.flat[:: X.shape[0] + 1] += 1.0
    L = chol_psd(K)
    return float(np.sum(np.log(np.diag(L))))


def gamma_bound(spec: KernelSpec, s: float) -> float:
    """Growth envelope for the maximal information gain after s observations.

    Unit-constant forms, d = spec.dim: (log s)^(d+1) for SE, s^(d/(2 nu + d))
    log s for Matern.  Meaningful only for s >= 2 so the logarithm is positive.
    """
    if s < 2:
        raise InvalidInputError("envelope defined for s >= 2")
    d = spec.dim
    if spec.family == "se":
        return math.log(s) ** (d + 1)
    return s ** (d / (2.0 * spec.nu + d)) * math.log(s)


def concentration_radius(
    b_norm: float, r_sub: float, gamma: float, delta: float, a_under: float, c: float
) -> float:
    """Posterior-deviation radius a_under * (B + R sqrt(2 (gamma + 1 + log(1/delta))) + c).

    b_norm bounds the objective's function-space norm, r_sub is the
    sub-Gaussian noise scale, gamma the information gain of the conditioning
    set, and (a_under, c) come from the approximation-quality constants.
    """
    if not 0 < delta <= 1:
        raise InvalidInputError("delta must lie in (0, 1]")
    if min(b_norm, r_sub, gamma, a_under) < 0 or c < 0:
        raise InvalidInputError("radius inputs must be non-negative")
    return a_under * (b_norm + r_sub * math.sqrt(2.0 * (gamma + 1.0 + math.log(1.0 / delta))) + c)


def batch_sigma_bound(data: Dataset, spec: KernelSpec, tau: float) -> tuple[float, float]:
    """Realized two sides of the batch posterior-deviation lemma.

    Left side: sum over all (t, b) of the exact posterior standard deviation
    sigma_{t-1}(x_{t,b}), conditioning on every batch before t.  Right side:
    B sqrt(2 T gamma / log(1 + 1/tau)) with gamma the realized information
    gain of the per-batch maximum-deviation representatives, which is the
    ordering the lemma's argument pins.  The inequality lhs <= rhs holds
    deterministically for any input sequence.
    """
    if data.steps == 0:
        return 0.0, 0.0
    reps = []
    lhs = 0.0
    for t in range(1, data.steps + 1):
        post = fit_exact(data.prefix(t - 1), spec, tau)
        Xb, _ = data.batch(t)
        _, var = post.predict(Xb)
        sig = np.sqrt(var)
        lhs += float(np.sum(sig))
        reps.append(Xb[int(np.argmax(sig))])
    gamma = information_gain_points(np.asarray(reps), spec, tau)
    rhs = data.batch_size * math.sqrt(
        2.0 * data.steps * gamma / math.log(1.0 + 1.0 / tau)
    )
    return lhs, rhs
