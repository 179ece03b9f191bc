"""Stationary kernels and their finite feature expansions.

Two expansion routes feed the decoupled sampler and the inducing-feature
surrogate:

* Squared-exponential kernels admit an analytic eigen-expansion with respect
  to a Gaussian base measure.  For measure N(c, s^2) and kernel
  ``v * exp(-(x-x')^2 / (2 l^2))`` write ``eps2 = 1/(2 l^2)`` and
  ``a2 = 1/(2 s^2)``.  With

      beta   = (1 + 4 eps2 / a2)^(1/4)
      delta2 = (a2 / 2) (beta^2 - 1)
      D      = a2 + delta2 + eps2

  the eigenpairs are, for j = 0, 1, ...

      lambda_j = v sqrt(a2 / D) (eps2 / D)^j
      phi_j(x) = sqrt(beta) exp(-delta2 (x-c)^2) psi_j(sqrt(a2) beta (x-c))

  where psi_j is the Hermite function H_j / sqrt(2^j j!) evaluated through a
  normalized recurrence.  The phi_j are orthonormal under the base measure and
  reconstruct the kernel: k(x, x') = sum_j lambda_j phi_j(x) phi_j(x').
  Multi-dimensional kernels tensorize; product eigenvalues are enumerated
  best-first so the returned map carries the M largest.

  The base measure is centered on the domain midpoint with standard deviation
  a quarter of the side length, so +-2 standard deviations span the box.

* Matern kernels have no closed-form eigen-expansion here; they get random
  cosine features instead.  Frequencies are drawn from the kernel's spectral
  density (Gaussian for SE, Student-t with 2*nu degrees of freedom for
  Matern), paired as cos/sin so the zero-lag reconstruction
  sum_j phi_j(x)^2 = v holds exactly for even M.
"""

from __future__ import annotations

import functools
import heapq
import math
import numbers
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import InvalidInputError, UnsupportedDecompositionError
from .util import as_box, over_chunks, rng_from_path

_MATERN_NUS = (1.5, 2.5)
_MEMO_SLOTS = 2     # inputs whose feature matrices a FeatureMap remembers
# points per block of the RFF phases X_b @ freqs^T, a GEMM into a buffer that
# stays in cache for the transposing copy.  Its rows have the bits of the one
# (n, M/2) product for every block of 2 to _COPY_BLOCK + 1 rows; a block of
# one row would go through GEMV, which rounds differently, so a one-point
# tail joins the block before it
_COPY_BLOCK = 128


@dataclass(frozen=True)
class KernelSpec:
    """Stationary kernel description.

    family is "se" or "matern"; matern requires nu in {1.5, 2.5}.  The
    variance is capped at 1 so kernel values never exceed 1, which the
    exploration schedules rely on.
    """

    family: str
    dim: int
    lengthscales: tuple[float, ...]
    variance: float = 1.0
    nu: Optional[float] = None

    def __post_init__(self):
        if self.family not in ("se", "matern"):
            raise InvalidInputError(f"unknown kernel family {self.family!r}")
        if isinstance(self.dim, bool) or not isinstance(self.dim, numbers.Integral):
            raise InvalidInputError(f"dim must be an integer, got {self.dim!r}")
        if self.dim < 1:
            raise InvalidInputError("dim must be >= 1")
        ls = tuple(float(l) for l in np.atleast_1d(np.asarray(self.lengthscales, dtype=float)))
        if len(ls) == 1 and self.dim > 1:
            ls = ls * self.dim
        if len(ls) != self.dim:
            raise InvalidInputError(f"need {self.dim} lengthscales, got {len(ls)}")
        if any(not math.isfinite(l) or l <= 0 for l in ls):
            raise InvalidInputError("lengthscales must be finite and positive")
        object.__setattr__(self, "lengthscales", ls)
        if not (0.0 < self.variance <= 1.0):
            raise InvalidInputError("variance must lie in (0, 1]")
        if self.family == "matern":
            if self.nu not in _MATERN_NUS:
                raise InvalidInputError(f"matern nu must be one of {_MATERN_NUS}")
        elif self.nu is not None:
            raise InvalidInputError("nu is only meaningful for the matern family")


# cells of |a|^2 + |b|^2 that _scaled_sqdist forms at once: 256 KiB
_SQDIST_BLOCK = 2 ** 15


def _scaled_sqdist(spec: KernelSpec, A: np.ndarray, B: np.ndarray,
                   out: np.ndarray | None = None) -> np.ndarray:
    """|a - b|^2 on lengthscale-scaled points as |a|^2 + |b|^2 - 2 a.b, clamped at 0.

    Computed in place in one (n, m) buffer, out when given: -2 a.b, exact
    from the GEMM, then |a|^2 + |b|^2 added _SQDIST_BLOCK cells at a time,
    which rounds as subtracting 2 a.b from the sum did.  b is scaled
    separately even when B is A, so the product stays a GEMM (numpy takes
    a @ a.T to SYRK).
    """
    ls = np.asarray(spec.lengthscales)
    a = A / ls
    b = B / ls
    d2 = np.matmul(a, b.T, out=out)
    d2 *= -2.0
    na, nb = np.sum(a * a, axis=1), np.sum(b * b, axis=1)
    rows = max(1, _SQDIST_BLOCK // max(1, nb.size))
    for lo in range(0, na.size, rows):
        d2[lo:lo + rows] += na[lo:lo + rows, None] + nb
    return np.maximum(d2, 0.0, out=d2)


def _as_points(dim: int, X) -> np.ndarray:
    """X as finite (n, dim) points: a flat X of dim values is one point, else n 1-d points."""
    X = np.asarray(X, dtype=float)
    if X.ndim < 2:
        X = X.reshape(1, -1) if X.size == dim else X.reshape(-1, 1)
    if X.ndim != 2 or X.shape[1] != dim:
        raise InvalidInputError(f"points must have {dim} columns, got shape {X.shape}")
    if not np.all(np.isfinite(X)):
        raise InvalidInputError("points must be finite")
    return X


def kernel_matrix(spec: KernelSpec, A, B=None, *, out: np.ndarray | None = None) -> np.ndarray:
    """Cross-covariance matrix k(A, B); B defaults to A.  out, when given, is a
    C-ordered float (len(A), len(B)) array that receives the result."""
    A = _as_points(spec.dim, A)
    B = A if B is None else _as_points(spec.dim, B)
    # in place, in the order of v exp(-d2/2), v (1 + z) exp(-z) and
    # v ((1 + z) + z^2/3) exp(-z)
    K = _scaled_sqdist(spec, A, B, out)
    if spec.family == "se":
        K *= -0.5
        np.exp(K, out=K)
        K *= spec.variance
        return K
    z = np.sqrt(K, out=K)
    z *= math.sqrt(3.0 if spec.nu == 1.5 else 5.0)
    poly = z + 1.0
    if spec.nu == 2.5:
        poly += z * z / 3.0
    poly *= spec.variance
    K = np.exp(np.negative(z, out=z), out=z)
    K *= poly
    return K


# ---------------------------------------------------------------------------
# feature maps


def _hermite_psi(z: np.ndarray, orders: int) -> np.ndarray:
    """Normalized Hermite functions psi_j(z) = H_j(z)/sqrt(2^j j!), j < orders.

    The normalized three-term recurrence keeps intermediates bounded, so no
    factorial overflow for the order counts used here.  Shape (orders,
    len(z)): row j holds psi_j at every z, each row written in place and
    contiguous.
    """
    z = np.asarray(z, dtype=float)
    out = np.empty((orders, z.size))
    out[0] = 1.0
    if orders > 1:
        np.multiply(z, math.sqrt(2.0), out=out[1])
    for n in range(1, orders - 1):
        row = np.multiply(z, math.sqrt(2.0 / (n + 1)), out=out[n + 1])
        row *= out[n]
        row -= math.sqrt(n / (n + 1.0)) * out[n - 1]
    return out


@dataclass(frozen=True)
class _Mercer1D:
    """Eigen-expansion parameters for one coordinate."""

    center: float
    a2: float
    beta: float
    delta2: float
    ratio: float      # eigenvalue decay factor eps2/D
    lam0: float       # leading eigenvalue, unit variance

    def lambdas(self, orders: int) -> np.ndarray:
        return self.lam0 * self.ratio ** np.arange(orders)

    def phis(self, x: np.ndarray, orders: int) -> np.ndarray:
        """phi_j(x) for j < orders, shape (orders, n): row j holds phi_j at every x."""
        r = np.asarray(x, dtype=float) - self.center
        psi = _hermite_psi(math.sqrt(self.a2) * self.beta * r, orders)
        psi *= math.sqrt(self.beta) * np.exp(-self.delta2 * r * r)
        return psi


def _mercer_axis(lengthscale: float, lo: float, hi: float) -> _Mercer1D:
    center = 0.5 * (lo + hi)
    sm = 0.25 * (hi - lo)
    eps2 = 1.0 / (2.0 * lengthscale * lengthscale)
    a2 = 1.0 / (2.0 * sm * sm)
    beta = (1.0 + 4.0 * eps2 / a2) ** 0.25
    delta2 = 0.5 * a2 * (beta * beta - 1.0)
    denom = a2 + delta2 + eps2
    return _Mercer1D(
        center=center,
        a2=a2,
        beta=beta,
        delta2=delta2,
        ratio=eps2 / denom,
        lam0=math.sqrt(a2 / denom),
    )


@dataclass(frozen=True)
class FeatureMap:
    """Finite feature expansion of a kernel.

    kind "mercer": k(x,x') ~= sum_j lambdas[j] phi_j(x) phi_j(x'), features()
    returning the phi values, lambdas sorted non-increasing, sup_bounds the
    per-feature sup of |phi_j| over the build domain.

    kind "rff": k(x,x') ~= features(x)^T features(x'), weights absorbed into
    the features; lambdas are all ones so downstream code can treat both kinds
    through the same lambda-weighted interface.

    Each kind has one evaluation rule, _rows, and one layout: features(X)
    returns the features one row per feature, a C-ordered, read-only
    (count, n) array.  Every consumer reads them so: a batch of draws is
    scored as the (draws x count) by (count x n) product, and Phi(Z) and
    c(x) are column blocks of the same rows.

    features() remembers its last _MEMO_SLOTS inputs, keyed by their bytes:
    the first request of an input records only the key, and the second
    stores the matrix, which later requests of the same bytes get back
    instead of an evaluation.  A grid evaluated once is never stored, while
    the Phi(Z) and probe features that every draw from one model asks for
    are.  The memo lives as long as the map; a copy made by
    dataclasses.replace starts with an empty one.
    """

    kind: str
    dim: int
    lambdas: np.ndarray
    sup_bounds: np.ndarray
    origin: tuple = ()
    _axes: tuple = field(default=(), repr=False)
    _index: Optional[np.ndarray] = field(default=None, repr=False)
    _freqs: Optional[np.ndarray] = field(default=None, repr=False)
    _phase: Optional[float] = field(default=None, repr=False)
    _amp: float = field(default=0.0, repr=False)
    # [key, matrix or None] per remembered input, most recent first
    _memo: list = field(default_factory=list, init=False, repr=False, compare=False)

    def __post_init__(self):
        if np.shape(self.sup_bounds) != (self.count,):
            raise InvalidInputError("sup_bounds must hold one bound per lambda")

    @property
    def count(self) -> int:
        return self.lambdas.shape[0]

    def features(self, X) -> np.ndarray:
        """The features at the points X, one row per feature: (count, n), read-only."""
        X = _as_points(self.dim, X)
        # bytes, not values: -0.0 == 0.0, but sin(-0.0) is -0.0
        key = (X.shape, X.tobytes())
        memo = self._memo
        slot = next((s for s in memo if s[0] == key), None)
        if slot is not None and slot[1] is not None:
            F = slot[1]
        else:
            F = self._rows(X)
            F.flags.writeable = False
            if slot is None:
                slot = [key, None]      # first request: the key only
            else:
                slot[1] = F
        # F is always the slot's own, so a lost update under threads costs a miss only
        memo[:] = [slot] + [s for s in memo if s is not slot][: _MEMO_SLOTS - 1]
        return F

    def _rows(self, X: np.ndarray) -> np.ndarray:
        """The features at the points X, one row per feature: a fresh (count, n) array."""
        if self.kind == "mercer":
            if self._index is None:
                raise InvalidInputError("feature map carries no evaluation rule")
            for axis in range(self.dim):
                index = self._index[:, axis]
                phis = self._axes[axis].phis(X[:, axis], int(index.max()) + 1)
                if axis == 0:
                    rows = phis[index]
                else:
                    rows *= phis[index]
            return rows
        n_freq = self._freqs.shape[0]
        n_pair = n_freq if self.count % 2 == 0 else n_freq - 1
        rows = np.empty((self.count, X.shape[0]))
        # Per block of points, the phases z = X_b @ freqs^T go into a small
        # buffer, z^T into the sin rows and the odd map's shifted cosine into
        # the last row; then cos of the sin rows into the cos rows and sin in
        # place, every ufunc along contiguous rows.  No (n, M/2) phase matrix
        # is made.  Threads fill the columns of util.over_chunks' chunks, each
        # with its own phase buffer.
        sin, cos = rows[1 : 2 * n_pair : 2], rows[0 : 2 * n_pair : 2]
        freqs_t = self._freqs.T

        def fill(lo: int, hi: int, buf) -> None:
            for a, b in _blocks(lo, hi):
                z = np.matmul(X[a:b], freqs_t, out=buf[: b - a])
                sin[:, a:b] = z[:, :n_pair].T
                if self.count % 2 == 1:
                    np.cos(z[:, -1] + self._phase, out=rows[-1, a:b])
            np.cos(sin[:, lo:hi], out=cos[:, lo:hi])
            np.sin(sin[:, lo:hi], out=sin[:, lo:hi])
            rows[:, lo:hi] *= self._amp

        over_chunks(X.shape[0], fill, (_COPY_BLOCK + 1, n_freq))
        return rows


def _blocks(lo: int, hi: int) -> list:
    """The (a, b) spans of _COPY_BLOCK points that cover range(lo, hi), a
    one-point tail joined to the span before it."""
    edges = [*range(lo, hi, _COPY_BLOCK), hi]
    if len(edges) > 2 and edges[-1] - edges[-2] == 1:
        del edges[-2]
    return list(zip(edges[:-1], edges[1:]))


def _features_at(fm: FeatureMap, X: np.ndarray, F: Optional[np.ndarray] = None) -> np.ndarray:
    """fm.features(X), or F when the caller already holds it, checked by shape."""
    if F is None:
        return fm.features(X)
    if F.shape != (fm.count, X.shape[0]):
        raise InvalidInputError(
            f"features have shape {F.shape}, expected {(fm.count, X.shape[0])}"
        )
    return F


@functools.lru_cache(maxsize=32)
def _axis_sup(lengthscale: float, lo: float, hi: float, orders: int) -> np.ndarray:
    """sup of |phi_j| over [lo, hi] for j < orders by dense grid search on 1e4 points.

    Read-only; a run asks for the same kernel and box every time.
    """
    p = _mercer_axis(lengthscale, lo, hi).phis(np.linspace(lo, hi, 10_000), orders)
    sup = np.abs(p, out=p).max(axis=1)
    sup.flags.writeable = False
    return sup


def mercer_truncate(spec: KernelSpec, M: int, lower, upper) -> FeatureMap:
    """Top-M eigenpairs of an SE kernel over a box domain.

    Tensor-product eigenvalues are enumerated best-first (largest product
    first; lexicographically smaller index tuple on ties), so the map always
    carries the M largest.  Raises UnsupportedDecompositionError for Matern.
    """
    if spec.family != "se":
        raise UnsupportedDecompositionError(
            "analytic eigen-expansion is only available for the se family"
        )
    if M < 1:
        raise InvalidInputError("M must be >= 1")
    lo, hi = as_box(lower, upper)
    if lo.size != spec.dim:
        raise InvalidInputError("domain dimension does not match the kernel")
    axes = tuple(_mercer_axis(spec.lengthscales[i], lo[i], hi[i]) for i in range(spec.dim))
    per_dim = [ax.lambdas(M).tolist() for ax in axes]

    # best-first walk over index tuples, products taken in axis order.  Each
    # tuple is pushed once, by its parent: the tuple with its last nonzero index
    # (at axis `last`) one lower, so a popped tuple has children only along axes
    # >= last.  A parent's key (-lam, idx) sorts before its child's (lam does not
    # grow along an axis; on a tie idx is smaller), so pops come in key order.
    start = (0,) * spec.dim
    heap = [(-math.prod(lam[0] for lam in per_dim), start, 0)]
    index_rows = []
    lams = []
    while heap and len(index_rows) < M:
        neg, idx, last = heapq.heappop(heap)
        index_rows.append(idx)
        lams.append(-neg)
        for axis in range(last, spec.dim):
            if idx[axis] + 1 >= M:
                continue
            nxt = idx[:axis] + (idx[axis] + 1,) + idx[axis + 1 :]
            heapq.heappush(heap, (-math.prod(map(list.__getitem__, per_dim, nxt)), nxt, axis))

    index = np.asarray(index_rows, dtype=int)
    lambdas = spec.variance * np.asarray(lams)

    sup = np.ones(len(index_rows))
    for axis in range(spec.dim):
        orders = int(index[:, axis].max()) + 1
        sup *= _axis_sup(spec.lengthscales[axis], float(lo[axis]), float(hi[axis]),
                         orders)[index[:, axis]]

    return FeatureMap(
        kind="mercer",
        dim=spec.dim,
        lambdas=lambdas,
        sup_bounds=sup,
        origin=("mercer", tuple(float(v) for v in lo), tuple(float(v) for v in hi)),
        _axes=axes,
        _index=index,
    )


def rff_sample(spec: KernelSpec, M: int, seed: int) -> FeatureMap:
    """Random cosine features, deterministic in the seed.

    Even M gives cos/sin pairs sharing M/2 frequencies; an odd M appends one
    phase-shifted cosine, keeping the reconstruction unbiased but giving up
    the exact zero-lag identity.
    """
    if M < 1:
        raise InvalidInputError("M must be >= 1")
    rng = rng_from_path(seed, 0x52FF)
    n_freq = (M + 1) // 2
    z = rng.standard_normal((n_freq, spec.dim))
    if spec.family == "matern":
        g = rng.chisquare(2.0 * spec.nu, size=n_freq)
        z = z * np.sqrt(2.0 * spec.nu / g)[:, None]
    freqs = z / np.asarray(spec.lengthscales)
    phase = float(rng.uniform(0.0, 2.0 * math.pi)) if M % 2 == 1 else None
    amp = math.sqrt(2.0 * spec.variance / M)
    return FeatureMap(
        kind="rff",
        dim=spec.dim,
        lambdas=np.ones(M),
        sup_bounds=np.full(M, amp),
        origin=("rff", int(seed)),
        _freqs=freqs,
        _phase=phase,
        _amp=amp,
    )


def tail_mass(fm: FeatureMap, M: int) -> float:
    """Upper bound on sum_{j>M} lambda_j sup|phi_j|^2.

    Sums the computed spectrum from M+1 on, then closes the series with a
    geometric continuation: the last term times r/(1-r) where r is the final
    observed term ratio.  Only defined for Mercer maps.
    """
    if fm.kind != "mercer":
        raise UnsupportedDecompositionError("tail mass requires an eigen-expansion map")
    cap = fm.count
    if not (0 <= M < cap):
        raise InvalidInputError(f"need 0 <= M < {cap}, the computed spectrum size")
    terms = fm.lambdas * fm.sup_bounds ** 2
    body = float(np.sum(terms[M:]))
    if cap >= 2:
        r = terms[cap - 1] / terms[cap - 2]
        if not (0.0 < r < 1.0):
            r = fm.lambdas[cap - 1] / fm.lambdas[cap - 2]
        r = min(float(r), 1.0 - 1e-12)
        remainder = float(terms[cap - 1]) * r / (1.0 - r)
    else:
        remainder = float(terms[cap - 1])
    return body + remainder
