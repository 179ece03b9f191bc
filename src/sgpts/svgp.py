"""Sparse variational GP surrogates with conjugate closed-form fits.

Two inducing-variable families share one model type.  Each is described by
the prior covariance P of the inducing variables u and the cross-covariance
c(x) = cov(u, f(x)):

* "points": inducing outputs u = f(Z) at m locations Z, so P = K_ZZ and
  c(x) = k(Z, x).
* "features": inducing variables are the leading m eigenfunction integrals
  of a Mercer expansion, so P = Lambda_m (diagonal) and
  c(x) = Lambda_m phi_m(x).

Given q(u) = N(m, S) the posterior predictive is

    mean(x)    = c(x)^T P^{-1} m
    cov(x,x')  = k(x,x') - c(x)^T P^{-1} c(x') + c(x)^T P^{-1} S P^{-1} c(x')

For Gaussian likelihoods with noise variance tau the optimal q(u) is closed
form (Titsias 2009).  With C the m x n matrix of c at the training inputs:

    Sigma = P + C C^T / tau,   m = P Sigma^{-1} C y / tau,   S = P Sigma^{-1} P

Every model, fitted or not, is held in that one form: Sigma = P S^{-1} P,
so that P^{-1} S P^{-1} = Sigma^{-1} and, with L_P and L_Sigma the lower
Cholesky factors of P and Sigma,

    mean(x)    = c(x)^T a,   a = P^{-1} m
    cov(x,x')  = k(x,x') - (L_P^{-1} c(x))^T (L_P^{-1} c(x'))
                         + (L_Sigma^{-1} c(x))^T (L_Sigma^{-1} c(x'))

Only triangular solves are involved and nothing is multiplied by P^{-1}
twice, which keeps the Z = X collapse onto the exact posterior accurate even
for ill-conditioned grams.
"""

from __future__ import annotations

import functools
import json
import math
import operator
from dataclasses import asdict, dataclass, replace
from typing import Optional

import numpy as np
from scipy.linalg import cho_solve, solve_triangular

from .errors import (
    ExplorationInfeasibleError,
    InvalidInputError,
    NumericalDegeneracyError,
    UnsupportedDecompositionError,
)
from .exact_gp import Dataset, fit_exact
from .kernels import (
    FeatureMap,
    KernelSpec,
    _as_points,
    _features_at,
    kernel_matrix,
    mercer_truncate,
)
from .util import chol_psd, clamp_variance, rng_from_path


@dataclass
class SvgpModel:
    """Variational posterior; treat as immutable once constructed.

    Exactly one of Z (points variant) or feature_map+m_count (features
    variant) is set.  m_vec and S_mat are the moments of q(u).

    Predictions read three caches: _a = P^{-1} m, _chol_P = L_P and
    _chol_Sigma = L_Sigma for Sigma = P S^{-1} P.  Leaving m_vec and S_mat
    unset gives the prior q(u) = N(0, P), with _a = 0 and _chol_Sigma =
    _chol_P, since Sigma = P when there is no data.  Closed-form fits pass the
    caches they compute anyway.  Any other construction (a snapshot, a
    perturbed model) leaves them unset, and __post_init__ derives all three
    from (m_vec, S_mat): L_P = chol(P), a by a Cholesky solve, and Sigma =
    G^T G with G = L_S^{-1} P.

    Draws read m_vec, S_mat through its root S = R R^T (from eigh(S), which
    _s_root computes on the model's first draw and keeps) and
    _chol_P through cho_solve, and the believed-best pick reads _a, so run
    logs carry their exact bits.  The fit therefore keeps m_vec = P (Sigma^{-1} C y) / tau,
    S_mat = P Sigma^{-1} P with an explicit Sigma^{-1}, _a = Sigma^{-1} C y
    / tau and _chol_P = chol(P) as written: algebraically equal forms, such
    as S_mat = G^T G with G = L_Sigma^{-1} P, round differently and change
    recorded run logs.
    """

    spec: KernelSpec
    tau: float
    m_vec: Optional[np.ndarray] = None
    S_mat: Optional[np.ndarray] = None
    Z: Optional[np.ndarray] = None
    feature_map: Optional[FeatureMap] = None
    m_count: int = 0
    _a: Optional[np.ndarray] = None
    _chol_P: Optional[np.ndarray] = None
    _chol_Sigma: Optional[np.ndarray] = None

    def __post_init__(self):
        if (self.Z is None) == (self.feature_map is None):
            raise InvalidInputError("set exactly one of Z or feature_map")
        if self.tau <= 0:
            raise InvalidInputError("tau must be positive")
        if self.variant == "points":
            self.Z = np.atleast_2d(np.asarray(self.Z, dtype=float))
            self.m_count = self.Z.shape[0]
            if self.Z.shape[1] != self.spec.dim:
                raise InvalidInputError("inducing points do not match kernel dimension")
        else:
            if self.feature_map.kind != "mercer":
                raise UnsupportedDecompositionError(
                    "the features variant needs an eigen-expansion map"
                )
            if not 1 <= self.m_count <= self.feature_map.count:
                raise InvalidInputError("m_count must lie in [1, feature_map.count]")
        m = self.m_count
        if (self.m_vec is None) != (self.S_mat is None):
            raise InvalidInputError("set both m_vec and S_mat, or neither for the prior")
        if self.m_vec is None:
            P = self.prior_cov()
            self.m_vec, self.S_mat, self._a = np.zeros(m), P, np.zeros(m)
            self._chol_P = self._chol_Sigma = chol_psd(P)
        self.m_vec = np.asarray(self.m_vec, dtype=float).reshape(m)
        self.S_mat = np.asarray(self.S_mat, dtype=float).reshape(m, m)
        if self._a is None:
            P = self.prior_cov()
            self._chol_P = chol_psd(P)
            self._a = cho_solve((self._chol_P, True), self.m_vec)
            G = solve_triangular(chol_psd(self.S_mat), P, lower=True)
            self._chol_Sigma = chol_psd(G.T @ G)

    @functools.cached_property
    def _s_root(self) -> np.ndarray:
        """R with S = R R^T from eigh(S), kept after the first read.  Not a field,
        so a model made by dataclasses.replace computes its own."""
        vals, vecs = np.linalg.eigh(self.S_mat)
        return vecs * np.sqrt(np.maximum(vals, 0.0))

    @property
    def variant(self) -> str:
        return "points" if self.Z is not None else "features"

    def prior_cov(self) -> np.ndarray:
        if self.variant == "points":
            return kernel_matrix(self.spec, self.Z)
        return np.diag(self.feature_map.lambdas[: self.m_count])

    def _cross(self, X, F: Optional[np.ndarray] = None) -> np.ndarray:
        """c(x) = cov(u, f(x)) per column: k(Z, x), or lambda_j phi_j(x) for features.

        F, when given, is feature_map.features(X); only the features variant reads it.
        """
        if self.variant == "points":
            return kernel_matrix(self.spec, self.Z, X)
        lam = self.feature_map.lambdas[: self.m_count]
        return lam[:, None] * _features_at(self.feature_map, X, F)[: self.m_count]

    def _whiten(self, C: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return (solve_triangular(self._chol_P, C, lower=True),
                solve_triangular(self._chol_Sigma, C, lower=True))

    def nystrom_residual(self, X) -> np.ndarray:
        """k(x,x) - c(x)^T P^{-1} c(x) per row of X: prior variance the inducing set misses."""
        V = solve_triangular(self._chol_P, self._cross(X), lower=True)
        return self.spec.variance - np.sum(V * V, axis=0)

    def predict(self, X) -> tuple[np.ndarray, np.ndarray]:
        """Posterior mean and variance at each row of X."""
        X = _as_points(self.spec.dim, X)
        C = self._cross(X)
        V, W = self._whiten(C)
        var = self.spec.variance - np.sum(V * V, axis=0) + np.sum(W * W, axis=0)
        return C.T @ self._a, clamp_variance(var)

    def mean(self, X, *, F: Optional[np.ndarray] = None) -> np.ndarray:
        """predict's posterior mean alone, with its bits: no variance solves."""
        return self._cross(_as_points(self.spec.dim, X), F).T @ self._a

    def cov(self, X) -> np.ndarray:
        """Posterior covariance matrix at the rows of X."""
        X = _as_points(self.spec.dim, X)
        V, W = self._whiten(self._cross(X))
        return kernel_matrix(self.spec, X) - V.T @ V + W.T @ W


def fit_svgp_closed_form(
    data: Dataset,
    spec: KernelSpec,
    tau: float,
    Z=None,
    feature_map: Optional[FeatureMap] = None,
    m: Optional[int] = None,
    *,
    F: Optional[np.ndarray] = None,
) -> SvgpModel:
    """Optimal q(u) for the conjugate likelihood; prior moments when data is empty.

    F, when given, must be feature_map.features(data.X): a caller that holds
    it skips the evaluation.  The points variant ignores it.
    """
    prior = SvgpModel(spec=spec, tau=tau, Z=Z, feature_map=feature_map, m_count=m or 0)
    if data.n == 0:
        return prior
    P = prior.S_mat
    C = prior._cross(data.X, F)
    cSigma = chol_psd(P + (C @ C.T) / tau)
    sol_y = cho_solve((cSigma, True), C @ data.y)
    S_mat = P @ cho_solve((cSigma, True), np.eye(prior.m_count)) @ P
    # the mean cache P^{-1} m reduces to Sigma^{-1} C y / tau, no gram inverse involved
    return replace(prior, m_vec=P @ sol_y / tau, S_mat=0.5 * (S_mat + S_mat.T),
                   _a=sol_y / tau, _chol_Sigma=cSigma)


def elbo(data: Dataset, model: SvgpModel) -> float:
    """Evidence lower bound at (m_vec, S_mat); zero observations return 0.

    Gaussian-likelihood form: per-point expected log density, i.e. the log
    density at the posterior mean minus the posterior variance over 2 tau,
    minus KL(q(u) || prior).  With S = P Sigma^{-1} P the KL term reads

        1/2 (||L_Sigma^{-1} L_P||_F^2 + m^T P^{-1} m - m_count
             + log det Sigma - log det P)

    At the closed-form optimum the bound equals the collapsed expression
    -1/2 y^T (Q + tau I)^{-1} y - 1/2 log det(Q + tau I) - (n/2) log 2 pi
    - theta / (2 tau).
    """
    if data.n == 0:
        return 0.0
    tau = model.tau
    mu, var = model.predict(data.X)
    fit_term = -0.5 * data.n * math.log(2.0 * math.pi * tau)
    fit_term -= float(np.sum((data.y - mu) ** 2) + np.sum(var)) / (2.0 * tau)
    R = solve_triangular(model._chol_Sigma, model._chol_P, lower=True)
    logdet_Sigma = 2.0 * float(np.sum(np.log(np.diag(model._chol_Sigma))))
    logdet_P = 2.0 * float(np.sum(np.log(np.diag(model._chol_P))))
    kl = 0.5 * (float(np.sum(R * R)) + float(model.m_vec @ model._a) - model.m_count
                + logdet_Sigma - logdet_P)
    return fit_term - kl


def trace_residual(data: Dataset, model: SvgpModel) -> float:
    """theta = trace of the Nystrom residual K_XX - C^T P^{-1} C at the training inputs."""
    if data.n == 0:
        return 0.0
    return max(float(np.sum(model.nystrom_residual(data.X))), 0.0)


def kl_to_exact(data: Dataset, model: SvgpModel) -> float:
    """KL(approximate || exact) for function values at the training inputs,
    the marginal the certificate theta / tau applies to.  A 1e-12 jitter is
    added equally to both covariances so the KL stays finite when the
    approximate covariance is rank-deficient; it is this audit's own and
    separate from the retry jitter of the factorizations.
    """
    if data.n == 0:
        return 0.0
    X, p = data.X, data.n
    exact = fit_exact(data, model.spec, model.tau)
    mu_e = exact.predict(X)[0]
    cov_e = exact.cov(X)
    mu_a = model.mean(X)
    cov_a = model.cov(X)
    jit = 1e-12 * np.eye(p)
    cE = chol_psd(cov_e + jit)
    cA = chol_psd(cov_a + jit)
    solve_e = lambda rhs: cho_solve((cE, True), rhs)
    diff = mu_e - mu_a
    tr = float(np.trace(solve_e(cov_a + jit)))
    quad = float(diff @ solve_e(diff))
    logdet_e = 2.0 * float(np.sum(np.log(np.diag(cE))))
    logdet_a = 2.0 * float(np.sum(np.log(np.diag(cA))))
    return max(0.5 * (tr + quad - p + logdet_e - logdet_a), 0.0)


def select_inducing_greedy(data: Dataset, spec: KernelSpec, m: int) -> np.ndarray:
    """Row indices of the greedy maximum-residual-variance inducing points,
    in pivoted-Cholesky order; the points are data.X[picks].

    Ties resolve to the lowest index, so for stationary kernels the first
    pick is always row 0.  When the residual variance collapses to 1e-12
    before m picks (duplicated inputs), the shorter set is returned; with no
    variance at the first pick, NumericalDegeneracyError is raised.
    """
    if not 1 <= m <= data.n:
        raise InvalidInputError(f"m must lie in [1, {data.n}]")
    K = kernel_matrix(spec, data.X)
    d = np.diag(K).copy()
    L = np.zeros((data.n, m))
    picks = []
    for j in range(m):
        p = int(np.argmax(d))
        if d[p] <= 1e-12:
            if picks:
                break
            raise NumericalDegeneracyError("no residual variance at the first pick")
        col = K[:, p] - L[:, :j] @ L[p, :j]
        L[:, j] = col / math.sqrt(d[p])
        d = np.maximum(d - L[:, j] ** 2, 0.0)
        picks.append(p)
    return np.array(picks)


def select_inducing_kmeans(data: Dataset, m: int, seed: int) -> np.ndarray:
    """Lloyd's algorithm on the inputs; deterministic given the seed.

    Init draws m distinct rows.  Each round assigns every row to its nearest
    center, the lowest index on ties, and then re-seeds every emptied
    cluster, in index order, with its own row: the one farthest from its
    assigned centroid among rows whose cluster keeps another member.  Then
    every centroid is the mean of its rows.  Iteration stops when the
    assignment is stable or after 100 rounds.

    Bit contract: the assignment is the argmin of e_ij = sum_k (x_ik - c_jk)^2
    summed one coordinate at a time, numpy's order for an (n, m, d)
    broadcast summed over its last axis when d <= 7 (from 8 terms on numpy
    sums pairwise).  It is found from one GEMM a round, Elkan-style pruning
    with an exact fallback: a_ij = x_i . (-2 c_j) + |c_j|^2 leaves out |x_i|^2,
    the same along a row, and with u = 2^-53, g_n = n u / (1 - n u) and
    S_i = |x_i|^2 + max_j |c_j|^2, |e_ij - (a_ij + |x_i|^2)| <= 4 g_(d+2) S_i.
    (The GEMM, |c_j|^2 and their sum round within 2 g_(d+1) S_i, through
    2 |x . c| <= |x|^2 + |c|^2; e within g_(d+2) e <= 2 g_(d+2) S_i.)  With E_i
    = 8 (d + 2) u S_i, which also covers the rounding of E_i and of the gap, a
    row whose runner-up a lies more than 2 E_i above its minimum has that
    argmin alone under e.  Every other row (ties, duplicated centers,
    lattice inputs, inputs far from the origin, where E_i is large) takes
    the argmin of its exact e.  A round that re-seeds computes the exact e of
    each row to its own center, the only distances the re-seed reads.

    Centers have the arithmetic of ndarray.mean under a boolean mask per
    cluster: add.reduce of the cluster's rows, then one true divide by its
    count.  For d >= 2 add.reduce(axis=0) adds the rows in index order to
    0.0, its identity (so a sum of -0.0s is 0.0), and one np.add.at of the
    rows, sorted stably by cluster, into zeros gives those sums.  At d = 1
    numpy sums the column pairwise, so each cluster's slice is add.reduce'd
    on its own.
    """
    uniq = data.distinct_rows
    if m > uniq.shape[0]:
        raise InvalidInputError(f"m={m} exceeds the {uniq.shape[0]} distinct points")
    if m < 1:
        raise InvalidInputError("m must be >= 1")
    rng = rng_from_path(seed, 0x4B4D)
    centers = uniq[rng.choice(uniq.shape[0], size=m, replace=False)]
    X = data.X
    n, d = X.shape
    assign = np.full(n, -1)
    for _ in range(100):
        new_assign = _nearest(X, centers)
        if np.array_equal(new_assign, assign):
            break
        assign = new_assign
        counts = np.bincount(assign, minlength=m)
        if not counts.all():
            own = _sqdist(X, centers[assign])
            for c in np.flatnonzero(counts == 0):
                far = np.where(counts[assign] > 1, own, -np.inf)
                worst = int(np.argmax(far))
                counts[assign[worst]] -= 1
                assign[worst], counts[c] = c, 1
        # stable sort: each cluster's rows stay in index order, as under a mask
        order = np.argsort(assign, kind="stable")
        if d >= 2:
            centers = np.zeros((m, d))
            np.add.at(centers, assign[order], X[order])
        else:
            Xs, ends = X[order], np.cumsum(counts)
            for c in range(m):
                centers[c] = np.add.reduce(Xs[ends[c] - counts[c]:ends[c]], axis=0)
        centers /= counts[:, None]
    return centers


def _nearest(X: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Each row's nearest center, the lowest index on ties, as
    select_inducing_kmeans documents: the argmin of a = X (-2 C^T) + |c|^2,
    and for the rows whose runner-up lies within 2 E of their minimum (or
    whose gap is NaN) the argmin of their exact _sqdist."""
    rows, d = np.arange(X.shape[0]), X.shape[1]
    cc = np.einsum("ij,ij->i", centers, centers)
    a = X @ (-2.0 * centers.T)
    a += cc
    nearest = np.argmin(a, axis=1)
    best = a[rows, nearest]
    a[rows, nearest] = np.inf
    E = 8.0 * (d + 2) * 2.0 ** -53 * (np.einsum("ij,ij->i", X, X) + cc.max())
    close = np.flatnonzero(~(a.min(axis=1) - best > 2.0 * E))
    if close.size:
        nearest[close] = np.argmin(_sqdist(X[close, None], centers), axis=1)
    return nearest


def _sqdist(X: np.ndarray, C: np.ndarray) -> np.ndarray:
    """sum_k (x_k - c_k)^2 over the last axis of X and C broadcast together,
    one coordinate at a time."""
    d2 = np.square(X[..., 0] - C[..., 0])
    for k in range(1, X.shape[-1]):
        d2 += np.square(X[..., k] - C[..., k])
    return d2


@dataclass(frozen=True)
class ApproxQuality:
    """Constants the exploration schedule consumes.

    kappa controls everything: c = sqrt(kappa) bounds the scaled mean gap,
    [1/a_under, a_over] sandwich the deviation ratio, and eps bounds the
    sampling rule's extra deviation from spectral truncation.
    """

    kappa: float
    c: float
    a_under: float
    a_over: float
    eps: float


def approximation_constants(
    t: int,
    B: int,
    m_t: int,
    tau: float,
    delta: float,
    delta_m: float,
    delta_M: float,
    prec_norm: float,
    variant: str,
    eps0: float = 0.0,
) -> ApproxQuality:
    """Approximation-quality constants for step t.

    points:   kappa = 2 t B (m_t + 1) delta_m / (tau delta) + 4 t B eps0 / (tau delta)
    features: kappa = 2 t B delta_m / tau

    Feasible exploration needs sqrt(3 kappa) < 1; otherwise the schedule has
    no valid scaling and ExplorationInfeasibleError is raised.
    """
    if variant not in ("points", "features"):
        raise InvalidInputError("variant must be 'points' or 'features'")
    if min(t, B, m_t) < 1 or tau <= 0 or not 0 < delta < 1:
        raise InvalidInputError("bad schedule inputs")
    if min(delta_m, delta_M, eps0) < 0 or prec_norm < 1:
        raise InvalidInputError("bad approximation-quality inputs")
    if variant == "points":
        kappa = 2.0 * t * B * (m_t + 1) * delta_m / (tau * delta) + 4.0 * t * B * eps0 / (
            tau * delta
        )
    else:
        kappa = 2.0 * t * B * delta_m / tau
    root = math.sqrt(3.0 * kappa)
    if root >= 1.0:
        raise ExplorationInfeasibleError(
            f"kappa={kappa:.4g} gives sqrt(3 kappa)={root:.4g} >= 1; "
            "increase m or loosen tau/delta"
        )
    return ApproxQuality(
        kappa=kappa,
        c=math.sqrt(kappa),
        a_under=1.0 / math.sqrt(1.0 - root),
        a_over=math.sqrt(1.0 + root),
        eps=math.sqrt(prec_norm * m_t * delta_M),
    )


def precision_sup_norm(model: SvgpModel) -> float:
    """1 + the max-abs-row-sum norm of the prior precision over the inducing set."""
    if model.variant == "points":
        Pinv = cho_solve((model._chol_P, True), np.eye(model.m_count))
        return 1.0 + float(np.max(np.sum(np.abs(Pinv), axis=1)))
    return 1.0 + float(1.0 / model.feature_map.lambdas[model.m_count - 1])


# ---------------------------------------------------------------------------
# snapshot serialization


def write_snapshot(model: SvgpModel) -> str:
    """JSON of the model's defining fields.  Each float is written as its repr,
    so load_snapshot rebuilds m_vec, S_mat and Z bit for bit."""
    doc = {"tau": model.tau, "kernel": asdict(model.spec),
           "m_vec": model.m_vec.tolist(), "S_mat": model.S_mat.tolist()}
    if model.variant == "points":
        doc["Z"] = model.Z.tolist()
    elif model.feature_map.origin[:1] != ("mercer",):
        raise UnsupportedDecompositionError("only maps built by mercer_truncate snapshot")
    else:
        _, lower, upper = model.feature_map.origin
        doc["features"] = {"m": model.m_count, "count": model.feature_map.count,
                           "lower": lower, "upper": upper}
    return json.dumps(doc, default=lambda v: v.item())     # numpy scalars as Python ones


def load_snapshot(text: str) -> SvgpModel:
    """Model from write_snapshot's JSON; a malformed document raises InvalidInputError."""
    def numbers(obj, key: str, ndim: int) -> np.ndarray:
        arr = np.array(obj[key], dtype=object)  # JSON numbers only: no bools, strings or nulls
        if arr.ndim != ndim or not all(type(v) in (int, float) for v in arr.flat):
            raise InvalidInputError(f"snapshot field {key!r} is not a {ndim}-d array of numbers")
        return arr.astype(float)
    try:
        doc = json.loads(text)
        spec, tau = KernelSpec(**doc["kernel"]), float(numbers(doc, "tau", 0))
        q = numbers(doc, "m_vec", 1), numbers(doc, "S_mat", 2)
        if "features" not in doc:
            return SvgpModel(spec, tau, *q, Z=numbers(doc, "Z", 2))
        f = doc["features"]
        fm = mercer_truncate(spec, operator.index(f["count"]),
                             numbers(f, "lower", 1), numbers(f, "upper", 1))
        return SvgpModel(spec, tau, *q, feature_map=fm, m_count=operator.index(f["m"]))
    except InvalidInputError:
        raise
    except (ValueError, TypeError, KeyError, OverflowError) as exc:
        raise InvalidInputError(f"malformed snapshot: {exc}") from exc
