"""Decoupled posterior function draws and batch maximization.

A draw is one random function, cheap to evaluate anywhere:

    points:   f(x) = alpha sum_j sqrt(lambda_j) w_j phi_j(x) + sum_i v_i k(x, z_i)
    features: f(x) = alpha sum_j sqrt(lambda_j) w_j phi_j(x) + sum_i v_i lambda_i phi_i(x)

with w standard normal (the truncated prior part) and the update coefficients

    points:   v = K_ZZ^{-1} (alpha (u - m) + m - alpha Phi Lambda^{1/2} w)
    features: v = Lambda_m^{-1} (alpha (u - m) + m - alpha Lambda_m^{1/2} w_m)

where u is a fresh draw from q(u) = N(m, S), Phi the feature matrix at the
inducing points, and w_m the leading m prior weights.  Any alpha >= 1 scales
the deviation around the posterior mean without moving the mean: substituting
u = m, w = 0 gives exactly the model mean for every alpha.

Work is split by what it depends on.  Per model: the root R of S = R R^T
from eigh(S), which the model computes on its first draw and keeps.  Per
DrawSetup (model, feature map, alpha): the checks on alpha and on the map,
sqrt(lambda), and for points Phi = Phi(Z).  Per draw: the RNG calls for w
and u, in _normals, which reads only the seeds and sizes.  Per batch of k
draws: u = m + Xi R^T and the prior part (sqrt(lambda) w) (alpha Phi) as
two products, then one solve with k right-hand sides; one draw is the
batch k = 1.  Per set of evaluation points: F = fm.features(X) (M x n).
Per chunk of points: U_c = k(X_c, Z) (n_c x m) for points, or the
transpose of F_c's leading m rows for features.  DrawSetup.values scores
a chunk of k draws into k rows of the result, a chunk of points c at a
time, as

    out_c = W F_c;  out_c *= alpha (when alpha != 1);  out_c += (U_c V)^T

with W = sqrt(lambda) w one row per draw (k x M), V one column per draw
(m x k), both C-ordered, and W capped at _CHUNK_CELLS cells (up to 8192 draws
on an M <= 512 map is one product); each draw's values, and select_batch's
argmax over them, lie along a contiguous row.

The chunks of points, and the threads that take them, are util.over_chunks',
which documents why the values keep their bits; cli's multi-seed pool
workers score on one thread each.  The RFF feature rows of a grid are
filled in the same chunks.  select_batch evaluates Phi(Z) beside the root
of S and the draws' normals through util.together, which takes the pool
where over_chunks does.

In a run, fm.features is asked for the candidate grid once per distinct
grid (the grid stops changing once it is capped), so its memo keeps only the
key; the run holds the only copy and passes it to select_batch.  With a
Mercer map, inducing points picked from the observations come with Phi(Z)
gathered from the grid features of the steps that queried them, and
select_batch passes it on.  Phi(Z) is computed only for other inducing
points: the step-1 Halton set, k-means centers, and every Z under RFF, whose
X @ freqs^T is a GEMM that need not round a row as it does inside a larger X.
U_c and the root of S are rebuilt every step, since Z and S move with the data.

Outside a run, draw_sample(model, fm, alpha, seed) is that seed on a fresh
DrawSetup, and its eval_many(X) is row 0 of the set-up's values at X.  The
model keeps its root, and FeatureMap.features remembers an input from its
second request on, so the draws of one model share Phi(Z) and the features
at a repeated X.

Seed scheme (util.derive_seed): step seed = hash(run_seed, t), draw seed =
hash(step_seed, b).  Identical paths give identical draws on every platform.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_solve

from .errors import InvalidInputError
from .kernels import FeatureMap, _as_points, _features_at, kernel_matrix
from .svgp import SvgpModel
from .util import as_box, derive_seed, over_chunks, together

# most cells of W (M x draws) that DrawSetup.values scores in one product: 32 MiB
_CHUNK_CELLS = 2 ** 22


class DrawSetup:
    """Seed-independent part of every draw from one (model, feature map, alpha).

    Build it once and call values for many seeded draws: a draw then costs
    its RNG calls and its share of the products and the solve that turn a
    batch of draws' normals into coefficients.  The root of S comes from the
    model, which computes it on its first draw.  Phi, when given, must be
    fm.features(model.Z) of a points model; a caller that holds it skips the
    evaluation.
    """

    def __init__(self, model: SvgpModel, fm: FeatureMap, alpha: float, *,
                 Phi: np.ndarray | None = None):
        if alpha < 1.0:
            raise InvalidInputError("alpha must be >= 1")
        if fm.dim != model.spec.dim:
            raise InvalidInputError("feature map dimension does not match the model")
        if model.variant == "features":
            own, m = model.feature_map, model.m_count
            if (fm.kind != "mercer" or fm.count < m or fm.origin != own.origin
                    or not np.array_equal(fm.lambdas[:m], own.lambdas[:m])):
                raise InvalidInputError(
                    "features-variant draws need the model's own eigen-expansion map"
                )
        self.model, self.fm, self.alpha = model, fm, alpha
        self.rootlam = np.sqrt(fm.lambdas)
        self.Phi = _features_at(fm, model.Z, Phi) if model.variant == "points" else None

    def values(self, X, seeds, *, F: np.ndarray | None = None) -> np.ndarray:
        """Row b: the draw of generator np.random.default_rng(seeds[b]) at the rows of X.

        F, when given, must be fm.features(X); a caller that holds it skips
        the evaluation.  Per chunk of draws, W capped at _CHUNK_CELLS cells:
        the chunk's _normals, then _into.  A chunk of k > 1 draws equals k
        chunks of one up to the summation order of the products and the solve.
        """
        X = _as_points(self.fm.dim, X)
        F = _features_at(self.fm, X, F)
        chunk = max(1, _CHUNK_CELLS // self.fm.count)
        out = np.empty((len(seeds), X.shape[0]))
        for lo in range(0, len(seeds), chunk):
            normals = _normals(seeds[lo:lo + chunk], self.fm.count, self.model.m_count)
            self._into(X, F, *normals, out[lo:lo + chunk])
        return out

    def _into(self, X: np.ndarray, F: np.ndarray, w: np.ndarray, xi: np.ndarray,
              out: np.ndarray) -> None:
        """The draws of _normals' rows (w, xi) at the rows of X, whose features
        are F, into the rows of out: sqrt(lambda) w, made in place in w, and
        v, one row per draw, then _score."""
        model, alpha, m = self.model, self.alpha, self.model.m_count
        rootlam_w = np.multiply(w, self.rootlam, out=w)
        u = model.m_vec + xi @ model._s_root.T
        centered = alpha * (u - model.m_vec) + model.m_vec
        if model.variant == "points":
            # alpha scales Phi, as in the single-draw rootlam_w @ (alpha * Phi):
            # a draw of its own (k = 1) keeps that product's bits for every alpha
            rhs = centered - rootlam_w @ (alpha * self.Phi)
            v = cho_solve((model._chol_P, True), rhs.T).T
        else:
            # v = Lambda_m^{-1} (...), then times Lambda_m for the update basis
            # phi_m: two roundings that recorded logs carry
            lam = model.feature_map.lambdas[:m]
            v = lam * ((centered - alpha * rootlam_w[:, :m]) / lam)
        # V one column per draw, C-ordered: BLAS may sum a Fortran-ordered
        # operand differently
        _score(model, alpha, X, F, rootlam_w, np.ascontiguousarray(v.T), out)


def _normals(seeds, M: int, m: int) -> tuple[np.ndarray, np.ndarray]:
    """The standard normals of the draws of seeds, one row per seed: generator
    np.random.default_rng(seed) gives its M prior weights w, then the m
    normals xi of its u.  They depend on the seeds and sizes alone."""
    w, xi = np.empty((len(seeds), M)), np.empty((len(seeds), m))
    for j, seed in enumerate(seeds):
        rng = np.random.default_rng(seed)
        w[j] = rng.standard_normal(M)
        xi[j] = rng.standard_normal(m)
    return w, xi


def _score(model: SvgpModel, alpha: float, X: np.ndarray, F: np.ndarray, W: np.ndarray,
           V: np.ndarray, out: np.ndarray) -> None:
    """Values of k draws at the rows of X into out (k x n), in util.over_chunks'
    chunks.  Per chunk c: the update basis U_c, k(X_c, Z) for points (into the
    thread's scratch) or the transpose of F_c's leading m rows for features,
    then _on_basis into the chunk's columns of out.
    """
    points = model.variant == "points"

    def chunk(lo: int, hi: int, buf) -> None:
        F_c = F[:, lo:hi]
        U_c = (kernel_matrix(model.spec, X[lo:hi], model.Z, out=buf[: hi - lo])
               if points else F_c[: model.m_count].T)
        _on_basis(F_c, U_c, alpha, W, V, out[:, lo:hi])

    over_chunks(X.shape[0], chunk, (X.shape[0], model.m_count) if points else None)


def _on_basis(F: np.ndarray, U: np.ndarray, alpha: float, W: np.ndarray, V: np.ndarray,
              out: np.ndarray) -> None:
    """Values of k draws into out (k x n), one per row of W (k x M) and column
    of V (m x k), at the points whose prior features are F (M x n) and update
    basis U (n x m): W F, scaled by alpha, plus (U V)^T."""
    np.matmul(W, F, out=out)
    if alpha != 1.0:
        out *= alpha
    out += (U @ V).T


@dataclass(frozen=True)
class SampleFunction:
    """One posterior draw: the draw of seed in setup.values."""

    setup: DrawSetup
    seed: int

    def eval_many(self, X) -> np.ndarray:
        """This draw's values at the rows of X, an array of its own: row 0 of
        setup.values, whose features come from fm.features' memo for a
        repeated X."""
        return self.setup.values(X, [self.seed])[0].copy()


def draw_sample(model: SvgpModel, fm: FeatureMap, alpha: float, seed: int) -> SampleFunction:
    """One decoupled draw, keyed by the seed: the seed on a fresh DrawSetup.

    The set-up's checks run here; each eval_many makes the draw's random
    numbers afresh.  The root of S comes from the model after its first
    draw, and Phi(Z) from the feature map's memo after the first two calls.
    To draw many times from one model, build a DrawSetup once and call its
    values, which gives the same values for the same seed.
    """
    return SampleFunction(DrawSetup(model, fm, alpha), seed)


def decoupled_mean_cov(
    model: SvgpModel, fm: FeatureMap, alpha: float, X
) -> tuple[np.ndarray, np.ndarray]:
    """Analytic mean and covariance of the sampling rule.

    The mean equals the model mean for every alpha; the covariance is
    alpha^2 times the alpha = 1 covariance.  Differs from the model's
    posterior covariance only through the spectral truncation of the prior
    part, which is what the eps deviation constant accounts for.
    """
    setup = DrawSetup(model, fm, alpha)
    X = _as_points(fm.dim, X)
    mean = model.mean(X)
    F = fm.features(X)
    lam = fm.lambdas
    if model.variant == "points":
        H = cho_solve((model._chol_P, True), kernel_matrix(model.spec, model.Z, X))
        G = F - setup.Phi @ H                       # residual feature coords
        cov = (G * lam[:, None]).T @ G + H.T @ model.S_mat @ H
    else:
        m = model.m_count
        tail = (F[m:] * lam[m:, None]).T @ F[m:]
        cov = tail + F[:m].T @ model.S_mat @ F[:m]
    return mean, alpha * alpha * cov


@dataclass(frozen=True)
class Discretization:
    """Candidate grid for one step: points, whether the cap replaced the lattice,
    and the density constant."""

    points: np.ndarray
    capped: bool
    density_const: float

    @property
    def n_points(self) -> int:
        return self.points.shape[0]


def _primes(count: int) -> list:
    """The first count primes, by trial division."""
    primes, k = [], 2
    while len(primes) < count:
        if all(k % p for p in primes if p * p <= k):
            primes.append(k)
        k += 1
    return primes


@functools.lru_cache(maxsize=8)
def _unit_halton(d: int, n: int) -> np.ndarray:
    """The first n points of the unscrambled d-dim Halton sequence, read-only.

    Point i, from i = 0 (the origin), holds in dimension j the radical
    inverse of i in the j-th prime base b: with b2r = 1/b and q = i, while
    q > 0 add (q % b) * b2r, then divide b2r by b and floor-divide q by b,
    least significant digit first.  These are the operations and the order
    of scipy.stats.qmc.Halton(d, scramble=False).random(n), so the points
    are its bits, in its layout: an (n, d) view of a (d, n) array.
    """
    cols = np.zeros((d, n))
    for col, base in zip(cols, _primes(d)):
        q, b2r = np.arange(n), 1.0 / base
        while q.any():
            col += (q % base) * b2r
            b2r /= base
            q //= base
    unit = cols.T
    unit.flags.writeable = False
    return unit


def build_grid(lower, upper, t: int, lipschitz: float, cap: int) -> Discretization:
    """Axis-aligned grid with spacing at most 2 / (L t^2 sqrt(d)).

    When the full grid would exceed cap points, a deterministic Halton set of
    exactly cap points replaces it; the unit set is generated once per
    (d, cap) and scaled to the box into fresh points on every call.  Either
    way n_points <= C t^(2d) with C recorded on the result.
    """
    lo, hi = as_box(lower, upper)
    if t < 1 or lipschitz <= 0 or cap < 2:
        raise InvalidInputError("need t >= 1, lipschitz > 0, cap >= 2")
    d = lo.size
    h = 2.0 / (lipschitz * t * t * math.sqrt(d))
    counts = [max(2, int(math.ceil((hi[i] - lo[i]) / h)) + 1) for i in range(d)]
    density_const = float(np.prod([(hi[i] - lo[i]) * lipschitz * math.sqrt(d) / 2.0 + 2.0
                                   for i in range(d)]))
    # math.prod keeps exact ints; np.prod would wrap at int64 for fine lattices
    total = math.prod(counts)
    if total <= cap:
        axes = [np.linspace(lo[i], hi[i], counts[i]) for i in range(d)]
        mesh = np.meshgrid(*axes, indexing="ij")
        pts = np.stack([m.ravel() for m in mesh], axis=1)
        return Discretization(points=pts, capped=False, density_const=density_const)
    pts = lo + _unit_halton(d, cap) * (hi - lo)
    return Discretization(points=pts, capped=True, density_const=density_const)


def select_batch(
    model: SvgpModel,
    fm: FeatureMap,
    grid: Discretization,
    B: int,
    alpha: float,
    step_seed: int,
    *,
    F: np.ndarray | None = None,
    Phi: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """B independent draws, each maximized over the grid.

    Returns (points, indices).  Draw b uses seed hash(step_seed, b); ties in
    the argmax resolve to the lowest grid index.  F, when given, must be
    fm.features(grid.points); a caller whose grid repeats across steps
    passes it to skip the re-evaluation.  Phi goes to DrawSetup, which
    documents it; when a points model comes without it, util.together runs
    fm.features(model.Z) beside the model's root of S and the draws'
    _normals, which depend on the seeds alone.  The B draws are scored by
    DrawSetup._into into a B x n_points values matrix, as one chunk of draws
    (DrawSetup.values' chunk for any B up to 2^22 / M) and in the module's
    chunks of points.  The argmax runs along each draw's contiguous row.
    """
    if B < 1:
        raise InvalidInputError("B must be >= 1")
    X = _as_points(fm.dim, grid.points)
    seeds = [derive_seed(step_seed, b) for b in range(B)]
    draw_normals = functools.partial(_normals, seeds, fm.count, model.m_count)
    if Phi is None and model.variant == "points":
        # the root of S, which the model computes here and keeps, and the
        # normals beside Phi(Z)
        (_, normals), Phi = together(X.shape[0], lambda: (model._s_root, draw_normals()),
                                     functools.partial(fm.features, model.Z))
    else:
        normals = draw_normals()
    setup = DrawSetup(model, fm, alpha, Phi=Phi)
    values = np.empty((B, X.shape[0]))
    setup._into(X, _features_at(fm, X, F), *normals, values)
    idx = np.argmax(values, axis=1)
    return grid.points[idx], idx
