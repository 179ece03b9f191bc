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
sqrt(lambda), and for points Phi = Phi(Z).  Per draw: the RNG calls for w and
u.  Per batch of k draws: u = m + Xi R^T and the prior part
(sqrt(lambda) w) (alpha Phi)^T as two products, then one solve with k
right-hand sides; one draw is the batch k = 1.  Per set of evaluation
points: F, the prior features one row per feature (M x n,
kernels.feature_rows).  Per chunk of points: U_c = k(X_c, Z) (n_c x m) for
points, or the transpose of F_c's leading m rows for features.
DrawSetup.values scores a chunk of k draws into k rows of the result, a
chunk of points c at a time, as

    out_c = W F_c;  out_c *= alpha (when alpha != 1);  out_c += (U_c V)^T

with W = sqrt(lambda) w one row per draw (k x M), V one column per draw
(m x k), both C-ordered, and W capped at _CHUNK_CELLS cells (up to 8192 draws
on an M <= 512 map is one product); each draw's values, and select_batch's
argmax over them, lie along a contiguous row.  eval_many is the same
evaluator at k = 1 on the transpose of fm.features(X), which keeps the memo.
Against the former (n x M) by (M x k) product, values at the 8000 x 512 RFF
grid keep their bits, while on Mercer maps (M = 128, 256) the prior product
may move in its last bits; no argmax of the shipped configs' runs moved.

The chunk rule (util.point_shares): n points form n // 4000 chunks
(util._GRID_CHUNK) of near-equal size, at least one, so every chunk has at
least 4000 points and a set under 8000 points is one chunk, scored as one
product as before.  The boundaries depend on n alone.  The calling thread
and a pool of worker threads, kept for the life of the process, take the
chunks round-robin: one thread per CPU the process may run on, capped by
SGPTS_THREADS (cli's multi-seed pool workers score on one thread each).
Each thread writes only its own chunks' columns, so the values are the same
bits for every thread count.  The RFF feature rows of a grid are filled in
the same chunks.  Against one product over the whole set, W F_c and
k(X_c, Z) keep their bits; U_c V keeps them at the pinned shapes (RFF
M = 512, B = 20, m = 20 to 100, at 8000 and 40000 points).  Where B m is
small, OpenBLAS may pick its GEMM kernel by the product's size, and a
config whose B m is below the pinned ones may see (U_c V) move in its last
bits against an unchunked product; at chunk widths of 1024 and 2048 that
happened at m = 20 to 60, which is why a chunk has at least 4000 points.

In a run, the feature rows of the candidate grid are computed once per
distinct grid (the grid stops changing once it is capped), held as the run's
only copy and passed to select_batch.  With a
Mercer map, inducing points picked from the observations come with Phi(Z)
gathered from the grid features of the steps that queried them, and
select_batch passes it on.  Phi(Z) is computed only for other inducing
points: the step-1 Halton set, k-means centers, and every Z under RFF, whose
X @ freqs^T is a GEMM that need not round a row as it does inside a larger X.
U_c and the root of S are rebuilt every step, since Z and S move with the data.

Outside a run, draw_sample(...).eval_many(X) builds a fresh DrawSetup and
basis per call; the model keeps its root, and FeatureMap.features remembers
an input from its second request on, so the draws of one model share Phi(Z)
and the features at a repeated X.

Seed scheme: step seed = hash(run_seed, t), draw seed = hash(step_seed, b),
with hash = the first output word of numpy's SeedSequence over the integer
pair.  Identical paths give identical draws on every platform.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_solve

from .errors import InvalidInputError
from .kernels import FeatureMap, _as_points, _features_at, feature_rows, kernel_matrix
from .svgp import SvgpModel
from .util import as_box, point_shares, run_shares

# most cells of W (M x draws) that DrawSetup.values scores in one product: 32 MiB
_CHUNK_CELLS = 2 ** 22


def derive_seed(*path: int) -> int:
    """Deterministic 32-bit child seed for an integer key path."""
    if not path:
        raise InvalidInputError("seed path must be non-empty")
    ss = np.random.SeedSequence([int(p) & 0xFFFFFFFF for p in path])
    return int(ss.generate_state(1)[0])


class DrawSetup:
    """Seed-independent part of every draw from one (model, feature map, alpha).

    Build it once and call draw(rng) for each draw, or values for many seeded
    draws: a draw then costs its RNG calls and its share of the products and
    the solve that turn a batch of draws' normals into coefficients.  The
    root of S comes from the model, which computes it on its first draw.
    Phi, when given, must be fm.features(model.Z) of a points model, shape
    (m, M); a caller that holds it skips the evaluation.
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

    def _draws(self, rngs) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """One draw per generator, as rows: w (k x M), sqrt(lambda) w and v (k x m).
        Each generator is consumed in the order w then u."""
        model, alpha, m = self.model, self.alpha, self.model.m_count
        w = np.empty((len(rngs), self.fm.count))
        xi = np.empty((len(rngs), m))
        for j, rng in enumerate(rngs):
            w[j] = rng.standard_normal(self.fm.count)
            xi[j] = rng.standard_normal(m)
        u = model.m_vec + xi @ model._s_root().T
        centered = alpha * (u - model.m_vec) + model.m_vec
        rootlam_w = self.rootlam * w
        if model.variant == "points":
            # alpha scales Phi, as in the single-draw alpha * Phi @ rootlam_w: a
            # draw of its own (k = 1) keeps that product's bits for every alpha
            rhs = centered - rootlam_w @ (alpha * self.Phi).T
            v = cho_solve((model._chol_P, True), rhs.T).T
        else:
            v = (centered - alpha * rootlam_w[:, :m]) / model.feature_map.lambdas[:m]
        return w, rootlam_w, v

    def draw(self, rng: np.random.Generator) -> SampleFunction:
        """One draw; rng consumed in the order w then u."""
        w, _, v = self._draws([rng])
        return SampleFunction(model=self.model, fm=self.fm, alpha=self.alpha, w=w[0], v=v[0])

    def values(self, X, seeds, *, F: np.ndarray | None = None) -> np.ndarray:
        """Row b: self.draw(np.random.default_rng(seeds[b])) at the rows of X.

        F, when given, must be feature_rows(fm, X), the features at X one row
        per feature, shape (M, n); else they are computed.  Per chunk of
        draws, W capped at _CHUNK_CELLS cells: one call of _draws, then
        _score of its sqrt(lambda) w rows and V at the points.  Equals
        per-draw eval_many up to the summation order of the products and the
        solve; against the former (n x M) by (M x k) product, values on
        Mercer maps may move in their last bits.
        """
        X = _as_points(self.fm.dim, X)
        if F is None:
            F = feature_rows(self.fm, X)
        elif F.shape != (self.fm.count, X.shape[0]):
            raise InvalidInputError(
                f"feature rows have shape {F.shape}, expected {(self.fm.count, X.shape[0])}"
            )
        chunk = max(1, _CHUNK_CELLS // self.fm.count)
        out = np.empty((len(seeds), X.shape[0]))
        for lo in range(0, len(seeds), chunk):
            block = seeds[lo:lo + chunk]
            # the raw w is dropped here, so at most two k x M arrays are alive
            rootlam_w, v = self._draws([np.random.default_rng(s) for s in block])[1:]
            _score(self.model, self.alpha, X, F, rootlam_w, _update_columns(self.model, v),
                   out[lo:lo + len(block)])
        return out


def _score(model: SvgpModel, alpha: float, X: np.ndarray, F: np.ndarray, W: np.ndarray,
           V: np.ndarray, out: np.ndarray) -> None:
    """Values of k draws at the rows of X into out (k x n), chunk by chunk.

    The chunks and the threads that take them are util.point_shares(n).  Per
    chunk c: the update basis U_c, k(X_c, Z) for points or the transpose of
    F_c's leading m rows for features, then _on_basis into the chunk's
    columns of out.  Each thread writes only its own columns, so the values
    do not depend on the thread count.
    """
    n, points = X.shape[0], model.variant == "points"
    shares = point_shares(n)
    # each thread's U_c buffer is made here: made on a worker thread, it would
    # stay resident in that thread's malloc arena between calls
    width = max(hi - lo for spans in shares for lo, hi in spans)
    bufs = [np.empty((width, model.m_count)) if points else None for _ in shares]

    def share(t: int) -> None:
        for lo, hi in shares[t]:
            F_c = F[:, lo:hi]
            U_c = (kernel_matrix(model.spec, X[lo:hi], model.Z, out=bufs[t][: hi - lo])
                   if points else F_c[: model.m_count].T)
            SampleFunction._on_basis(F_c, U_c, alpha, W, V, out[:, lo:hi])

    run_shares(share, len(shares))


def _update_columns(model: SvgpModel, v: np.ndarray) -> np.ndarray:
    """V, the weights of U with one column per draw (m x k), C-ordered: BLAS
    may sum a Fortran-ordered operand differently."""
    if model.variant == "features":
        v = model.feature_map.lambdas[: model.m_count] * v
    return np.ascontiguousarray(v.T)


@dataclass(frozen=True)
class SampleFunction:
    """A single posterior draw; evaluation is pure and deterministic."""

    model: SvgpModel
    fm: FeatureMap
    alpha: float
    w: np.ndarray
    v: np.ndarray

    def _coeffs(self) -> tuple[np.ndarray, np.ndarray]:
        """(W, V): this draw's weights of F as a row (1 x M) and of U as a column (m x 1)."""
        return np.sqrt(self.fm.lambdas) * self.w[None], _update_columns(self.model, self.v[None])

    @staticmethod
    def _on_basis(F: np.ndarray, U: np.ndarray, alpha: float, W: np.ndarray,
                  V: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Values of k draws into out (k x n), one per row of W (k x M) and
        column of V (m x k), at the points whose prior features are F (M x n)
        and update basis U (n x m): W F, scaled by alpha, plus (U V)^T."""
        np.matmul(W, F, out=out)
        if alpha != 1.0:
            out *= alpha
        out += (U @ V).T
        return out

    def eval_many(self, X) -> np.ndarray:
        """This draw's values at the rows of X; the features come from
        fm.features(X), so a repeated X is evaluated once per map."""
        X = _as_points(self.fm.dim, X)
        values = np.empty(X.shape[0])
        _score(self.model, self.alpha, X, self.fm.features(X).T, *self._coeffs(), values[None])
        return values


def draw_sample(model: SvgpModel, fm: FeatureMap, alpha: float, seed: int) -> SampleFunction:
    """One decoupled draw; fresh u and w every call, keyed by the seed.

    Builds a DrawSetup per call and draws once from it, the batch k = 1:
    the root of S comes from the model after its first draw, and Phi(Z)
    from the feature map's memo after the first two calls.  To draw many
    times from one model, build a DrawSetup once and call its draw, which
    gives the same draw for the same seed, or its values.
    """
    return DrawSetup(model, fm, alpha).draw(np.random.default_rng(seed))


def decoupled_mean_cov(
    model: SvgpModel, fm: FeatureMap, alpha: float, X, X2=None
) -> tuple[np.ndarray, np.ndarray]:
    """Analytic mean and covariance of the sampling rule.

    The mean equals the model mean for every alpha; the covariance is
    alpha^2 times the alpha = 1 covariance.  Differs from the model's
    posterior covariance only through the spectral truncation of the prior
    part, which is what the eps deviation constant accounts for.
    """
    setup = DrawSetup(model, fm, alpha)
    X = _as_points(fm.dim, X)
    X2m = X if X2 is None else _as_points(fm.dim, X2)
    mean = model.predict(X)[0]
    Fa = fm.features(X)
    Fb = Fa if X2 is None else fm.features(X2m)
    lam = fm.lambdas
    if model.variant == "points":
        Ha = cho_solve((model._chol_P, True), kernel_matrix(model.spec, model.Z, X))
        Hb = Ha if X2 is None else cho_solve(
            (model._chol_P, True), kernel_matrix(model.spec, model.Z, X2m)
        )
        Ga = Fa.T - setup.Phi.T @ Ha                # residual feature coords
        Gb = Ga if X2 is None else Fb.T - setup.Phi.T @ Hb
        cov = (Ga * lam[:, None]).T @ Gb + Ha.T @ model.S_mat @ Hb
    else:
        m = model.m_count
        tail = (Fa[:, m:] * lam[m:]) @ Fb[:, m:].T
        cov = tail + Fa[:, :m] @ model.S_mat @ Fb[:, :m].T
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


@functools.lru_cache(maxsize=8)
def _unit_halton(d: int, n: int) -> np.ndarray:
    """The first n points of the unscrambled d-dim Halton sequence, read-only."""
    from scipy.stats import qmc     # here, so that importing sgpts leaves scipy.stats out

    unit = qmc.Halton(d=d, scramble=False).random(n)
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
    feature_rows(fm, grid.points), the grid's features one row per feature,
    shape (M, n_points); a caller whose grid repeats across steps passes it
    to skip the re-evaluation.  Phi goes to DrawSetup, which documents it.
    The B draws are scored by DrawSetup.values into a B x n_points values
    matrix, in one chunk of draws (its cap holds far more than B draws of
    any map used here) and the module's chunks of points.  The argmax runs
    along each draw's contiguous row.
    """
    if B < 1:
        raise InvalidInputError("B must be >= 1")
    seeds = [derive_seed(step_seed, b) for b in range(B)]
    setup = DrawSetup(model, fm, alpha, Phi=Phi)
    idx = np.argmax(setup.values(grid.points, seeds, F=F), axis=1)
    return grid.points[idx], idx
