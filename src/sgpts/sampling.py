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

Work is split three ways.  Once per draw set-up, a DrawSetup for one (model,
feature map, alpha): the checks on alpha and on the feature map, the root of
S from its eigendecomposition, sqrt(lambda), and for points Phi = Phi(Z).
Once per draw: w, u and the solve for v.  Once per set of evaluation points:
the basis (F, U), with F the prior features and U = k(X, Z) for points or the
leading m columns of F for features.  DrawSetup.values scores many seeded
draws on one basis: a chunk of draws' weights is written into the rows of
two buffers, copied once into C-ordered W (M x k) and V (m x k), and scored as
alpha F W + U V, one product per chunk, with W capped at _CHUNK_CELLS cells
(up to 8192 draws on an M <= 512 map is one product).

In a run, F on the candidate grid is computed once per distinct grid (the
grid stops changing once it is capped) and passed to select_batch.  With a
Mercer map, inducing points picked from the observations come with Phi(Z)
gathered from the grid features of the steps that queried them, and
select_batch passes it on.  Phi(Z) is computed only for other inducing
points: the step-1 Halton set, k-means centers, and every Z under RFF, whose
X @ freqs^T is a GEMM that need not round a row as it does inside a larger X.
U and the root of S are rebuilt every step, since Z and S move with the data.

Outside a run, draw_sample(...).eval_many(X) builds a fresh DrawSetup and
basis per call, but the feature evaluations repeat: FeatureMap.features
remembers an input from its second request on, so the draws of one model
share Phi(Z) and the features at a repeated X.  What a repeated draw_sample
recomputes is eigh(S), sqrt(lambda) and the RNG draws, then the solve for v
and, at X, k(X, Z) and the two products.

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
from .kernels import FeatureMap, _as_points, _features_at, kernel_matrix
from .svgp import SvgpModel
from .util import as_box

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

    Build it once and call draw(rng) for each draw: a draw then costs w, u and
    one m x m solve, independent of the set-up's feature evaluations.  Phi,
    when given, must be fm.features(model.Z) of a points model, shape (m, M);
    a caller that holds it skips the evaluation.
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
        vals, vecs = np.linalg.eigh(model.S_mat)
        self.root = vecs * np.sqrt(np.maximum(vals, 0.0))    # S = root root^T
        self.rootlam = np.sqrt(fm.lambdas)
        self.Phi = _features_at(fm, model.Z, Phi) if model.variant == "points" else None

    def draw(self, rng: np.random.Generator) -> SampleFunction:
        """One draw; rng consumed in the order w then u."""
        model, alpha = self.model, self.alpha
        w = rng.standard_normal(self.fm.count)
        u = model.m_vec + self.root @ rng.standard_normal(model.m_count)
        centered = alpha * (u - model.m_vec) + model.m_vec
        rootlam_w = self.rootlam * w
        if model.variant == "points":
            v = cho_solve((model._chol_P, True), centered - alpha * self.Phi @ rootlam_w)
        else:
            m = model.m_count
            v = (centered - alpha * rootlam_w[:m]) / model.feature_map.lambdas[:m]
        return SampleFunction(model=model, fm=self.fm, alpha=alpha, w=w, v=v)

    def values(self, X, seeds, *, F: np.ndarray | None = None) -> np.ndarray:
        """Row b: self.draw(np.random.default_rng(seeds[b])) at the rows of X.

        One basis, F given or fm.features(X); one product per chunk of draws, W
        capped at _CHUNK_CELLS cells.  Equals per-draw eval_many up to the
        summation order of the products.
        """
        X = _as_points(self.fm.dim, X)
        F, U = _basis(self.model, self.fm, X, F)
        chunk = max(1, _CHUNK_CELLS // self.fm.count)
        out = np.empty((X.shape[0], len(seeds)))
        for lo in range(0, len(seeds), chunk):
            block = seeds[lo:lo + chunk]
            # one row per draw, then one transposing copy each: W and V must be
            # C-ordered, since BLAS may sum a Fortran-ordered operand differently
            WT = np.empty((len(block), self.fm.count))
            VT = np.empty((len(block), U.shape[1]))
            for j, s in enumerate(block):
                w, v = self.draw(np.random.default_rng(s))._coeffs()
                WT[j], VT[j] = w[:, 0], v[:, 0]
            W, V = np.ascontiguousarray(WT.T), np.ascontiguousarray(VT.T)
            out[:, lo:lo + len(block)] = SampleFunction._on_basis(F, U, self.alpha, W, V)
        return out.T


def _basis(model: SvgpModel, fm: FeatureMap, X: np.ndarray,
           F: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """(F, U) at X: the prior features (computed unless given) and the update basis."""
    F = _features_at(fm, X, F)
    if model.variant == "points":
        return F, kernel_matrix(model.spec, X, model.Z)
    return F, F[:, : model.m_count]


@dataclass(frozen=True)
class SampleFunction:
    """A single posterior draw; evaluation is pure and deterministic."""

    model: SvgpModel
    fm: FeatureMap
    alpha: float
    w: np.ndarray
    v: np.ndarray

    def _coeffs(self) -> tuple[np.ndarray, np.ndarray]:
        """(W, V) as columns: the weights of F and of U in this draw's values."""
        W = np.sqrt(self.fm.lambdas) * self.w
        if self.model.variant == "points":
            return W[:, None], self.v[:, None]
        lam_m = self.model.feature_map.lambdas[: self.model.m_count]
        return W[:, None], (lam_m * self.v)[:, None]

    @staticmethod
    def _on_basis(F: np.ndarray, U: np.ndarray, alpha: float,
                  W: np.ndarray, V: np.ndarray) -> np.ndarray:
        """Values of k draws, one per column of W (M x k) and V (m x k), at the
        points whose basis _basis returned as (F, U)."""
        return alpha * (F @ W) + U @ V

    def eval_many(self, X) -> np.ndarray:
        X = _as_points(self.fm.dim, X)
        values = self._on_basis(*_basis(self.model, self.fm, X), self.alpha, *self._coeffs())
        return values[:, 0].copy()      # owns its data: a view would keep the (n, 1) base

    def __call__(self, x) -> float:
        return float(self.eval_many(x)[0])


def draw_sample(model: SvgpModel, fm: FeatureMap, alpha: float, seed: int) -> SampleFunction:
    """One decoupled draw; fresh u and w every call, keyed by the seed.

    Builds a DrawSetup per call: eigh(S) and the RNG draws are redone, while
    Phi(Z) comes from the feature map's memo after the first two calls.  To
    draw many times from one model, build a DrawSetup once and call its draw,
    which gives the same draw for the same seed.
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
    """Candidate grid for one step: points, provenance, and the density constant."""

    points: np.ndarray
    t: int
    spacing: float
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
        return Discretization(points=pts, t=t, spacing=h, capped=False,
                              density_const=density_const)
    pts = lo + _unit_halton(d, cap) * (hi - lo)
    return Discretization(points=pts, t=t, spacing=h, capped=True,
                          density_const=density_const)


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
    fm.features(grid.points), shape (n_points, M); a caller whose grid
    repeats across steps passes it to skip the re-evaluation.  Phi goes to
    DrawSetup, which documents it.  The B draws are
    scored by DrawSetup.values into a B x n_points values matrix, with one
    product: its chunk cap holds far more than B draws of any map used here.
    """
    if B < 1:
        raise InvalidInputError("B must be >= 1")
    seeds = [derive_seed(step_seed, b) for b in range(B)]
    setup = DrawSetup(model, fm, alpha, Phi=Phi)
    idx = np.argmax(setup.values(grid.points, seeds, F=F), axis=1)
    return grid.points[idx], idx
