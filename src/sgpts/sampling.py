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

Seed scheme: step seed = hash(run_seed, t), draw seed = hash(step_seed, b),
with hash = the first output word of numpy's SeedSequence over the integer
pair.  Identical paths give identical draws on every platform.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_solve
from scipy.stats import qmc

from .errors import InvalidInputError
from .kernels import FeatureMap, kernel_matrix
from .svgp import SvgpModel
from .util import as_box


def derive_seed(*path: int) -> int:
    """Deterministic 32-bit child seed for an integer key path."""
    if not path:
        raise InvalidInputError("seed path must be non-empty")
    ss = np.random.SeedSequence([int(p) & 0xFFFFFFFF for p in path])
    return int(ss.generate_state(1)[0])


def _draw_u(model: SvgpModel, rng: np.random.Generator) -> np.ndarray:
    """One sample from q(u); S factored by symmetric eigendecomposition."""
    vals, vecs = np.linalg.eigh(model.S_mat)
    root = vecs * np.sqrt(np.maximum(vals, 0.0))
    return model.m_vec + root @ rng.standard_normal(model.m_count)


def _check_fm(model: SvgpModel, fm: FeatureMap):
    if fm.dim != model.spec.dim:
        raise InvalidInputError("feature map dimension does not match the model")
    if model.variant == "features":
        own = model.feature_map
        if fm.kind != "mercer" or fm.count < model.m_count or fm.origin != own.origin:
            raise InvalidInputError(
                "features-variant draws need the model's own eigen-expansion map"
            )


def _draw_coeffs(model: SvgpModel, fm: FeatureMap, alpha: float, rng) -> tuple[np.ndarray, np.ndarray]:
    """(w, v) for one draw; rng consumed in the order w then u."""
    w = rng.standard_normal(fm.count)
    u = _draw_u(model, rng)
    centered = alpha * (u - model.m_vec) + model.m_vec
    rootlam_w = np.sqrt(fm.lambdas) * w
    if model.variant == "points":
        Phi = fm.features(model.Z)                    # (m, M)
        rhs = centered - alpha * Phi @ rootlam_w
        v = cho_solve((model._chol_P, True), rhs)
    else:
        m = model.m_count
        lam = model.feature_map.lambdas[:m]
        v = (centered - alpha * rootlam_w[:m]) / lam
    return w, v


@dataclass(frozen=True)
class SampleFunction:
    """A single posterior draw; evaluation is pure and deterministic."""

    model: SvgpModel
    fm: FeatureMap
    alpha: float
    w: np.ndarray
    v: np.ndarray

    def eval_many(self, X) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=float))
        F = self.fm.features(X)
        prior_part = self.alpha * (F @ (np.sqrt(self.fm.lambdas) * self.w))
        if self.model.variant == "points":
            update = kernel_matrix(self.model.spec, X, self.model.Z) @ self.v
        else:
            m = self.model.m_count
            lam = self.model.feature_map.lambdas[:m]
            update = F[:, :m] @ (lam * self.v)
        return prior_part + update

    def __call__(self, x) -> float:
        return float(self.eval_many(x)[0])


def draw_sample(model: SvgpModel, fm: FeatureMap, alpha: float, seed: int) -> SampleFunction:
    """One decoupled draw; fresh u and w every call, keyed by the seed."""
    if alpha < 1.0:
        raise InvalidInputError("alpha must be >= 1")
    _check_fm(model, fm)
    rng = np.random.default_rng(seed)
    w, v = _draw_coeffs(model, fm, alpha, rng)
    return SampleFunction(model=model, fm=fm, alpha=alpha, w=w, v=v)


def decoupled_mean_cov(
    model: SvgpModel, fm: FeatureMap, alpha: float, X, X2=None
) -> tuple[np.ndarray, np.ndarray]:
    """Analytic mean and covariance of the sampling rule.

    The mean equals the model mean for every alpha; the covariance is
    alpha^2 times the alpha = 1 covariance.  Differs from the model's
    posterior covariance only through the spectral truncation of the prior
    part, which is what the eps deviation constant accounts for.
    """
    if alpha < 1.0:
        raise InvalidInputError("alpha must be >= 1")
    _check_fm(model, fm)
    X = np.atleast_2d(np.asarray(X, dtype=float))
    X2m = X if X2 is None else np.atleast_2d(np.asarray(X2, dtype=float))
    mean = model.predict(X)[0]
    Fa = fm.features(X)
    Fb = Fa if X2 is None else fm.features(X2m)
    lam = fm.lambdas
    if model.variant == "points":
        Ha = cho_solve((model._chol_P, True), kernel_matrix(model.spec, model.Z, X))
        Hb = Ha if X2 is None else cho_solve(
            (model._chol_P, True), kernel_matrix(model.spec, model.Z, X2m)
        )
        Phi = fm.features(model.Z)
        Ga = Fa.T - Phi.T @ Ha                      # residual feature coords
        Gb = Ga if X2 is None else Fb.T - Phi.T @ Hb
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


def build_grid(lower, upper, t: int, lipschitz: float, cap: int) -> Discretization:
    """Axis-aligned grid with spacing at most 2 / (L t^2 sqrt(d)).

    When the full grid would exceed cap points, a deterministic Halton set of
    exactly cap points replaces it.  Either way n_points <= C t^(2d) with C
    recorded on the result.
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
    sampler = qmc.Halton(d=d, scramble=False)
    pts = lo + sampler.random(cap) * (hi - lo)
    return Discretization(points=pts, t=t, spacing=h, capped=True,
                          density_const=density_const)


def select_batch(
    model: SvgpModel,
    fm: FeatureMap,
    grid: Discretization,
    B: int,
    alpha: float,
    step_seed: int,
) -> tuple[np.ndarray, np.ndarray]:
    """B independent draws, each maximized over the grid.

    Returns (points, indices).  Draw b uses seed hash(step_seed, b); ties in
    the argmax resolve to the lowest grid index.
    """
    if B < 1:
        raise InvalidInputError("B must be >= 1")
    if alpha < 1.0:
        raise InvalidInputError("alpha must be >= 1")
    _check_fm(model, fm)
    F = fm.features(grid.points)
    rootlam = np.sqrt(fm.lambdas)
    if model.variant == "points":
        Kg = kernel_matrix(model.spec, grid.points, model.Z)
    else:
        m = model.m_count
        lam_m = model.feature_map.lambdas[:m]
    idx = np.empty(B, dtype=int)
    for b in range(B):
        rng = np.random.default_rng(derive_seed(step_seed, b))
        w, v = _draw_coeffs(model, fm, alpha, rng)
        vals = alpha * (F @ (rootlam * w))
        if model.variant == "points":
            vals += Kg @ v
        else:
            vals += F[:, :m] @ (lam_m * v)
        idx[b] = int(np.argmax(vals))
    return grid.points[idx], idx
