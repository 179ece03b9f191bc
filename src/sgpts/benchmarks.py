"""Test objectives with certified optima, noise models, and a random-search baseline.

All objectives are exposed in maximization convention: classical minimization
forms are negated here, with the optimum value negated consistently, so the
optimizer core never needs to know the sign convention of the source function.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import InvalidInputError
from .util import rng_from_path

# Shekel with ten wells on [0, 10]^4.
_SHEKEL_A = np.array(
    [
        [4.0, 4.0, 4.0, 4.0],
        [1.0, 1.0, 1.0, 1.0],
        [8.0, 8.0, 8.0, 8.0],
        [6.0, 6.0, 6.0, 6.0],
        [3.0, 7.0, 3.0, 7.0],
        [2.0, 9.0, 2.0, 9.0],
        [5.0, 5.0, 3.0, 3.0],
        [8.0, 1.0, 8.0, 1.0],
        [6.0, 2.0, 6.0, 2.0],
        [7.0, 3.6, 7.0, 3.6],
    ]
)
_SHEKEL_BETA = np.array([1.0, 2.0, 2.0, 4.0, 4.0, 6.0, 3.0, 7.0, 5.0, 5.0]) / 10.0

# Hartmann with six wells on [0, 1]^6.
_HARTMANN_ALPHA = np.array([1.0, 1.2, 3.0, 3.2])
_HARTMANN_A = np.array(
    [
        [10.0, 3.0, 17.0, 3.5, 1.7, 8.0],
        [0.05, 10.0, 17.0, 0.1, 8.0, 14.0],
        [3.0, 3.5, 1.7, 10.0, 17.0, 8.0],
        [17.0, 8.0, 0.05, 10.0, 0.1, 14.0],
    ]
)
_HARTMANN_P = 1e-4 * np.array(
    [
        [1312.0, 1696.0, 5569.0, 124.0, 8283.0, 5886.0],
        [2329.0, 4135.0, 8307.0, 3736.0, 1004.0, 9991.0],
        [2348.0, 1451.0, 3522.0, 2883.0, 3047.0, 6650.0],
        [4047.0, 8828.0, 8732.0, 5743.0, 1091.0, 381.0],
    ]
)


def shekel4(X: np.ndarray) -> np.ndarray:
    """Negated Shekel function on [0, 10]^4, one value per row of X."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    sq = ((X[:, None, :] - _SHEKEL_A[None, :, :]) ** 2).sum(axis=2)
    return (1.0 / (sq + _SHEKEL_BETA)).sum(axis=1)


def hartmann6(X: np.ndarray) -> np.ndarray:
    """Negated Hartmann function on [0, 1]^6, one value per row of X."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    sq = (_HARTMANN_A[None, :, :] * (X[:, None, :] - _HARTMANN_P[None, :, :]) ** 2).sum(axis=2)
    return (_HARTMANN_ALPHA * np.exp(-sq)).sum(axis=1)


def ackley(X: np.ndarray) -> np.ndarray:
    """Negated Ackley function with 1/d averaging, one value per row of X.

    Written so the origin evaluates to exactly 0.0 in floating point.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    d = X.shape[1]
    rms = np.sqrt((X**2).sum(axis=1) / d)
    cos_mean = np.cos(2.0 * np.pi * X).sum(axis=1) / d
    # grouped so both parentheses vanish exactly at the origin
    return 20.0 * (np.exp(-0.2 * rms) - 1.0) + (np.exp(cos_mean) - np.exp(1.0))


def multimodal1d(X: np.ndarray) -> np.ndarray:
    """x * sin(10 pi x) on [0, 1]: five humps of linearly growing height."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    x = X[:, 0]
    return x * np.sin(10.0 * np.pi * x)


def multimodal2d(X: np.ndarray) -> np.ndarray:
    """sin(3 pi x) * sin(3 pi y) on [0, 1]^2: five global maxima of value 1."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    return np.sin(3.0 * np.pi * X[:, 0]) * np.sin(3.0 * np.pi * X[:, 1])


@dataclass(frozen=True)
class Benchmark:
    """An objective in maximization convention with a certified optimum.

    provenance is "analytic" when f_star is exact by inspection and "oracle"
    when it was certified by the multi-start refinement in certify().
    lipschitz is a sup-gradient estimate used to size discretization grids.
    """

    name: str
    dim: int
    lo: tuple
    hi: tuple
    fn: Callable[[np.ndarray], np.ndarray] = field(repr=False)
    f_star: float
    x_star: tuple
    provenance: str
    noise_var: float
    lipschitz: float

    def evaluate(self, X: np.ndarray) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=float))
        if X.shape[1] != self.dim:
            raise InvalidInputError(
                f"{self.name} expects dim {self.dim}, got {X.shape[1]}"
            )
        lo = np.asarray(self.lo)
        hi = np.asarray(self.hi)
        if np.any(X < lo - 1e-12) or np.any(X > hi + 1e-12):
            raise InvalidInputError(f"point outside the domain of {self.name}")
        return self.fn(X)


@dataclass(frozen=True)
class NoiseModel:
    """Additive zero-mean Gaussian observation noise."""

    variance: float

    def __post_init__(self):
        if not self.variance >= 0:
            raise InvalidInputError("noise variance must be non-negative")

    def draw(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return np.sqrt(self.variance) * rng.standard_normal(n)


BENCHMARKS = {
    "shekel4": Benchmark(
        name="shekel4",
        dim=4,
        lo=(0.0,) * 4,
        hi=(10.0,) * 4,
        fn=shekel4,
        f_star=10.536409816692037,
        x_star=(4.000746531592371, 4.0005929341900905, 3.999663398963243, 3.9995098016750236),
        provenance="oracle",
        noise_var=0.1,
        lipschitz=4.0,
    ),
    "hartmann6": Benchmark(
        name="hartmann6",
        dim=6,
        lo=(0.0,) * 6,
        hi=(1.0,) * 6,
        fn=hartmann6,
        f_star=3.3223680114155045,
        x_star=(0.20168951, 0.15001069, 0.47687395, 0.27533243, 0.31165162, 0.65730052),
        provenance="oracle",
        noise_var=0.5,
        lipschitz=15.0,
    ),
    "ackley5": Benchmark(
        name="ackley5",
        dim=5,
        lo=(-2.0,) * 5,
        hi=(1.0,) * 5,
        fn=ackley,
        f_star=0.0,
        x_star=(0.0,) * 5,
        provenance="analytic",
        noise_var=0.5,
        lipschitz=6.0,
    ),
    "multimodal1d": Benchmark(
        name="multimodal1d",
        dim=1,
        lo=(0.0,),
        hi=(1.0,),
        fn=multimodal1d,
        f_star=0.8505952429626011,
        x_star=(0.8511897910960919,),
        provenance="oracle",
        noise_var=0.01,
        lipschitz=28.0,
    ),
    "multimodal2d": Benchmark(
        name="multimodal2d",
        dim=2,
        lo=(0.0, 0.0),
        hi=(1.0, 1.0),
        fn=multimodal2d,
        f_star=1.0,
        x_star=(1.0 / 6.0, 1.0 / 6.0),
        provenance="analytic",
        noise_var=0.01,
        lipschitz=10.0,
    ),
}


def get_benchmark(name: str) -> Benchmark:
    try:
        return BENCHMARKS[name]
    except KeyError:
        known = ", ".join(sorted(BENCHMARKS))
        raise InvalidInputError(f"unknown objective '{name}' (known: {known})") from None


def certify(bench: Benchmark, seed: int = 0) -> dict:
    """Re-check that f_star dominates random probing and local refinement.

    Returns a report dict; report["ok"] is False if any probe or refined
    point exceeds f_star by more than tol.
    """
    from scipy.optimize import minimize     # here, so that importing sgpts leaves it out

    n_probes, n_restarts, tol = 100_000, 1000, 1e-6

    rng = rng_from_path(seed, 101)
    lo = np.asarray(bench.lo)
    hi = np.asarray(bench.hi)
    probes = rng.uniform(lo, hi, size=(n_probes, bench.dim))
    probe_best = float(bench.evaluate(probes).max())

    def neg(x):
        return -float(bench.fn(x.reshape(1, -1))[0])

    refined_best = -np.inf
    starts = rng.uniform(lo, hi, size=(n_restarts, bench.dim))
    bounds = list(zip(bench.lo, bench.hi))
    for x0 in starts:
        res = minimize(neg, x0, method="L-BFGS-B", bounds=bounds)
        refined_best = max(refined_best, -float(res.fun))
    found = max(probe_best, refined_best)
    return {
        "name": bench.name,
        "f_star": bench.f_star,
        "probe_best": probe_best,
        "refined_best": refined_best,
        "ok": found <= bench.f_star + tol,
        "gap": bench.f_star - found,
    }


def random_search(bench: Benchmark, noise_var: float, budget: int, seed: int,
                  batch_size: int = 1):
    """Uniform-random baseline emitting the same trace schema as the optimizer.

    The believed best after each batch is the queried point with the highest
    observed (noisy) value so far.
    """
    from .engine import _NOISE_TAG, RunLog

    if budget < 1:
        raise InvalidInputError("budget must be at least 1")
    if budget % batch_size != 0:
        raise InvalidInputError("budget must be a multiple of batch_size")
    noise = NoiseModel(noise_var)
    lo = np.asarray(bench.lo)
    hi = np.asarray(bench.hi)
    log = RunLog(run_seed=seed, dim=bench.dim)
    best_y = -np.inf
    best_f = -np.inf
    cum = 0.0
    steps = budget // batch_size
    for t in range(1, steps + 1):
        rng = rng_from_path(seed, t, 5050)
        X = rng.uniform(lo, hi, size=(batch_size, bench.dim))
        f_true = bench.evaluate(X)
        y = f_true + noise.draw(rng_from_path(seed, t, _NOISE_TAG), batch_size)
        for b in range(batch_size):
            if y[b] > best_y:
                best_y = float(y[b])
                best_f = float(f_true[b])
            cum += bench.f_star - float(f_true[b])
            log.add_row(
                t=t, b=b, x=X[b], y=float(y[b]), f_true=float(f_true[b]),
                alpha_t=float("nan"), beta_t=float("nan"), n_grid=0, m_t=0,
                cum_regret=cum, simple_regret=bench.f_star - best_f,
            )
    return log
