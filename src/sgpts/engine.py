"""Batch Thompson-sampling optimization loop with exploration scaling schedules.

Also houses the theory-side calculators: the cumulative-regret bound, the
horizon-driven growth rules for inducing sizes, and regret accounting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Optional

import numpy as np

from .benchmarks import Benchmark, NoiseModel
from .errors import (
    ConfigError,
    ExplorationInfeasibleError,
    InvalidInputError,
    ScheduleUndefinedError,
)
from .exact_gp import Dataset, concentration_radius, gamma_bound, information_gain
from .kernels import (
    FeatureMap,
    KernelSpec,
    _as_points,
    mercer_truncate,
    rff_sample,
    tail_mass,
)
from .sampling import _unit_halton, build_grid, derive_seed, select_batch
from .svgp import (
    ApproxQuality,
    SvgpModel,
    fit_svgp_closed_form,
    approximation_constants,
    select_inducing_greedy,
    select_inducing_kmeans,
    precision_sup_norm,
)
from .util import as_box, format_float, rng_from_path

_NOISE_TAG = 7777
_RFF_TAG = 909
_KMEANS_TAG = 303


@dataclass(frozen=True)
class RunConfig:
    """Everything a run needs besides the objective itself and the seed.

    None values for noise_var, tau, r_sub, and lipschitz resolve to
    objective-specific defaults in resolve_config.
    """

    objective: str
    T: int = 10
    B: int = 5
    variant: str = "points"
    kernel: str = "se"
    nu: float = 2.5
    lengthscale: tuple = (0.2,)
    variance: float = 1.0
    noise_var: Optional[float] = None
    tau: Optional[float] = None
    m: int = 15
    m_mode: str = "fixed"
    M: int = 256
    features: str = "auto"
    inducing: str = "greedy"
    alpha_mode: str = "fixed"
    alpha: float = 1.0
    delta: float = 0.1
    eps0: float = 0.0
    b_norm: float = 1.0
    r_sub: Optional[float] = None
    gamma_mode: str = "realized"
    lipschitz: Optional[float] = None
    grid_cap: int = 2000

    def validate(self) -> None:
        if not self.objective:
            raise ConfigError("missing required field 'objective'")
        if self.T < 1:
            raise ConfigError("field 'T' must be >= 1")
        if self.B < 1:
            raise ConfigError("field 'B' must be >= 1")
        if self.variant not in ("points", "features"):
            raise ConfigError("field 'variant' must be points or features")
        if self.kernel not in ("se", "matern"):
            raise ConfigError("field 'kernel' must be se or matern")
        if self.m < 1:
            raise ConfigError("field 'm' must be >= 1")
        if self.m_mode not in ("fixed", "growth"):
            raise ConfigError("field 'm_mode' must be fixed or growth")
        if self.M < 1:
            raise ConfigError("field 'M' must be >= 1")
        if self.features not in ("auto", "mercer", "rff"):
            raise ConfigError("field 'features' must be auto, mercer, or rff")
        if self.inducing not in ("greedy", "kmeans"):
            raise ConfigError("field 'inducing' must be greedy or kmeans")
        if self.alpha_mode not in ("fixed", "theoretical"):
            raise ConfigError("field 'alpha_mode' must be fixed or theoretical")
        if self.alpha_mode == "fixed" and self.alpha < 1.0:
            raise ConfigError("field 'alpha' must be >= 1 in fixed mode")
        if not 0 < self.delta < 1:
            raise ConfigError("field 'delta' must lie in (0, 1)")
        if self.eps0 < 0:
            raise ConfigError("field 'eps0' must be non-negative")
        if self.b_norm <= 0:
            raise ConfigError("field 'b_norm' must be positive")
        if self.gamma_mode not in ("realized", "envelope"):
            raise ConfigError("field 'gamma_mode' must be realized or envelope")
        if self.grid_cap < 2:
            raise ConfigError("field 'grid_cap' must be >= 2")
        if self.noise_var is not None and self.noise_var < 0:
            raise ConfigError("field 'noise_var' must be non-negative")
        if self.tau is not None and self.tau <= 0:
            raise ConfigError("field 'tau' must be positive")
        if self.r_sub is not None and self.r_sub < 0:
            raise ConfigError("field 'r_sub' must be non-negative")
        if self.lipschitz is not None and self.lipschitz <= 0:
            raise ConfigError("field 'lipschitz' must be positive")
        if self.variance <= 0 or self.variance > 1.0:
            raise ConfigError("field 'variance' must lie in (0, 1]")
        if self.feature_kind() != "mercer":
            if self.variant == "features":
                raise ConfigError(
                    "field 'variant'=features needs an eigen-expansion map: "
                    "set kernel=se with features=mercer or auto"
                )
            if self.alpha_mode == "theoretical":
                raise ConfigError(
                    "field 'alpha_mode'=theoretical needs spectral tail masses: "
                    "set kernel=se with features=mercer or auto"
                )

    def feature_kind(self) -> str:
        if self.features != "auto":
            return self.features
        return "mercer" if self.kernel == "se" else "rff"


# config files are plain "key = value" lines; blank lines and # comments skip
_CONFIG_PARSERS = {
    "objective": str,
    "T": int,
    "B": int,
    "variant": str,
    "kernel": str,
    "nu": float,
    "lengthscale": lambda s: tuple(float(p) for p in s.split(",")),
    "variance": float,
    "noise_var": float,
    "tau": float,
    "m": int,
    "m_mode": str,
    "M": int,
    "features": str,
    "inducing": str,
    "alpha_mode": str,
    "alpha": float,
    "delta": float,
    "eps0": float,
    "b_norm": float,
    "r_sub": float,
    "gamma_mode": str,
    "lipschitz": float,
    "grid_cap": int,
}


def parse_config(text: str, overrides: tuple = ()) -> RunConfig:
    """Build a validated RunConfig from key=value text plus CLI overrides."""
    lines = enumerate((raw.strip() for raw in text.splitlines()), start=1)
    entries = [(f"line {n}", line) for n, line in lines if line and not line.startswith("#")]
    entries += [("override", item) for item in overrides]
    fields = {}
    for where, item in entries:
        if "=" not in item:
            raise ConfigError(f"{where}: '{item}' is not key=value")
        key, _, value = (part.strip() for part in item.partition("="))
        if key not in _CONFIG_PARSERS:
            raise ConfigError(f"{where}: unknown field '{key}'")
        try:
            fields[key] = _CONFIG_PARSERS[key](value)
        except ValueError:
            raise ConfigError(f"{where}: bad value '{value}' for field '{key}'") from None
    if "objective" not in fields:
        raise ConfigError("missing required field 'objective'")
    cfg = RunConfig(**fields)
    cfg.validate()
    return cfg


def resolve_config(cfg: RunConfig, bench: Benchmark) -> RunConfig:
    """Fill objective-dependent defaults and broadcast the lengthscale."""
    cfg.validate()
    noise_var = bench.noise_var if cfg.noise_var is None else cfg.noise_var
    tau = noise_var if cfg.tau is None else cfg.tau
    if tau <= 0:
        raise ConfigError("field 'tau' must resolve to a positive value")
    r_sub = math.sqrt(noise_var) if cfg.r_sub is None else cfg.r_sub
    lipschitz = bench.lipschitz if cfg.lipschitz is None else cfg.lipschitz
    ls = cfg.lengthscale
    if len(ls) == 1 and bench.dim > 1:
        ls = ls * bench.dim
    if len(ls) != bench.dim:
        raise ConfigError(
            f"field 'lengthscale' has {len(ls)} entries but {bench.name} has dim {bench.dim}"
        )
    return replace(cfg, noise_var=noise_var, tau=tau, r_sub=r_sub,
                   lipschitz=lipschitz, lengthscale=ls)


@dataclass(frozen=True)
class RowRecord:
    t: int
    b: int
    x: tuple
    y: float
    f_true: float
    alpha_t: float
    beta_t: float
    n_grid: int
    m_t: int
    cum_regret: float
    simple_regret: float


@dataclass(frozen=True)
class StepRecord:
    t: int
    alpha_t: float
    b_t: float
    beta_t: float
    n_grid: int
    m_t: int
    gamma_t: float
    kappa_t: float
    eps_t: float
    a_under_t: float
    a_over_t: float
    c_t: float


_ROW_FIELDS = ["y", "f_true", "alpha_t", "beta_t", "N_t", "m_t", "cum_regret", "simple_regret"]
_STEP_HEADER = "t,alpha_t,b_t,beta_t,N_t,m_t,gamma_t,kappa_t,eps_t,a_under_t,a_over_t,c_t"


@dataclass
class RunLog:
    """Every observation of a run plus the per-step schedule quantities."""

    run_seed: int
    dim: int
    rows: list = field(default_factory=list)
    steps: list = field(default_factory=list)
    aborted: bool = False
    abort_reason: str = ""

    def add_row(self, t, b, x, y, f_true, alpha_t, beta_t, n_grid, m_t,
                cum_regret, simple_regret) -> None:
        x = tuple(float(v) for v in np.asarray(x).ravel())
        if len(x) != self.dim:
            raise InvalidInputError("point dimension does not match the log")
        if self.rows and cum_regret < self.rows[-1].cum_regret - 1e-12:
            raise InvalidInputError("cumulative regret must be non-decreasing")
        self.rows.append(RowRecord(int(t), int(b), x, float(y), float(f_true),
                                   float(alpha_t), float(beta_t), int(n_grid),
                                   int(m_t), float(cum_regret), float(simple_regret)))

    def add_step(self, **kw) -> None:
        self.steps.append(StepRecord(**kw))

    @property
    def final_cum_regret(self) -> float:
        return self.rows[-1].cum_regret if self.rows else 0.0

    @property
    def final_simple_regret(self) -> float:
        return self.rows[-1].simple_regret if self.rows else math.inf

    def to_dataset(self) -> Dataset:
        if not self.rows:
            return Dataset.empty(self.dim, 1)
        B = max(r.b for r in self.rows) + 1
        X = np.array([r.x for r in self.rows])
        y = np.array([r.y for r in self.rows])
        return Dataset(X, y, B, len(self.rows) // B)

    def to_csv(self) -> str:
        cols = ["run_seed", "t", "b"] + [f"x_{i+1}" for i in range(self.dim)] + _ROW_FIELDS
        lines = [",".join(cols)]
        for r in self.rows:
            cells = [str(self.run_seed), str(r.t), str(r.b)]
            cells += [format_float(v) for v in r.x]
            cells += [format_float(r.y), format_float(r.f_true), format_float(r.alpha_t),
                      format_float(r.beta_t), str(r.n_grid), str(r.m_t),
                      format_float(r.cum_regret), format_float(r.simple_regret)]
            lines.append(",".join(cells))
        return "\n".join(lines) + "\n"

    def steps_to_csv(self) -> str:
        lines = [_STEP_HEADER]
        for s in self.steps:
            lines.append(",".join([
                str(s.t), format_float(s.alpha_t), format_float(s.b_t),
                format_float(s.beta_t), str(s.n_grid), str(s.m_t),
                format_float(s.gamma_t), format_float(s.kappa_t), format_float(s.eps_t),
                format_float(s.a_under_t), format_float(s.a_over_t), format_float(s.c_t),
            ]))
        return "\n".join(lines) + "\n"


def schedule_alpha(t: float, n_grid: float, cfg: RunConfig, gamma: float,
                   quality: Optional[ApproxQuality]) -> tuple[float, float, float]:
    """Exploration scaling alpha_t plus the discretization terms b_t, beta_t.

    Theoretical mode doubles the posterior concentration radius at confidence
    1/t^2; fixed mode passes the configured constant through.  Either way
    b_t = sqrt(2 log(N_t t^2)) and beta_t = alpha_t (b_t + 1/2).
    """
    if t < 1 or n_grid < 1:
        raise InvalidInputError("t and n_grid must be >= 1")
    if cfg.alpha_mode == "fixed":
        alpha_t = cfg.alpha
    else:
        if quality is None:
            raise InvalidInputError("theoretical mode needs approximation-quality constants")
        if cfg.r_sub is None:
            raise ConfigError("resolve_config must run before scheduling")
        alpha_t = 2.0 * concentration_radius(
            cfg.b_norm, cfg.r_sub, gamma, 1.0 / t**2, quality.a_under, quality.c
        )
    b_t = math.sqrt(2.0 * math.log(n_grid * t * t))
    beta_t = alpha_t * (b_t + 0.5)
    return alpha_t, b_t, beta_t


def regret_bound(T: int, B: int, tau: float, gamma_T: float, beta_T: float,
                  alpha_T: float, a_over: float, eps: float, b_norm: float) -> float:
    """Cumulative-regret bound for the batch loop with approximate posteriors.

    30 a_over beta_T B sqrt(2 T gamma_T / log(1 + 1/tau))
    + (31 beta_T + alpha_T) eps T B + 15 B b_norm + 2 B.
    """
    if tau <= 0:
        raise InvalidInputError("tau must be positive")
    if min(T, B) < 1 or min(gamma_T, beta_T, alpha_T, a_over, eps, b_norm) < 0:
        raise InvalidInputError("bound inputs must be non-negative")
    term1 = 30.0 * a_over * beta_T * B * math.sqrt(2.0 * T * gamma_T / math.log(1.0 + 1.0 / tau))
    term2 = (31.0 * beta_T + alpha_T) * eps * T * B
    return term1 + term2 + 15.0 * B * b_norm + 2.0 * B


def growth_exponents(nu, d: int, variant: str) -> tuple[Fraction, Fraction]:
    """Exact growth exponents (for m and M) of the horizon power laws.

    points:   m ~ T^(2d/(2v-d)),  M ~ T^((2v+d)d / (2(2v-d)v))
    features: m ~ T^(d/(2v)),     M ~ T^((2v+d)d / (4v^2))

    The points rule needs 2v > d; otherwise no polynomial size suffices and
    ScheduleUndefinedError is raised.
    """
    if d < 1:
        raise InvalidInputError("d must be >= 1")
    if variant not in ("points", "features"):
        raise InvalidInputError("variant must be 'points' or 'features'")
    nu_f = Fraction(nu)
    if nu_f <= 0:
        raise InvalidInputError("nu must be positive")
    if variant == "points":
        denom = 2 * nu_f - d
        if denom <= 0:
            raise ScheduleUndefinedError(
                f"points growth rule needs 2 nu > d (got nu={nu}, d={d})"
            )
        return Fraction(2 * d) / denom, (2 * nu_f + d) * d / (2 * denom * nu_f)
    return Fraction(d) / (2 * nu_f), (2 * nu_f + d) * d / (4 * nu_f * nu_f)


def growth_schedule(family: str, nu, d: int, T, variant: str) -> tuple[int, int]:
    """Inducing sizes (m, M) for horizon T with unit leading constants."""
    if family not in ("se", "matern"):
        raise InvalidInputError("family must be 'se' or 'matern'")
    if T < 1:
        raise InvalidInputError("T must be >= 1")
    if family == "se":
        v = _ceil_guard(math.log(T) ** d)
        return v, v
    em, eM = growth_exponents(nu, d, variant)
    return _ceil_guard(float(T) ** float(em)), _ceil_guard(float(T) ** float(eM))


def _ceil_guard(x: float) -> int:
    # absorb float crumbs so exact powers like 1024^(1/5) = 4 stay at 4
    return max(1, math.ceil(x - 1e-9))


def believed_best(model: SvgpModel, candidates: np.ndarray) -> tuple[np.ndarray, int]:
    """Candidate with the highest posterior mean; ties go to the lowest index."""
    candidates = _as_points(model.spec.dim, candidates)
    if candidates.shape[0] == 0:
        raise InvalidInputError("no candidates to recommend from")
    mean, _ = model.predict(candidates)
    idx = int(np.argmax(mean))
    return candidates[idx], idx


def strict_regret(log: RunLog, f_star: float) -> float:
    """Sum of f_star minus the true objective value over every selection."""
    return float(sum(f_star - r.f_true for r in log.rows))


def _schedule_m(cfg: RunConfig, dim: int, t: int) -> int:
    if cfg.m_mode == "fixed":
        return cfg.m
    return growth_schedule(cfg.kernel, cfg.nu, dim, t, cfg.variant)[0]


def _fit_step_model(data: Dataset, spec: KernelSpec, cfg: RunConfig, bench: Benchmark,
                    fm: FeatureMap, m_t: int, seed: int, t: int) -> SvgpModel:
    """Surrogate for step t, refit from scratch on everything observed so far."""
    if cfg.variant == "features":
        m_eff = min(m_t, fm.count)
        return fit_svgp_closed_form(data, spec, cfg.tau, feature_map=fm, m=m_eff)
    if data.n == 0:
        lo, hi = as_box(bench.lo, bench.hi)
        Z = lo + _unit_halton(bench.dim, m_t) * (hi - lo)
    elif cfg.inducing == "greedy":
        Z = select_inducing_greedy(data, spec, min(m_t, data.n), stop_early=True)
    else:
        n_distinct = np.unique(data.X, axis=0).shape[0]
        Z = select_inducing_kmeans(data, min(m_t, n_distinct),
                                   derive_seed(seed, t, _KMEANS_TAG))
    return fit_svgp_closed_form(data, spec, cfg.tau, Z=Z)


def run_sgp_ts(cfg: RunConfig, bench: Benchmark, seed: int) -> RunLog:
    """One full optimization run; deterministic given (cfg, bench, seed).

    Each step fits the surrogate on all data so far, draws B approximate
    posterior samples scaled by alpha_t, queries their grid maximizers, and
    logs regret against the certified optimum.  In theoretical alpha mode an
    infeasible exploration scaling aborts the run with a partial log.
    """
    cfg = resolve_config(cfg, bench)
    spec = KernelSpec(
        family=cfg.kernel, dim=bench.dim, lengthscales=cfg.lengthscale,
        variance=cfg.variance, nu=cfg.nu if cfg.kernel == "matern" else None,
    )
    if cfg.feature_kind() == "mercer":
        fm = mercer_truncate(spec, cfg.M, bench.lo, bench.hi)
    else:
        fm = rff_sample(spec, cfg.M, derive_seed(seed, _RFF_TAG))
    noise = NoiseModel(cfg.noise_var)
    log = RunLog(run_seed=seed, dim=bench.dim)
    data = Dataset.empty(bench.dim, cfg.B)
    model = _fit_step_model(data, spec, cfg, bench, fm, _schedule_m(cfg, bench.dim, 1),
                            seed, 0)
    c1_run = 1.0
    cum = 0.0
    grid_pts = grid_F = None    # the last grid and its prior features, reused while it repeats
    for t in range(1, cfg.T + 1):
        grid = build_grid(bench.lo, bench.hi, t, cfg.lipschitz, cfg.grid_cap)
        if cfg.gamma_mode == "realized":
            gamma_t = information_gain(data, spec, cfg.tau)
        else:
            gamma_t = gamma_bound(spec, max(2.0, float(data.n)), bench.dim)
        quality = None
        if cfg.alpha_mode == "theoretical":
            c1_run = max(c1_run, precision_sup_norm(model))
            # conservative stand-in for the spectral mass past the sampler's
            # truncation: the last computed term plus its geometric continuation
            delta_M = tail_mass(fm, fm.count - 1, fm.count)
            eps_quiet = math.sqrt(c1_run * model.m_count * delta_M)
            if t == 1:
                quality = ApproxQuality(kappa=0.0, c=0.0, a_under=1.0, a_over=1.0,
                                        eps=eps_quiet, delta_m=0.0, delta_M=delta_M)
            else:
                delta_m = _variance_defect(model, fm, data)
                try:
                    quality = approximation_constants(
                        t - 1, cfg.B, model.m_count, cfg.tau, cfg.delta,
                        delta_m, delta_M, c1_run, cfg.variant, cfg.eps0,
                    )
                except ExplorationInfeasibleError as e:
                    log.aborted = True
                    log.abort_reason = str(e)
                    break
        alpha_t, b_t, beta_t = schedule_alpha(t, grid.n_points, cfg, gamma_t, quality)
        step_seed = derive_seed(seed, t)
        if not np.array_equal(grid.points, grid_pts):
            grid_pts, grid_F = grid.points, fm.features(grid.points)
        X_batch, _ = select_batch(model, fm, grid, cfg.B, alpha_t, step_seed, F=grid_F)
        f_true = bench.evaluate(X_batch)
        y = f_true + noise.draw(rng_from_path(seed, t, _NOISE_TAG), cfg.B)
        data = data.append_batch(X_batch, y)
        m_logged = model.m_count
        model = _fit_step_model(data, spec, cfg, bench, fm,
                                _schedule_m(cfg, bench.dim, min(t + 1, cfg.T)), seed, t)
        bb_x, _ = believed_best(model, data.X)
        simple = bench.f_star - float(bench.evaluate(bb_x.reshape(1, -1))[0])
        for b in range(cfg.B):
            cum += bench.f_star - float(f_true[b])
            log.add_row(t=t, b=b, x=X_batch[b], y=float(y[b]), f_true=float(f_true[b]),
                        alpha_t=alpha_t, beta_t=beta_t, n_grid=grid.n_points,
                        m_t=m_logged, cum_regret=cum, simple_regret=simple)
        log.add_step(
            t=t, alpha_t=alpha_t, b_t=b_t, beta_t=beta_t, n_grid=grid.n_points,
            m_t=m_logged, gamma_t=gamma_t,
            kappa_t=quality.kappa if quality else math.nan,
            eps_t=quality.eps if quality else math.nan,
            a_under_t=quality.a_under if quality else math.nan,
            a_over_t=quality.a_over if quality else math.nan,
            c_t=quality.c if quality else math.nan,
        )
    return log


def _variance_defect(model: SvgpModel, fm: FeatureMap, data: Dataset) -> float:
    """Largest pointwise prior-variance shortfall of the rank-m approximation."""
    if model.variant == "features":
        return tail_mass(fm, model.m_count, fm.count)
    return float(max(np.max(model.nystrom_residual(data.X)), 0.0))
