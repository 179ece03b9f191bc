"""Batch Thompson-sampling optimization loop with exploration scaling schedules.

Also houses the theory-side calculators: the cumulative-regret bound, the
horizon-driven growth rules for inducing sizes, and regret accounting.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace
from fractions import Fraction
from operator import attrgetter
from typing import Optional, get_args, get_type_hints

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
    _MATERN_NUS,
    FeatureMap,
    KernelSpec,
    _as_points,
    mercer_truncate,
    rff_sample,
    tail_mass,
)
from .sampling import _unit_halton, build_grid, select_batch
from .svgp import (
    ApproxQuality,
    SvgpModel,
    fit_svgp_closed_form,
    approximation_constants,
    select_inducing_greedy,
    select_inducing_kmeans,
    precision_sup_norm,
)
from .util import as_box, derive_seed, rng_from_path, together

_NOISE_TAG = 7777
_RFF_TAG = 909
_KMEANS_TAG = 303


# allowed values of each choice field of RunConfig
_CHOICES = {
    "variant": ("points", "features"),
    "kernel": ("se", "matern"),
    "m_mode": ("fixed", "growth"),
    "features": ("auto", "mercer", "rff"),
    "inducing": ("greedy", "kmeans"),
    "alpha_mode": ("fixed", "theoretical"),
    "gamma_mode": ("realized", "envelope"),
}

# acceptance test of each numeric field and the rule its message states; NaN
# fails every test.  None, an objective default resolved later, is not tested.
_AT_LEAST_1 = (lambda v: v >= 1, "be >= 1")
_POSITIVE = (lambda v: v > 0, "be positive")
_NON_NEGATIVE = (lambda v: v >= 0, "be non-negative")
_RULES = {
    "T": _AT_LEAST_1, "B": _AT_LEAST_1, "m": _AT_LEAST_1, "M": _AT_LEAST_1,
    "grid_cap": (lambda v: v >= 2, "be >= 2"),
    "delta": (lambda v: 0 < v < 1, "lie in (0, 1)"),
    "variance": (lambda v: 0 < v <= 1, "lie in (0, 1]"),
    "lengthscale": (lambda v: all(l > 0 for l in v), "have positive entries"),
    "eps0": _NON_NEGATIVE, "noise_var": _NON_NEGATIVE, "r_sub": _NON_NEGATIVE,
    "b_norm": _POSITIVE, "tau": _POSITIVE, "lipschitz": _POSITIVE,
}


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
        for name, allowed in _CHOICES.items():
            if getattr(self, name) not in allowed:
                *head, last = allowed
                raise ConfigError(f"field '{name}' must be "
                                  f"{', '.join(head)}{',' * (len(head) > 1)} or {last}")
        for name, v in vars(self).items():
            if isinstance(v, (float, tuple)) and not np.all(np.isfinite(v)):
                raise ConfigError(f"field '{name}' must be finite")
        rules = {**_RULES,
                 "alpha": (lambda v: v >= 1 or self.alpha_mode != "fixed",
                           "be >= 1 in fixed mode"),
                 "nu": (lambda v: v in _MATERN_NUS or self.kernel != "matern",
                        "be 1.5 or 2.5 for kernel=matern")}
        for name, (accept, rule) in rules.items():
            v = getattr(self, name)
            if v is not None and not accept(v):
                raise ConfigError(f"field '{name}' must {rule}")
        if self.feature_kind() != "mercer":
            if self.variant == "features":
                raise ConfigError("field 'variant'=features needs an eigen-expansion map: "
                                  "set kernel=se with features=mercer or auto")
            if self.alpha_mode == "theoretical":
                raise ConfigError("field 'alpha_mode'=theoretical needs spectral tail masses: "
                                  "set kernel=se with features=mercer or auto")

    def feature_kind(self) -> str:
        if self.features != "auto":
            return self.features
        return "mercer" if self.kernel == "se" else "rff"


# config files are plain "key = value" lines; blank lines and # comments skip.
# A value parses by its field's declared type, Optional[float] as float; the one
# tuple, lengthscale, is comma-separated floats.
_PARSERS = {name: (get_args(tp) or (tp,))[0] for name, tp in get_type_hints(RunConfig).items()}
_PARSERS["lengthscale"] = lambda s: tuple(float(p) for p in s.split(","))


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
        if key not in _PARSERS:
            raise ConfigError(f"{where}: unknown field '{key}'")
        try:
            fields[key] = _PARSERS[key](value)
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


# coercion of a log-record field by its declared type; the CSV writes each
# coerced int or float as its repr, which for a float is its format_float text
_COERCE = {int: int, float: float,
           tuple: lambda v: tuple(float(c) for c in np.asarray(v).ravel())}
_CSV_NAMES = {"n_grid": "N_t"}     # CSV headers that differ from the field name


@functools.cache
def _field_types(cls) -> dict:
    """Declared type of each field of a record class, in field order."""
    return get_type_hints(cls)


class _Record:
    """Base of the log records: every field is coerced to its declared type on
    construction, so a numpy int is logged as 3, never as 3.0."""

    def __post_init__(self):
        # the records are frozen: write the coerced values straight into __dict__
        vars(self).update([(name, _COERCE[tp](getattr(self, name)))
                           for name, tp in _field_types(type(self)).items()])


@dataclass(frozen=True)
class RowRecord(_Record):
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
class StepRecord(_Record):
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


# the step columns named after ApproxQuality fields (kappa_t for kappa, ...)
_QUALITY_COLUMNS = {f"{name}_t": name for name in get_type_hints(ApproxQuality)
                    if f"{name}_t" in _field_types(StepRecord)}


def _csv_lines(cls, records: list, dim: int = 0) -> list:
    """Header, then one line per record; a tuple field expands to name_1..name_dim."""
    types = _field_types(cls)
    header = []
    for name, tp in types.items():
        header += [f"{name}_{i + 1}" for i in range(dim)] if tp is tuple \
            else [_CSV_NAMES.get(name, name)]
    get, template = attrgetter(*types), ",".join(["%r"] * len(header))
    tuples = [i for i, tp in enumerate(types.values()) if tp is tuple]
    lines = [",".join(header)]
    for r in records:
        values = get(r)
        for i in reversed(tuples):      # splice each tuple's entries in place
            values = values[:i] + values[i] + values[i + 1:]
        lines.append(template % values)
    return lines


@dataclass
class RunLog:
    """Every observation of a run plus the per-step schedule quantities."""

    run_seed: int
    dim: int
    rows: list = field(default_factory=list)
    steps: list = field(default_factory=list)
    aborted: bool = False
    abort_reason: str = ""

    def add_row(self, **kw) -> None:
        row = RowRecord(**kw)
        if len(row.x) != self.dim:
            raise InvalidInputError("point dimension does not match the log")
        if self.rows and row.cum_regret < self.rows[-1].cum_regret - 1e-12:
            raise InvalidInputError("cumulative regret must be non-decreasing")
        self.rows.append(row)

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
        head, *lines = _csv_lines(RowRecord, self.rows, self.dim)
        return "".join([f"run_seed,{head}\n"] + [f"{self.run_seed},{line}\n" for line in lines])

    def steps_to_csv(self) -> str:
        return "\n".join(_csv_lines(StepRecord, self.steps)) + "\n"


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


def step_regret_bound(cfg: RunConfig, step) -> float:
    """regret_bound through step.t of a run of the resolved cfg, from that
    step's logged columns: step is a StepRecord, or any object with its t,
    gamma_t, beta_t, alpha_t, a_over_t and eps_t.  Fixed alpha mode logs NaN
    quality constants; a_over = 1 and eps = 0 stand in for them."""
    return regret_bound(
        T=step.t, B=cfg.B, tau=cfg.tau, gamma_T=step.gamma_t, beta_T=step.beta_t,
        alpha_T=step.alpha_t, a_over=1.0 if math.isnan(step.a_over_t) else step.a_over_t,
        eps=0.0 if math.isnan(step.eps_t) else step.eps_t, b_norm=cfg.b_norm,
    )


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


def believed_best(model: SvgpModel, candidates: np.ndarray, *,
                  F: Optional[np.ndarray] = None) -> tuple[np.ndarray, int]:
    """Candidate with the highest posterior mean; ties go to the lowest index.

    F, when given, is the model's feature_map.features(candidates); only a
    features-variant model reads it.
    """
    candidates = _as_points(model.spec.dim, candidates)
    if candidates.shape[0] == 0:
        raise InvalidInputError("no candidates to recommend from")
    idx = int(np.argmax(model.mean(candidates, F=F)))
    return candidates[idx], idx


def _schedule_m(cfg: RunConfig, dim: int, t: int) -> int:
    if cfg.m_mode == "fixed":
        return cfg.m
    return growth_schedule(cfg.kernel, cfg.nu, dim, t, cfg.variant)[0]


def _fit_step_model(data: Dataset, spec: KernelSpec, cfg: RunConfig, bench: Benchmark,
                    fm: FeatureMap, m_t: int, seed: int, t: int,
                    F_obs: Optional[np.ndarray] = None) -> tuple[SvgpModel, Optional[np.ndarray]]:
    """Surrogate for step t, refit from scratch on everything observed so far.

    F_obs, when given, is fm.features(data.X).  Returns the model and, when
    its inducing points are rows of data.X, their features Phi(Z) from F_obs.
    """
    if cfg.variant == "features":
        m_eff = min(m_t, fm.count)
        return fit_svgp_closed_form(data, spec, cfg.tau, feature_map=fm, m=m_eff, F=F_obs), None
    Phi = None
    if data.n == 0:
        lo, hi = as_box(bench.lo, bench.hi)
        Z = lo + _unit_halton(bench.dim, m_t) * (hi - lo)
    elif cfg.inducing == "greedy":
        picks = select_inducing_greedy(data, spec, min(m_t, data.n), stop_early=True)
        Z = data.X[picks]
        Phi = None if F_obs is None else F_obs[:, picks]
    else:
        Z = select_inducing_kmeans(data, min(m_t, data.distinct_rows.shape[0]),
                                   derive_seed(seed, t, _KMEANS_TAG))
    return fit_svgp_closed_form(data, spec, cfg.tau, Z=Z), Phi


def run_sgp_ts(cfg: RunConfig, bench: Benchmark, seed: int) -> RunLog:
    """One full optimization run; deterministic given (cfg, bench, seed).

    Each step fits the surrogate on all data so far, draws B approximate
    posterior samples scaled by alpha_t, queries their grid maximizers, and
    logs regret against the certified optimum.  In theoretical alpha mode an
    infeasible exploration scaling aborts the run with a partial log.

    The realized gamma of step t + 1 depends on the data alone, so
    util.together runs it beside step t's refit.
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
    model, Phi_Z = _fit_step_model(data, spec, cfg, bench, fm, _schedule_m(cfg, bench.dim, 1),
                                   seed, 0)
    # step 1's realized gamma, of no data; each step's refit brings the next one
    gamma = information_gain(data, spec, cfg.tau) if cfg.gamma_mode == "realized" else None
    c1_run = 1.0
    cum = 0.0
    # the last grid and its features, reused while it repeats
    grid_pts = grid_F = None
    # one feature column per observation, copied from grid_F's columns: every
    # queried point is a grid point, and a Mercer feature is elementwise in x,
    # so grid_F[:, idx] equals fm.features(grid.points[idx]) bit for bit.  RFF
    # features come from the GEMM X @ freqs^T, which need not round a row the
    # same alone.
    F_data = np.empty((fm.count, cfg.T * cfg.B)) if fm.kind == "mercer" else None
    for t in range(1, cfg.T + 1):
        grid = build_grid(bench.lo, bench.hi, t, cfg.lipschitz, cfg.grid_cap)
        quality = None
        if cfg.alpha_mode == "theoretical":
            c1_run = max(c1_run, precision_sup_norm(model))
            # conservative stand-in for the spectral mass past the sampler's
            # truncation: the last computed term plus its geometric continuation
            delta_M = tail_mass(fm, fm.count - 1)
            # the t = 1 model is the prior: no defect and no eps0, so kappa = 0
            delta_m, eps0 = (0.0, 0.0) if t == 1 else (_variance_defect(model, data), cfg.eps0)
            try:
                quality = approximation_constants(
                    max(t - 1, 1), cfg.B, model.m_count, cfg.tau, cfg.delta,
                    delta_m, delta_M, c1_run, cfg.variant, eps0,
                )
            except ExplorationInfeasibleError as e:
                log.aborted = True
                log.abort_reason = str(e)
                break
        gamma_t = (gamma if cfg.gamma_mode == "realized"
                   else gamma_bound(spec, max(2.0, float(data.n))))
        alpha_t, b_t, beta_t = schedule_alpha(t, grid.n_points, cfg, gamma_t, quality)
        step_seed = derive_seed(seed, t)
        if not np.array_equal(grid.points, grid_pts):
            grid_pts, grid_F = grid.points, fm.features(grid.points)
        X_batch, idx = select_batch(model, fm, grid, cfg.B, alpha_t, step_seed,
                                    F=grid_F, Phi=Phi_Z)
        f_true = bench.evaluate(X_batch)
        y = f_true + noise.draw(rng_from_path(seed, t, _NOISE_TAG), cfg.B)
        if F_data is not None:
            F_data[:, data.n:data.n + cfg.B] = grid_F[:, idx]
        data = data.append_batch(X_batch, y)
        F_obs = None if F_data is None else F_data[:, :data.n]
        m_logged = model.m_count
        refit = functools.partial(_fit_step_model, data, spec, cfg, bench, fm,
                                  _schedule_m(cfg, bench.dim, min(t + 1, cfg.T)), seed, t, F_obs)
        if cfg.gamma_mode == "realized" and t < cfg.T:
            (model, Phi_Z), gamma = together(
                grid.n_points, refit, functools.partial(information_gain, data, spec, cfg.tau))
        else:
            model, Phi_Z = refit()
        bb_x, _ = believed_best(model, data.X, F=F_obs)
        simple = bench.f_star - float(bench.evaluate(bb_x.reshape(1, -1))[0])
        for b in range(cfg.B):
            cum += bench.f_star - float(f_true[b])
            log.add_row(t=t, b=b, x=X_batch[b], y=float(y[b]), f_true=float(f_true[b]),
                        alpha_t=alpha_t, beta_t=beta_t, n_grid=grid.n_points,
                        m_t=m_logged, cum_regret=cum, simple_regret=simple)
        log.add_step(
            t=t, alpha_t=alpha_t, b_t=b_t, beta_t=beta_t, n_grid=grid.n_points,
            m_t=m_logged, gamma_t=gamma_t,
            **{col: math.nan if quality is None else getattr(quality, name)
               for col, name in _QUALITY_COLUMNS.items()},
        )
    return log


def _variance_defect(model: SvgpModel, data: Dataset) -> float:
    """Largest pointwise prior-variance shortfall of the rank-m approximation."""
    if model.variant == "features":
        return tail_mass(model.feature_map, model.m_count)
    return float(max(np.max(model.nystrom_residual(data.X)), 0.0))
