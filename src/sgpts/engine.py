"""Batch Thompson-sampling optimization loop with exploration scaling schedules.

run_sgp_ts sets up one private _Run, the run's state, and loops over its
step(t), one method per phase.

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
_UNIFORM_TAG = 5050


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
        # a theoretical features-variant run reads the spectrum's tail past a fixed m
        tail_past_m = (self.variant == "features" and self.alpha_mode == "theoretical"
                       and self.m_mode == "fixed")
        mercer = self.feature_kind() == "mercer"
        rules = {**_RULES,
                 "m": (lambda v: v >= 1 and (v < self.M or not tail_past_m),
                       "be >= 1, and below field 'M' in a theoretical features-variant run"),
                 "alpha": (lambda v: v >= 1 or self.alpha_mode != "fixed",
                           "be >= 1 in fixed mode"),
                 "nu": (lambda v: v in _MATERN_NUS or self.kernel != "matern",
                        "be 1.5 or 2.5 for kernel=matern"),
                 "features": (lambda v: v != "mercer" or self.kernel == "se",
                              "be auto or rff for kernel=matern, which has no eigen-expansion map"),
                 "variant": (lambda v: v == "points" or mercer, "be points without an "
                             "eigen-expansion map: set kernel=se with features=mercer or auto"),
                 "alpha_mode": (lambda v: v == "fixed" or mercer, "be fixed without spectral "
                                "tail masses: set kernel=se with features=mercer or auto")}
        for name, (accept, rule) in rules.items():
            v = getattr(self, name)
            if v is not None and not accept(v):
                raise ConfigError(f"field '{name}' must {rule}")

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
    try:
        m_T = _schedule_m(cfg, bench.dim, cfg.T)    # the largest m_t, as the rules grow
    except ScheduleUndefinedError as e:
        raise ConfigError(f"field 'm_mode'=growth on {bench.name}: {e}") from None
    if m_T >= cfg.M and (cfg.variant, cfg.alpha_mode) == ("features", "theoretical"):
        raise ConfigError(f"field 'M' must exceed the {m_T} features m_mode=growth reaches by T")
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
    if not tau > 0:
        raise InvalidInputError("tau must be positive")
    if min(T, B) < 1 or not all(v >= 0 for v in (gamma_T, beta_T, alpha_T, a_over, eps, b_norm)):
        raise InvalidInputError("bound inputs must be non-negative, not NaN")
    term1 = 30.0 * a_over * beta_T * B * math.sqrt(2.0 * T * gamma_T / math.log(1.0 + 1.0 / tau))
    term2 = (31.0 * beta_T + alpha_T) * eps * T * B
    return term1 + term2 + 15.0 * B * b_norm + 2.0 * B


def step_regret_bound(cfg: RunConfig, step) -> float:
    """regret_bound through step.t of a run of the resolved cfg, from that
    step's logged columns: step is a StepRecord, or any object with its t,
    gamma_t, beta_t, alpha_t, a_over_t and eps_t.  Fixed alpha mode logs no
    quality constants, and a_over = 1 and eps = 0 stand in for them; a NaN
    that a theoretical step logs for one fails regret_bound's input check."""
    a_over, eps = (1.0, 0.0) if cfg.alpha_mode == "fixed" else (step.a_over_t, step.eps_t)
    return regret_bound(
        T=step.t, B=cfg.B, tau=cfg.tau, gamma_T=step.gamma_t, beta_T=step.beta_t,
        alpha_T=step.alpha_t, a_over=a_over, eps=eps, b_norm=cfg.b_norm,
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


@dataclass
class _Run:
    """One run_sgp_ts call: the run's constants, the state each step hands the
    next, and a method per phase of a step.  Public functions are called by
    their module-global names, so a patched engine.<name> sees every call."""

    cfg: RunConfig                                      # resolved
    bench: Benchmark
    seed: int
    spec: KernelSpec = field(init=False)
    fm: FeatureMap = field(init=False)
    noise: NoiseModel = field(init=False)
    log: RunLog = field(init=False)
    delta_M: float = field(init=False)                  # theoretical mode's fm tail
    data: Dataset = field(init=False)
    model: SvgpModel = field(init=False)
    Phi_Z: Optional[np.ndarray] = field(init=False)     # when Z are rows of data.X
    gamma: Optional[float] = field(init=False)          # step t's realized gamma
    c1: float = field(init=False, default=1.0)          # largest c_1 so far
    cum: float = field(init=False, default=0.0)         # cumulative regret
    grid_pts: Optional[np.ndarray] = field(init=False, default=None)    # the last grid
    grid_F: Optional[np.ndarray] = field(init=False, default=None)      # and its features
    F_data: Optional[np.ndarray] = field(init=False)    # Mercer features of data.X

    def __post_init__(self):
        cfg, bench = self.cfg, self.bench
        self.spec = KernelSpec(
            family=cfg.kernel, dim=bench.dim, lengthscales=cfg.lengthscale,
            variance=cfg.variance, nu=cfg.nu if cfg.kernel == "matern" else None,
        )
        if cfg.feature_kind() == "mercer":
            self.fm = mercer_truncate(self.spec, cfg.M, bench.lo, bench.hi)
        else:
            self.fm = rff_sample(self.spec, cfg.M, derive_seed(self.seed, _RFF_TAG))
        # conservative stand-in for the spectral mass past the sampler's
        # truncation: the last computed term plus its geometric continuation
        self.delta_M = (tail_mass(self.fm, self.fm.count - 1)
                        if cfg.alpha_mode == "theoretical" else math.nan)
        self.noise = NoiseModel(cfg.noise_var)
        self.log = RunLog(run_seed=self.seed, dim=bench.dim)
        self.data = Dataset.empty(bench.dim, cfg.B)
        # one feature column per observation, copied from grid_F's columns: every
        # queried point is a grid point, and a Mercer feature is elementwise in x,
        # so grid_F[:, idx] equals fm.features(grid.points[idx]) bit for bit.  RFF
        # features come from the GEMM X @ freqs^T, which need not round a row the
        # same alone.
        self.F_data = np.empty((self.fm.count, cfg.T * cfg.B)) if self.fm.kind == "mercer" else None
        self.model, self.Phi_Z = self._fit(0)
        # step 1's realized gamma, of no data; each step's refit brings the next one
        self.gamma = (information_gain(self.data, self.spec, cfg.tau)
                      if cfg.gamma_mode == "realized" else None)

    @property
    def F_obs(self) -> Optional[np.ndarray]:
        return None if self.F_data is None else self.F_data[:, :self.data.n]

    def step(self, t: int) -> None:
        """Step t, phase by phase, logged."""
        grid = self._grid(t)
        columns = self._schedule(t, grid.n_points)
        X_batch, idx = self._select(t, grid, columns["alpha_t"])
        f_true, y = self._observe(t, X_batch, idx)
        m_t = self.model.m_count        # of the model that chose the batch
        simple = self._refit(t, grid.n_points)
        for b in range(self.cfg.B):
            self.cum += self.bench.f_star - float(f_true[b])
            self.log.add_row(t=t, b=b, x=X_batch[b], y=float(y[b]), f_true=float(f_true[b]),
                             alpha_t=columns["alpha_t"], beta_t=columns["beta_t"],
                             n_grid=grid.n_points, m_t=m_t, cum_regret=self.cum,
                             simple_regret=simple)
        self.log.add_step(t=t, n_grid=grid.n_points, m_t=m_t, **columns)

    def _grid(self, t: int):
        return build_grid(self.bench.lo, self.bench.hi, t, self.cfg.lipschitz, self.cfg.grid_cap)

    def _schedule(self, t: int, n_grid: int) -> dict:
        """Step t's schedule columns of its StepRecord.  In theoretical mode an
        infeasible scaling raises ExplorationInfeasibleError, before gamma is read."""
        cfg, model = self.cfg, self.model
        quality = None
        if cfg.alpha_mode == "theoretical":
            self.c1 = max(self.c1, precision_sup_norm(model))
            # delta_m, the largest pointwise prior-variance shortfall of the
            # rank-m approximation; the t = 1 model is the prior, with no
            # defect and no eps0, so kappa = 0
            if t == 1:
                delta_m, eps0 = 0.0, 0.0
            elif model.variant == "features":
                delta_m, eps0 = tail_mass(model.feature_map, model.m_count), cfg.eps0
            else:
                delta_m = float(max(np.max(model.nystrom_residual(self.data.X)), 0.0))
                eps0 = cfg.eps0
            quality = approximation_constants(max(t - 1, 1), cfg.B, model.m_count, cfg.tau,
                                              cfg.delta, delta_m, self.delta_M, self.c1,
                                              cfg.variant, eps0)
        gamma_t = (self.gamma if cfg.gamma_mode == "realized"
                   else gamma_bound(self.spec, max(2.0, float(self.data.n))))
        alpha_t, b_t, beta_t = schedule_alpha(t, n_grid, cfg, gamma_t, quality)
        return dict(alpha_t=alpha_t, b_t=b_t, beta_t=beta_t, gamma_t=gamma_t,
                    **{col: math.nan if quality is None else getattr(quality, name)
                       for col, name in _QUALITY_COLUMNS.items()})

    def _select(self, t: int, grid, alpha_t: float) -> tuple[np.ndarray, np.ndarray]:
        if not np.array_equal(grid.points, self.grid_pts):
            self.grid_pts, self.grid_F = grid.points, self.fm.features(grid.points)
        return select_batch(self.model, self.fm, grid, self.cfg.B, alpha_t,
                            derive_seed(self.seed, t), F=self.grid_F, Phi=self.Phi_Z)

    def _observe(self, t: int, X_batch: np.ndarray, idx: np.ndarray):
        """Evaluate the batch and add it, with its noise, to the data: (f_true, y)."""
        B, n = self.cfg.B, self.data.n
        f_true = self.bench.evaluate(X_batch)
        y = f_true + self.noise.draw(rng_from_path(self.seed, t, _NOISE_TAG), B)
        if self.F_data is not None:
            self.F_data[:, n:n + B] = self.grid_F[:, idx]
        self.data = self.data.append_batch(X_batch, y)
        return f_true, y

    def _refit(self, t: int, n_grid: int) -> float:
        """Refit after step t beside step t + 1's realized gamma, which depends
        on the data alone; returns the refit's believed best's simple regret."""
        if self.cfg.gamma_mode == "realized" and t < self.cfg.T:
            (self.model, self.Phi_Z), self.gamma = together(
                n_grid, lambda: self._fit(t),
                lambda: information_gain(self.data, self.spec, self.cfg.tau))
        else:
            self.model, self.Phi_Z = self._fit(t)
        bb_x, _ = believed_best(self.model, self.data.X, F=self.F_obs)
        return self.bench.f_star - float(self.bench.evaluate(bb_x.reshape(1, -1))[0])

    def _fit(self, t: int) -> tuple[SvgpModel, Optional[np.ndarray]]:
        """Step t + 1's surrogate, refit from scratch on everything observed so
        far, and Phi(Z) from F_obs when its inducing points are rows of data.X."""
        cfg, data, spec, F_obs = self.cfg, self.data, self.spec, self.F_obs
        m_t = _schedule_m(cfg, self.bench.dim, min(t + 1, cfg.T))
        if cfg.variant == "features":
            return fit_svgp_closed_form(data, spec, cfg.tau, feature_map=self.fm,
                                        m=min(m_t, self.fm.count), F=F_obs), None
        Phi = None
        if data.n == 0:
            lo, hi = as_box(self.bench.lo, self.bench.hi)
            Z = lo + _unit_halton(self.bench.dim, m_t) * (hi - lo)
        elif cfg.inducing == "greedy":
            picks = select_inducing_greedy(data, spec, min(m_t, data.n))
            Z = data.X[picks]
            Phi = None if F_obs is None else F_obs[:, picks]
        else:
            Z = select_inducing_kmeans(data, min(m_t, data.distinct_rows.shape[0]),
                                       derive_seed(self.seed, t, _KMEANS_TAG))
        return fit_svgp_closed_form(data, spec, cfg.tau, Z=Z), Phi


def run_sgp_ts(cfg: RunConfig, bench: Benchmark, seed: int) -> RunLog:
    """One full optimization run; deterministic given (cfg, bench, seed).

    Each step fits the surrogate on all data so far, draws B approximate
    posterior samples scaled by alpha_t, queries their grid maximizers, and
    logs regret against the certified optimum.  In theoretical alpha mode an
    infeasible exploration scaling aborts the run with a partial log.  The
    private _Run holds the run's state and its steps' phases.
    """
    run = _Run(resolve_config(cfg, bench), bench, seed)
    try:
        for t in range(1, run.cfg.T + 1):
            run.step(t)
    except ExplorationInfeasibleError as e:
        run.log.aborted, run.log.abort_reason = True, str(e)
    return run.log


def random_search(cfg: RunConfig, bench: Benchmark, seed: int) -> RunLog:
    """The uniform-random baseline of run_sgp_ts(cfg, bench, seed), in its log
    schema: the run's budget of T batches of B uniform points, observed on its
    noise stream.  The believed best is the point with the best noisy value so far."""
    cfg = resolve_config(cfg, bench)
    noise = NoiseModel(cfg.noise_var)
    lo, hi = as_box(bench.lo, bench.hi)
    log = RunLog(run_seed=seed, dim=bench.dim)
    best_y = best_f = -np.inf
    cum = 0.0
    for t in range(1, cfg.T + 1):
        X = rng_from_path(seed, t, _UNIFORM_TAG).uniform(lo, hi, size=(cfg.B, bench.dim))
        f_true = bench.evaluate(X)
        y = f_true + noise.draw(rng_from_path(seed, t, _NOISE_TAG), cfg.B)
        for b in range(cfg.B):
            if y[b] > best_y:
                best_y, best_f = float(y[b]), float(f_true[b])
            cum += bench.f_star - float(f_true[b])
            log.add_row(t=t, b=b, x=X[b], y=float(y[b]), f_true=float(f_true[b]),
                        alpha_t=math.nan, beta_t=math.nan, n_grid=0, m_t=0,
                        cum_regret=cum, simple_regret=bench.f_star - best_f)
    return log

