import dataclasses
import hashlib
import itertools
import json
import math
import os
import platform
import subprocess
import sys
import threading
import time
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import norm

from sgpts import engine, util
from sgpts.benchmarks import BENCHMARKS, Benchmark, get_benchmark
from sgpts.engine import (
    RunConfig,
    RunLog,
    believed_best,
    growth_exponents,
    growth_schedule,
    parse_config,
    random_search,
    regret_bound,
    resolve_config,
    run_sgp_ts,
    schedule_alpha,
    step_regret_bound,
)
from sgpts.errors import (
    ConfigError,
    ExplorationInfeasibleError,
    InvalidInputError,
    NumericalDegeneracyError,
    ScheduleUndefinedError,
)
from sgpts.exact_gp import Dataset, batch_sigma_bound, gamma_bound, information_gain
from sgpts.kernels import FeatureMap, KernelSpec, mercer_truncate
from sgpts.sampling import DrawSetup, _unit_halton, build_grid, select_batch
from sgpts.svgp import SvgpModel, fit_svgp_closed_form, select_inducing_greedy
from sgpts.util import as_box, rng_from_path

REPO = Path(__file__).resolve().parent.parent


def avx2_host() -> bool:
    """An x86-64 CPU with AVX2, which can run OpenBLAS's Haswell kernel."""
    try:
        flags = Path("/proc/cpuinfo").read_text().split()
    except OSError:
        return False
    return platform.machine() == "x86_64" and "avx2" in flags


def strict_regret(log, f_star):
    """Sum of f_star minus the true objective value over every selection."""
    return float(sum(f_star - r.f_true for r in log.rows))


def tiny_cfg(**kw):
    base = dict(objective="multimodal1d", T=4, B=3, lengthscale=(0.1,), m=10,
                M=96, grid_cap=800)
    base.update(kw)
    return RunConfig(**base)


FINITE = st.floats(allow_nan=False, allow_infinity=False)
POSITIVE = st.floats(0.0, 1e6, exclude_min=True)


def is_valid(cfg):
    try:
        cfg.validate()
    except ConfigError:
        return False
    return True


class TestRunConfig:
    def test_defaults_validate(self):
        tiny_cfg().validate()

    @pytest.mark.parametrize(
        "kw,field",
        [
            (dict(objective=""), "objective"),
            (dict(T=0), "'T'"),
            (dict(B=0), "'B'"),
            (dict(variant="grid"), "'variant'"),
            (dict(kernel="rbf"), "'kernel'"),
            (dict(m=0), "'m'"),
            (dict(m_mode="auto"), "'m_mode'"),
            (dict(M=0), "'M'"),
            (dict(features="fourier"), "'features'"),
            (dict(inducing="random"), "'inducing'"),
            (dict(alpha_mode="loose"), "'alpha_mode'"),
            (dict(alpha=0.5), "'alpha'"),
            (dict(delta=1.5), "'delta'"),
            (dict(eps0=-1.0), "'eps0'"),
            (dict(b_norm=0.0), "'b_norm'"),
            (dict(gamma_mode="none"), "'gamma_mode'"),
            (dict(grid_cap=1), "'grid_cap'"),
            (dict(noise_var=-1.0), "'noise_var'"),
            (dict(tau=0.0), "'tau'"),
            (dict(r_sub=-1.0), "'r_sub'"),
            (dict(lipschitz=0.0), "'lipschitz'"),
            (dict(variance=1.5), "'variance'"),
            (dict(alpha=math.nan), "'alpha'"),
            (dict(alpha=math.inf), "'alpha'"),
            (dict(alpha_mode="theoretical", alpha=math.nan), "'alpha'"),
            (dict(delta=math.nan), "'delta'"),
            (dict(eps0=math.nan), "'eps0'"),
            (dict(eps0=math.inf), "'eps0'"),
            (dict(b_norm=math.nan), "'b_norm'"),
            (dict(noise_var=math.nan), "'noise_var'"),
            (dict(tau=math.nan), "'tau'"),
            (dict(tau=math.inf), "'tau'"),
            (dict(r_sub=math.nan), "'r_sub'"),
            (dict(lipschitz=math.nan), "'lipschitz'"),
            (dict(variance=math.nan), "'variance'"),
            (dict(nu=math.nan), "'nu'"),
            (dict(lengthscale=(0.0,)), "'lengthscale'"),
            (dict(lengthscale=(0.1, -0.2)), "'lengthscale'"),
            (dict(lengthscale=(math.nan,)), "'lengthscale'"),
            (dict(lengthscale=(math.inf,)), "'lengthscale'"),
            (dict(kernel="matern", nu=3.0), "'nu'"),
            (dict(kernel="matern", features="mercer"), "'features'.*kernel=matern"),
            (dict(variant="features", alpha_mode="theoretical", m=96), "'m'.*below.*'M'"),
            (dict(variant="features", alpha_mode="theoretical", m=200), "'m'.*below.*'M'"),
        ],
    )
    def test_each_invalid_field_is_named(self, kw, field):
        with pytest.raises(ConfigError, match=field.replace("'", "")):
            tiny_cfg(**kw).validate()

    @pytest.mark.parametrize("item", ["alpha = nan", "tau = nan", "noise_var = nan",
                                      "lipschitz = nan", "eps0 = nan", "b_norm = inf",
                                      "r_sub = nan", "lengthscale = 0", "lengthscale = 0.1,inf"])
    def test_non_finite_or_non_positive_value_rejected_at_parse_time(self, item):
        field = item.partition(" ")[0]
        with pytest.raises(ConfigError, match=f"field '{field}' must"):
            parse_config("objective = multimodal1d\n", overrides=(item,))

    def test_matern_nu_checked_only_for_matern(self):
        tiny_cfg(kernel="matern", nu=1.5).validate()
        tiny_cfg(kernel="se", nu=3.0).validate()
        with pytest.raises(ConfigError, match="^field 'nu' must be 1.5 or 2.5 for kernel=matern$"):
            parse_config("objective = multimodal1d\nkernel = matern\nnu = 3.0\n")

    def test_features_variant_needs_eigen_map(self):
        with pytest.raises(ConfigError, match="variant"):
            tiny_cfg(variant="features", kernel="matern").validate()
        with pytest.raises(ConfigError, match="alpha_mode"):
            tiny_cfg(alpha_mode="theoretical", kernel="matern").validate()

    def test_resolve_fills_objective_defaults(self):
        bench = get_benchmark("hartmann6")
        cfg = resolve_config(RunConfig(objective="hartmann6"), bench)
        assert cfg.noise_var == bench.noise_var
        assert cfg.tau == bench.noise_var
        assert cfg.r_sub == math.sqrt(bench.noise_var)
        assert cfg.lipschitz == bench.lipschitz
        assert cfg.lengthscale == (0.2,) * 6

    def test_resolve_rejects_bad_lengthscale_count(self):
        bench = get_benchmark("multimodal2d")
        with pytest.raises(ConfigError, match="lengthscale"):
            resolve_config(RunConfig(objective="multimodal2d", lengthscale=(0.1, 0.2, 0.3)), bench)

    def test_resolve_rejects_an_undefined_growth_schedule(self):
        # the points rule needs 2 nu > d: nu = 1.5 fails at hartmann6's d = 6
        cfg = RunConfig(objective="hartmann6", kernel="matern", nu=1.5, m_mode="growth")
        with pytest.raises(ConfigError, match="'m_mode'=growth on hartmann6: .*2 nu > d"):
            resolve_config(cfg, get_benchmark("hartmann6"))
        # and holds at multimodal2d's d = 2
        resolve_config(dataclasses.replace(cfg, objective="multimodal2d"),
                       get_benchmark("multimodal2d"))

    def test_resolve_rejects_a_growth_schedule_that_reaches_M(self):
        # a theoretical features run reads the tail past m_t; m_T = ceil(log 3) = 2
        cfg = tiny_cfg(T=3, variant="features", alpha_mode="theoretical", m_mode="growth", M=2)
        with pytest.raises(ConfigError, match="'M' must exceed the 2 features"):
            resolve_config(cfg, get_benchmark("multimodal1d"))
        resolve_config(dataclasses.replace(cfg, M=3), get_benchmark("multimodal1d"))


class TestParseConfig:
    def test_round_trip(self):
        text = """
        # optimizer settings
        objective = multimodal1d
        T = 6
        B = 4
        lengthscale = 0.1
        alpha = 1.5
        """
        cfg = parse_config(text)
        assert cfg.objective == "multimodal1d"
        assert (cfg.T, cfg.B, cfg.alpha) == (6, 4, 1.5)
        assert cfg.lengthscale == (0.1,)

    def test_unknown_key_names_line(self):
        with pytest.raises(ConfigError, match="line 2"):
            parse_config("objective = multimodal1d\nbogus = 3\n")

    def test_bad_value_names_line_and_field(self):
        with pytest.raises(ConfigError, match="line 2.*'T'"):
            parse_config("objective = multimodal1d\nT = soon\n")

    def test_missing_objective(self):
        with pytest.raises(ConfigError, match="objective"):
            parse_config("T = 3\n")

    def test_missing_equals(self):
        with pytest.raises(ConfigError, match="line 1"):
            parse_config("just some words\n")

    def test_overrides_win(self):
        cfg = parse_config("objective = multimodal1d\nT = 3\n",
                           overrides=("T=9", "B = 2"))
        assert (cfg.T, cfg.B) == (9, 2)

    def test_override_validation(self):
        with pytest.raises(ConfigError, match="bogus"):
            parse_config("objective = multimodal1d\n", overrides=("bogus=1",))
        with pytest.raises(ConfigError, match="not key=value"):
            parse_config("objective = multimodal1d\n", overrides=("T",))

    def test_lines_and_overrides_share_one_rule(self):
        # the same item gives the same error from a file line and from an override
        for item, msg in [("T", "'T' is not key=value"),
                          ("bogus = 1", "unknown field 'bogus'"),
                          ("T = soon", "bad value 'soon' for field 'T'")]:
            with pytest.raises(ConfigError, match=f"^line 2: {msg}$"):
                parse_config(f"objective = multimodal1d\n{item}\n")
            with pytest.raises(ConfigError, match=f"^override: {msg}$"):
                parse_config("objective = multimodal1d\n", overrides=(item,))

    def test_multid_lengthscale(self):
        cfg = parse_config("objective = multimodal2d\nlengthscale = 0.1,0.3\n")
        assert cfg.lengthscale == (0.1, 0.3)

    @settings(derandomize=True, deadline=None, max_examples=150)
    @given(cfg=st.builds(
        RunConfig,
        objective=st.text("abcdefghijklmnopqrstuvwxyz0123456789_-", min_size=1, max_size=12),
        T=st.integers(1, 10**6), B=st.integers(1, 10**6), m=st.integers(1, 10**6),
        M=st.integers(1, 10**6), grid_cap=st.integers(2, 10**6),
        nu=st.sampled_from((1.5, 2.5)) | FINITE,
        lengthscale=st.lists(POSITIVE, min_size=1, max_size=6).map(tuple),
        variance=st.floats(0.0, 1.0, exclude_min=True),
        noise_var=st.none() | st.floats(0.0, 1e6), tau=st.none() | POSITIVE,
        r_sub=st.none() | st.floats(0.0, 1e6), lipschitz=st.none() | POSITIVE,
        alpha=st.floats(1.0, 1e6), delta=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
        eps0=st.floats(0.0, 1e6), b_norm=POSITIVE,
        **{name: st.sampled_from(allowed) for name, allowed in engine._CHOICES.items()},
    ).filter(is_valid))
    def test_any_valid_config_round_trips(self, cfg):
        items = [f"{f.name} = {','.join(map(str, v)) if isinstance(v, tuple) else v}"
                 for f in dataclasses.fields(cfg) if (v := getattr(cfg, f.name)) is not None]
        assert parse_config("\n".join(items)) == cfg
        assert parse_config("", overrides=tuple(items)) == cfg


class TestRunLog:
    def test_row_dim_checked(self):
        log = RunLog(run_seed=0, dim=2)
        with pytest.raises(InvalidInputError):
            log.add_row(t=1, b=0, x=[0.5], y=0.0, f_true=0.0, alpha_t=1.0,
                        beta_t=1.0, n_grid=2, m_t=1, cum_regret=0.0, simple_regret=0.0)

    def test_regret_must_not_decrease(self):
        log = RunLog(run_seed=0, dim=1)
        log.add_row(t=1, b=0, x=[0.5], y=0.0, f_true=0.0, alpha_t=1.0,
                    beta_t=1.0, n_grid=2, m_t=1, cum_regret=1.0, simple_regret=0.0)
        with pytest.raises(InvalidInputError):
            log.add_row(t=1, b=1, x=[0.5], y=0.0, f_true=0.0, alpha_t=1.0,
                        beta_t=1.0, n_grid=2, m_t=1, cum_regret=0.5, simple_regret=0.0)

    def test_cells_follow_declared_types(self):
        # numpy scalars are coerced on entry: ints log as ints, floats as their repr
        log = RunLog(run_seed=np.int64(4), dim=1)
        log.add_row(t=np.int64(1), b=np.int32(0), x=np.array([[0.25]]), y=np.float32(0.5),
                    f_true=1, alpha_t=np.float64(1.5), beta_t=math.nan, n_grid=np.int64(3),
                    m_t=np.int16(2), cum_regret=0, simple_regret=np.float64(0.1))
        log.add_step(t=np.int64(1), alpha_t=1, b_t=np.float32(0.5), beta_t=2.0, n_grid=np.uint8(3),
                     m_t=2, gamma_t=0.0, kappa_t=math.nan, eps_t=math.nan, a_under_t=math.nan,
                     a_over_t=math.nan, c_t=math.nan)
        assert log.to_csv().splitlines()[1] == "4,1,0,0.25,0.5,1.0,1.5,nan,3,2,0.0,0.1"
        assert log.steps_to_csv().splitlines()[1] == "1,1.0,0.5,2.0,3,2,0.0,nan,nan,nan,nan,nan"

    def test_csv_shape_and_header(self):
        bench = get_benchmark("multimodal1d")
        log = run_sgp_ts(tiny_cfg(), bench, seed=0)
        lines = log.to_csv().splitlines()
        assert lines[0] == ("run_seed,t,b,x_1,y,f_true,alpha_t,beta_t,N_t,m_t,"
                            "cum_regret,simple_regret")
        assert len(lines) == 1 + 4 * 3
        steps = log.steps_to_csv().splitlines()
        assert steps[0].startswith("t,alpha_t,b_t,beta_t,N_t,m_t,gamma_t")
        assert len(steps) == 1 + 4

    def test_to_dataset_round_trip(self):
        bench = get_benchmark("multimodal1d")
        log = run_sgp_ts(tiny_cfg(), bench, seed=0)
        data = log.to_dataset()
        assert data.n == 12 and data.batch_size == 3 and data.steps == 4
        assert np.allclose(data.X.ravel(), [r.x[0] for r in log.rows])


class TestScheduleAlpha:
    def test_single_point_grid_gives_zero_b(self):
        cfg = tiny_cfg(alpha=2.0)
        alpha_t, b_t, beta_t = schedule_alpha(1, 1, cfg, 0.0, None)
        assert alpha_t == 2.0
        assert b_t == 0.0
        assert beta_t == 1.0

    def test_log_plug_b_equals_two(self):
        cfg = tiny_cfg()
        _, b_t, _ = schedule_alpha(1.0, math.e**2, cfg, 0.0, None)
        assert abs(b_t - 2.0) < 1e-12

    def test_theoretical_formula_plug(self):
        from sgpts.svgp import ApproxQuality

        cfg = tiny_cfg(alpha_mode="theoretical", b_norm=1.0, r_sub=1.0,
                       noise_var=0.01, tau=0.01)
        q = ApproxQuality(kappa=0.0, c=0.0, a_under=1.0, a_over=1.0,
                          eps=0.0)
        t = math.sqrt(math.e)  # log(t^2) = 1
        alpha_t, _, _ = schedule_alpha(t, 10, cfg, 0.0, q)
        assert abs(alpha_t - 6.0) < 1e-12

    def test_monotone_in_t_for_fixed_quality(self):
        from sgpts.svgp import ApproxQuality

        cfg = tiny_cfg(alpha_mode="theoretical", b_norm=1.0, r_sub=0.5,
                       noise_var=0.01, tau=0.01)
        q = ApproxQuality(kappa=0.01, c=0.1, a_under=1.1, a_over=1.05,
                          eps=0.0)
        vals = [schedule_alpha(t, 50, cfg, 1.0, q) for t in (1, 2, 4, 9)]
        alphas = [v[0] for v in vals]
        betas = [v[2] for v in vals]
        assert all(a2 > a1 for a1, a2 in zip(alphas, alphas[1:]))
        assert all(b2 > b1 for b1, b2 in zip(betas, betas[1:]))
        assert all(v[0] >= 0 and v[1] >= 0 and v[2] >= 0 for v in vals)


class TestRegretBound:
    def test_worked_example(self):
        got = regret_bound(T=2, B=1, tau=1.0, gamma_T=1.0, beta_T=1.0,
                           alpha_T=0.7, a_over=1.0, eps=0.0, b_norm=1.0)
        want = 30.0 * math.sqrt(4.0 / math.log(2.0)) + 17.0
        assert abs(got - want) < 1e-12

    def test_linear_in_batch_size_when_eps_zero(self):
        a = regret_bound(5, 2, 0.5, 3.0, 2.0, 1.0, 1.2, 0.0, 1.5)
        b = regret_bound(5, 4, 0.5, 3.0, 2.0, 1.0, 1.2, 0.0, 1.5)
        assert abs(b - 2.0 * a) < 1e-9

    def test_monotone_in_each_constant(self):
        base = regret_bound(5, 2, 0.5, 3.0, 2.0, 1.0, 1.2, 0.1, 1.5)
        assert regret_bound(5, 2, 0.5, 3.0, 2.0, 1.0, 1.5, 0.1, 1.5) > base
        assert regret_bound(5, 2, 0.5, 3.0, 2.5, 1.0, 1.2, 0.1, 1.5) > base
        assert regret_bound(5, 2, 0.5, 3.0, 2.0, 1.0, 1.2, 0.2, 1.5) > base
        assert regret_bound(5, 2, 0.5, 3.0, 2.0, 1.0, 1.2, 0.1, 2.5) > base

    def test_validation(self):
        with pytest.raises(InvalidInputError):
            regret_bound(5, 2, 0.0, 3.0, 2.0, 1.0, 1.2, 0.1, 1.5)
        with pytest.raises(InvalidInputError):
            regret_bound(5, 2, 0.5, -1.0, 2.0, 1.0, 1.2, 0.1, 1.5)
        for i in range(2, 9):
            args = [5, 2, 0.5, 3.0, 2.0, 1.0, 1.2, 0.1, 1.5]
            args[i] = math.nan
            with pytest.raises(InvalidInputError):
                regret_bound(*args)


    def test_step_bound_reads_nan_quality_as_one_and_zero(self):
        cfg = SimpleNamespace(B=2, tau=0.5, b_norm=1.5, alpha_mode="fixed")
        step = SimpleNamespace(t=5, gamma_t=3.0, beta_t=2.0, alpha_t=1.0,
                               a_over_t=math.nan, eps_t=math.nan)
        assert step_regret_bound(cfg, step) == regret_bound(5, 2, 0.5, 3.0, 2.0, 1.0,
                                                            1.0, 0.0, 1.5)
        cfg.alpha_mode = "theoretical"
        step.a_over_t, step.eps_t = 1.2, 0.1
        assert step_regret_bound(cfg, step) == regret_bound(5, 2, 0.5, 3.0, 2.0, 1.0,
                                                            1.2, 0.1, 1.5)
        # theoretical mode logs both constants: a NaN is a fault, not fixed mode
        for nan_col in ("a_over_t", "eps_t"):
            bad = SimpleNamespace(**{**vars(step), nan_col: math.nan})
            with pytest.raises(InvalidInputError, match="NaN"):
                step_regret_bound(cfg, bad)


class TestGrowthSchedule:
    def test_se_log_plug(self):
        assert growth_schedule("se", None, 1, math.e**3, "points") == (3, 3)
        assert growth_schedule("se", None, 1, 1, "points") == (1, 1)

    def test_se_dimension_power(self):
        T = math.e**2
        assert growth_schedule("se", None, 3, T, "features") == (8, 8)

    def test_matern_features_exponents_exact(self):
        em, eM = growth_exponents(2.5, 1, "features")
        assert em == Fraction(1, 5)
        assert eM == Fraction(6, 25)
        assert growth_schedule("matern", 2.5, 1, 1024, "features") == (4, 6)

    def test_matern_points_exponents_exact(self):
        em, eM = growth_exponents(2.5, 1, "points")
        assert em == Fraction(1, 2)
        assert eM == Fraction(3, 10)
        em2, eM2 = growth_exponents(1.5, 2, "points")
        assert em2 == Fraction(4, 1)
        assert eM2 == Fraction(10, 3)

    def test_points_needs_smooth_kernel(self):
        with pytest.raises(ScheduleUndefinedError):
            growth_exponents(0.5, 1, "points")
        with pytest.raises(ScheduleUndefinedError):
            growth_schedule("matern", 1.5, 3, 100, "points")

    def test_validation(self):
        with pytest.raises(InvalidInputError):
            growth_schedule("cubic", 2.5, 1, 10, "points")
        with pytest.raises(InvalidInputError):
            growth_exponents(2.5, 0, "points")
        with pytest.raises(InvalidInputError):
            growth_exponents(2.5, 1, "mixed")


class TestBelievedBest:
    def test_zero_mean_ties_to_lowest_index(self):
        spec = KernelSpec(family="se", dim=1, lengthscales=(0.2,))
        model = fit_svgp_closed_form(Dataset.empty(1, 1), spec, 0.1,
                                     Z=np.array([[0.5]]))
        cands = np.array([[0.1], [0.5], [0.9]])
        x, idx = believed_best(model, cands)
        assert idx == 0 and x[0] == 0.1

    def test_informative_observation_wins(self):
        spec = KernelSpec(family="se", dim=1, lengthscales=(0.2,))
        data = Dataset(np.array([[0.6]]), np.array([2.0]), 1, 1)
        model = fit_svgp_closed_form(data, spec, 1e-4, Z=np.array([[0.6]]))
        cands = np.linspace(0, 1, 21).reshape(-1, 1)
        x, idx = believed_best(model, cands)
        assert abs(x[0] - 0.6) < 1e-12
        # a flat candidate list is points in 1-d, as everywhere else
        x_flat, idx_flat = believed_best(model, cands.ravel())
        assert idx_flat == idx and np.array_equal(x_flat, x)

    def test_duplicates_after_argmax_do_not_move_it(self):
        spec = KernelSpec(family="se", dim=1, lengthscales=(0.2,))
        data = Dataset(np.array([[0.3]]), np.array([1.0]), 1, 1)
        model = fit_svgp_closed_form(data, spec, 1e-4, Z=np.array([[0.3]]))
        cands = np.linspace(0, 1, 11).reshape(-1, 1)
        _, idx = believed_best(model, cands)
        stacked = np.vstack([cands, cands[idx:idx + 1]])
        _, idx2 = believed_best(model, stacked)
        assert idx2 == idx

    def test_empty_candidates(self):
        spec = KernelSpec(family="se", dim=1, lengthscales=(0.2,))
        model = fit_svgp_closed_form(Dataset.empty(1, 1), spec, 0.1,
                                     Z=np.array([[0.5]]))
        with pytest.raises(InvalidInputError):
            believed_best(model, np.zeros((0, 1)))

    @pytest.mark.parametrize("variant", ["points", "features"])
    def test_reads_the_mean_alone_with_predict_bits(self, monkeypatch, variant):
        spec = KernelSpec(family="se", dim=1, lengthscales=(0.2,))
        rng = np.random.default_rng(7)
        data = Dataset(rng.uniform(size=(30, 1)), rng.normal(size=30), 1, 30)
        fm = mercer_truncate(spec, 64, [0.0], [1.0])
        model = (fit_svgp_closed_form(data, spec, 0.1, Z=data.X[:10]) if variant == "points"
                 else fit_svgp_closed_form(data, spec, 0.1, feature_map=fm, m=20))
        cands = rng.uniform(size=(300, 1))
        want = model.predict(cands)[0]
        assert np.array_equal(model.mean(cands), want)
        assert np.array_equal(model.mean(cands, F=fm.features(cands)), want)
        monkeypatch.setattr(SvgpModel, "predict", None)
        assert believed_best(model, cands)[1] == int(np.argmax(want))


class TestObservedFeatures:
    """A Mercer run reads its observed points' features from its grids' features."""

    def observed(self):
        # data as a run holds it: B = 4 queried grid points a step, repeats
        # included, their features gathered from the grid's features into a
        # C-ordered buffer, one column per point
        spec = KernelSpec(family="se", dim=1, lengthscales=(0.1,))
        fm = mercer_truncate(spec, 96, [0.0], [1.0])
        grid = build_grid([0.0], [1.0], t=4, lipschitz=3.0, cap=2000)
        grid_F = fm.features(grid.points)
        rng = np.random.default_rng(51)
        idx = rng.integers(0, grid.n_points, size=24)
        idx[5] = idx[2]
        data = Dataset(grid.points[idx], rng.normal(size=24), 4, 6)
        F_obs = np.empty((fm.count, 24))
        F_obs[:] = grid_F[:, idx]
        return spec, fm, grid, grid_F, data, F_obs

    def test_points_keywords_match_the_default_path(self):
        spec, fm, grid, grid_F, data, F_obs = self.observed()
        picks = select_inducing_greedy(data, spec, 12)
        model = fit_svgp_closed_form(data, spec, 0.05, Z=data.X[picks])
        Phi = F_obs[:, picks]
        assert np.array_equal(DrawSetup(model, fm, 1.5, Phi=Phi).Phi,
                              DrawSetup(model, fm, 1.5).Phi)
        for a, b in zip(select_batch(model, fm, grid, 6, 1.5, 99, F=grid_F, Phi=Phi),
                        select_batch(model, fm, grid, 6, 1.5, 99)):
            assert np.array_equal(a, b)
        x, i = believed_best(model, data.X, F=F_obs)
        assert i == believed_best(model, data.X)[1] and np.array_equal(x, data.X[i])

    def test_features_keywords_match_the_default_path(self):
        spec, fm, grid, grid_F, data, F_obs = self.observed()
        want = fit_svgp_closed_form(data, spec, 0.05, feature_map=fm, m=20)
        got = fit_svgp_closed_form(data, spec, 0.05, feature_map=fm, m=20, F=F_obs)
        for name in ("m_vec", "S_mat", "_a", "_chol_P", "_chol_Sigma"):
            assert np.array_equal(getattr(got, name), getattr(want, name))
        assert believed_best(want, data.X, F=F_obs)[1] == believed_best(want, data.X)[1]

    def test_given_features_are_checked_by_shape(self):
        spec, fm, grid, grid_F, data, F_obs = self.observed()
        model = fit_svgp_closed_form(data, spec, 0.05, feature_map=fm, m=20)
        points = fit_svgp_closed_form(data, spec, 0.05, Z=data.X[:3])
        for wrong in (F_obs[:, 1:], F_obs[1:]):
            with pytest.raises(InvalidInputError, match="features have shape"):
                fit_svgp_closed_form(data, spec, 0.05, feature_map=fm, m=20, F=wrong)
            with pytest.raises(InvalidInputError, match="features have shape"):
                believed_best(model, data.X, F=wrong)
        for wrong in (F_obs[:, :2], F_obs[1:, :3]):
            with pytest.raises(InvalidInputError, match="features have shape"):
                DrawSetup(points, fm, 1.0, Phi=wrong)

    @pytest.mark.parametrize("config, most", [("multimodal1d", 13), ("theoretical", 8)])
    def test_run_evaluates_features_on_grids_and_step_one_inducing_set_only(
            self, config, most, monkeypatch):
        cfg = parse_config((REPO / "configs" / f"{config}.cfg").read_text())
        bench = get_benchmark(cfg.objective)
        full = resolve_config(cfg, bench)
        grids = [build_grid(bench.lo, bench.hi, t, full.lipschitz, cfg.grid_cap).points
                 for t in range(1, cfg.T + 1)]
        expected = [g for k, g in enumerate(grids)
                    if k == 0 or not np.array_equal(g, grids[k - 1])]
        if cfg.variant == "points":     # the step-1 Halton Z, after the first grid
            lo, hi = as_box(bench.lo, bench.hi)
            expected.insert(1, lo + _unit_halton(bench.dim, cfg.m) * (hi - lo))
        # every evaluation, of the grids and of Z
        calls = []
        features = FeatureMap.features

        def recorded(fm, X):
            calls.append(np.array(X, dtype=float))
            return features(fm, X)

        monkeypatch.setattr(FeatureMap, "features", recorded)
        log = run_sgp_ts(cfg, bench, seed=0)
        assert not log.aborted and len(log.rows) == cfg.T * cfg.B
        assert len(calls) == len(expected) <= most
        assert all(np.array_equal(X, want) for X, want in zip(calls, expected))


class TestStrictRegret:
    def test_one_term(self):
        log = RunLog(run_seed=0, dim=1)
        log.add_row(t=1, b=0, x=[0.2], y=0.5, f_true=0.5, alpha_t=1.0, beta_t=1.0,
                    n_grid=2, m_t=1, cum_regret=0.5, simple_regret=0.5)
        assert strict_regret(log, 1.0) == 0.5

    def test_perfect_play_is_zero(self):
        log = RunLog(run_seed=0, dim=1)
        for b in range(3):
            log.add_row(t=1, b=b, x=[0.5], y=1.0, f_true=1.0, alpha_t=1.0, beta_t=1.0,
                        n_grid=2, m_t=1, cum_regret=0.0, simple_regret=0.0)
        assert strict_regret(log, 1.0) == 0.0

    def test_matches_logged_cumulative(self):
        bench = get_benchmark("multimodal1d")
        for seed in range(3):
            log = run_sgp_ts(tiny_cfg(), bench, seed=seed)
            assert abs(strict_regret(log, bench.f_star) - log.final_cum_regret) < 1e-9


def constant_benchmark():
    return Benchmark(
        name="flat", dim=1, lo=(0.0,), hi=(1.0,), fn=lambda X: np.zeros(X.shape[0]),
        f_star=0.0, x_star=(0.0,), provenance="analytic", noise_var=0.0, lipschitz=1.0,
    )


class TestRunLoop:
    def test_flat_landscape_zero_regret(self):
        bench = constant_benchmark()
        cfg = RunConfig(objective="flat", T=1, B=1, lengthscale=(0.2,), m=4,
                        M=32, tau=1e-6, grid_cap=100)
        log = run_sgp_ts(cfg, bench, seed=0)
        assert log.final_cum_regret == 0.0
        assert log.final_simple_regret == 0.0

    def test_deterministic_per_seed(self):
        bench = get_benchmark("multimodal1d")
        a = run_sgp_ts(tiny_cfg(), bench, seed=11)
        b = run_sgp_ts(tiny_cfg(), bench, seed=11)
        assert a.to_csv() == b.to_csv()
        assert a.steps_to_csv() == b.steps_to_csv()
        c = run_sgp_ts(tiny_cfg(), bench, seed=12)
        assert a.to_csv() != c.to_csv()

    def test_noise_reconstructs_observations(self):
        bench = get_benchmark("multimodal1d")
        cfg = tiny_cfg(noise_var=0.04)
        log = run_sgp_ts(cfg, bench, seed=4)
        for t in range(1, 5):
            rows = [r for r in log.rows if r.t == t]
            want = 0.2 * rng_from_path(4, t, 7777).standard_normal(3)
            got = np.array([r.y - r.f_true for r in rows])
            assert np.allclose(got, want, atol=1e-15)

    def test_regret_never_decreases_and_rows_complete(self):
        bench = get_benchmark("multimodal2d")
        cfg = RunConfig(objective="multimodal2d", T=5, B=4, lengthscale=(0.15,),
                        m=12, M=128, grid_cap=600)
        log = run_sgp_ts(cfg, bench, seed=2)
        assert len(log.rows) == 20
        cums = [r.cum_regret for r in log.rows]
        assert all(b >= a - 1e-12 for a, b in zip(cums, cums[1:]))
        assert all(r.simple_regret >= -1e-9 for r in log.rows)

    @settings(derandomize=True, deadline=None, max_examples=100)
    @given(objective=st.sampled_from(["multimodal1d", "multimodal2d"]),
           variant=st.sampled_from(["points", "features"]),
           T=st.integers(1, 3), B=st.integers(1, 3),
           alpha=st.floats(1.0, 4.0),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_regret_never_decreases_property(self, objective, variant, T, B, alpha, seed):
        # small fixed-alpha runs of both variants: the logged cumulative regret
        # falls by at most the 1e-12 that RunLog.add_row allows, and no queried
        # value beats the certified optimum by more than 1e-9
        cfg = RunConfig(objective=objective, T=T, B=B, variant=variant, lengthscale=(0.15,),
                        m=8, M=64, alpha=alpha, grid_cap=400)
        log = run_sgp_ts(cfg, get_benchmark(objective), seed=seed)
        assert len(log.rows) == T * B and not log.aborted
        cums = [r.cum_regret for r in log.rows]
        assert all(b >= a - 1e-12 for a, b in zip(cums, cums[1:]))
        assert all(r.simple_regret >= -1e-9 for r in log.rows)

    def test_batch_sigma_lemma_on_recorded_runs(self):
        bench = get_benchmark("multimodal1d")
        for seed in (0, 1):
            cfg = tiny_cfg(noise_var=0.01)
            log = run_sgp_ts(cfg, bench, seed=seed)
            spec = KernelSpec(family="se", dim=1, lengthscales=(0.1,))
            lhs, rhs = batch_sigma_bound(log.to_dataset(), spec, 0.01)
            assert lhs <= rhs + 1e-9

    def test_growth_mode_m_increases(self):
        bench = get_benchmark("multimodal1d")
        cfg = tiny_cfg(m_mode="growth", kernel="se", T=4)
        log = run_sgp_ts(cfg, bench, seed=0)
        ms = [s.m_t for s in log.steps]
        assert all(m2 >= m1 for m1, m2 in zip(ms, ms[1:]))

    def test_matern_rff_variant_runs(self):
        bench = get_benchmark("multimodal1d")
        cfg = tiny_cfg(kernel="matern", nu=2.5, features="rff", M=128)
        log = run_sgp_ts(cfg, bench, seed=1)
        assert len(log.rows) == 12 and not log.aborted

    def test_envelope_gamma_mode_logs_the_envelope_and_leaves_the_run_alone(self):
        bench = get_benchmark("multimodal1d")
        realized = run_sgp_ts(tiny_cfg(), bench, seed=5)
        envelope = run_sgp_ts(tiny_cfg(gamma_mode="envelope"), bench, seed=5)
        spec = KernelSpec(family="se", dim=1, lengthscales=(0.1,))
        # gamma_t is computed before step t observes, from the (t - 1) B rows so far
        want = [gamma_bound(spec, max(2.0, float((t - 1) * 3))) for t in range(1, 5)]
        assert [s.gamma_t for s in envelope.steps] == want
        assert [s.gamma_t for s in realized.steps] != want
        # fixed alpha never reads gamma_t, so the selections and the run CSV match
        assert envelope.to_csv() == realized.to_csv()

    def test_infeasible_exploration_aborts_with_partial_log(self):
        bench = get_benchmark("multimodal1d")
        # two eigenfunctions cannot carry a 0.05-lengthscale process: the
        # variance defect stays order one and the scaling becomes undefined
        cfg = RunConfig(objective="multimodal1d", T=4, B=3, lengthscale=(0.05,),
                        variant="features", m=2, M=64, alpha_mode="theoretical",
                        delta=0.2, grid_cap=400)
        log = run_sgp_ts(cfg, bench, seed=0)
        assert log.aborted
        assert "kappa" in log.abort_reason
        assert len(log.rows) == 3 and len(log.steps) == 1

    @pytest.mark.filterwarnings("error")
    def test_underflowed_spectrum_gives_finite_theory_columns(self):
        # at lengthscale 5 the 128-term spectrum's tail underflows to 0.0
        cfg = parse_config((REPO / "configs" / "theoretical.cfg").read_text(),
                           ("lengthscale=5.0",))
        log = run_sgp_ts(cfg, get_benchmark(cfg.objective), 0)
        assert not log.aborted and len(log.steps) == cfg.T
        for s in log.steps:
            assert all(math.isfinite(v) for v in (s.alpha_t, s.beta_t, s.kappa_t, s.eps_t,
                                                   s.a_under_t, s.a_over_t, s.c_t))
        assert len({r.x for r in log.rows}) > 2

    def test_theoretical_mode_bound_dominates(self):
        bench = get_benchmark("multimodal1d")
        cfg = RunConfig(objective="multimodal1d", T=6, B=2, lengthscale=(0.2,),
                        m=14, M=128, alpha_mode="theoretical", delta=0.2,
                        grid_cap=1000)
        log = run_sgp_ts(cfg, bench, seed=3)
        assert not log.aborted
        for s in log.steps:
            cum_t = max(r.cum_regret for r in log.rows if r.t <= s.t)
            bound = regret_bound(s.t, 2, cfg.tau or bench.noise_var, s.gamma_t,
                                 s.beta_t, s.alpha_t, s.a_over_t if s.t > 1 else 1.0,
                                 s.eps_t, 1.0)
            assert bound >= cum_t

    @pytest.mark.parametrize("config, overrides, want", [
        ("hartmann6", ("grid_cap=8000",), 1),    # capped, so one grid for all 25 steps
        ("multimodal1d", (), 12),                # 11 lattices, then capped from t = 12
    ])
    def test_grid_features_once_per_distinct_grid(self, monkeypatch, config, overrides, want):
        # grid evaluations, all through FeatureMap.features
        grids, grid_calls = [], []
        build, features = engine.build_grid, FeatureMap.features

        def recorded_build(*args, **kwargs):
            grid = build(*args, **kwargs)
            grids.append(grid.points)
            return grid

        def counted(evaluate):
            def wrapper(fm, X):
                if any(np.array_equal(X, g) for g in grids):
                    grid_calls.append(len(X))
                return evaluate(fm, X)
            return wrapper

        monkeypatch.setattr(engine, "build_grid", recorded_build)
        monkeypatch.setattr(FeatureMap, "features", counted(features))
        cfg = parse_config((REPO / "configs" / f"{config}.cfg").read_text(), overrides)
        run_sgp_ts(cfg, get_benchmark(cfg.objective), 0)
        assert len(grid_calls) == want

    @pytest.mark.parametrize("config, overrides", [
        ("hartmann6", ("grid_cap=8000", "T=4")),   # RFF, one capped grid
        ("multimodal1d", ("T=14",)),               # Mercer, lattices, then capped
    ])
    def test_memo_never_keeps_a_grid(self, monkeypatch, config, overrides):
        # each distinct grid is asked for once, so the run's map remembers its
        # key only: an 8000 x 512 grid matrix would add 32 MB to a run's peak
        maps, features = {}, FeatureMap.features

        def recorded(fm, X):
            maps[id(fm)] = fm
            return features(fm, X)

        monkeypatch.setattr(FeatureMap, "features", recorded)
        cfg = parse_config((REPO / "configs" / f"{config}.cfg").read_text(), overrides)
        log = run_sgp_ts(cfg, get_benchmark(cfg.objective), 0)
        n_grid = {r.n_grid for r in log.rows}
        assert len(maps) == 1
        (fm,) = maps.values()
        assert len(fm._memo) >= 1
        assert all(F is None or F.shape[1] not in n_grid for _, F in fm._memo)

    def test_sublinear_trend_on_small_multimodal(self):
        bench = get_benchmark("multimodal1d")
        cfg = RunConfig(objective="multimodal1d", T=12, B=10, lengthscale=(0.05,),
                        m=20, M=256, grid_cap=2000)
        first, second = [], []
        for seed in range(10):
            log = run_sgp_ts(cfg, bench, seed=seed)
            per_eval = np.diff([0.0] + [r.cum_regret for r in log.rows])
            half = len(per_eval) // 2
            first.append(per_eval[:half].mean())
            second.append(per_eval[half:].mean())
        assert np.mean(second) < np.mean(first)

    def test_kmeans_refit_takes_one_unique(self, monkeypatch):
        bench = get_benchmark("hartmann6")
        cfg = resolve_config(parse_config((REPO / "configs" / "hartmann6.cfg").read_text()), bench)
        rng = np.random.default_rng(5)
        # 60 rows, 30 of them distinct: the refit asks for m = 100 and gets 30
        X = rng.uniform(0.0, 1.0, size=(30, 6))[np.tile(np.arange(30), 2)]
        run = engine._Run(cfg, bench, 0)
        run.data = Dataset(X, rng.normal(size=60), 20, 3)
        calls, unique = [], np.unique
        monkeypatch.setattr(np, "unique", lambda *a, **k: calls.append(1) or unique(*a, **k))
        model, _ = run._fit(3)
        assert model.m_count == 30 and len(calls) == 1


# every combination of the choice fields and nu
_CHOICE_SETS = [dict(zip([*engine._CHOICES, "nu"], values))
                for values in itertools.product(*engine._CHOICES.values(), (1.5, 2.5))]


def _validates(fields: dict) -> bool:
    try:
        RunConfig(objective="multimodal1d", **fields).validate()
    except ConfigError:
        return False
    return True


class TestEveryConfigEnds:
    """A config ends in one of four ways: a finished log of T * B rows, an
    abort with a partial log, a ConfigError before the run starts, or
    NumericalDegeneracyError raised mid-run.  The last is typed and loud: a
    points-variant Sigma = P + C C^T / tau with a tiny tau can fail to factor
    even with the retry jitter (ROADMAP item 14).  Nine in ten examples take
    their choice fields from the combinations validate accepts, so most of
    them start a run; the rest from those it rejects."""

    @pytest.mark.filterwarnings("error")
    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(cfg=st.builds(
        lambda choices, **numbers: RunConfig(**choices, **numbers),
        choices=st.sampled_from([c for c in _CHOICE_SETS if _validates(c)] * 9
                                + [c for c in _CHOICE_SETS if not _validates(c)]),
        objective=st.sampled_from(sorted(BENCHMARKS)),
        T=st.integers(1, 3), B=st.integers(1, 3),
        grid_cap=st.sampled_from((2, 50)),
        m=st.integers(1, 12),
        M=st.sampled_from((1, 2, 8, 64)),
        lengthscale=st.sampled_from(((1e-3,), (0.05,), (0.2,), (5.0,), (1e3,))),
        noise_var=st.sampled_from((None, 0.0, 1e-12, 0.01, 1e3)),
        tau=st.sampled_from((None, 1e-12, 0.01, 1e3)),
        variance=st.sampled_from((1e-6, 0.5, 1.0)),
    ))
    def test_a_finished_log_an_abort_or_a_typed_error(self, cfg):
        bench = get_benchmark(cfg.objective)
        try:
            resolve_config(cfg, bench)
        except ConfigError:
            return
        try:
            log = run_sgp_ts(cfg, bench, 0)
        except NumericalDegeneracyError:
            return
        assert len(log.rows) == len(log.steps) * cfg.B
        if log.aborted:
            assert log.abort_reason and 1 <= len(log.steps) < cfg.T
        else:
            assert len(log.steps) == cfg.T


class TestGammaBesideTheRefit:
    """Over a grid of two chunks or more the next step's realized gamma runs
    on a pool thread beside the refit, through util.together."""

    @staticmethod
    def slow_gamma(monkeypatch, delay):
        """engine.information_gain delayed by delay seconds, recording each
        call's thread name and whether it finished."""
        calls = []

        def slow(*args):
            call = {"thread": threading.current_thread().name, "done": False}
            calls.append(call)
            time.sleep(delay)
            out = information_gain(*args)
            call["done"] = True
            return out

        monkeypatch.setattr(engine, "information_gain", slow)
        return calls

    @staticmethod
    def on_pool(calls):
        return [c["thread"].startswith("sgpts-grid") for c in calls]

    def test_pool_thread_gives_the_same_logs(self, monkeypatch):
        # grid_cap=8000 makes every step's grid two chunks
        cfg = parse_config((REPO / "configs" / "hartmann6.cfg").read_text(),
                           ("grid_cap=8000", "T=4"))
        bench = get_benchmark(cfg.objective)
        logs = {}
        for threads in (1, 2):
            monkeypatch.setattr(util, "_grid_threads", lambda: threads)
            calls = self.slow_gamma(monkeypatch, 0.0)
            log = run_sgp_ts(cfg, bench, 0)
            logs[threads] = log.to_csv(), log.steps_to_csv()
            assert self.on_pool(calls) == [False] + [threads > 1] * 3
        assert logs[1] == logs[2]

    def test_a_failed_run_waits_for_its_task(self, monkeypatch):
        cfg = parse_config((REPO / "configs" / "hartmann6.cfg").read_text(),
                           ("grid_cap=8000", "T=3"))
        bench = get_benchmark(cfg.objective)
        monkeypatch.setattr(util, "_grid_threads", lambda: 2)
        calls = self.slow_gamma(monkeypatch, 0.3)
        evaluations = []

        def objective(X):
            evaluations.append(X.shape[0])
            if len(evaluations) == 2:       # step 1's believed best, during the refit
                raise RuntimeError("objective failed")
            return bench.fn(X)

        with pytest.raises(RuntimeError, match="objective failed"):
            run_sgp_ts(cfg, dataclasses.replace(bench, fn=objective), 0)
        assert self.on_pool(calls) == [False, True]
        assert all(c["done"] for c in calls)

    def test_an_aborted_run_waits_for_its_task(self, monkeypatch):
        # lipschitz=1e5 caps the 1-d grid at 8000 points from step 1; step 2's
        # schedule aborts before it reads its gamma
        cfg = parse_config((REPO / "configs" / "theoretical.cfg").read_text(),
                           ("grid_cap=8000", "lipschitz=1e5", "T=3"))
        monkeypatch.setattr(util, "_grid_threads", lambda: 2)
        calls = self.slow_gamma(monkeypatch, 0.3)
        constants, steps = engine.approximation_constants, []

        def infeasible_at_step_2(*args):
            steps.append(args)
            if len(steps) == 2:
                raise ExplorationInfeasibleError("step 2")
            return constants(*args)

        monkeypatch.setattr(engine, "approximation_constants", infeasible_at_step_2)
        log = run_sgp_ts(cfg, get_benchmark(cfg.objective), 0)
        assert log.aborted and log.abort_reason == "step 2" and len(log.steps) == 1
        assert self.on_pool(calls) == [False, True]
        assert all(c["done"] for c in calls)


class TestAntiConcentration:
    def test_gaussian_tail_sandwich(self):
        # the exploration argument's bracket on 1 - Phi(c); a property of the
        # normal CDF, so it is checked here and not by `sgpts verify`
        cs = np.linspace(0.5, 5.0, 100)
        tail = 1.0 - norm.cdf(cs)
        lower = np.exp(-(cs**2)) / (4.0 * cs * np.sqrt(np.pi))
        upper = 0.5 * np.exp(-(cs**2) / 2.0)
        assert np.all(tail >= lower)
        assert np.all(tail <= upper)


class TestBaselineTraceCompat:
    def test_random_search_uses_same_schema(self):
        bench = get_benchmark("multimodal1d")
        ours = run_sgp_ts(tiny_cfg(), bench, seed=0)
        theirs = random_search(tiny_cfg(), bench, seed=0)
        assert ours.to_csv().splitlines()[0] == theirs.to_csv().splitlines()[0]


class TestRecordedRunLogs:
    @pytest.mark.parametrize("config", ["multimodal1d", "theoretical"])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_run_csv_matches_recorded_digest(self, config, seed):
        """Shipped configs reproduce the run-CSV digests the benchmark records."""
        digests = json.loads((REPO / "perfbench" / "digests.json").read_text())
        cfg = parse_config((REPO / "configs" / f"{config}.cfg").read_text())
        log = run_sgp_ts(cfg, get_benchmark(cfg.objective), seed)
        got = hashlib.sha256(log.to_csv().encode()).hexdigest()
        assert got == digests[f"{config}:{seed}"]

    def test_rff_kmeans_batch_run_matches_recorded_digest(self):
        """hartmann6 with its grid capped at 8000: RFF features, k-means inducing points, B = 20."""
        digests = json.loads((REPO / "perfbench" / "digests.json").read_text())
        cfg = parse_config((REPO / "configs" / "hartmann6.cfg").read_text(), ("grid_cap=8000",))
        log = run_sgp_ts(cfg, get_benchmark(cfg.objective), 0)
        got = hashlib.sha256(log.to_csv().encode()).hexdigest()
        assert got == digests["hartmann6-cap8000:0"]

    def test_steps_and_baseline_csvs_match_recorded_digests(self):
        """Steps CSVs of the shipped Mercer configs and a random-search baseline CSV
        (NaN alpha_t/beta_t, N_t = 0), written in a process with BLAS at one
        thread, as the digests were recorded."""
        script = (
            "import hashlib, json, sys\n"
            "from pathlib import Path\n"
            "from sgpts.benchmarks import get_benchmark\n"
            "from sgpts.engine import parse_config, random_search, run_sgp_ts\n"
            "sha = lambda text: hashlib.sha256(text.encode()).hexdigest()\n"
            "out = {}\n"
            "for name in ('multimodal1d', 'theoretical'):\n"
            "    cfg = parse_config(Path(f'configs/{name}.cfg').read_text())\n"
            "    for seed in (0, 1):\n"
            "        log = run_sgp_ts(cfg, get_benchmark(cfg.objective), seed)\n"
            "        out[f'{name}:{seed}:steps'] = sha(log.steps_to_csv())\n"
            "cfg = parse_config(Path('configs/multimodal1d.cfg').read_text())\n"
            "out['multimodal1d:0:baseline'] = sha(\n"
            "    random_search(cfg, get_benchmark(cfg.objective), 0).to_csv())\n"
            "json.dump(out, sys.stdout)\n"
        )
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
                   MKL_NUM_THREADS="1",
                   PYTHONPATH=os.pathsep.join(filter(None, [str(REPO / "src"),
                                                            os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-c", script], cwd=REPO, env=env,
                              capture_output=True, text=True, check=True, timeout=300)
        assert json.loads(proc.stdout) == {
            "multimodal1d:0:steps": "33f5f0717ccc294d6eac063e3f2b6a28f325022fe97c1427632f3fac83737d0f",
            "multimodal1d:1:steps": "c86c493f5593cd3cdae67b37e3b3b8146e7a09fd44aa448dd8123500d2523f5d",
            "theoretical:0:steps": "3bff27e244825108942008e868f1a2d56ba17ff68e52f059fbe6d7eb9a10f3f3",
            "theoretical:1:steps": "7158584bcd0966885856cca3017410cda78ae7335adb0780e40dd4bab160846c",
            "multimodal1d:0:baseline": "ee7453e455cd7f13a5396ac368d5632771051bc8a5a7f0c502f5aeb26f52686c",
        }

    def test_run_csv_does_not_depend_on_blas_threads(self):
        """hartmann6 at grid_cap=4000, m=200, T=15, and theoretical.cfg in the
        points variant at m=30, T=40, B=5, write the same run and steps CSV
        bytes with BLAS at 1 and at 2 threads: a run sets BLAS to one thread,
        so neither the grid's (draws x M) by (M x n) product, the k-means fit,
        nor gamma_t's factor of I + K / tau, which feeds the theoretical
        alpha_t, rounds with the caller's thread count."""
        script = (
            "import json, sys\n"
            "from pathlib import Path\n"
            "from sgpts.benchmarks import get_benchmark\n"
            "from sgpts.engine import parse_config, run_sgp_ts\n"
            "logs = []\n"
            "for name, over in (('hartmann6', ('grid_cap=4000', 'm=200', 'T=15')),\n"
            "                   ('theoretical', ('variant=points', 'm=30', 'T=40', 'B=5'))):\n"
            "    cfg = parse_config(Path(f'configs/{name}.cfg').read_text(), over)\n"
            "    log = run_sgp_ts(cfg, get_benchmark(cfg.objective), 0)\n"
            "    logs.append([log.to_csv(), log.steps_to_csv()])\n"
            "json.dump(logs, sys.stdout)\n"
        )
        src = os.pathsep.join(filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")]))
        logs = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                       MKL_NUM_THREADS=threads, PYTHONPATH=src)
            logs.append(json.loads(subprocess.run(
                [sys.executable, "-c", script], cwd=REPO, env=env, capture_output=True,
                text=True, check=True, timeout=300).stdout))
        (h6_run, h6_steps), (th_run, th_steps) = logs[0]
        assert h6_run.count("\n") == 15 * 20 + 1 and h6_steps.count("\n") == 15 + 1
        assert th_run.count("\n") == 40 * 5 + 1 and th_steps.count("\n") == 40 + 1
        assert logs[0] == logs[1]

    def test_a_run_sets_blas_to_one_thread(self, monkeypatch):
        """Inside run_sgp_ts every bundled OpenBLAS runs on one thread, on the
        calling thread and on the pool thread beside the refit, and the
        caller's thread counts are back once it returns."""
        libs = util._openblas()
        if not libs:
            pytest.skip("numpy and scipy bundle no OpenBLAS with known thread setters")
        seen, gain = [], engine.information_gain
        monkeypatch.setattr(engine, "information_gain", lambda *args: (
            seen.append((threading.current_thread().name.startswith("sgpts-grid"),
                         [lib.get_threads() for lib in libs])) or gain(*args)))
        monkeypatch.setattr(util, "_grid_threads", lambda: 2)
        # grid_cap=8000 makes every step's grid two chunks, so gamma goes to the pool
        cfg = parse_config((REPO / "configs" / "hartmann6.cfg").read_text(),
                           ("grid_cap=8000", "T=3"))
        before = [lib.get_threads() for lib in libs]
        for lib in libs:
            lib.set_threads(2)
        try:
            run_sgp_ts(cfg, get_benchmark(cfg.objective), 0)
            after = [lib.get_threads() for lib in libs]
        finally:
            for lib, threads in zip(libs, before):
                lib.set_threads(threads)
        assert seen == [(False, [1] * len(libs))] + [(True, [1] * len(libs))] * 2
        assert after == [2] * len(libs)

    def test_chunked_grid_logs_do_not_depend_on_thread_counts(self):
        """hartmann6 at grid_cap=8000, T=6 scores its grid as two chunks of 4000
        points.  Scoring on one thread or two (SGPTS_THREADS), with BLAS at 1
        or 2 threads outside the run, gives the same run and steps CSV bytes."""
        script = (
            "import json, sys\n"
            "from pathlib import Path\n"
            "from sgpts.benchmarks import get_benchmark\n"
            "from sgpts.engine import parse_config, run_sgp_ts\n"
            "cfg = parse_config(Path('configs/hartmann6.cfg').read_text(),\n"
            "                   ('grid_cap=8000', 'T=6'))\n"
            "log = run_sgp_ts(cfg, get_benchmark(cfg.objective), 0)\n"
            "json.dump([log.to_csv(), log.steps_to_csv()], sys.stdout)\n"
        )
        src = os.pathsep.join(filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")]))
        logs = {}
        for blas, scoring in (("1", "1"), ("1", "2"), ("2", "2")):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=blas, OMP_NUM_THREADS=blas,
                       MKL_NUM_THREADS=blas, SGPTS_THREADS=scoring, PYTHONPATH=src)
            logs[blas, scoring] = json.loads(subprocess.run(
                [sys.executable, "-c", script], cwd=REPO, env=env, capture_output=True,
                text=True, check=True, timeout=300).stdout)
        assert logs["1", "1"][0].count("\n") == 6 * 20 + 1
        assert logs["1", "1"] == logs["1", "2"] == logs["2", "2"]

    @pytest.mark.skipif(not avx2_host(), reason="needs an x86-64 CPU with AVX2")
    def test_fixed_mode_run_csvs_keep_their_digests_under_the_haswell_kernel(self):
        """ROADMAP item 12: under OPENBLAS_CORETYPE=Haswell, the kernel an
        AVX2-only CPU gets, at one BLAS thread, multimodal1d.cfg at seeds 0 and
        1 and hartmann6.cfg at grid_cap=8000, seed 0, write the run CSVs whose
        digests perfbench/digests.json records.  Both bundled OpenBLAS
        libraries must report that they run the Haswell kernel."""
        script = (
            "import hashlib, json, sys\n"
            "from pathlib import Path\n"
            "from sgpts import util\n"
            "from sgpts.benchmarks import get_benchmark\n"
            "from sgpts.engine import parse_config, run_sgp_ts\n"
            "cores = [lib.corename().decode() for lib in util._openblas()]\n"
            "out = {}\n"
            "for key, name, over, seed in (('multimodal1d:0', 'multimodal1d', (), 0),\n"
            "                              ('multimodal1d:1', 'multimodal1d', (), 1),\n"
            "                              ('hartmann6-cap8000:0', 'hartmann6',\n"
            "                               ('grid_cap=8000',), 0)):\n"
            "    cfg = parse_config(Path(f'configs/{name}.cfg').read_text(), over)\n"
            "    log = run_sgp_ts(cfg, get_benchmark(cfg.objective), seed)\n"
            "    out[key] = hashlib.sha256(log.to_csv().encode()).hexdigest()\n"
            "json.dump({'cores': cores, 'digests': out}, sys.stdout)\n"
        )
        env = dict(os.environ, OPENBLAS_CORETYPE="Haswell", OPENBLAS_NUM_THREADS="1",
                   OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
                   PYTHONPATH=os.pathsep.join(filter(None, [str(REPO / "src"),
                                                            os.environ.get("PYTHONPATH")])))
        got = json.loads(subprocess.run([sys.executable, "-c", script], cwd=REPO, env=env,
                                        capture_output=True, text=True, check=True,
                                        timeout=300).stdout)
        if not got["cores"]:
            pytest.skip("numpy and scipy bundle no OpenBLAS whose kernel can be read")
        assert set(got["cores"]) == {"Haswell"}
        digests = json.loads((REPO / "perfbench" / "digests.json").read_text())
        assert got["digests"] == {key: digests[key] for key in got["digests"]}

    def test_shipped_hartmann6_run_matches_recorded_digest(self):
        """hartmann6.cfg as shipped: 40000 Halton candidates scored in one product per batch."""
        cfg = parse_config((REPO / "configs" / "hartmann6.cfg").read_text())
        log = run_sgp_ts(cfg, get_benchmark(cfg.objective), 0)
        got = hashlib.sha256(log.to_csv().encode()).hexdigest()
        assert got == "f40b9e206ab5c76b0788dbfe51d4e81e0843928af7b853160fd6b3d73c253b64"
