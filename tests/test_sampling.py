import dataclasses
import functools
import multiprocessing
import multiprocessing.connection
import os
import subprocess
import sys
import threading
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import cho_solve
from scipy.stats import qmc

from sgpts import sampling, util
from sgpts.benchmarks import get_benchmark
from sgpts.engine import parse_config, resolve_config, run_sgp_ts
from sgpts.errors import InvalidInputError, NumericalDegeneracyError
from sgpts.exact_gp import Dataset, fit_exact
from sgpts.kernels import (
    FeatureMap,
    KernelSpec,
    kernel_matrix,
    mercer_truncate,
    rff_sample,
    tail_mass,
)
from sgpts.sampling import (
    DrawSetup,
    _on_basis,
    _unit_halton,
    build_grid,
    decoupled_mean_cov,
    derive_seed,
    draw_sample,
    select_batch,
)
from sgpts.svgp import (
    SvgpModel,
    fit_svgp_closed_form,
    load_snapshot,
    select_inducing_greedy,
    write_snapshot,
)

SE1 = KernelSpec(family="se", dim=1, lengthscales=(0.25,))


def fitted_points_model(rng, n=10, tau=0.2):
    X = np.linspace(0.05, 0.95, n).reshape(-1, 1) + rng.uniform(-0.02, 0.02, (n, 1))
    y = rng.normal(scale=0.5, size=n)
    data = Dataset(X, y, 1, n)
    return data, fit_svgp_closed_form(data, SE1, tau, Z=X)


def fitted_features_model(rng, fm, m=10, n=10, tau=0.2):
    X = np.linspace(0.05, 0.95, n).reshape(-1, 1) + rng.uniform(-0.02, 0.02, (n, 1))
    y = rng.normal(scale=0.5, size=n)
    data = Dataset(X, y, 1, n)
    return data, fit_svgp_closed_form(data, SE1, tau, feature_map=fm, m=m)


VARIANT_CASES = ["points-mercer", "points-rff", "features-mercer"]


def fitted_case(case, rng):
    """(model, fm) for one variant and feature-map kind; draws take the same fm."""
    if case == "points-rff":
        fm = rff_sample(SE1, 64, seed=3)
    else:
        fm = mercer_truncate(SE1, 64, [0.0], [1.0])
    if case.startswith("points"):
        return fitted_points_model(rng)[1], fm
    return fitted_features_model(rng, fm)[1], fm


def in_forked_child(fn, timeout=60):
    """fn()'s value, computed in a forked child; the test fails when the
    child exits without one or has none after timeout seconds."""
    ctx = multiprocessing.get_context("fork")
    recv, send = ctx.Pipe(duplex=False)
    child = ctx.Process(target=lambda: send.send(fn()))
    child.start()
    try:
        if recv not in multiprocessing.connection.wait([recv, child.sentinel], timeout):
            pytest.fail(f"the child gave no value within {timeout} s")
        return recv.recv()
    finally:
        child.kill()
        child.join()


def gamma(n):
    """gamma_n = n eps / (1 - n eps): the relative error of an n-term float sum of products."""
    eps = np.finfo(float).eps
    return n * eps / (1 - n * eps)


def per_draw_coeffs(setup, seed):
    """(W, V, bound) of one draw, computed by the per-draw expressions that the
    batched coefficients replace: u = m + root @ xi, the prior part
    Phi @ rootlam_w, and a one-column cho_solve (points) or the diagonal
    solve (features).  W must be matched bit for bit; bound is how far a
    second computation of V may lie from this one, to first order in eps.

    Each computation of the right-hand side r of the solve is within
    gamma_c times the sum of its terms' magnitudes of the exact r, with c the
    count of roundings along the longest chain (M + m products and sums, and
    the scaling, centering and subtraction).  A Cholesky solve with the fixed
    factor L is backward stable, (L L^T + E) v = r with |E| <= gamma_2m |L||L^T|,
    so two solves differ by at most |P^{-1}| (|r1 - r2| + 2 gamma_2m |L||L^T||v|).
    The features variant's diagonal solve and rescaling add two roundings.
    """
    model, fm, alpha, m = setup.model, setup.fm, setup.alpha, setup.model.m_count
    rng = np.random.default_rng(seed)
    w = rng.standard_normal(fm.count)
    xi = rng.standard_normal(m)
    vals, vecs = np.linalg.eigh(model.S_mat)
    root = vecs * np.sqrt(np.maximum(vals, 0.0))
    u = model.m_vec + root @ xi
    centered = alpha * (u - model.m_vec) + model.m_vec
    rootlam_w = np.sqrt(fm.lambdas) * w
    if model.variant == "points":
        prior = np.abs(setup.Phi.T) @ np.abs(rootlam_w)
    else:
        prior = np.abs(rootlam_w[:m])
    size = np.abs(model.m_vec) + alpha * (np.abs(model.m_vec) + np.abs(root) @ np.abs(xi) + prior)
    dr = 2 * gamma(fm.count + m + 6) * size
    if model.variant == "points":
        L = model._chol_P
        v = cho_solve((L, True), centered - alpha * setup.Phi.T @ rootlam_w)
        P_inv = np.abs(cho_solve((L, True), np.eye(m)))
        bound = P_inv @ (dr + 2 * gamma(2 * m) * (np.abs(L) @ (np.abs(L.T) @ np.abs(v))))
        return rootlam_w, v, bound
    lam = model.feature_map.lambdas[:m]
    v = (centered - alpha * rootlam_w[:m]) / lam
    return rootlam_w, lam * v, dr


class TestMeanInvariance:
    @pytest.mark.parametrize("case", VARIANT_CASES)
    def test_zero_noise_coefficients_reproduce_model_mean(self, case):
        # substitute u = m, w = 0: the draw collapses to the posterior mean
        rng = np.random.default_rng(0)
        model, fm = fitted_case(case, rng)
        probes = np.linspace(0, 1, 17).reshape(-1, 1)
        # v = P^{-1} m for points, Lambda_m^{-1} m for features, scored as the
        # weights V of U: v itself for U = k(X, Z), Lambda_m v for U = Phi_m(X)
        if model.variant == "points":
            V = np.linalg.solve(model._chol_P @ model._chol_P.T, model.m_vec)
            U = kernel_matrix(SE1, probes, model.Z)
        else:
            lam = model.feature_map.lambdas[: model.m_count]
            V = lam * (model.m_vec / lam)
            U = fm.features(probes).T[:, : model.m_count]
        want = model.predict(probes)[0]
        quiet = np.empty((1, probes.shape[0]))
        for alpha in (1.0, 2.7):
            _on_basis(fm.features(probes), U, alpha, np.zeros((1, fm.count)), V[:, None],
                      quiet)
            assert np.abs(quiet[0] - want).max() < 1e-8

    @pytest.mark.parametrize("case", VARIANT_CASES)
    @settings(derandomize=True, deadline=None)
    @given(alpha=st.floats(min_value=1.0, max_value=1e6))
    def test_quiet_draw_is_model_mean_for_every_alpha(self, case, alpha):
        # a generator of zeros makes the draw itself take u = m and w = 0
        class Zeros:
            def standard_normal(self, n):
                return np.zeros(n)

        model, fm = fitted_case(case, np.random.default_rng(0))
        probes = np.linspace(0, 1, 17).reshape(-1, 1)
        setup = DrawSetup(model, fm, alpha)
        with mock.patch.object(np.random, "default_rng", lambda seed: Zeros()):
            quiet = setup.values(probes, [0])[0]
        assert np.abs(quiet - model.predict(probes)[0]).max() < 1e-8

    def test_monte_carlo_mean_matches_for_alpha_2(self):
        rng = np.random.default_rng(1)
        data, model = fitted_points_model(rng)
        fm = mercer_truncate(SE1, 80, [0.0], [1.0])
        probes = np.array([[0.2], [0.5], [0.8]])
        draws = DrawSetup(model, fm, 2.0).values(probes, [derive_seed(7, b) for b in range(3000)])
        mu_hat = draws.mean(axis=0)
        se = draws.std(axis=0, ddof=1) / np.sqrt(3000)
        want = model.predict(probes)[0]
        assert np.all(np.abs(mu_hat - want) <= 5 * se)


class TestMomentsAgainstExact:
    @pytest.mark.parametrize("variant", ["points", "features"])
    def test_collapse_instance_moments(self, variant):
        # Z = X (or a full feature set) makes the target the exact posterior
        rng = np.random.default_rng(2)
        fm = mercer_truncate(SE1, 512, [0.0], [1.0])
        if variant == "points":
            data, model = fitted_points_model(rng)
        else:
            data, model = fitted_features_model(rng, fm, m=40)
        exact = fit_exact(data, SE1, 0.2)
        probes = np.array([[0.15], [0.5], [0.85]])
        ev = exact.predict(probes)[1]
        n_draws = 4000
        seeds = [derive_seed(11, b) for b in range(n_draws)]
        draws = DrawSetup(model, fm, 1.0).values(probes, seeds)
        var_hat = draws.var(axis=0, ddof=1)
        # sampling error of a variance estimate ~ var * sqrt(2/n)
        slack = ev * np.sqrt(2.0 / n_draws) * 4 + 1e-3
        assert np.all(var_hat >= 0.85 * ev - slack)
        assert np.all(var_hat <= 1.15 * ev + slack)

    def test_alpha_scales_empirical_variance(self):
        rng = np.random.default_rng(3)
        data, model = fitted_points_model(rng)
        fm = mercer_truncate(SE1, 256, [0.0], [1.0])
        probes = np.array([[0.3], [0.7]])
        v1 = DrawSetup(model, fm, 1.0).values(probes, [derive_seed(5, b) for b in range(4000)])
        v2 = DrawSetup(model, fm, 2.0).values(probes, [derive_seed(6, b) for b in range(4000)])
        ratio = v2.var(axis=0) / v1.var(axis=0)
        assert np.all(ratio > 3.5) and np.all(ratio < 4.5)


class TestAnalyticCovariance:
    def test_alpha_scaling_is_exact(self):
        rng = np.random.default_rng(4)
        data, model = fitted_points_model(rng, n=8)
        fm = mercer_truncate(SE1, 48, [0.0], [1.0])
        X = np.linspace(0.1, 0.9, 9).reshape(-1, 1)
        m1, c1 = decoupled_mean_cov(model, fm, 1.0, X)
        m2, c2 = decoupled_mean_cov(model, fm, 2.0, X)
        assert np.abs(m1 - m2).max() < 1e-12
        assert np.abs(c2 - 4.0 * c1).max() < 1e-10

    def test_matches_monte_carlo(self):
        rng = np.random.default_rng(5)
        data, model = fitted_points_model(rng, n=8)
        fm = mercer_truncate(SE1, 128, [0.0], [1.0])
        probes = np.array([[0.25], [0.6]])
        _, cov = decoupled_mean_cov(model, fm, 1.0, probes)
        draws = DrawSetup(model, fm, 1.0).values(probes, [derive_seed(21, b) for b in range(6000)])
        emp = np.cov(draws.T)
        assert np.abs(emp - cov).max() < 0.02

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
        "ROADMAP item 1: greedy's stop rule leaves K_ZZ ill-conditioned and "
        "the draws' variance far above the sampling rule's"))
    def test_ill_conditioned_greedy_draws_match_analytic_variance(self):
        # multimodal1d.cfg with m = 300 after 10 steps of seed 0: greedy keeps
        # 36 of the 100 points, cond(K_ZZ) is about 1.5e13 and the ratio 7.9
        repo = Path(__file__).resolve().parent.parent
        cfg = parse_config((repo / "configs" / "multimodal1d.cfg").read_text(),
                           overrides=("m=300", "T=10"))
        bench = get_benchmark(cfg.objective)
        cfg = resolve_config(cfg, bench)
        data = run_sgp_ts(cfg, bench, 0).to_dataset()
        spec = KernelSpec(family="se", dim=1, lengthscales=cfg.lengthscale, variance=cfg.variance)
        picks = select_inducing_greedy(data, spec, min(cfg.m, data.n))
        model = fit_svgp_closed_form(data, spec, cfg.tau, Z=data.X[picks])
        fm = mercer_truncate(spec, 256, bench.lo, bench.hi)
        grid = build_grid(bench.lo, bench.hi, 11, cfg.lipschitz, cfg.grid_cap).points
        draws = DrawSetup(model, fm, 1.0).values(grid, [derive_seed(11, b) for b in range(400)])
        _, cov = decoupled_mean_cov(model, fm, 1.0, grid)
        ratio = float(np.median(draws.var(axis=0, ddof=1) / np.diag(cov)))
        assert 0.8 <= ratio <= 1.25, f"median draw variance / analytic variance = {ratio:.2f}"

    def test_feature_variant_defect_bounded_by_tail(self):
        # analytic draw variance differs from the posterior variance by the
        # spectrum beyond M, which tail_mass dominates
        rng = np.random.default_rng(6)
        fm = mercer_truncate(SE1, 96, [0.0], [1.0])
        data, model = fitted_features_model(rng, fm, m=12)
        X = np.linspace(0.05, 0.95, 21).reshape(-1, 1)
        _, cov = decoupled_mean_cov(model, fm, 1.0, X)
        post_var = model.predict(X)[1]
        defect = post_var - np.diag(cov)
        assert np.all(defect >= -1e-10)
        assert defect.max() <= tail_mass(fm, 96 - 1) + 1e-8 or defect.max() <= 1e-6

    def test_rejects_small_alpha(self):
        rng = np.random.default_rng(7)
        data, model = fitted_points_model(rng, n=6)
        fm = mercer_truncate(SE1, 32, [0.0], [1.0])
        with pytest.raises(InvalidInputError):
            draw_sample(model, fm, 0.5, seed=0)
        with pytest.raises(InvalidInputError):
            decoupled_mean_cov(model, fm, 0.99, np.array([[0.5]]))
        grid = build_grid([0.0], [1.0], t=2, lipschitz=1.0, cap=100)
        with pytest.raises(InvalidInputError):
            select_batch(model, fm, grid, B=2, alpha=0.99, step_seed=0)
        with pytest.raises(InvalidInputError):
            select_batch(model, fm, grid, B=0, alpha=1.0, step_seed=0)
        # the features are checked by shape, and their transpose is refused
        F = fm.features(grid.points)
        for wrong in (F[1:], F[:, 1:], F.ravel(), F.T):
            with pytest.raises(InvalidInputError, match="features have shape"):
                select_batch(model, fm, grid, B=2, alpha=1.0, step_seed=0, F=wrong)

    def test_rejects_another_kernels_eigen_map(self):
        # same box, same kind and count, but the eigenpairs of lengthscale 0.6
        rng = np.random.default_rng(12)
        fm = mercer_truncate(SE1, 32, [0.0], [1.0])
        data, model = fitted_features_model(rng, fm)
        other = mercer_truncate(KernelSpec(family="se", dim=1, lengthscales=(0.6,)),
                                32, [0.0], [1.0])
        assert other.origin == fm.origin
        grid = build_grid([0.0], [1.0], t=2, lipschitz=1.0, cap=100)
        with pytest.raises(InvalidInputError):
            draw_sample(model, other, 1.0, seed=0)
        with pytest.raises(InvalidInputError):
            decoupled_mean_cov(model, other, 1.0, np.array([[0.5]]))
        with pytest.raises(InvalidInputError):
            select_batch(model, other, grid, B=1, alpha=1.0, step_seed=0)


class TestDeterminism:
    def test_same_seed_same_function(self):
        rng = np.random.default_rng(8)
        data, model = fitted_points_model(rng, n=7)
        fm = rff_sample(SE1, 64, seed=2)
        a = draw_sample(model, fm, 1.5, seed=33)
        b = draw_sample(model, fm, 1.5, seed=33)
        X = np.linspace(0, 1, 11).reshape(-1, 1)
        assert np.array_equal(a.eval_many(X), b.eval_many(X))
        c = draw_sample(model, fm, 1.5, seed=34)
        assert not np.array_equal(a.eval_many(X), c.eval_many(X))

    @pytest.mark.parametrize("case", VARIANT_CASES)
    def test_reused_set_up_matches_draw_sample(self, case):
        # one set-up per alpha, many draws: draw_sample's draws bit for bit
        model, fm = fitted_case(case, np.random.default_rng(14))
        X = np.linspace(0, 1, 11).reshape(-1, 1)
        F = fm.features(X).T
        U = kernel_matrix(SE1, X, model.Z) if model.variant == "points" else F[:, : model.m_count]
        for alpha in (1.0, 2.0):
            setup = DrawSetup(model, fm, alpha)
            for b in range(5):
                seed = derive_seed(1001, b)
                vals = draw_sample(model, fm, alpha, seed).eval_many(X)
                assert np.array_equal(vals, setup.values(X, [seed], F=F.T)[0])
                # the one-row evaluator keeps the bits of the per-draw matvecs
                W, V, _ = per_draw_coeffs(setup, seed)
                assert np.array_equal(vals, alpha * (F @ W) + U @ V)

    def test_derive_seed_is_stable(self):
        assert derive_seed(123, 4) == derive_seed(123, 4)
        assert derive_seed(123, 4) != derive_seed(123, 5)
        assert derive_seed(123, 4) != derive_seed(124, 4)


class TestDrawValues:
    @pytest.mark.parametrize("case", VARIANT_CASES)
    @pytest.mark.parametrize("n_draws", [1, 7])
    def test_chunked_values_match_per_draw_within_dot_product_bound(self, case, n_draws,
                                                                    monkeypatch):
        # Both routes compute alpha (F W)_ib + (U V)_ib from the same W, bit for
        # bit, and from V that differ only by the rounding of the batched
        # products and solve (bounded by per_draw_coeffs, and at these
        # instances far inside the bound below).  The products differ in
        # summation order (one GEMM per chunk on the feature rows against one
        # GEMV per draw on the transposed features(X)).  A
        # length-n dot product computed in floating point is within
        # gamma_n |x|.|y| of the exact one, gamma_n = n eps / (1 - n eps); the
        # scaling by alpha and the final add cost one rounding each.  So each
        # route is within (M + m + 2) eps (alpha |F||W| + |U||V|) of the exact
        # value, up to second-order terms, and the two routes within twice that.
        model, fm = fitted_case(case, np.random.default_rng(15))
        X = np.linspace(-0.1, 1.1, 23).reshape(-1, 1)
        alpha = 1.7
        setup = DrawSetup(model, fm, alpha)
        seeds = [derive_seed(2024, b) for b in range(n_draws)]
        want = np.stack([draw_sample(model, fm, alpha, seed).eval_many(X) for seed in seeds])
        F = fm.features(X).T
        U = kernel_matrix(SE1, X, model.Z) if model.variant == "points" else F[:, : model.m_count]
        scale = np.stack([alpha * np.abs(F) @ np.abs(W) + np.abs(U) @ np.abs(V)
                          for W, V, _ in (per_draw_coeffs(setup, seed) for seed in seeds)])
        bound = 2 * (fm.count + model.m_count + 2) * np.finfo(float).eps * scale

        # three draws a chunk: chunks of 3, 3 and a ragged 1 for seven draws
        monkeypatch.setattr(sampling, "_CHUNK_CELLS", 3 * fm.count)
        widths = []

        def counted(F, U, alpha, W, V, out):
            widths.append(W.shape[0])
            _on_basis(F, U, alpha, W, V, out)

        monkeypatch.setattr(sampling, "_on_basis", counted)
        got = setup.values(X, seeds)
        assert widths == ([1] if n_draws == 1 else [3, 3, 1])
        assert got.shape == (n_draws, X.shape[0])
        assert np.all(np.abs(got - want) <= bound)

    @pytest.mark.parametrize("case", VARIANT_CASES)
    def test_batched_coefficients_match_per_draw_expressions(self, case, monkeypatch):
        # seven draws at alpha != 1 in chunks of 3, 3 and a ragged 1: W is the
        # per-draw sqrt(lambda) w bit for bit, V within the solve bound, and
        # a single draw's V is the per-draw V bit for bit
        model, fm = fitted_case(case, np.random.default_rng(21))
        setup = DrawSetup(model, fm, 2.3)
        seeds = [derive_seed(77, b) for b in range(7)]
        monkeypatch.setattr(sampling, "_CHUNK_CELLS", 3 * fm.count)
        blocks = []

        def kept(F, U, alpha, W, V, out):
            blocks.append((W, V))
            _on_basis(F, U, alpha, W, V, out)

        monkeypatch.setattr(sampling, "_on_basis", kept)
        X = np.linspace(0.0, 1.0, 5).reshape(-1, 1)
        setup.values(X, seeds)
        assert [W.shape[0] for W, _ in blocks] == [3, 3, 1]
        assert all(W.flags.c_contiguous and V.flags.c_contiguous for W, V in blocks)
        W, V = np.vstack([W for W, _ in blocks]), np.hstack([V for _, V in blocks])
        for b, seed in enumerate(seeds):
            want_W, want_V, bound = per_draw_coeffs(setup, seed)
            blocks.clear()
            setup.values(X, [seed])
            (one_W, one_V), = blocks
            assert np.array_equal(W[b], want_W) and np.array_equal(one_W[0], want_W)
            assert np.all(np.abs(V[:, b] - want_V) <= bound)
            # a draw of its own takes the same products and solve as the reference
            assert np.array_equal(one_V[:, 0], want_V)

    @settings(derandomize=True, deadline=None, max_examples=30)
    @given(case=st.sampled_from(VARIANT_CASES), alpha=st.floats(min_value=1.0, max_value=8.0),
           n_draws=st.integers(min_value=1, max_value=9),
           per_chunk=st.integers(min_value=1, max_value=4),
           key=st.integers(min_value=0, max_value=2 ** 32 - 1))
    def test_chunked_values_match_eval_many_property(self, case, alpha, n_draws, per_chunk,
                                                     key):
        # the bound of test_chunked_values_match_per_draw_within_dot_product_bound,
        # on random data, draws, alpha and chunk widths
        model, fm = fitted_case(case, np.random.default_rng(key))
        X = np.linspace(-0.1, 1.1, 13).reshape(-1, 1)
        setup = DrawSetup(model, fm, alpha)
        seeds = [derive_seed(key, b) for b in range(n_draws)]
        F = fm.features(X).T
        U = kernel_matrix(SE1, X, model.Z) if model.variant == "points" else F[:, : model.m_count]
        scale = np.stack([alpha * np.abs(F) @ np.abs(W) + np.abs(U) @ np.abs(V)
                          for W, V, _ in (per_draw_coeffs(setup, seed) for seed in seeds)])
        bound = 2 * (fm.count + model.m_count + 2) * np.finfo(float).eps * scale
        with mock.patch.object(sampling, "_CHUNK_CELLS", per_chunk * fm.count):
            got = setup.values(X, seeds)
        want = np.stack([draw_sample(model, fm, alpha, seed).eval_many(X) for seed in seeds])
        assert np.all(np.abs(got - want) <= bound)

    @pytest.mark.parametrize("case", VARIANT_CASES)
    def test_eval_many_owns_its_values(self, case):
        # a view would keep the (n, 1) product alive for as long as the values
        model, fm = fitted_case(case, np.random.default_rng(17))
        v = draw_sample(model, fm, 1.0, seed=5).eval_many([[0.1], [0.5], [0.9]])
        assert v.shape == (3,) and v.base is None

    @pytest.mark.parametrize("case", VARIANT_CASES)
    def test_select_batch_is_argmax_of_values(self, case):
        model, fm = fitted_case(case, np.random.default_rng(16))
        grid = build_grid([0.0], [1.0], t=3, lipschitz=2.0, cap=4000)
        seeds = [derive_seed(99, b) for b in range(6)]
        vals = DrawSetup(model, fm, 1.3).values(grid.points, seeds)
        F = fm.features(grid.points)
        assert np.array_equal(vals, DrawSetup(model, fm, 1.3).values(grid.points, seeds, F=F))
        pts, idx = select_batch(model, fm, grid, B=6, alpha=1.3, step_seed=99)
        assert np.array_equal(idx, np.argmax(vals, axis=1))
        assert np.array_equal(pts, grid.points[idx])


# Grids of 8000 points or more are scored in chunks of at least 4000 points,
# spread over threads.  The chunked values must equal one product over the
# whole grid bit for bit, at every thread count.

SE6 = KernelSpec(family="se", dim=6, lengthscales=(0.2,) * 6)
RFF6 = rff_sample(SE6, 512, seed=5)
MERCER1 = mercer_truncate(SE1, 256, [0.0], [1.0])


@pytest.fixture(scope="class")
def chunk_grids():
    """(points, feature rows) of an RFF grid in 6-d and a Mercer grid in 1-d,
    by size, built once for the class."""
    rng = np.random.default_rng(404)
    grids = {}
    for n in (8000, 40000):
        pts = rng.uniform(0.0, 1.0, size=(n, 6))
        grids["rff", n] = pts, RFF6.features(pts)
        pts = rng.uniform(0.0, 1.0, size=(n, 1))
        grids["mercer", n] = pts, MERCER1.features(pts)
    return grids


class TestGridChunks:
    @staticmethod
    def assert_chunks_keep_the_bits(setup, pts, F, monkeypatch):
        seeds = [derive_seed(31, b) for b in range(20)]
        with mock.patch.object(util, "_GRID_CHUNK", pts.shape[0] + 1):
            whole = setup.values(pts, seeds, F=F)
        widths = []

        def counted(F_c, U_c, alpha, W, V, out):
            widths.append(F_c.shape[1])
            _on_basis(F_c, U_c, alpha, W, V, out)

        monkeypatch.setattr(sampling, "_on_basis", counted)
        for threads in (1, 2, 3):
            monkeypatch.setattr(util, "_grid_threads", lambda: threads)
            assert np.array_equal(setup.values(pts, seeds, F=F), whole)
        assert len(widths) == 3 * (pts.shape[0] // 4000) and min(widths) >= 4000

    @pytest.mark.parametrize("n", [8000, 40000])
    @pytest.mark.parametrize("m", [20, 60, 100])
    def test_points_rff(self, chunk_grids, monkeypatch, n, m):
        rng = np.random.default_rng(m)
        X = rng.uniform(0.0, 1.0, size=(3 * m, 6))
        data = Dataset(X, rng.normal(size=3 * m), 1, 3 * m)
        model = fit_svgp_closed_form(data, SE6, 0.1, Z=X[:m])
        self.assert_chunks_keep_the_bits(DrawSetup(model, RFF6, 1.5), *chunk_grids["rff", n],
                                         monkeypatch)

    @pytest.mark.parametrize("n", [8000, 40000])
    @pytest.mark.parametrize("m", [20, 60, 100])
    def test_features_mercer(self, chunk_grids, monkeypatch, n, m):
        _, model = fitted_features_model(np.random.default_rng(m), MERCER1, m=m, n=3 * m)
        self.assert_chunks_keep_the_bits(DrawSetup(model, MERCER1, 1.5),
                                         *chunk_grids["mercer", n], monkeypatch)

    def test_tie_across_a_chunk_boundary_goes_to_the_lower_index(self, monkeypatch):
        # 8000 points are two chunks, split at 4000.  One point, far outside
        # the others' box and observed at 100 with little noise, sits at
        # indices 3999 and 4000; every draw peaks there and ties.
        spec = KernelSpec(family="se", dim=2, lengthscales=(0.05, 0.05))
        peak = np.array([[1.5, 1.5]])
        pts = np.random.default_rng(8).uniform(0.0, 1.0, size=(8000, 2))
        pts[[3999, 4000]] = peak
        model = fit_svgp_closed_form(Dataset(peak, np.array([100.0]), 1, 1), spec, 1e-4, Z=peak)
        fm = rff_sample(spec, 256, seed=1)
        grid = sampling.Discretization(points=pts, capped=True, density_const=1.0)
        monkeypatch.setattr(util, "_grid_threads", lambda: 2)
        values = DrawSetup(model, fm, 1.0).values(pts, [derive_seed(3, b) for b in range(8)])
        assert np.array_equal(values[:, 3999], values[:, 4000])
        assert np.all(values[:, 3999] > np.delete(values, [3999, 4000], axis=1).max(axis=1))
        _, idx = select_batch(model, fm, grid, B=8, alpha=1.0, step_seed=3)
        assert np.array_equal(idx, np.full(8, 3999))

    def test_phi_of_z_beside_the_root_of_s(self, chunk_grids, monkeypatch):
        # on two chunks Phi(Z) runs on a pool thread while the caller takes
        # the root of S and the draws' normals; the picks keep their bits, and
        # are the argmax of DrawSetup.values, also when select_batch is itself
        # a pool task, which then takes Phi(Z), the normals and its chunks inline
        rng = np.random.default_rng(9)
        X = rng.uniform(0.0, 1.0, size=(60, 6))
        data = Dataset(X, rng.normal(size=60), 1, 60)
        pts, F = chunk_grids["rff", 8000]
        grid = sampling.Discretization(points=pts, capped=True, density_const=1.0)
        threads, features, normals = [], FeatureMap.features, sampling._normals

        def recorded(fm, Z):
            threads.append(("features", threading.current_thread().name))
            return features(fm, Z)

        def recorded_normals(*args):
            threads.append(("normals", threading.current_thread().name))
            return normals(*args)

        monkeypatch.setattr(FeatureMap, "features", recorded)
        monkeypatch.setattr(sampling, "_normals", recorded_normals)
        picks, where = [], []
        for n_threads, pooled in ((1, False), (2, False), (2, True)):
            monkeypatch.setattr(util, "_grid_threads", lambda: n_threads)
            # a fresh model each time, so each call takes its own root of S
            args = (fit_svgp_closed_form(data, SE6, 0.1, Z=X[:20]), RFF6, grid, 8, 1.3, 4)
            threads.clear()
            if pooled:
                # in a forked child, killed after a timeout: a pool task that
                # waited on its own pool would otherwise hang the test run
                idx, threads[:] = in_forked_child(lambda: (util.together(
                    8000, lambda: None, functools.partial(select_batch, *args))[1][1], threads))
                picks.append(idx)
            else:
                picks.append(select_batch(*args, F=F)[1])
            where.append(sorted((what, name.startswith("sgpts-grid")) for what, name in threads))
        assert np.array_equal(picks[0], picks[1]) and np.array_equal(picks[0], picks[2])
        values = DrawSetup(args[0], RFF6, 1.3).values(pts, [derive_seed(4, b) for b in range(8)],
                                                     F=F)
        assert np.array_equal(picks[0], np.argmax(values, axis=1))
        # the pooled call also evaluates the grid's features, on the pool thread
        assert where == [[("features", False), ("normals", False)],
                         [("features", True), ("normals", False)],
                         [("features", True), ("features", True), ("normals", True)]]

    def test_forked_child_scores_on_its_own_pool(self):
        # the parent's pool has a worker thread, which a forked child does not
        # inherit; the child's chunked scoring must not queue work for it
        script = (
            "import os, numpy as np\n"
            "from sgpts.exact_gp import Dataset\n"
            "from sgpts.kernels import KernelSpec, rff_sample\n"
            "from sgpts.sampling import DrawSetup\n"
            "from sgpts.svgp import fit_svgp_closed_form\n"
            "spec = KernelSpec(family='se', dim=2, lengthscales=(0.3, 0.3))\n"
            "rng = np.random.default_rng(0)\n"
            "X, pts = rng.uniform(size=(10, 2)), rng.uniform(size=(8000, 2))\n"
            "model = fit_svgp_closed_form(Dataset(X, rng.normal(size=10), 1, 10), spec, 0.1, Z=X)\n"
            "setup = DrawSetup(model, rff_sample(spec, 64, seed=1), 1.0)\n"
            "want = setup.values(pts, [1, 2])\n"
            "pid = os.fork()\n"
            "if pid == 0:\n"
            "    os._exit(0 if np.array_equal(setup.values(pts, [1, 2]), want) else 3)\n"
            "print(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))\n"
        )
        src = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ, SGPTS_THREADS="2", PYTHONPATH=os.pathsep.join(
            filter(None, [str(src), os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                              text=True, check=True, timeout=60)
        assert proc.stdout.strip() == "0"


class TestRootOfS:
    """The root of S is computed once per model, on its first draw, and never copied."""

    @staticmethod
    def counted_eigh(monkeypatch):
        calls, eigh = [], np.linalg.eigh

        def counted(a, *args, **kwargs):
            calls.append(a)
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counted)
        return calls

    @staticmethod
    def own_root(model):
        vals, vecs = np.linalg.eigh(model.S_mat)
        return vecs * np.sqrt(np.maximum(vals, 0.0))

    @pytest.mark.parametrize("case", VARIANT_CASES)
    def test_one_eigh_per_model(self, case, monkeypatch):
        model, fm = fitted_case(case, np.random.default_rng(22))
        calls = self.counted_eigh(monkeypatch)
        decoupled_mean_cov(model, fm, 1.5, np.array([[0.2], [0.6]]))
        assert calls == []
        for b in range(50):
            draw_sample(model, fm, 1.5, seed=b).eval_many([[0.3]])
        assert len(calls) == 1 and calls[0] is model.S_mat

    def test_rebuilt_models_compute_their_own_root(self, monkeypatch):
        rng = np.random.default_rng(23)
        data, model = fitted_points_model(rng)
        fm = mercer_truncate(SE1, 64, [0.0], [1.0])
        prior = SvgpModel(spec=SE1, tau=0.2, Z=data.X)
        snapshot = write_snapshot(model)
        for drawn in (prior, model):
            draw_sample(drawn, fm, 1.0, seed=0).eval_many([[0.3]])
        assert np.array_equal(prior._s_root, self.own_root(prior))
        assert write_snapshot(model) == snapshot
        # the fit's replace of a drawn-from prior, an edited fitted model, a snapshot
        caches = dict(_a=None, _chol_P=None, _chol_Sigma=None)
        fitted = dataclasses.replace(prior, m_vec=model.m_vec, S_mat=model.S_mat, **caches)
        edited = dataclasses.replace(model, m_vec=model.m_vec + 0.1, S_mat=0.5 * model.S_mat,
                                     **caches)
        rebuilt = (fitted, edited, load_snapshot(snapshot))
        want = [self.own_root(r) for r in rebuilt]
        calls = self.counted_eigh(monkeypatch)
        for r, root in zip(rebuilt, want):
            assert "_s_root" not in vars(r)
            draw_sample(r, fm, 1.0, seed=0).eval_many([[0.3]])
            assert calls[-1] is r.S_mat and np.array_equal(r._s_root, root)
        assert len(calls) == 3
        assert not np.array_equal(edited._s_root, model._s_root)


class TestNearZeroNoise:
    @pytest.mark.parametrize("case", VARIANT_CASES)
    @pytest.mark.parametrize("duplicated", [False, True])
    def test_draws_are_finite_or_a_typed_error(self, case, duplicated):
        # tau = 1e-12 on distinct inputs, and with every third input repeated
        # (points models put Z on the inputs, so Z repeats too): either every
        # draw is finite or NumericalDegeneracyError names the failure
        rng = np.random.default_rng(24)
        X = np.linspace(0.05, 0.95, 10).reshape(-1, 1)
        if duplicated:
            X = np.concatenate([X, X[::3]])
        data = Dataset(X, np.sin(6.0 * X[:, 0]) + 0.1 * rng.normal(size=len(X)), 1, len(X))
        fm = rff_sample(SE1, 64, seed=3) if case == "points-rff" else \
            mercer_truncate(SE1, 64, [0.0], [1.0])
        probes = np.linspace(0.0, 1.0, 9).reshape(-1, 1)
        try:
            if case.startswith("points"):
                model = fit_svgp_closed_form(data, SE1, 1e-12, Z=X)
            else:
                model = fit_svgp_closed_form(data, SE1, 1e-12, feature_map=fm, m=10)
            setup = DrawSetup(model, fm, 1.5)
            values = setup.values(probes, [derive_seed(25, b) for b in range(20)])
            one = draw_sample(model, fm, 1.5, seed=26).eval_many(probes)
        except NumericalDegeneracyError:
            return
        assert np.all(np.isfinite(values)) and np.all(np.isfinite(one))


class TestInputPoints:
    @pytest.mark.parametrize("case", VARIANT_CASES)
    def test_flat_input_is_points_in_one_dimension(self, case):
        model, fm = fitted_case(case, np.random.default_rng(18))
        flat, col = [0.2, 0.5, 0.7], np.array([[0.2], [0.5], [0.7]])
        draw = draw_sample(model, fm, 1.0, seed=4)
        exact = fit_exact(Dataset(col, np.array([0.1, -0.3, 0.4]), 1, 3), SE1, 0.2)
        for f in (fm.features, draw.eval_many, lambda X: model.predict(X)[0],
                  model.cov, lambda X: exact.predict(X)[1], exact.cov):
            assert np.array_equal(f(flat), f(col))

    @pytest.mark.parametrize("case", VARIANT_CASES)
    def test_nan_points_raise(self, case):
        model, fm = fitted_case(case, np.random.default_rng(19))
        col = np.array([[0.2], [0.5]])
        exact = fit_exact(Dataset(col, np.array([0.1, -0.3]), 1, 2), SE1, 0.2)
        draw = draw_sample(model, fm, 1.0, seed=4)
        for f in (fm.features, draw.eval_many, model.predict, model.cov,
                  exact.predict, exact.cov):
            with pytest.raises(InvalidInputError):
                f([[np.nan]])
        with pytest.raises(InvalidInputError):
            DrawSetup(model, fm, 1.0).values([[0.3], [np.inf]], [1])


class TestGrid:
    def test_unit_interval_t1_two_points(self):
        g = build_grid([0.0], [1.0], t=1, lipschitz=1.0, cap=10_000)
        assert g.n_points == 2
        assert np.allclose(g.points.ravel(), [0.0, 1.0])

    def test_unit_interval_t4_nine_points(self):
        g = build_grid([0.0], [1.0], t=4, lipschitz=1.0, cap=10_000)
        assert g.n_points == 9

    def test_density_bound_holds(self):
        for t in (1, 2, 3, 5):
            g = build_grid([0.0, 0.0], [1.0, 2.0], t=t, lipschitz=2.0, cap=10 ** 7)
            assert g.n_points <= g.density_const * t ** 4 + 1e-9

    def test_cap_switches_to_low_discrepancy(self):
        g = build_grid([0.0] * 3, [1.0] * 3, t=10, lipschitz=5.0, cap=500)
        assert g.capped and g.n_points == 500
        assert np.all(g.points >= 0.0) and np.all(g.points <= 1.0)
        g2 = build_grid([0.0] * 3, [1.0] * 3, t=10, lipschitz=5.0, cap=500)
        assert np.array_equal(g.points, g2.points)

    def test_spacing_shrinks_with_t(self):
        # the lattice's largest gap, at most the documented 2 / (L t^2 sqrt(d))
        gs = [build_grid([0.0], [1.0], t=t, lipschitz=1.0, cap=10 ** 6) for t in (1, 2, 4)]
        spacing = [np.diff(g.points[:, 0]).max() for g in gs]
        assert spacing[0] > spacing[1] > spacing[2]
        assert all(h <= 2.0 / t ** 2 for h, t in zip(spacing, (1, 2, 4)))
        assert gs[0].n_points <= gs[1].n_points <= gs[2].n_points

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 6, 7, 8, 17])
    def test_halton_set_has_scipys_bits(self, d):
        # scipy is the oracle: the same bits, compared as int64 words, and the
        # same layout, which the grid's points and every product on them inherit
        for n in (1, 2, 20, 100, 800, 2000, 8000, 40000):
            got, want = _unit_halton(d, n), qmc.Halton(d=d, scramble=False).random(n)
            assert got.shape == want.shape and got.strides == want.strides
            assert np.array_equal(got.view(np.int64), want.view(np.int64))

    def test_halton_set_is_made_once_and_read_only(self):
        unit = _unit_halton(3, 500)
        assert np.array_equal(unit.view(np.int64),
                              qmc.Halton(d=3, scramble=False).random(500).view(np.int64))
        assert not unit.flags.writeable
        assert _unit_halton(3, 500) is unit
        lo, hi = np.array([0.0, -1.0, 2.0]), np.array([1.0, 1.0, 5.0])
        g = build_grid(lo, hi, t=10, lipschitz=5.0, cap=500)
        assert np.array_equal(g.points, lo + unit * (hi - lo))

    def test_grids_do_not_share_points(self):
        g = build_grid([0.0] * 3, [1.0] * 3, t=10, lipschitz=5.0, cap=500)
        want = g.points.copy()
        g.points[:] = -1.0
        g2 = build_grid([0.0] * 3, [1.0] * 3, t=10, lipschitz=5.0, cap=500)
        assert np.array_equal(g2.points, want)

    @pytest.mark.parametrize("lo, hi, t, lipschitz", [
        ([0.0], [1.0], 4, 1.0),
        ([0.0, 0.0], [1.0, 2.0], 2, 2.0),
    ])
    def test_cap_boundary(self, lo, hi, t, lipschitz):
        # a lattice of exactly cap points stays a lattice; one more point switches to Halton
        lattice = build_grid(lo, hi, t=t, lipschitz=lipschitz, cap=10 ** 7)
        n = lattice.n_points
        at = build_grid(lo, hi, t=t, lipschitz=lipschitz, cap=n)
        assert not at.capped and np.array_equal(at.points, lattice.points)
        over = build_grid(lo, hi, t=t, lipschitz=lipschitz, cap=n - 1)
        assert over.capped and over.n_points == n - 1
        unit = qmc.Halton(d=len(lo), scramble=False).random(n - 1)
        assert np.array_equal(over.points, np.asarray(lo) + unit * np.subtract(hi, lo))

    def test_huge_lattice_count_still_caps(self):
        # the 6-d lattice size here exceeds int64; the cap test must not
        # be fooled by wraparound
        g = build_grid([0.0] * 6, [1.0] * 6, t=9, lipschitz=15.0, cap=2000)
        assert g.capped and g.n_points == 2000


class TestSelectBatch:
    @pytest.mark.parametrize("case", VARIANT_CASES)
    def test_matches_per_draw_argmax(self, case):
        rng = np.random.default_rng(9)
        model, fm = fitted_case(case, rng)
        grid = build_grid([0.0], [1.0], t=3, lipschitz=2.0, cap=4000)
        step_seed = 777
        pts, idx = select_batch(model, fm, grid, B=4, alpha=1.0, step_seed=step_seed)
        pts_f, idx_f = select_batch(model, fm, grid, B=4, alpha=1.0, step_seed=step_seed,
                                    F=fm.features(grid.points))
        assert np.array_equal(idx, idx_f) and np.array_equal(pts, pts_f)
        for b in range(4):
            s = draw_sample(model, fm, 1.0, seed=derive_seed(step_seed, b))
            vals = s.eval_many(grid.points)
            assert idx[b] == int(np.argmax(vals))
            assert np.array_equal(pts[b], grid.points[idx[b]])

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("case", VARIANT_CASES)
    def test_map_of_another_dimension_is_refused(self, case, threads, monkeypatch):
        # on 8000 points at two threads a points model's Phi(Z) fails on the pool
        model, _ = fitted_case(case, np.random.default_rng(14))
        fm = rff_sample(KernelSpec(family="se", dim=2, lengthscales=(0.25, 0.25)), 64, seed=3)
        pts = np.random.default_rng(15).uniform(size=(8000, 1))
        grid = sampling.Discretization(points=pts, capped=True, density_const=1.0)
        monkeypatch.setattr(util, "_grid_threads", lambda: threads)
        with pytest.raises(InvalidInputError):
            select_batch(model, fm, grid, B=2, alpha=1.0, step_seed=1)

    def test_set_up_runs_once_per_call(self, monkeypatch):
        # one select_batch call: features at the grid and at Z, one eigh of
        # S, which the model keeps for every later call
        rng = np.random.default_rng(13)
        data, model = fitted_points_model(rng)
        fm = mercer_truncate(SE1, 64, [0.0], [1.0])
        grid = build_grid([0.0], [1.0], t=3, lipschitz=2.0, cap=4000)
        calls = {"features": 0, "eigh": 0}
        features, eigh = FeatureMap.features, np.linalg.eigh

        def counted_features(self, X):
            calls["features"] += 1
            return features(self, X)

        def counted_eigh(a, *args, **kwargs):
            calls["eigh"] += 1
            return eigh(a, *args, **kwargs)

        F = fm.features(grid.points)
        monkeypatch.setattr(FeatureMap, "features", counted_features)
        monkeypatch.setattr(np.linalg, "eigh", counted_eigh)
        select_batch(model, fm, grid, B=5, alpha=1.0, step_seed=5)
        assert calls == {"features": 2, "eigh": 1}
        # given the grid's features, only Phi(Z) is evaluated
        select_batch(model, fm, grid, B=5, alpha=1.0, step_seed=5, F=F)
        assert calls == {"features": 3, "eigh": 1}

    def test_seed_order_permutes_outputs_only(self):
        rng = np.random.default_rng(10)
        data, model = fitted_points_model(rng)
        fm = mercer_truncate(SE1, 64, [0.0], [1.0])
        grid = build_grid([0.0], [1.0], t=3, lipschitz=2.0, cap=4000)
        _, idx = select_batch(model, fm, grid, B=5, alpha=1.0, step_seed=42)
        # re-run the draws in reverse order: same multiset of argmaxes
        rev = [
            int(np.argmax(draw_sample(model, fm, 1.0, derive_seed(42, b)).eval_many(grid.points)))
            for b in reversed(range(5))
        ]
        assert sorted(rev) == sorted(idx.tolist())

    def test_concentrates_on_peaked_mean(self):
        # sharp posterior peak, tiny residual noise: 99%+ of maximizers land
        # inside the peak's basin over 200 seeded trials
        n = 41
        X = np.linspace(0, 1, n).reshape(-1, 1)
        y = np.exp(-0.5 * ((X.ravel() - 0.3) / 0.04) ** 2)
        spec = KernelSpec(family="se", dim=1, lengthscales=(0.05,))
        data = Dataset(X, y, 1, n)
        model = fit_svgp_closed_form(data, spec, 1e-6, Z=X)
        fm = mercer_truncate(spec, 400, [0.0], [1.0])
        grid = build_grid([0.0], [1.0], t=5, lipschitz=1.0, cap=3000)
        hits = 0
        for trial in range(200):
            pts, _ = select_batch(model, fm, grid, B=1, alpha=1.0, step_seed=trial)
            hits += abs(pts[0, 0] - 0.3) < 0.05
        assert hits >= 198
