import dataclasses
import json
import math
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sgpts.exact_gp
import sgpts.svgp
import sgpts.util
from sgpts.benchmarks import get_benchmark
from sgpts.engine import parse_config, run_sgp_ts
from sgpts.errors import (
    ExplorationInfeasibleError,
    InvalidInputError,
    NumericalDegeneracyError,
    UnsupportedDecompositionError,
)
from sgpts.exact_gp import Dataset, fit_exact
from sgpts.kernels import KernelSpec, kernel_matrix, mercer_truncate, rff_sample, tail_mass
from sgpts.svgp import (
    SvgpModel,
    elbo,
    fit_svgp_closed_form,
    kl_to_exact,
    load_snapshot,
    approximation_constants,
    select_inducing_greedy,
    select_inducing_kmeans,
    precision_sup_norm,
    trace_residual,
    write_snapshot,
)

SE1 = KernelSpec(family="se", dim=1, lengthscales=(0.3,))
REPO = Path(__file__).resolve().parent.parent


def spread_data(rng, n, dim=1, bsz=1, y_scale=1.0):
    """Inputs jittered off a grid so grams stay well-conditioned."""
    base = np.linspace(0.05, 0.95, n)
    X = np.stack([(base + rng.uniform(-0.02, 0.02, n)) for _ in range(dim)], axis=1)
    y = y_scale * rng.normal(size=n)
    return Dataset(X, y, bsz, n // bsz)


def assert_collapses_onto_exact(rng, dim, tau=None):
    """Z = X makes the variational optimum reproduce the exact GP, within 1e-6;
    the lengthscales keep the gram condition number below ~1e7.  tau defaults
    to a uniform draw from [0.05, 0.5] taken after the data."""
    spec = KernelSpec(family="se", dim=dim, lengthscales=(0.14 if dim == 1 else 0.3,) * dim)
    data = spread_data(rng, 12, dim=dim)
    if tau is None:
        tau = float(rng.uniform(0.05, 0.5))
    model = fit_svgp_closed_form(data, spec, tau, Z=data.X)
    exact = fit_exact(data, spec, tau)
    Xq = rng.uniform(0, 1, size=(15, dim))
    em, ev = exact.predict(Xq)
    am, av = model.predict(Xq)
    assert np.abs(am - em).max() < 1e-6
    assert np.abs(av - ev).max() < 1e-6
    assert np.abs(model.cov(Xq[:5]) - exact.cov(Xq[:5])).max() < 1e-6
    assert abs(elbo(data, model) - exact.log_marginal()) < 1e-6
    assert trace_residual(data, model) <= 1e-8


def dense_fit_oracle(data, spec, tau, Z):
    """Closed-form optimum through plain dense inverses."""
    P = kernel_matrix(spec, Z)
    C = kernel_matrix(spec, Z, data.X)
    Sigma = P + C @ C.T / tau
    Si = np.linalg.inv(Sigma)
    return P @ Si @ C @ data.y / tau, P @ Si @ P


class TestClosedForm:
    def test_moments_match_dense_oracle(self):
        rng = np.random.default_rng(0)
        data = spread_data(rng, 14)
        Z = data.X[::3]
        model = fit_svgp_closed_form(data, SE1, 0.2, Z=Z)
        om, oS = dense_fit_oracle(data, SE1, 0.2, Z)
        assert np.abs(model.m_vec - om).max() < 1e-9
        assert np.abs(model.S_mat - oS).max() < 1e-8

    def test_empty_data_is_prior(self):
        Z = np.array([[0.1], [0.5], [0.9]])
        model = fit_svgp_closed_form(Dataset.empty(1, 2), SE1, 0.1, Z=Z)
        assert np.array_equal(model.m_vec, np.zeros(3))
        assert np.allclose(model.S_mat, kernel_matrix(SE1, Z), atol=1e-14)
        mean, var = model.predict(np.array([[0.4]]))
        assert mean[0] == 0.0
        assert np.isclose(var[0], SE1.variance, atol=1e-12)

    @pytest.mark.parametrize("seed", range(6))
    def test_collapse_onto_exact_posterior(self, seed):
        assert_collapses_onto_exact(np.random.default_rng(seed), 1 + seed % 2)

    @settings(derandomize=True, deadline=None, max_examples=40)
    @given(key=st.integers(min_value=0, max_value=2 ** 32 - 1), dim=st.sampled_from([1, 2]),
           tau=st.floats(min_value=0.05, max_value=0.5))
    def test_collapse_onto_exact_posterior_property(self, key, dim, tau):
        # the seeded instances' family and tolerances, on random data and tau
        assert_collapses_onto_exact(np.random.default_rng(key), dim, tau)

    @settings(derandomize=True, deadline=None, max_examples=40)
    @given(key=st.integers(min_value=0, max_value=2 ** 32 - 1), dim=st.sampled_from([1, 2, 3]),
           n=st.integers(min_value=4, max_value=30), tau=st.floats(min_value=0.01, max_value=1.0),
           ls=st.floats(min_value=0.1, max_value=0.4))
    def test_variance_clamp_never_fires_when_well_conditioned(self, key, dim, n, tau, ls):
        # noise tau >= 0.01 keeps K + tau I and the fits' P well-conditioned,
        # so every raw predictive variance, at the inputs as well as between
        # them, is already >= 0 and the clamp has nothing to do
        rng = np.random.default_rng(key)
        spec = KernelSpec(family="se", dim=dim, lengthscales=(ls,) * dim)
        data = spread_data(rng, n, dim=dim)
        raw = []

        def spy(var):
            raw.append(np.array(var))
            return sgpts.util.clamp_variance(var)

        fm = mercer_truncate(spec, 40, [0.0] * dim, [1.0] * dim)
        models = [fit_exact(data, spec, tau),
                  fit_svgp_closed_form(data, spec, tau, Z=data.X[::2]),
                  fit_svgp_closed_form(data, spec, tau, feature_map=fm, m=min(n, 20))]
        Xq = np.vstack([data.X, rng.uniform(0.0, 1.0, size=(20, dim))])
        with mock.patch.object(sgpts.svgp, "clamp_variance", spy), \
                mock.patch.object(sgpts.exact_gp, "clamp_variance", spy):
            for model in models:
                model.predict(Xq)
        assert len(raw) == len(models)
        assert all(np.all(var >= 0.0) for var in raw)

    def test_features_variant_with_full_map_nears_exact(self):
        rng = np.random.default_rng(3)
        data = spread_data(rng, 10)
        fm = mercer_truncate(SE1, 60, [0.0], [1.0])
        model = fit_svgp_closed_form(data, SE1, 0.3, feature_map=fm, m=60)
        exact = fit_exact(data, SE1, 0.3)
        Xq = np.linspace(0.1, 0.9, 20).reshape(-1, 1)
        em, ev = exact.predict(Xq)
        am, av = model.predict(Xq)
        assert np.abs(am - em).max() < 1e-4
        assert np.abs(av - ev).max() < 1e-4

    def test_rff_map_rejected_for_features_variant(self):
        data = spread_data(np.random.default_rng(5), 8)
        fm = rff_sample(SE1, 16, seed=0)
        with pytest.raises(UnsupportedDecompositionError):
            fit_svgp_closed_form(data, SE1, 0.2, feature_map=fm, m=8)

    def test_sigma_factorization_failure_raises(self, monkeypatch):
        data = spread_data(np.random.default_rng(5), 8)
        fm = mercer_truncate(SE1, 40, [0.0], [1.0])
        real = sgpts.util._factor

        def fail_off_diagonal(a):
            # the prior Lambda_m is diagonal; only Sigma = Lambda_m + C C^T / tau is refused
            if np.count_nonzero(a - np.diag(np.diag(a))):
                raise np.linalg.LinAlgError("forced failure")
            return real(a)

        monkeypatch.setattr(sgpts.util, "_factor", fail_off_diagonal)
        with pytest.raises(NumericalDegeneracyError):
            fit_svgp_closed_form(data, SE1, 0.3, feature_map=fm, m=10)


class TestElbo:
    def test_optimum_beats_perturbations(self):
        rng = np.random.default_rng(6)
        data = spread_data(rng, 12)
        Z = data.X[::2]
        model = fit_svgp_closed_form(data, SE1, 0.25, Z=Z)
        best = elbo(data, model)
        for _ in range(20):
            dm = rng.normal(scale=0.1, size=model.m_count)
            v = rng.normal(size=model.m_count)
            dS = 0.05 * np.outer(v, v)
            other = SvgpModel(
                spec=SE1, tau=0.25, m_vec=model.m_vec + dm, S_mat=model.S_mat + dS, Z=Z
            )
            assert elbo(data, other) <= best + 1e-10

    def test_matches_collapsed_expression_at_optimum(self):
        rng = np.random.default_rng(7)
        data = spread_data(rng, 10)
        Z = data.X[::2]
        model = fit_svgp_closed_form(data, SE1, 0.3, Z=Z)
        K_zx = kernel_matrix(SE1, Z, data.X)
        Q = K_zx.T @ np.linalg.solve(kernel_matrix(SE1, Z), K_zx)
        theta = float(np.trace(kernel_matrix(SE1, data.X) - Q))
        Qn = Q + 0.3 * np.eye(data.n)
        want = -0.5 * data.y @ np.linalg.solve(Qn, data.y)
        want -= 0.5 * np.linalg.slogdet(Qn)[1]
        want -= 0.5 * data.n * math.log(2 * math.pi) + theta / 0.6
        assert np.isclose(elbo(data, model), want, atol=1e-8)

    def test_monotone_under_nested_inducing_sets(self):
        rng = np.random.default_rng(8)
        sharp = KernelSpec(family="se", dim=1, lengthscales=(0.14,))
        data = spread_data(rng, 12)
        Z_full = data.X[select_inducing_greedy(data, sharp, 12)]
        vals = []
        for m in range(1, 13):
            model = fit_svgp_closed_form(data, sharp, 0.2, Z=Z_full[:m])
            vals.append(elbo(data, model))
        assert all(b >= a - 1e-9 for a, b in zip(vals, vals[1:]))

    def test_below_log_marginal_with_certified_gap(self):
        # 0 <= log p(y) - elbo <= theta/(2 tau) + slack, slack = theta (1 + |y|^2/tau) / (2 tau)
        rng = np.random.default_rng(9)
        for _ in range(5):
            data = spread_data(rng, 10, y_scale=0.5)
            Z = data.X[:5]
            tau = 0.4
            model = fit_svgp_closed_form(data, SE1, tau, Z=Z)
            gap = fit_exact(data, SE1, tau).log_marginal() - elbo(data, model)
            theta = trace_residual(data, model)
            slack = theta * (1.0 + float(data.y @ data.y) / tau) / (2 * tau)
            assert -1e-9 <= gap <= theta / (2 * tau) + slack + 1e-9

    def test_empty_data_convention(self):
        model = fit_svgp_closed_form(Dataset.empty(1, 1), SE1, 0.1, Z=np.array([[0.5]]))
        assert elbo(Dataset.empty(1, 1), model) == 0.0


class TestTraceResidual:
    def test_matches_direct_oracle(self):
        rng = np.random.default_rng(10)
        data = spread_data(rng, 11)
        Z = data.X[::4]
        model = fit_svgp_closed_form(data, SE1, 0.2, Z=Z)
        K_zx = kernel_matrix(SE1, Z, data.X)
        Q = K_zx.T @ np.linalg.solve(kernel_matrix(SE1, Z), K_zx)
        want = float(np.trace(kernel_matrix(SE1, data.X) - Q))
        assert np.isclose(trace_residual(data, model), want, atol=1e-9)

    def test_features_variant_bounded_by_tail_mass(self):
        rng = np.random.default_rng(11)
        data = spread_data(rng, 12, bsz=3)
        fm = mercer_truncate(SE1, 80, [0.0], [1.0])
        for m in (6, 10, 16):
            model = fit_svgp_closed_form(data, SE1, 0.2, feature_map=fm, m=m)
            theta = trace_residual(data, model)
            bound = data.n * tail_mass(fm, m)
            assert 0.0 <= theta <= bound

    def test_shrinks_as_m_grows(self):
        rng = np.random.default_rng(12)
        sharp = KernelSpec(family="se", dim=1, lengthscales=(0.14,))
        data = spread_data(rng, 12)
        Z_full = data.X[select_inducing_greedy(data, sharp, 12)]
        thetas = [
            trace_residual(data, fit_svgp_closed_form(data, sharp, 0.2, Z=Z_full[:m]))
            for m in range(1, 13)
        ]
        assert all(b <= a + 1e-10 for a, b in zip(thetas, thetas[1:]))


class TestKlCertificate:
    def kl_oracle(self, data, model, spec, tau):
        exact = fit_exact(data, spec, tau)
        mu_e = exact.predict(data.X)[0]
        S_e = exact.cov(data.X) + 1e-12 * np.eye(data.n)
        mu_a, _ = model.predict(data.X)
        S_a = model.cov(data.X) + 1e-12 * np.eye(data.n)
        Si = np.linalg.inv(S_e)
        d = mu_e - mu_a
        return 0.5 * (
            np.trace(Si @ S_a)
            + d @ Si @ d
            - data.n
            + np.linalg.slogdet(S_e)[1]
            - np.linalg.slogdet(S_a)[1]
        )

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(13)
        data = spread_data(rng, 9)
        model = fit_svgp_closed_form(data, SE1, 0.3, Z=data.X[::2])
        want = self.kl_oracle(data, model, SE1, 0.3)
        assert np.isclose(kl_to_exact(data, model), want, atol=1e-8)

    @pytest.mark.parametrize("seed", range(3))
    def test_feature_variant_certificate(self, seed):
        # KL at training inputs stays under theta / tau when the tail is thin
        rng = np.random.default_rng(100 + seed)
        data = spread_data(rng, 12, bsz=3, y_scale=0.5)
        fm = mercer_truncate(SE1, 80, [0.0], [1.0])
        model = fit_svgp_closed_form(data, SE1, 0.5, feature_map=fm, m=14)
        kl = kl_to_exact(data, model)
        theta = trace_residual(data, model)
        assert kl <= theta / 0.5
        assert kl >= 0.0


class TestInducingSelection:
    def test_greedy_first_pick_is_lowest_index(self):
        rng = np.random.default_rng(14)
        data = spread_data(rng, 10)
        Z = data.X[select_inducing_greedy(data, SE1, 3)]
        assert np.array_equal(Z[0], data.X[0])

    def test_greedy_rows_are_distinct_inputs(self):
        rng = np.random.default_rng(15)
        data = spread_data(rng, 15)
        Z = data.X[select_inducing_greedy(data, SE1, 8)]
        assert np.unique(Z, axis=0).shape[0] == 8

    def test_greedy_residual_never_increases(self):
        rng = np.random.default_rng(16)
        data = spread_data(rng, 12)
        Z_full = data.X[select_inducing_greedy(data, SE1, 12)]
        prev = np.inf
        for m in range(1, 13):
            model = fit_svgp_closed_form(data, SE1, 0.2, Z=Z_full[:m])
            theta = trace_residual(data, model)
            assert theta <= prev + 1e-12
            prev = theta

    def test_greedy_m_range_checked(self):
        data = spread_data(np.random.default_rng(17), 5)
        with pytest.raises(InvalidInputError):
            select_inducing_greedy(data, SE1, 6)

    def test_greedy_stop_early_on_duplicated_inputs(self):
        rng = np.random.default_rng(21)
        X = rng.uniform(0, 1, size=(3, 1))[[0, 1, 2, 1, 0, 2, 2, 0]]
        data = Dataset(X, np.zeros(8), 1, 8)
        Z = data.X[select_inducing_greedy(data, SE1, 5)]
        assert Z.shape == (3, 1)
        assert np.array_equal(np.sort(Z, axis=0), np.unique(X, axis=0))
        # only a first pick without variance leaves no set to return
        faint = KernelSpec(family="se", dim=1, lengthscales=(0.3,), variance=1e-13)
        with pytest.raises(NumericalDegeneracyError, match="first pick"):
            select_inducing_greedy(data, faint, 5)

    def test_kmeans_recovers_distinct_points(self):
        rng = np.random.default_rng(18)
        X = rng.uniform(0, 1, size=(7, 2))
        data = Dataset(X, np.zeros(7), 1, 7)
        Z = select_inducing_kmeans(data, 7, seed=5)
        assert np.allclose(np.sort(Z, axis=0), np.sort(X, axis=0), atol=1e-12)

    def test_kmeans_deterministic(self):
        rng = np.random.default_rng(19)
        data = Dataset(rng.uniform(0, 1, size=(30, 2)), np.zeros(30), 1, 30)
        a = select_inducing_kmeans(data, 5, seed=7)
        b = select_inducing_kmeans(data, 5, seed=7)
        assert np.array_equal(a, b)

    def test_kmeans_m_exceeding_distinct_points(self):
        X = np.array([[0.0], [0.0], [1.0]])
        data = Dataset(X, np.zeros(3), 1, 3)
        with pytest.raises(InvalidInputError):
            select_inducing_kmeans(data, 3, seed=0)

    def test_kmeans_centers_reduce_sse(self):
        rng = np.random.default_rng(20)
        X = rng.uniform(0, 1, size=(40, 2))
        data = Dataset(X, np.zeros(40), 1, 40)
        Z = select_inducing_kmeans(data, 4, seed=3)
        d2 = np.sum((X[:, None, :] - Z[None, :, :]) ** 2, axis=2)
        sse = d2.min(axis=1).sum()
        rng_init = np.random.default_rng(99)
        Z0 = X[rng_init.choice(40, 4, replace=False)]
        sse0 = np.sum((X[:, None, :] - Z0[None, :, :]) ** 2, axis=2).min(axis=1).sum()
        assert sse <= sse0 + 1e-9


def reference_kmeans(X, m, seed):
    """(centers, reseeds): Lloyd's rounds through an (n, m, d) broadcast and one
    boolean mask per cluster, the loop select_inducing_kmeans must reproduce
    bit for bit; reseeds counts the emptied clusters it re-seeded.

    A round first gives each emptied cluster, in index order, the row farthest
    from its assigned center among rows whose cluster keeps another member,
    then means every cluster."""
    uniq = np.unique(X, axis=0)
    rng = sgpts.util.rng_from_path(seed, 0x4B4D)
    centers = uniq[rng.choice(uniq.shape[0], size=m, replace=False)]
    assign = np.full(X.shape[0], -1)
    reseeds = 0
    for _ in range(100):
        d2 = np.sum((X[:, None, :] - centers[None, :, :]) ** 2, axis=2)
        new_assign = np.argmin(d2, axis=1)
        if np.array_equal(new_assign, assign):
            break
        assign = new_assign
        for c in range(m):
            if not np.any(assign == c):
                sizes = np.array([np.sum(assign == a) for a in assign])
                dist = d2[np.arange(X.shape[0]), assign]
                worst = int(np.argmax(np.where(sizes > 1, dist, -np.inf)))
                assign[worst] = c
                reseeds += 1
        for c in range(m):
            centers[c] = X[assign == c].mean(axis=0)
    return centers, reseeds


def assert_kmeans_matches_reference(X, m, seed):
    want, reseeds = reference_kmeans(X, m, seed)
    got = select_inducing_kmeans(Dataset(X, np.zeros(X.shape[0]), 1, X.shape[0]), m, seed)
    assert np.array_equal(got, want)
    return reseeds


@pytest.fixture
def fallback_rows(monkeypatch):
    """Rows per round that the k-means assignment took from their exact sums:
    _nearest's fallback calls _sqdist on (rows, 1, d) inputs, the re-seed's
    own distances on (n, d) ones."""
    rows, exact = [], sgpts.svgp._sqdist

    def counted(X, C):
        if X.ndim == 3:
            rows.append(X.shape[0])
        return exact(X, C)

    monkeypatch.setattr(sgpts.svgp, "_sqdist", counted)
    return rows


class TestKmeansBits:
    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 6, 7])
    def test_random_instances(self, d):
        rng = np.random.default_rng(40 + d)
        for k in range(12):
            n = int(rng.integers(2, 250))
            m = int(rng.integers(1, min(n, 100) + 1))
            # alternate spread inputs with tight blobs, whose clusters are uneven
            if k % 2:
                X = rng.uniform(-1.0, 2.0, size=(n, d))
            else:
                X = rng.normal(size=(5, d))[rng.integers(0, 5, n)] + 0.05 * rng.normal(size=(n, d))
            assert_kmeans_matches_reference(X, m, seed=k)

    @pytest.mark.parametrize("d", [1, 3, 6])
    def test_duplicated_rows_with_m_distinct(self, d):
        rng = np.random.default_rng(50 + d)
        base = rng.uniform(0.0, 1.0, size=(9, d))
        X = base[rng.integers(0, 9, 60)]
        m = np.unique(X, axis=0).shape[0]
        for seed in range(4):
            assert_kmeans_matches_reference(X, m, seed)

    def test_emptied_cluster_is_reseeded(self):
        X = np.array([[0.8, 0.8], [0.8, 0.5], [0.3, 0.1], [0.1, 0.3], [0.2, 0.3],
                      [0.9, 0.7], [0.8, 0.1], [0.5, 1.0], [0.2, 0.1]])
        # one round empties a cluster, so the re-seed runs there
        assert assert_kmeans_matches_reference(X, 4, seed=2440) == 1

    def test_clusters_emptied_in_one_round_get_distinct_rows(self):
        # blob instance whose first round empties clusters 1 and 5: re-seeding
        # both from the farthest row overall gave them one row, row 26, and other centers
        rng = np.random.default_rng(1354)
        n, d, k = int(rng.integers(5, 40)), int(rng.integers(1, 5)), int(rng.integers(2, 6))
        X = rng.normal(size=(k, d))[rng.integers(0, k, n)] + 0.05 * rng.normal(size=(n, d))
        m = int(rng.integers(2, 17))
        assert (n, d, m) == (39, 2, 12)
        assert assert_kmeans_matches_reference(X, m, seed=1354) >= 2

    @settings(derandomize=True, deadline=None, max_examples=150)
    @given(n=st.integers(1, 40), d=st.integers(1, 6), m_frac=st.floats(0.0, 1.0),
           levels=st.integers(2, 12), seed=st.integers(0, 2 ** 32 - 1))
    def test_matches_reference_on_lattice_inputs(self, n, d, m_frac, levels, seed):
        # inputs on a coarse lattice: duplicated rows and tied distances are common
        rng = np.random.default_rng(seed)
        X = rng.integers(0, levels, size=(n, d)) / (levels - 1)
        n_distinct = np.unique(X, axis=0).shape[0]
        m = 1 + int(m_frac * (n_distinct - 1))
        assert_kmeans_matches_reference(X, m, seed)

    def test_rows_equidistant_from_two_centers_fall_back(self, fallback_rows):
        # the middle column is as far from the left one as from the right one
        X = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [0.0, 1.0], [1.0, 1.0], [2.0, 1.0]])
        assert_kmeans_matches_reference(X, 2, seed=0)
        assert sum(fallback_rows) == 2
        fallback_rows.clear()
        for centers in ([[0.0, 0.0], [2.0, 0.0]], [[2.0, 0.0], [0.0, 0.0]]):
            assert sgpts.svgp._nearest(X[1:2], np.array(centers)).tolist() == [0]
        assert fallback_rows == [1, 1]

    def test_duplicated_centers_fall_back_to_the_lower_index(self, fallback_rows):
        rng = np.random.default_rng(61)
        X = rng.uniform(0.0, 1.0, size=(50, 3))
        centers = X[[3, 7, 3, 12, 7, 20]]
        want = np.argmin(np.sum((X[:, None, :] - centers[None, :, :]) ** 2, axis=2), axis=1)
        got = sgpts.svgp._nearest(X, centers)
        assert np.array_equal(got, want)
        # every row nearest to center 0 or 1 ties with its copy, 2 or 4
        assert sum(fallback_rows) >= np.isin(want, [0, 1]).sum() > 0
        assert not np.isin(got, [2, 4]).any()

    @pytest.mark.parametrize("d", [1, 3, 6])
    def test_inputs_far_from_the_origin(self, fallback_rows, d):
        # |x|^2 ~ 1e12 d makes E 5e-3 (d = 1) to 9e-2 (d = 6), wider than
        # many gaps between a row's two nearest centers: those rows take
        # their exact sums
        rng = np.random.default_rng(70 + d)
        X = 1e6 + rng.uniform(0.0, 1.0, size=(200, d))
        assert_kmeans_matches_reference(X, 20, seed=d)
        assert sum(fallback_rows) > 200

    @pytest.mark.parametrize("d", [1, 2])
    def test_centers_have_the_sign_of_zero_of_the_mean(self, d):
        # ndarray.mean sums from 0.0, so a cluster whose rows all hold -0.0
        # in a coordinate means to 0.0 there; array_equal cannot tell
        X = np.array([[-0.0, 0.1], [-0.0, 0.3], [1.0, 1.0], [1.0, 0.8], [0.9, 1.0]])[:, :d]
        want, _ = reference_kmeans(X, 2, seed=0)
        got = select_inducing_kmeans(Dataset(X, np.zeros(5), 1, 5), 2, seed=0)
        assert got.tobytes() == want.tobytes() and (got == 0.0).any()

    def test_hartmann6_run_data(self, fallback_rows):
        # the 480 observations of a hartmann6 run before its last refit, at
        # the shipped m = 100: the GEMM decides every row but a few
        cfg = parse_config((REPO / "configs" / "hartmann6.cfg").read_text(),
                           ("grid_cap=8000", "T=24"))
        X = run_sgp_ts(cfg, get_benchmark(cfg.objective), 0).to_dataset().X
        assert X.shape == (480, 6)
        for seed in (0, 1):
            assert_kmeans_matches_reference(X, 100, seed)
        assert sum(fallback_rows) < 0.01 * X.shape[0]


class TestApproximationConstants:
    def test_feature_variant_worked_example(self):
        q = approximation_constants(
            t=1, B=1, m_t=8, tau=1.0, delta=0.05, delta_m=0.005, delta_M=1e-6,
            prec_norm=2.0, variant="features",
        )
        assert np.isclose(q.kappa, 0.01, atol=1e-15)
        assert np.isclose(q.c, 0.1, atol=1e-15)
        assert np.isclose(q.a_over, math.sqrt(1 + math.sqrt(0.03)), atol=1e-12)
        assert np.isclose(q.a_under, 1 / math.sqrt(1 - math.sqrt(0.03)), atol=1e-12)
        assert np.isclose(q.a_over, 1.0831, atol=2e-4)
        assert np.isclose(q.a_under, 1.0998, atol=2e-4)

    def test_points_variant_formula(self):
        q = approximation_constants(
            t=2, B=3, m_t=4, tau=0.5, delta=0.1, delta_m=1e-4, delta_M=1e-5,
            prec_norm=3.0, variant="points", eps0=1e-5,
        )
        want = 2 * 2 * 3 * 5 * 1e-4 / (0.5 * 0.1) + 4 * 2 * 3 * 1e-5 / (0.5 * 0.1)
        assert np.isclose(q.kappa, want, atol=1e-15)
        assert np.isclose(q.eps, math.sqrt(3.0 * 4 * 1e-5), atol=1e-15)

    def test_infeasible_kappa_raises(self):
        with pytest.raises(ExplorationInfeasibleError):
            approximation_constants(
                t=1, B=1, m_t=8, tau=1.0, delta=0.05, delta_m=0.5, delta_M=0.0,
                prec_norm=1.0, variant="features",
            )

    def test_precision_sup_norm(self):
        rng = np.random.default_rng(21)
        data = spread_data(rng, 8)
        model = fit_svgp_closed_form(data, SE1, 0.2, Z=data.X[::2])
        Pinv = np.linalg.inv(kernel_matrix(SE1, model.Z))
        assert np.isclose(precision_sup_norm(model), 1 + np.abs(Pinv).sum(axis=1).max(), atol=1e-7)


def snapshot_models():
    """A fitted model of each variant, on the same kind of data."""
    rng = np.random.default_rng(22)
    data = spread_data(rng, 10)
    fm = mercer_truncate(SE1, 40, [0.0], [1.0])
    return data, {
        "points": fit_svgp_closed_form(data, SE1, 0.2, Z=data.X[::2]),
        "features": fit_svgp_closed_form(data, SE1, 0.3, feature_map=fm, m=10),
    }


def same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class TestSnapshot:
    @staticmethod
    def check_round_trip(variant):
        """The reloaded model has the same defining fields, bit for bit, and predicts the same."""
        data, models = snapshot_models()
        model = models[variant]
        back = load_snapshot(write_snapshot(model))
        assert back.variant == variant
        assert back.spec == model.spec and back.tau == model.tau
        assert back.m_count == model.m_count
        assert same_bits(back.m_vec, model.m_vec)
        assert same_bits(back.S_mat, model.S_mat)
        if variant == "points":
            assert same_bits(back.Z, model.Z)
        else:
            assert back.feature_map.origin == model.feature_map.origin
            assert back.feature_map.count == model.feature_map.count
            assert same_bits(back.feature_map.lambdas, model.feature_map.lambdas)
        Xq = np.random.default_rng(23).uniform(0, 1, size=(6, 1))
        m0, v0 = model.predict(Xq)
        m1, v1 = back.predict(Xq)
        assert np.abs(m0 - m1).max() < 1e-12
        assert np.abs(v0 - v1).max() < 1e-12
        assert np.abs(model.cov(Xq) - back.cov(Xq)).max() < 1e-12
        assert abs(elbo(data, model) - elbo(data, back)) < 1e-12

    def test_points_round_trip(self):
        self.check_round_trip("points")

    def test_features_round_trip(self):
        self.check_round_trip("features")

    def test_matern_spec_and_numpy_scalars_round_trip(self):
        spec = KernelSpec(family="matern", dim=np.int64(2), lengthscales=(0.3, 0.5),
                          nu=np.float64(1.5))
        Z = np.random.default_rng(24).uniform(0, 1, size=(4, 2))
        model = SvgpModel(spec=spec, tau=np.float32(0.1), Z=Z)
        back = load_snapshot(write_snapshot(model))
        assert back.spec == spec and back.tau == model.tau
        assert type(back.spec.dim) is int

    def test_map_not_built_by_mercer_truncate_is_refused(self):
        model = snapshot_models()[1]["features"]
        hand_built = dataclasses.replace(model.feature_map, origin=())
        with pytest.raises(UnsupportedDecompositionError):
            write_snapshot(dataclasses.replace(model, feature_map=hand_built))

    @staticmethod
    def edited(variant, edit):
        doc = json.loads(write_snapshot(snapshot_models()[1][variant]))
        edit(doc)
        return json.dumps(doc)

    @pytest.mark.parametrize("variant", ["points", "features"])
    @pytest.mark.parametrize("edit", [
        lambda d: d["m_vec"].__setitem__(0, "abc"),             # non-numeric entry
        lambda d: d["S_mat"][1].__setitem__(1, None),           # null entry
        lambda d: d["S_mat"][0].__setitem__(0, True),           # boolean entry
        lambda d: d["S_mat"][2].pop(),                          # ragged S_mat
        lambda d: d.__setitem__("S_mat", sum(d["S_mat"], [])),  # flattened S_mat
        lambda d: d["m_vec"].pop(),                             # m_vec of the wrong length
        lambda d: d["kernel"].__setitem__("lengthscale", 0.3),  # unknown kernel key
        lambda d: d["kernel"].__setitem__("dim", "one"),        # kernel field of the wrong type
        lambda d: d.__setitem__("tau", "0.2"),                  # number as a string
        lambda d: d.__setitem__("tau", 10**400),                # integer past the float range
    ], ids=["non-numeric", "null", "boolean", "ragged", "flattened", "short-m",
            "unknown-kernel-key", "kernel-type", "string-tau", "huge-tau"])
    def test_malformed_document_rejected(self, variant, edit):
        with pytest.raises(InvalidInputError):
            load_snapshot(self.edited(variant, edit))

    def test_missing_field_rejected(self):
        for variant, last in (("points", "Z"), ("features", "features")):
            for key in ("tau", "kernel", "m_vec", "S_mat", last):
                with pytest.raises(InvalidInputError):
                    load_snapshot(self.edited(variant, lambda d: d.pop(key)))

    def test_features_fields_checked(self):
        for edit in (lambda d: d["features"].__setitem__("m", 2.5),
                     lambda d: d["features"].__setitem__("count", 0),
                     lambda d: d["features"].pop("lower"),
                     lambda d: d["features"].__setitem__("upper", ["x"])):
            with pytest.raises(InvalidInputError):
                load_snapshot(self.edited("features", edit))

    @pytest.mark.parametrize("text", [
        # the earlier key=value / [block] text format
        "variant=points\ntau=0.2\nkernel.family=se\nkernel.dim=1\n"
        "kernel.lengthscales=0.3\nkernel.variance=1.0\nm_count=1\n"
        "[Z]\n0.5\n[m_vec]\n0.0\n[S_mat]\n1.0\n",
        "variant=points\ntau=0.1\n",
        "",
        "[1, 2]",
        '"snapshot"',
    ])
    def test_non_snapshot_text_rejected(self, text):
        with pytest.raises(InvalidInputError):
            load_snapshot(text)
