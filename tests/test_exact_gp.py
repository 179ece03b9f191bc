import math

import numpy as np
import pytest
from scipy.linalg import cholesky, solve_triangular
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from sgpts.errors import InvalidInputError
from sgpts.exact_gp import (
    Dataset,
    batch_sigma_bound,
    concentration_radius,
    fit_exact,
    gamma_bound,
    information_gain,
    information_gain_points,
)
from sgpts.kernels import KernelSpec, kernel_matrix
from sgpts.util import JITTER, chol_psd


def make_data(rng, n=12, dim=1, bsz=1):
    steps = n // bsz
    X = rng.uniform(-1, 1, size=(steps * bsz, dim))
    y = rng.normal(size=steps * bsz)
    return Dataset(X, y, bsz, steps)


def dense_oracle(data, spec, tau, Xq):
    """Direct dense-solve posterior, no Cholesky reuse."""
    K = kernel_matrix(spec, data.X) + tau * np.eye(data.n)
    Ks = kernel_matrix(spec, data.X, Xq)
    Kss = kernel_matrix(spec, Xq)
    mean = Ks.T @ np.linalg.solve(K, data.y)
    cov = Kss - Ks.T @ np.linalg.solve(K, Ks)
    return mean, np.diag(cov)


class TestPosterior:
    @pytest.mark.parametrize("family,nu", [("se", None), ("matern", 1.5), ("matern", 2.5)])
    def test_matches_dense_solve(self, family, nu):
        rng = np.random.default_rng(1)
        for trial in range(10):
            dim = int(rng.integers(1, 4))
            spec = KernelSpec(
                family=family, dim=dim, lengthscales=(0.5,) * dim, variance=0.9, nu=nu
            )
            data = make_data(rng, n=int(rng.integers(3, 30)), dim=dim)
            tau = float(rng.uniform(0.05, 1.0))
            post = fit_exact(data, spec, tau)
            Xq = rng.uniform(-1, 1, size=(7, dim))
            mean, var = post.predict(Xq)
            om, ov = dense_oracle(data, spec, tau, Xq)
            assert np.abs(mean - om).max() <= 1e-8
            assert np.abs(var - ov).max() <= 1e-8

    def test_empty_dataset_gives_prior(self):
        spec = KernelSpec(family="se", dim=2, lengthscales=(0.5, 0.5), variance=0.8)
        post = fit_exact(Dataset.empty(2, 3), spec, 0.1)
        mean, var = post.predict(np.array([[0.1, 0.2], [0.5, -0.5]]))
        assert np.array_equal(mean, np.zeros(2))
        assert np.allclose(var, 0.8, atol=1e-14)

    def test_interpolates_at_low_noise(self):
        # well-separated inputs keep the gram eigenvalues clear of the noise floor
        rng = np.random.default_rng(2)
        X = np.linspace(-1, 1, 6).reshape(-1, 1)
        data = Dataset(X, rng.normal(size=6), 1, 6)
        spec = KernelSpec(family="se", dim=1, lengthscales=(0.3,))
        post = fit_exact(data, spec, 1e-8)
        mean, var = post.predict(data.X)
        assert np.abs(mean - data.y).max() < 1e-4
        assert var.max() < 1e-4

    def test_variance_never_negative(self):
        rng = np.random.default_rng(3)
        data = make_data(rng, n=25)
        post = fit_exact(data, KernelSpec(family="se", dim=1, lengthscales=(0.4,)), 0.2)
        _, var = post.predict(np.vstack([data.X, rng.uniform(-1, 1, size=(50, 1))]))
        assert var.min() >= 0.0

    def test_nested_data_shrinks_variance(self):
        rng = np.random.default_rng(4)
        spec = KernelSpec(family="matern", dim=1, lengthscales=(0.5,), nu=2.5)
        data = make_data(rng, n=20, bsz=2)
        grid = np.linspace(-1, 1, 100).reshape(-1, 1)
        prev = np.full(100, np.inf)
        for t in range(data.steps + 1):
            _, var = fit_exact(data.prefix(t), spec, 0.3).predict(grid)
            assert np.all(np.sqrt(var) <= np.sqrt(prev) + 1e-10)
            prev = var

    def test_rejects_nonfinite(self):
        X = np.array([[0.0], [1.0]])
        y = np.array([1.0, np.nan])
        with pytest.raises(InvalidInputError):
            fit_exact(Dataset(X, y, 1, 2), KernelSpec(family="se", dim=1, lengthscales=(0.5,)), 0.1)

    def test_log_marginal_matches_dense_formula(self):
        rng = np.random.default_rng(5)
        data = make_data(rng, n=9)
        spec = KernelSpec(family="se", dim=1, lengthscales=(0.7,))
        tau = 0.15
        post = fit_exact(data, spec, tau)
        K = kernel_matrix(spec, data.X) + tau * np.eye(data.n)
        want = -0.5 * data.y @ np.linalg.solve(K, data.y)
        want -= 0.5 * np.linalg.slogdet(K)[1] + 0.5 * data.n * math.log(2 * math.pi)
        assert np.isclose(post.log_marginal(), want, atol=1e-9)


class TestInPlaceBits:
    """K + tau I and I + K / tau are built in place in the one n x n kernel
    matrix; gamma and the posterior must keep the bits of the out-of-place
    expressions, on random inputs and on inputs that repeat every point (a
    singular K)."""

    @pytest.mark.parametrize("spec", [
        KernelSpec(family="se", dim=2, lengthscales=(0.5, 0.8), variance=0.9),
        KernelSpec(family="matern", dim=1, lengthscales=(0.3,), nu=2.5),
        KernelSpec(family="matern", dim=3, lengthscales=(0.7,) * 3, nu=1.5, variance=0.6),
    ], ids=["se2", "m25", "m15-3d"])
    @pytest.mark.parametrize("n", [1, 2, 40, 301])
    @pytest.mark.parametrize("tau", [1e-6, 0.05, 0.7])
    @pytest.mark.parametrize("duplicated", [False, True], ids=["random", "duplicated"])
    def test_match_out_of_place_expressions(self, spec, n, tau, duplicated):
        rng = np.random.default_rng(n)
        X = rng.uniform(-1.0, 1.0, size=(n, spec.dim))
        if duplicated:
            X[n // 2:] = X[: n - n // 2]
        y, Xq = rng.normal(size=n), rng.uniform(-1.0, 1.0, size=(9, spec.dim))
        K = kernel_matrix(spec, X)
        gamma = float(np.sum(np.log(np.diag(chol_psd(np.eye(n) + K / tau)))))
        assert information_gain_points(X, spec, tau) == gamma
        post = fit_exact(Dataset(X, y, 1, n), spec, tau)
        L = chol_psd(K + tau * np.eye(n))
        alpha = solve_triangular(L.T, solve_triangular(L, y, lower=True), lower=False)
        Kxs = kernel_matrix(spec, X, Xq)
        V = solve_triangular(L, Kxs, lower=True)
        mean, var = post.predict(Xq)
        assert mean.tobytes() == (Kxs.T @ alpha).tobytes()
        assert var.tobytes() == np.maximum(spec.variance - np.sum(V * V, axis=0), 0.0).tobytes()


def repeated_rows_6d():
    X = np.random.default_rng(0).uniform(size=(30, 6))
    X[20:] = X[:10]
    return X


class TestCholPsdRetry:
    """The jitter retry factors a copy with JITTER added to its diagonal in
    place; the factor keeps the bits of cholesky(mat + JITTER * I)."""

    @pytest.mark.parametrize("mat", [
        kernel_matrix(KernelSpec(family="se", dim=1, lengthscales=(0.3,)),
                      np.array([[0.1], [0.1], [0.5]])),
        kernel_matrix(KernelSpec(family="se", dim=6, lengthscales=(0.5,) * 6), repeated_rows_6d()),
        kernel_matrix(KernelSpec(family="matern", dim=6, lengthscales=(1.0,) * 6, nu=2.5),
                      repeated_rows_6d()),
        np.array([[1.0, 1.0, -0.0], [1.0, 1.0, -0.0], [-0.0, -0.0, 1.0]]),
    ], ids=["1d-pair", "6d-se", "6d-matern", "negative-zeros"])
    def test_retry_keeps_the_jittered_sum_bits(self, mat):
        with pytest.raises(np.linalg.LinAlgError):
            cholesky(mat, lower=True)
        before = mat.copy()
        L = chol_psd(mat)
        assert L.tobytes() == cholesky(mat + JITTER * np.eye(mat.shape[0]), lower=True).tobytes()
        assert mat.tobytes() == before.tobytes()


class TestDataset:
    def test_append_batch_increments_steps(self):
        d0 = Dataset.empty(2, 3)
        d1 = d0.append_batch(np.zeros((3, 2)), np.zeros(3))
        assert (d0.steps, d1.steps) == (0, 1)
        assert d1.n == 3

    def test_append_shape_checked(self):
        with pytest.raises(InvalidInputError):
            Dataset.empty(2, 3).append_batch(np.zeros((2, 2)), np.zeros(2))


class TestInformationGain:
    def test_matches_slogdet_oracle(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            spec = KernelSpec(family="se", dim=2, lengthscales=(0.5, 0.8))
            data = make_data(rng, n=15, dim=2)
            tau = float(rng.uniform(0.05, 0.8))
            want = 0.5 * np.linalg.slogdet(
                np.eye(data.n) + kernel_matrix(spec, data.X) / tau
            )[1]
            assert np.isclose(information_gain(data, spec, tau), want, atol=1e-9)

    def test_empty_is_zero(self):
        spec = KernelSpec(family="se", dim=1, lengthscales=(0.5,))
        assert information_gain(Dataset.empty(1, 1), spec, 0.1) == 0.0

    @pytest.mark.parametrize("tau", [0.0, -0.1])
    def test_nonpositive_tau_rejected_on_empty_data(self, tau):
        spec = KernelSpec(family="se", dim=1, lengthscales=(0.5,))
        with pytest.raises(InvalidInputError, match="tau"):
            information_gain(Dataset.empty(1, 1), spec, tau)
        with pytest.raises(InvalidInputError, match="tau"):
            information_gain_points(np.empty((0, 1)), spec, tau)

    def test_flat_points_read_as_kernel_matrix_reads_them(self):
        # a flat array of 1-d points, and one 2-d point given flat
        se1 = KernelSpec(family="se", dim=1, lengthscales=(0.5,))
        se2 = KernelSpec(family="se", dim=2, lengthscales=(0.5, 0.8))
        for spec, flat in ((se1, np.array([0.1, 0.5])), (se1, [0.3]), (se2, [0.1, 0.5])):
            col = np.reshape(flat, (-1, spec.dim))
            assert kernel_matrix(spec, flat).shape == (col.shape[0],) * 2
            got = information_gain_points(flat, spec, 0.1)
            assert got == information_gain_points(col, spec, 0.1)
            K = kernel_matrix(spec, col)
            want = 0.5 * np.linalg.slogdet(np.eye(K.shape[0]) + K / 0.1)[1]
            assert np.isclose(got, want, atol=1e-12)
        with pytest.raises(InvalidInputError, match="tau"):
            information_gain_points(np.array([[np.nan]]), se1, 0.0)

    def test_monotone_in_data(self):
        rng = np.random.default_rng(9)
        spec = KernelSpec(family="matern", dim=1, lengthscales=(0.4,), nu=1.5)
        data = make_data(rng, n=10, bsz=2)
        gains = [information_gain(data.prefix(t), spec, 0.2) for t in range(6)]
        assert all(b >= a - 1e-12 for a, b in zip(gains, gains[1:]))


class TestEnvelopes:
    def test_se_envelope_value(self):
        spec = KernelSpec(family="se", dim=1, lengthscales=(0.5,))
        assert np.isclose(gamma_bound(spec, math.e ** 2), 4.0, atol=1e-12)

    def test_matern_envelope_value(self):
        spec = KernelSpec(family="matern", dim=1, lengthscales=(0.5,), nu=2.5)
        want = 64 ** (1.0 / 6.0) * math.log(64)
        assert np.isclose(gamma_bound(spec, 64), want, atol=1e-12)

    def test_small_s_rejected(self):
        spec = KernelSpec(family="se", dim=1, lengthscales=(0.5,))
        with pytest.raises(InvalidInputError):
            gamma_bound(spec, 1.5)

    def test_envelope_eventually_dominates_realized(self):
        # realized gain on a fixed grid grows slower than the envelope
        rng = np.random.default_rng(10)
        spec = KernelSpec(family="se", dim=1, lengthscales=(0.3,))
        X = rng.uniform(0, 1, size=(200, 1))
        data = Dataset(X, np.zeros(200), 1, 200)
        realized = information_gain(data, spec, 0.5)
        assert realized <= gamma_bound(spec, 200) * 10  # sanity scale check


class TestConcentrationRadius:
    def test_worked_value(self):
        # B=1, R=1, gamma=0, delta=1/e, a=1, c=0: 1 + sqrt(2*(0+1+1)) = 3
        assert np.isclose(
            concentration_radius(1.0, 1.0, 0.0, 1.0 / math.e, 1.0, 0.0), 3.0, atol=1e-12
        )

    def test_monotone_in_gamma_and_delta(self):
        base = concentration_radius(1.0, 1.0, 1.0, 0.1, 1.0, 0.0)
        assert concentration_radius(1.0, 1.0, 2.0, 0.1, 1.0, 0.0) > base
        assert concentration_radius(1.0, 1.0, 1.0, 0.01, 1.0, 0.0) > base

    def test_delta_range_checked(self):
        with pytest.raises(InvalidInputError):
            concentration_radius(1.0, 1.0, 1.0, 1.5, 1.0, 0.0)


class TestBatchSigmaBound:
    @pytest.mark.parametrize("seed", range(5))
    def test_holds_on_random_sequences(self, seed):
        rng = np.random.default_rng(seed)
        spec = KernelSpec(family="se", dim=2, lengthscales=(0.4, 0.4))
        data = make_data(rng, n=24, dim=2, bsz=4)
        lhs, rhs = batch_sigma_bound(data, spec, 0.3)
        assert lhs <= rhs + 1e-9
        assert lhs > 0

    def test_empty_run(self):
        spec = KernelSpec(family="se", dim=1, lengthscales=(0.5,))
        assert batch_sigma_bound(Dataset.empty(1, 2), spec, 0.1) == (0.0, 0.0)
