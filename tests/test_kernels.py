import dataclasses
import heapq
import inspect
import math
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sgpts import util
from sgpts.errors import InvalidInputError, NumericalDegeneracyError, UnsupportedDecompositionError
from sgpts.kernels import (
    _COPY_BLOCK,
    _MEMO_SLOTS,
    FeatureMap,
    KernelSpec,
    _axis_sup,
    _blocks,
    _scaled_sqdist,
    kernel_matrix,
    mercer_truncate,
    rff_sample,
    tail_mass,
)


def eval_kernel(spec, x, x2):
    """Kernel value at a single pair of points."""
    return float(kernel_matrix(spec, x, x2)[0, 0])


def reconstruct(fm, X):
    """Kernel matrix implied by the truncated expansion."""
    F = fm.features(X).T
    return (F * fm.lambdas) @ F.T


def se(dim=1, ls=0.5, var=1.0):
    return KernelSpec(family="se", dim=dim, lengthscales=(ls,) * dim, variance=var)


def matern(nu, dim=1, ls=1.0, var=1.0):
    return KernelSpec(family="matern", dim=dim, lengthscales=(ls,) * dim, variance=var, nu=nu)


class TestClosedForms:
    def test_se_unit_distance(self):
        # r = |0-1|/0.5 = 2, k = exp(-r^2/2) = exp(-2)
        assert np.isclose(eval_kernel(se(ls=0.5), [0.0], [1.0]), math.exp(-2.0), atol=1e-12)

    def test_matern25_unit_distance(self):
        want = (1.0 + math.sqrt(5.0) + 5.0 / 3.0) * math.exp(-math.sqrt(5.0))
        assert np.isclose(eval_kernel(matern(2.5), [0.0], [1.0]), want, atol=1e-12)

    def test_matern15_direct_formula(self):
        r = 0.7
        want = 0.8 * (1.0 + math.sqrt(3.0) * r) * math.exp(-math.sqrt(3.0) * r)
        got = eval_kernel(matern(1.5, var=0.8), [0.0], [r])
        assert np.isclose(got, want, atol=1e-12)

    def test_anisotropic_lengthscales(self):
        spec = KernelSpec(family="se", dim=2, lengthscales=(0.5, 2.0))
        r2 = (1.0 / 0.5) ** 2 + (1.0 / 2.0) ** 2
        assert np.isclose(eval_kernel(spec, [0.0, 0.0], [1.0, 1.0]), math.exp(-r2 / 2), atol=1e-12)

    def test_diagonal_equals_variance(self):
        for spec in (se(var=0.3), matern(1.5, var=0.9), matern(2.5)):
            assert np.isclose(eval_kernel(spec, [0.2], [0.2]), spec.variance, atol=1e-14)


class TestSpecValidation:
    def test_variance_cap(self):
        with pytest.raises(InvalidInputError):
            KernelSpec(family="se", dim=1, lengthscales=(0.5,), variance=1.5)

    def test_matern_nu_whitelist(self):
        with pytest.raises(InvalidInputError):
            KernelSpec(family="matern", dim=1, lengthscales=(0.5,), nu=0.5)

    def test_nonpositive_lengthscale(self):
        with pytest.raises(InvalidInputError):
            KernelSpec(family="se", dim=1, lengthscales=(0.0,))

    def test_bad_family(self):
        with pytest.raises(InvalidInputError):
            KernelSpec(family="rq", dim=1, lengthscales=(0.5,))

    @pytest.mark.parametrize("dim", [2.0, 1.5, True], ids=["float", "fraction", "bool"])
    def test_dim_must_be_an_integer(self, dim):
        with pytest.raises(InvalidInputError, match="dim must be an integer"):
            KernelSpec(family="se", dim=dim, lengthscales=(0.3,))


def test_gram_psd_random_sets():
    # min eigenvalue >= -1e-10 across families and dimensions
    rng = np.random.default_rng(7)
    for spec in (se(dim=3, ls=0.4), matern(1.5, dim=2, ls=0.7), matern(2.5, dim=1, ls=0.3)):
        X = rng.uniform(-1, 1, size=(40, spec.dim))
        w = np.linalg.eigvalsh(kernel_matrix(spec, X))
        assert w.min() >= -1e-10


def test_kernel_bounded_by_variance():
    rng = np.random.default_rng(8)
    spec = se(dim=2, ls=0.3, var=0.7)
    X = rng.uniform(-2, 2, size=(30, 2))
    K = kernel_matrix(spec, X)
    assert K.max() <= spec.variance + 1e-12


class TestMercer:
    def test_reconstruction_bulk_1d(self):
        # 50 random pairs in the central half of [0,1], M=8, tol 1e-3
        spec = se(ls=0.3)
        fm = mercer_truncate(spec, 8, [0.0], [1.0])
        rng = np.random.default_rng(11)
        x = rng.uniform(0.25, 0.75, size=(50, 1))
        y = rng.uniform(0.25, 0.75, size=(50, 1))
        rec = np.sum(fm.lambdas * fm.features(x).T * fm.features(y).T, axis=1)
        exact = np.array([eval_kernel(spec, xi, yi) for xi, yi in zip(x, y)])
        assert np.abs(rec - exact).max() <= 1e-3

    def test_reconstruction_converges_with_m(self):
        spec = se(ls=0.25)
        grid = np.linspace(0, 1, 40).reshape(-1, 1)
        exact = kernel_matrix(spec, grid)
        errs = []
        for M in (4, 16, 64):
            fm = mercer_truncate(spec, M, [0.0], [1.0])
            errs.append(np.abs(reconstruct(fm, grid) - exact).max())
        assert errs[0] > errs[1] > errs[2]
        assert errs[2] < 1e-8

    def test_tensor_products_match_enumeration_oracle(self):
        # d=2: brute-force all order pairs (i,j), sort products, compare top-4
        spec = KernelSpec(family="se", dim=2, lengthscales=(0.4, 0.6))
        fm = mercer_truncate(spec, 4, [0.0, 0.0], [1.0, 1.0])

        def axis_lams(ls, n=12):
            eps2 = 1.0 / (2 * ls * ls)
            a2 = 1.0 / (2 * 0.25 ** 2)
            beta = (1 + 4 * eps2 / a2) ** 0.25
            delta2 = 0.5 * a2 * (beta ** 2 - 1)
            denom = a2 + delta2 + eps2
            return math.sqrt(a2 / denom) * (eps2 / denom) ** np.arange(n)

        la, lb = axis_lams(0.4), axis_lams(0.6)
        prods = np.sort(np.outer(la, lb).ravel())[::-1]
        assert np.allclose(fm.lambdas, prods[:4], rtol=1e-12)

    def test_lambda_decay_1d_is_geometric(self):
        fm = mercer_truncate(se(ls=0.3), 30, [0.0], [1.0])
        ratios = fm.lambdas[1:] / fm.lambdas[:-1]
        assert np.allclose(ratios, ratios[0], rtol=1e-10)
        assert 0 < ratios[0] < 1

    def test_lambda_decay_rate_2d(self):
        # eigenvalue j should fall like exp(-c j^(1/d)); check the trend
        spec = KernelSpec(family="se", dim=2, lengthscales=(0.4, 0.4))
        fm = mercer_truncate(spec, 60, [0.0, 0.0], [1.0, 1.0])
        lam = fm.lambdas
        assert np.all(np.diff(lam) <= 1e-15)
        j = np.arange(1, 61)
        slope = np.polyfit(np.sqrt(j[9:]), np.log(lam[9:]), 1)[0]
        assert slope < -0.5

    def test_matern_has_no_expansion(self):
        with pytest.raises(UnsupportedDecompositionError):
            mercer_truncate(matern(2.5), 8, [0.0], [1.0])

    def test_truncation_error_at_diagonal_below_tail_mass(self):
        spec = se(ls=0.3)
        fm = mercer_truncate(spec, 64, [0.0], [1.0])
        M = 10
        grid = np.linspace(0, 1, 101).reshape(-1, 1)
        F = fm.features(grid).T
        resid = spec.variance - np.sum(fm.lambdas[:M] * F[:, :M] ** 2, axis=1)
        direct_tail = np.sum(fm.lambdas[M:] * F[:, M:] ** 2, axis=1)
        # residual at x=x' equals the tail sum, and both sit under the bound
        assert np.allclose(resid, direct_tail, atol=1e-10)
        assert resid.max() <= tail_mass(fm, M) + 1e-12


def reference_walk(fm, M):
    """(index, lambdas) of the best-first walk that pushes a tuple from each
    of its parents, skipping the ones already seen, with np.prod products."""
    per_dim = [ax.lambdas(M) for ax in fm._axes]
    d = len(per_dim)
    start = (0,) * d
    heap = [(-float(np.prod([per_dim[i][0] for i in range(d)])), start)]
    seen = {start}
    rows, lams = [], []
    while heap and len(rows) < M:
        neg, idx = heapq.heappop(heap)
        rows.append(idx)
        lams.append(-neg)
        for axis in range(d):
            if idx[axis] + 1 >= M:
                continue
            nxt = idx[:axis] + (idx[axis] + 1,) + idx[axis + 1:]
            if nxt in seen:
                continue
            seen.add(nxt)
            heapq.heappush(heap, (-float(np.prod([per_dim[i][nxt[i]] for i in range(d)])), nxt))
    return np.asarray(rows, dtype=int), np.asarray(lams)


def walk_specs():
    """(spec, M) pairs: anisotropic and isotropic (tied products) at d = 1, 2,
    3, 6 and six sizes, then long lengthscales, whose per-axis eigenvalues
    underflow to 0.0.  The last two pairs select products that tie at 0.0:
    78 of them at d = 1, lengthscale 2.0, and 77 at d = 2, lengthscale 1e5."""
    cases = []
    for d in (1, 2, 3, 6):
        for M in (1, 2, 3, 64, 257, 512):
            cases.append((KernelSpec(family="se", dim=d,
                                     lengthscales=tuple(0.2 + 0.15 * i for i in range(d))), M))
            cases.append((se(dim=d, ls=0.3), M))
    return cases + [(se(dim=2, ls=2.0), 257), (se(dim=2, ls=2.0), 512),
                    (se(ls=2.0), 256), (se(dim=2, ls=1e5), 512)]


class TestMercerWalk:
    @pytest.mark.parametrize("spec, M", walk_specs(),
                             ids=lambda v: f"M{v}" if isinstance(v, int) else
                             f"d{v.dim}-" + "-".join(f"{ls:g}" for ls in v.lengthscales))
    def test_walk_matches_the_seen_set_reference(self, spec, M):
        # same tuples in the same order, same eigenvalue bits
        fm = mercer_truncate(spec, M, [0.0] * spec.dim, [1.0] * spec.dim)
        index, lams = reference_walk(fm, M)
        assert fm._index.tobytes() == index.tobytes() and fm._index.shape == index.shape
        assert fm.lambdas.tobytes() == (spec.variance * lams).tobytes()

    def test_underflow_cases_tie_at_zero(self):
        # the last two cases above do select products of 0.0
        for (spec, M), zeros in zip(walk_specs()[-2:], (78, 77)):
            fm = mercer_truncate(spec, M, [0.0] * spec.dim, [1.0] * spec.dim)
            assert np.count_nonzero(fm.lambdas == 0.0) == zeros


class TestRff:
    def test_zero_lag_identity_even_m(self):
        spec = se(ls=0.5, var=0.6)
        fm = rff_sample(spec, 2000, seed=3)
        x = np.array([[0.3], [0.9], [-1.2]])
        F = fm.features(x).T
        assert np.allclose(np.sum(F * F, axis=1), spec.variance, atol=1e-12)

    def test_monte_carlo_reconstruction(self):
        spec = matern(2.5, dim=2, ls=0.8)
        fm = rff_sample(spec, 4000, seed=5)
        rng = np.random.default_rng(17)
        X = rng.uniform(-1, 1, size=(40, 2))
        err = np.abs(reconstruct(fm, X) - kernel_matrix(spec, X))
        assert np.median(err) < 0.05

    def test_error_shrinks_with_m(self):
        # median error over 100 pairs, M=4000 vs M=250, same seed
        spec = se(dim=1, ls=0.4)
        rng = np.random.default_rng(23)
        x = rng.uniform(-1, 1, size=(100, 1))
        y = rng.uniform(-1, 1, size=(100, 1))
        exact = np.array([eval_kernel(spec, a, b) for a, b in zip(x, y)])

        def med_err(M):
            fm = rff_sample(spec, M, seed=9)
            rec = np.sum(fm.features(x).T * fm.features(y).T, axis=1)
            return np.median(np.abs(rec - exact))

        assert med_err(4000) < med_err(250)

    def test_deterministic_in_seed(self):
        spec = matern(1.5, dim=3, ls=0.5)
        a = rff_sample(spec, 64, seed=42)
        b = rff_sample(spec, 64, seed=42)
        X = np.random.default_rng(0).uniform(-1, 1, size=(10, 3))
        assert np.array_equal(a.features(X), b.features(X))
        c = rff_sample(spec, 64, seed=43)
        assert not np.array_equal(a.features(X), c.features(X))

    def test_lambdas_are_ones(self):
        fm = rff_sample(se(), 32, seed=1)
        assert np.array_equal(fm.lambdas, np.ones(32))


class TestTailMass:
    def geometric_map(self, count=60):
        lam = 2.0 ** -np.arange(count)
        return FeatureMap(
            kind="mercer",
            dim=1,
            lambdas=lam,
            sup_bounds=np.ones(count),
        )

    def test_geometric_series_closes_to_one(self):
        # lambda_j = 2^-(j-1), sup=1, M=1: body 1 - 2^-59 plus remainder 2^-59
        fm = self.geometric_map()
        assert tail_mass(fm, 1) == 1.0

    def test_monotone_in_m(self):
        fm = self.geometric_map()
        vals = [tail_mass(fm, M) for M in range(1, 12)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_real_map_tail_bounds_truncation(self):
        fm = mercer_truncate(se(ls=0.35), 80, [0.0], [1.0])
        tm = tail_mass(fm, 12)
        direct = np.sum(fm.lambdas[12:] * fm.sup_bounds[12:] ** 2)
        assert tm >= direct > 0

    @pytest.mark.filterwarnings("error")
    def test_underflowed_spectrum_closes_at_its_body(self):
        # a long lengthscale's last terms underflow to 0.0: no ratio to continue
        fm = mercer_truncate(se(ls=5.0), 128, [0.0], [1.0])
        terms = fm.lambdas * fm.sup_bounds ** 2
        assert terms[-1] == 0.0
        for m in (14, 127):
            assert tail_mass(fm, m) == float(np.sum(terms[m:]))

    def test_non_finite_tail_raises(self):
        fm = FeatureMap(kind="mercer", dim=1, lambdas=np.array([1.0, 1.0, np.inf, 1.0]),
                        sup_bounds=np.ones(4))
        with pytest.raises(NumericalDegeneracyError, match="tail mass"):
            tail_mass(fm, 1)

    def test_rff_rejected(self):
        with pytest.raises(UnsupportedDecompositionError):
            tail_mass(rff_sample(se(), 16, seed=0), 4)

    def test_bad_ranges(self):
        fm = self.geometric_map()
        with pytest.raises(InvalidInputError):
            tail_mass(fm, fm.count)
        with pytest.raises(InvalidInputError):
            tail_mass(fm, -1)

    def test_sup_bounds_length_checked(self):
        lam = 2.0 ** -np.arange(60)
        for sup in (np.ones(1), np.ones(59), np.ones((60, 1))):
            with pytest.raises(InvalidInputError, match="sup_bounds"):
                FeatureMap(kind="mercer", dim=1, lambdas=lam, sup_bounds=sup)


# Column-at-a-time feature maps: the expressions the in-place, row-major
# evaluation in sgpts.kernels must reproduce bit for bit.

def reference_hermite_psi(z, orders):
    out = np.empty((z.size, orders))
    out[:, 0] = 1.0
    if orders > 1:
        out[:, 1] = z * math.sqrt(2.0)
    for n in range(1, orders - 1):
        out[:, n + 1] = z * math.sqrt(2.0 / (n + 1)) * out[:, n] - math.sqrt(
            n / (n + 1.0)
        ) * out[:, n - 1]
    return out


def reference_phis(ax, x, orders):
    r = np.asarray(x, dtype=float) - ax.center
    psi = reference_hermite_psi(math.sqrt(ax.a2) * ax.beta * r, orders)
    return math.sqrt(ax.beta) * np.exp(-ax.delta2 * r * r)[:, None] * psi


def reference_mercer(spec, fm, X, lo, hi):
    """(lambdas, sup_bounds, features) of fm, recomputed from its axes and index."""
    index = fm._index
    lambdas = np.ones(fm.count)
    for axis, ax in enumerate(fm._axes):
        lambdas *= ax.lambdas(fm.count)[index[:, axis]]
    sup, feats = np.ones(fm.count), np.ones((X.shape[0], fm.count))
    for axis, ax in enumerate(fm._axes):
        orders = int(index[:, axis].max()) + 1
        grid = np.linspace(lo[axis], hi[axis], 10_000)
        sup *= np.abs(reference_phis(ax, grid, orders)).max(axis=0)[index[:, axis]]
        feats *= reference_phis(ax, X[:, axis], orders)[:, index[:, axis]]
    return spec.variance * lambdas, sup, feats


def reference_rff_features(fm, X):
    z = X @ fm._freqs.T
    n_pair = fm._freqs.shape[0] if fm.count % 2 == 0 else fm._freqs.shape[0] - 1
    cols = np.empty((X.shape[0], fm.count))
    cols[:, 0 : 2 * n_pair : 2] = np.cos(z[:, :n_pair])
    cols[:, 1 : 2 * n_pair : 2] = np.sin(z[:, :n_pair])
    if fm.count % 2 == 1:
        cols[:, -1] = np.cos(z[:, -1] + fm._phase)
    return fm._amp * cols


class TestFeatureLayerBits:
    @pytest.mark.parametrize("spec, M, lo, hi", [
        (se(ls=0.2, var=0.7), 1, [0.0], [1.0]),
        (se(ls=0.2, var=0.7), 2, [0.0], [1.0]),
        (se(ls=0.2, var=0.7), 3, [0.0], [1.0]),
        (se(ls=0.1), 256, [0.0], [1.0]),
        (KernelSpec(family="se", dim=3, lengthscales=(0.3, 0.7, 1.5)), 200,
         [0.0, -1.0, 2.0], [1.0, 1.0, 5.0]),
    ], ids=["M1", "M2", "M3", "M256", "3d-anisotropic"])
    def test_mercer_matches_column_reference(self, spec, M, lo, hi):
        fm = mercer_truncate(spec, M, lo, hi)
        # points inside the box and up to half a side beyond it
        lo_a, hi_a = np.asarray(lo), np.asarray(hi)
        half = 0.5 * (hi_a - lo_a)
        X = np.random.default_rng(31).uniform(lo_a - half, hi_a + half, size=(300, spec.dim))
        assert np.any((X < lo_a) | (X > hi_a))
        lambdas, sup, feats = reference_mercer(spec, fm, X, lo_a, hi_a)
        assert np.array_equal(fm.lambdas, lambdas)
        assert np.array_equal(fm.sup_bounds, sup)
        assert np.array_equal(fm.features(X), feats.T)

    @pytest.mark.parametrize("spec, M, lo, hi", [
        (se(ls=0.05), 256, [0.0], [1.0]),
        (KernelSpec(family="se", dim=3, lengthscales=(0.3, 0.7, 1.5)), 200,
         [0.0, -1.0, 2.0], [1.0, 1.0, 5.0]),
    ], ids=["1d-M256", "3d-anisotropic"])
    def test_mercer_rows_are_row_stable(self, spec, M, lo, hi):
        # a run copies the features of its queried points from the rows of
        # its grid's features; that needs every row to round as when alone
        fm = mercer_truncate(spec, M, lo, hi)
        P = np.random.default_rng(41).uniform(lo, hi, size=(1999, spec.dim))
        F = fm.features(P)
        picks = np.random.default_rng(42).integers(0, 1999, size=257)
        for idx in ([0], [1], [2], [3], [1001], [1998], [7, 7, 7],
                    [1998, 3, 1998, 0, 3], picks):
            assert np.array_equal(F[:, idx], fm.features(P[idx]))

    def test_cached_sup_search_matches_a_fresh_one(self):
        # the second build reads the per-axis sup vectors from the cache
        spec = KernelSpec(family="se", dim=3, lengthscales=(0.3, 0.7, 1.5))
        lo, hi = np.array([0.0, -1.0, 2.0]), np.array([1.0, 1.0, 5.0])
        mercer_truncate(spec, 200, lo, hi)
        hits = _axis_sup.cache_info().hits
        fm = mercer_truncate(spec, 200, lo, hi)
        assert _axis_sup.cache_info().hits == hits + 3
        assert np.array_equal(fm.sup_bounds, reference_mercer(spec, fm, lo[None, :], lo, hi)[1])
        sup = _axis_sup(0.3, 0.0, 1.0, 5)
        assert not sup.flags.writeable

    def test_phis_are_contiguous_orders_by_n_rows(self):
        ax = mercer_truncate(se(ls=0.2), 5, [0.0], [1.0])._axes[0]
        x = np.linspace(-0.5, 1.5, 7)
        got = ax.phis(x, 5)
        assert got.shape == (5, 7) and got.flags.c_contiguous
        assert np.array_equal(got, reference_phis(ax, x, 5).T)

    @pytest.mark.parametrize("M", [1, 2, 511, 512])
    @pytest.mark.parametrize("spec", [se(dim=6, ls=0.3, var=0.8), matern(2.5, dim=6, ls=0.4)],
                             ids=["se", "matern"])
    def test_rff_matches_column_reference(self, spec, M):
        fm = rff_sample(spec, M, seed=13)
        X = np.random.default_rng(37).uniform(-1.0, 2.0, size=(257, 6))
        F = fm.features(X)
        assert F.flags.c_contiguous
        assert np.array_equal(F, reference_rff_features(fm, X).T)

    @pytest.mark.parametrize("M", [128, 129, 511, 512])
    @pytest.mark.parametrize("n", [1, 2, 129, 130, 257, 12289])
    def test_rff_blocks_match_one_product(self, monkeypatch, n, M):
        # the phases go _COPY_BLOCK points at a time; their rows must have the
        # bits of the one X @ freqs^T product.  A one-point tail (129, 257, and
        # 12289's third chunk of 4097 points) joins the block before it
        fm = rff_sample(se(dim=6, ls=0.3, var=0.8), M, seed=17)
        X = np.random.default_rng(n).uniform(-1.0, 2.0, size=(n, 6))
        want = reference_rff_features(fm, X).T.copy()
        for threads in (1, 2, 3):
            monkeypatch.setattr(util, "_grid_threads", lambda: threads)
            assert same_bits(fm._rows(X), want)

    @pytest.mark.parametrize("lo, hi", [(0, 1), (0, 2), (0, 128), (0, 129), (0, 130),
                                        (0, 257), (4096, 8193), (5, 5000)])
    def test_blocks_cover_the_points_without_one_point_tails(self, lo, hi):
        spans = _blocks(lo, hi)
        assert [a for a, _ in spans] == [lo] + [b for _, b in spans[:-1]]
        assert spans[-1][1] == hi
        assert all(b - a >= 2 for a, b in spans) or hi - lo == 1
        assert all(b - a <= _COPY_BLOCK + 1 for a, b in spans)


# Out-of-place kernel matrices: the expressions the in-place evaluation in
# sgpts.kernels must reproduce bit for bit.

def reference_scaled_sqdist(spec, A, B):
    ls = np.asarray(spec.lengthscales)
    a = A / ls
    b = B / ls
    d2 = np.sum(a * a, axis=1)[:, None] + np.sum(b * b, axis=1)[None, :] - 2.0 * (a @ b.T)
    return np.maximum(d2, 0.0)


def reference_kernel_matrix(spec, A, B):
    d2 = reference_scaled_sqdist(spec, A, B)
    if spec.family == "se":
        return spec.variance * np.exp(-0.5 * d2)
    r = np.sqrt(d2)
    if spec.nu == 1.5:
        z = math.sqrt(3.0) * r
        return spec.variance * (1.0 + z) * np.exp(-z)
    z = math.sqrt(5.0) * r
    return spec.variance * (1.0 + z + z * z / 3.0) * np.exp(-z)


KERNEL_BIT_SPECS = [
    se(dim=1, ls=0.3, var=0.6),
    se(dim=6, ls=0.4),
    matern(1.5, dim=2, ls=0.5, var=0.8),
    matern(2.5, dim=6, ls=0.7),
    KernelSpec(family="se", dim=3, lengthscales=(0.2, 0.9, 3.0), variance=0.9),
    KernelSpec(family="matern", dim=3, lengthscales=(0.2, 0.9, 3.0), nu=1.5),
    KernelSpec(family="matern", dim=3, lengthscales=(0.2, 0.9, 3.0), nu=2.5, variance=0.5),
]
KERNEL_BIT_IDS = ["se1", "se6", "m15", "m25-6d", "se-aniso", "m15-aniso", "m25-aniso"]


class TestKernelMatrixBits:
    @pytest.mark.parametrize("spec", KERNEL_BIT_SPECS, ids=KERNEL_BIT_IDS)
    @pytest.mark.parametrize("n, m", [(1, 1), (1, 17), (17, 1), (40, 23)])
    def test_matches_out_of_place_reference(self, spec, n, m):
        rng = np.random.default_rng(n * 100 + m)
        A = rng.uniform(-1.0, 2.0, size=(n, spec.dim))
        # B shares rows with A, so some distances are exactly zero before the clamp
        B = np.vstack([A[: m // 2], rng.uniform(-1.0, 2.0, size=(m - m // 2, spec.dim))])
        assert np.array_equal(_scaled_sqdist(spec, A, B), reference_scaled_sqdist(spec, A, B))
        assert np.array_equal(kernel_matrix(spec, A, B), reference_kernel_matrix(spec, A, B))
        assert np.array_equal(kernel_matrix(spec, A), reference_kernel_matrix(spec, A, A))

    @pytest.mark.parametrize("spec", KERNEL_BIT_SPECS, ids=KERNEL_BIT_IDS)
    def test_out_receives_the_same_bits(self, spec):
        rng = np.random.default_rng(7)
        A = rng.uniform(-1.0, 2.0, size=(40, spec.dim))
        B = rng.uniform(-1.0, 2.0, size=(23, spec.dim))
        buf = np.full((40, 23), np.nan)
        assert kernel_matrix(spec, A, B, out=buf) is buf
        assert np.array_equal(buf, reference_kernel_matrix(spec, A, B))

    @pytest.mark.parametrize("spec", [se(dim=6, ls=0.4), matern(2.5, dim=6, ls=0.7)],
                             ids=["se", "matern"])
    def test_grid_against_inducing_points(self, spec):
        rng = np.random.default_rng(61)
        grid = rng.uniform(0.0, 1.0, size=(8000, 6))
        Z = rng.uniform(0.0, 1.0, size=(100, 6))
        assert np.array_equal(kernel_matrix(spec, grid, Z), reference_kernel_matrix(spec, grid, Z))


# Feature rows: features(X) is the one evaluation of a map, one row per
# feature, C-ordered.  It must reproduce the column-at-a-time evaluation it
# replaced bit for bit.

def reference_columns(fm, X):
    """The (n, count) features as evaluated column-wise: Mercer through np.take
    of each axis' phi columns, RFF through strided column writes."""
    if fm.kind == "mercer":
        out = np.ones((X.shape[0], fm.count))
        for axis in range(fm.dim):
            orders = int(fm._index[:, axis].max()) + 1
            phis = fm._axes[axis].phis(X[:, axis], orders).T
            out *= np.take(phis, fm._index[:, axis], axis=1)
        return out
    z = X @ fm._freqs.T
    n_pair = fm._freqs.shape[0] if fm.count % 2 == 0 else fm._freqs.shape[0] - 1
    cols = np.empty((X.shape[0], fm.count))
    np.cos(z[:, :n_pair], out=cols[:, 0 : 2 * n_pair : 2])
    np.sin(z[:, :n_pair], out=cols[:, 1 : 2 * n_pair : 2])
    if fm.count % 2 == 1:
        np.cos(z[:, -1] + fm._phase, out=cols[:, -1])
    cols *= fm._amp
    return cols


def shuffled_index_map(fm, seed):
    """fm with its index rows permuted and some repeated: an index that is not arange."""
    rows = np.random.default_rng(seed).integers(0, fm.count, size=fm.count)
    rows[: fm.count // 2] = np.arange(fm.count)[::-1][: fm.count // 2]
    return dataclasses.replace(fm, _index=fm._index[rows], lambdas=fm.lambdas[rows],
                               sup_bounds=fm.sup_bounds[rows])


ROW_MAPS = {
    "mercer-1d": lambda: mercer_truncate(se(ls=0.05), 256, [0.0], [1.0]),
    "mercer-1d-shuffled": lambda: shuffled_index_map(
        mercer_truncate(se(ls=0.1), 96, [0.0], [1.0]), 81),
    "mercer-2d": lambda: mercer_truncate(se(dim=2, ls=0.2), 128, [0.0, -1.0], [1.0, 1.0]),
    "mercer-3d-shuffled": lambda: shuffled_index_map(mercer_truncate(
        KernelSpec(family="se", dim=3, lengthscales=(0.3, 0.7, 1.5)), 100,
        [0.0, -1.0, 2.0], [1.0, 1.0, 5.0]), 82),
    "rff-even": lambda: rff_sample(se(dim=6, ls=0.3, var=0.8), 128, seed=13),
    "rff-odd": lambda: rff_sample(matern(2.5, dim=6, ls=0.4), 129, seed=14),
}


class TestFeatureRowChunks:
    """Grids of 8000 points or more fill their RFF rows in util.over_chunks'
    chunks, spread over threads; the rows must equal one chunk's bit for bit."""

    @pytest.mark.parametrize("n, count", [(8000, 512), (8000, 129), (40001, 129)])
    def test_chunks_keep_the_bits(self, monkeypatch, n, count):
        fm = rff_sample(se(dim=6, ls=0.3), count, seed=2)
        X = np.random.default_rng(n).uniform(0.0, 1.0, size=(n, 6))
        monkeypatch.setattr(util, "_GRID_CHUNK", n + 1)
        whole = fm.features(X)
        monkeypatch.undo()
        for threads in (1, 2, 3):
            monkeypatch.setattr(util, "_grid_threads", lambda: threads)
            # a copy of the map has an empty memo, so its rows are evaluated
            assert np.array_equal(dataclasses.replace(fm).features(X), whole)

    def test_blocks_keep_the_bits_at_every_thread_count(self):
        """BLAS at 1 and 2 threads, SGPTS_THREADS 1 to 3 (with _cpus() raised
        so 3 holds): the rows equal the one-product reference of the same
        process, byte for byte, at n = 1, 129, 257 and 12289 (three chunks,
        the last of 4097 points) and even and odd M."""
        script = (
            "import os\n"
            "import numpy as np\n"
            "from sgpts import util\n"
            "from sgpts.kernels import KernelSpec, rff_sample\n"
            + inspect.getsource(reference_rff_features) +
            "util._cpus = lambda: 3\n"
            "spec = KernelSpec(family='matern', dim=6, lengthscales=(0.4,), nu=2.5)\n"
            "bad = []\n"
            "for M in (511, 512):\n"
            "    fm = rff_sample(spec, M, seed=23)\n"
            "    for n in (1, 129, 257, 12289):\n"
            "        X = np.random.default_rng(n).uniform(0.0, 1.0, size=(n, 6))\n"
            "        want = reference_rff_features(fm, X).T.tobytes()\n"
            "        for threads in ('1', '2', '3'):\n"
            "            os.environ['SGPTS_THREADS'] = threads\n"
            "            if fm._rows(X).tobytes() != want:\n"
            "                bad.append((M, n, threads))\n"
            "print(bad)\n"
        )
        src = str(Path(__file__).resolve().parent.parent / "src")
        for blas in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=blas, OMP_NUM_THREADS=blas,
                       MKL_NUM_THREADS=blas, PYTHONPATH=os.pathsep.join(
                           filter(None, [src, os.environ.get("PYTHONPATH")])))
            proc = subprocess.run([sys.executable, "-c", script], env=env,
                                  capture_output=True, text=True, check=True, timeout=120)
            assert proc.stdout.strip() == "[]", blas


class TestFeatureRowBits:
    @pytest.mark.parametrize("kind", sorted(ROW_MAPS))
    @pytest.mark.parametrize("n", [1, 5, 2000, 8000])
    def test_rows_match_column_reference(self, kind, n):
        fm = ROW_MAPS[kind]()
        # Mercer: points inside the box and up to half a side beyond it
        lo, hi = (np.asarray(fm.origin[1]), np.asarray(fm.origin[2])) if fm.kind == "mercer" \
            else (np.zeros(fm.dim), np.ones(fm.dim))
        half = 0.5 * (hi - lo)
        X = np.random.default_rng(n).uniform(lo - half, hi + half, size=(n, fm.dim))
        want = reference_columns(fm, X)
        rows = fm.features(X)
        assert rows.shape == (fm.count, n) and rows.flags.c_contiguous
        assert not rows.flags.writeable
        assert np.array_equal(rows.T, want)
        assert rows.T.copy().tobytes() == want.tobytes()

    @pytest.mark.parametrize("kind", ["mercer-1d", "mercer-2d", "rff-even", "rff-odd"])
    def test_features_are_the_rows_as_they_are(self, kind):
        # one layout: features(X) is _rows(X) as it is, and a wrong point
        # dimension is refused
        fm = ROW_MAPS[kind]()
        X = np.random.default_rng(5).uniform(size=(7, fm.dim))
        F = fm.features(X)
        assert F.shape == (fm.count, 7) and F.flags.c_contiguous and not F.flags.writeable
        assert same_bits(F, fm._rows(X))
        with pytest.raises(InvalidInputError):
            fm.features(np.ones((7, fm.dim + 1)))


# FeatureMap.features remembers repeated inputs.

MEMO_MAPS = {
    "mercer": lambda: mercer_truncate(se(dim=2, ls=0.3), 40, [0.0, 0.0], [1.0, 1.0]),
    "rff": lambda: rff_sample(matern(2.5, dim=2, ls=0.4), 65, seed=7),
}


def memo_inputs():
    """Four inputs: two 2-row sets, one equal to the other but for a -0.0, and a 5-row set."""
    X = np.array([[0.0, 0.25], [0.5, 0.75]])
    neg = X.copy()
    neg[0, 0] = -0.0
    other = np.random.default_rng(71).uniform(-0.5, 1.5, size=(5, 2))
    return [X, neg, other, other[:3]]


def stored(fm):
    """Number of inputs whose matrices fm's memo holds."""
    return sum(F is not None for _, F in fm._memo)


def same_bits(F, G):
    return F.shape == G.shape and F.tobytes() == G.tobytes()


@pytest.mark.parametrize("kind", sorted(MEMO_MAPS))
class TestFeatureMemo:
    def test_repeat_matches_a_fresh_map(self, kind):
        fm = MEMO_MAPS[kind]()
        X = memo_inputs()[2]
        first, second, third = fm.features(X), fm.features(X), fm.features(X)
        fresh = MEMO_MAPS[kind]().features(X)
        assert all(same_bits(F, fresh) for F in (first, second, third))
        # computed on the first two requests, stored on the second
        assert second is not first and third is second

    def test_results_are_read_only(self, kind):
        fm = MEMO_MAPS[kind]()
        X = memo_inputs()[0]
        for F in (fm.features(X), fm.features(X), fm.features(X)):
            assert not F.flags.writeable
            with pytest.raises(ValueError):
                F[0, 0] = 1.0

    def test_input_mutated_in_place_is_a_miss(self, kind):
        fm = MEMO_MAPS[kind]()
        X = memo_inputs()[2]
        fm.features(X)
        old = fm.features(X)
        X[1, 0] += 0.125
        got = fm.features(X)
        assert got is not old
        assert same_bits(got, MEMO_MAPS[kind]().features(X))

    def test_negative_zero_is_a_miss(self, kind):
        fm = MEMO_MAPS[kind]()
        X, neg = memo_inputs()[:2]
        fm.features(X)
        at_zero = fm.features(X)
        got = fm.features(neg)
        assert got is not at_zero
        assert same_bits(got, MEMO_MAPS[kind]().features(neg))

    def test_one_off_inputs_store_nothing(self, kind):
        # a grid used once, then three others: none stays alive in the memo
        fm = MEMO_MAPS[kind]()
        X, _, other, part = memo_inputs()
        fm.features(X)
        fm.features(X)
        assert stored(fm) == 1
        for grid in (other, part, other + 1.0):
            fm.features(grid)
        assert stored(fm) == 0 and len(fm._memo) <= _MEMO_SLOTS

    def test_replaced_map_starts_empty(self, kind):
        fm = MEMO_MAPS[kind]()
        X = memo_inputs()[0]
        fm.features(X)
        kept = fm.features(X)
        copy = dataclasses.replace(fm)
        assert copy._memo == [] and stored(fm) == 1
        F = copy.features(X)
        assert F is not kept and same_bits(F, kept)

    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(requests=st.lists(st.integers(0, 3), min_size=1, max_size=14))
    def test_any_request_sequence_gives_fresh_bits(self, kind, requests):
        inputs = memo_inputs()
        want = [MEMO_MAPS[kind]().features(X) for X in inputs]
        fm = MEMO_MAPS[kind]()
        asked = Counter()
        for i in requests:
            F = fm.features(inputs[i])
            asked[i] += 1
            assert same_bits(F, want[i]) and not F.flags.writeable
            assert len(fm._memo) <= _MEMO_SLOTS
            # only an input asked for at least twice is stored
            for key, G in fm._memo:
                if G is not None:
                    j = next(j for j, X in enumerate(inputs)
                             if key == (X.shape, X.tobytes()))
                    assert asked[j] >= 2 and same_bits(G, want[j])
