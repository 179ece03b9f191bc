import numpy as np
import pytest

from sgpts.benchmarks import (
    BENCHMARKS,
    Benchmark,
    NoiseModel,
    certify,
    get_benchmark,
    random_search,
)
from sgpts.errors import InvalidInputError


class TestShekel:
    def test_well_center_value(self):
        b = get_benchmark("shekel4")
        got = b.evaluate(np.array([[4.0, 4.0, 4.0, 4.0]]))[0]
        assert abs(got - 10.536283726219605) < 1e-12

    def test_first_well_constants(self):
        # shifting x to the first anchor with its weight 0.1 isolates one term
        b = get_benchmark("shekel4")
        at_anchor = b.evaluate(np.array([[4.0, 4.0, 4.0, 4.0]]))[0]
        others = sum(
            1.0 / (np.sum((np.full(4, 4.0) - a) ** 2) + bb)
            for a, bb in zip(
                [
                    [1, 1, 1, 1], [8, 8, 8, 8], [6, 6, 6, 6], [3, 7, 3, 7],
                    [2, 9, 2, 9], [5, 5, 3, 3], [8, 1, 8, 1], [6, 2, 6, 2],
                    [7, 3.6, 7, 3.6],
                ],
                [0.2, 0.2, 0.4, 0.4, 0.6, 0.3, 0.7, 0.5, 0.5],
            )
        )
        assert abs(at_anchor - (1.0 / 0.1 + others)) < 1e-12

    def test_far_corner_is_small(self):
        b = get_benchmark("shekel4")
        got = b.evaluate(np.array([[10.0, 10.0, 10.0, 10.0]]))[0]
        assert 0 < got < 0.2

    def test_optimum_beats_well_center(self):
        b = get_benchmark("shekel4")
        center = b.evaluate(np.array([[4.0, 4.0, 4.0, 4.0]]))[0]
        assert center < b.f_star
        at_star = b.evaluate(np.array([b.x_star]))[0]
        assert abs(at_star - b.f_star) < 1e-9


class TestHartmann:
    def test_all_ones_against_direct_sum(self):
        b = get_benchmark("hartmann6")
        alph = np.array([1.0, 1.2, 3.0, 3.2])
        A = np.array([
            [10, 3, 17, 3.5, 1.7, 8], [0.05, 10, 17, 0.1, 8, 14],
            [3, 3.5, 1.7, 10, 17, 8], [17, 8, 0.05, 10, 0.1, 14],
        ], dtype=float)
        P = 1e-4 * np.array([
            [1312, 1696, 5569, 124, 8283, 5886], [2329, 4135, 8307, 3736, 1004, 9991],
            [2348, 1451, 3522, 2883, 3047, 6650], [4047, 8828, 8732, 5743, 1091, 381],
        ], dtype=float)
        x = np.ones(6)
        want = sum(
            alph[i] * np.exp(-sum(A[i, j] * (x[j] - P[i, j]) ** 2 for j in range(6)))
            for i in range(4)
        )
        got = b.evaluate(x.reshape(1, -1))[0]
        assert abs(got - want) < 1e-12

    def test_certified_value_at_x_star(self):
        b = get_benchmark("hartmann6")
        at_star = b.evaluate(np.array([b.x_star]))[0]
        assert abs(at_star - 3.3223680114155045) < 1e-7


class TestAckley:
    def test_origin_is_exactly_zero(self):
        b = get_benchmark("ackley5")
        assert b.evaluate(np.zeros((1, 5)))[0] == 0.0

    def test_nonpositive_on_probes(self):
        b = get_benchmark("ackley5")
        rng = np.random.default_rng(0)
        X = rng.uniform(-2, 1, size=(10_000, 5))
        assert np.all(b.evaluate(X) <= 0.0)

    def test_coordinate_permutation_symmetry(self):
        b = get_benchmark("ackley5")
        rng = np.random.default_rng(1)
        X = rng.uniform(-2, 1, size=(50, 5))
        perm = rng.permutation(5)
        assert np.allclose(b.evaluate(X), b.evaluate(X[:, perm]), atol=1e-14)


class TestSmallMultimodal:
    def test_1d_optimum(self):
        b = get_benchmark("multimodal1d")
        at_star = b.evaluate(np.array([b.x_star]))[0]
        assert abs(at_star - b.f_star) < 1e-12
        # humps grow linearly: the second-best hump sits near 0.65
        second = b.evaluate(np.array([[0.651]]))[0]
        assert 0.55 < second < b.f_star

    def test_2d_optimum_is_one(self):
        b = get_benchmark("multimodal2d")
        vals = b.evaluate(np.array([[1 / 6, 1 / 6], [5 / 6, 5 / 6], [0.5, 0.5]]))
        assert np.allclose(vals, 1.0, atol=1e-12)
        assert abs(b.f_star - 1.0) < 1e-15


class TestDomainHandling:
    def test_strict_rejects_outside(self):
        b = get_benchmark("multimodal1d")
        with pytest.raises(InvalidInputError):
            b.evaluate(np.array([[1.2]]))

    def test_dim_mismatch(self):
        b = get_benchmark("hartmann6")
        with pytest.raises(InvalidInputError):
            b.evaluate(np.zeros((1, 5)))

    def test_unknown_name(self):
        with pytest.raises(InvalidInputError):
            get_benchmark("nope")


class TestNoiseModel:
    def test_mean_is_centered(self):
        noise = NoiseModel(0.25)
        rng = np.random.default_rng(7)
        draws = noise.draw(rng, 100_000)
        assert abs(draws.mean()) <= 4 * np.sqrt(0.25 / 100_000)
        assert abs(draws.var() - 0.25) < 0.01

    def test_zero_variance_is_silent(self):
        noise = NoiseModel(0.0)
        assert np.all(noise.draw(np.random.default_rng(0), 10) == 0.0)

    def test_validation(self):
        with pytest.raises(InvalidInputError):
            NoiseModel(-0.1)


class TestCertification:
    @pytest.mark.parametrize("name", sorted(BENCHMARKS))
    def test_f_star_dominates(self, name):
        report = certify(BENCHMARKS[name], seed=0)
        assert report["ok"], report


class TestRandomSearch:
    def test_single_point(self):
        b = get_benchmark("multimodal1d")
        log = random_search(b, 0.0, budget=1, seed=0)
        assert len(log.rows) == 1
        r = log.rows[0]
        assert 0.0 <= r.x[0] <= 1.0
        assert r.cum_regret == b.f_star - r.f_true

    def test_deterministic(self):
        b = get_benchmark("multimodal2d")
        a = random_search(b, 0.01, budget=30, seed=5, batch_size=10)
        c = random_search(b, 0.01, budget=30, seed=5, batch_size=10)
        assert a.to_csv() == c.to_csv()
        d = random_search(b, 0.01, budget=30, seed=6, batch_size=10)
        assert a.to_csv() != d.to_csv()

    def test_more_budget_helps(self):
        b = get_benchmark("multimodal1d")
        short = [random_search(b, 0.01, 50, s).final_simple_regret for s in range(20)]
        long = [random_search(b, 0.01, 500, s).final_simple_regret for s in range(20)]
        assert np.median(long) < np.median(short)

    def test_budget_validation(self):
        b = get_benchmark("multimodal1d")
        with pytest.raises(InvalidInputError):
            random_search(b, 0.01, budget=0, seed=0)
        with pytest.raises(InvalidInputError):
            random_search(b, 0.01, budget=7, seed=0, batch_size=2)

    def test_noise_reconstructs(self):
        from sgpts.util import rng_from_path

        b = get_benchmark("multimodal1d")
        log = random_search(b, 0.04, budget=12, seed=9, batch_size=4)
        for t in (1, 2, 3):
            rows = [r for r in log.rows if r.t == t]
            want = np.sqrt(0.04) * rng_from_path(9, t, 7777).standard_normal(4)
            got = np.array([r.y - r.f_true for r in rows])
            assert np.allclose(got, want, atol=1e-15)