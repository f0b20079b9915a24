"""Metric functions: Gaussian fits, closed-form KL, bounds, win rate."""

import math

import numpy as np
import pytest

from diffguide import (
    GaussianFit,
    GaussianReward,
    batch_variance,
    expected_reward,
    fit_gaussian,
    gaussian_kl,
    kl_upper_bound,
    normalized_expected_reward,
    win_rate,
)
from diffguide.metrics import RELATIVE_RIDGE, RIDGE, selection_gap


class TestFitGaussian:
    def test_identical_points_get_ridge(self):
        fit = fit_gaussian(np.tile([1.5, -0.5], (10, 1)))
        np.testing.assert_array_equal(fit.mean, [1.5, -0.5])
        np.testing.assert_allclose(fit.cov, RIDGE * np.eye(2), atol=1e-20)

    def test_two_symmetric_points(self):
        fit = fit_gaussian([[1.0, 0.0], [-1.0, 0.0]])
        np.testing.assert_array_equal(fit.mean, [0.0, 0.0])
        # unbiased two-point variance along x is 2; collapsed y picks up ridge
        np.testing.assert_allclose(fit.cov, np.diag([2.0 + RIDGE, RIDGE]), atol=1e-15)

    def test_large_sample_recovery(self):
        rng = np.random.default_rng(0)
        xs = rng.multivariate_normal([1.0, 2.0], np.diag([3.0, 4.0]), size=1_000_000)
        fit = fit_gaussian(xs)
        np.testing.assert_allclose(fit.mean, [1.0, 2.0], atol=0.01)
        np.testing.assert_allclose(fit.cov, np.diag([3.0, 4.0]), rtol=0.01, atol=0.01)

    @pytest.mark.parametrize("spread", [1e8, 1e50, 1e127])
    def test_ridge_scales_with_the_trace(self, spread):
        """A batch on a line gets a ridge of RELATIVE_RIDGE times the trace,
        which survives the rounding of a widely spread covariance."""
        xs = spread * np.linspace(-1.0, 1.0, 50)[:, None] * np.array([[1.0, 0.7]])
        fit = fit_gaussian(xs)
        np.linalg.cholesky(fit.cov)
        raw = np.cov(xs, rowvar=False)
        np.testing.assert_allclose(
            np.diag(fit.cov - raw), RELATIVE_RIDGE * np.trace(raw), rtol=1e-3
        )

    def test_rejects_too_few(self):
        with pytest.raises(ValueError):
            fit_gaussian([[0.0, 0.0]])

    def test_symmetry(self):
        xs = np.random.default_rng(1).normal(size=(50, 2))
        fit = fit_gaussian(xs)
        assert np.array_equal(fit.cov, fit.cov.T)


class TestGaussianKl:
    def test_identical_is_zero(self):
        fit = GaussianFit(mean=np.array([1.0, 2.0]), cov=np.array([[2.0, 0.3], [0.3, 1.0]]))
        assert gaussian_kl(fit, fit) == pytest.approx(0.0, abs=1e-12)

    def test_unit_mean_shift(self):
        a = GaussianFit(mean=np.zeros(2), cov=np.eye(2))
        b = GaussianFit(mean=np.array([1.0, 0.0]), cov=np.eye(2))
        assert gaussian_kl(a, b) == pytest.approx(0.5, abs=1e-12)

    def test_double_covariance(self):
        a = GaussianFit(mean=np.zeros(2), cov=2.0 * np.eye(2))
        b = GaussianFit(mean=np.zeros(2), cov=np.eye(2))
        assert gaussian_kl(a, b) == pytest.approx(1.0 - math.log(2.0), abs=1e-12)

    def test_nonnegative_on_random_pairs(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            la = rng.normal(size=(2, 2))
            lb = rng.normal(size=(2, 2))
            a = GaussianFit(mean=rng.normal(size=2), cov=la @ la.T + 0.1 * np.eye(2))
            b = GaussianFit(mean=rng.normal(size=2), cov=lb @ lb.T + 0.1 * np.eye(2))
            assert gaussian_kl(a, b) >= 0.0
            assert gaussian_kl(a, a) == pytest.approx(0.0, abs=1e-12)

    def test_rejects_non_pd(self):
        a = GaussianFit(mean=np.zeros(2), cov=np.eye(2))
        bad = GaussianFit(mean=np.zeros(2), cov=np.array([[1.0, 0.0], [0.0, -1.0]]))
        with pytest.raises(ValueError):
            gaussian_kl(a, bad)


class TestKlUpperBound:
    def test_two_candidate_selection_gap(self):
        assert selection_gap(2) == pytest.approx(math.log(2.0) - 0.5, abs=1e-15)
        assert kl_upper_bound("best_of_n", 2, 1000, 1000) == pytest.approx(
            math.log(2.0) - 0.5, abs=1e-15
        )

    def test_blockwise_scaling(self):
        want = (math.log(2.0) - 0.5) * 10.0
        assert kl_upper_bound("blockwise", 2, 100, 1000, eta=1.0) == pytest.approx(want, abs=1e-12)
        assert kl_upper_bound("blockwise", 2, 100, 1000, eta=0.6) == pytest.approx(
            want * 0.6, abs=1e-12
        )

    def test_stepwise_scaling(self):
        want = (math.log(3.0) - 2.0 / 3.0) * 1000
        assert kl_upper_bound("stepwise", 3, 1, 1000) == pytest.approx(want, rel=1e-14)

    def test_short_last_block_counts_as_a_selection(self):
        """A block size that does not divide the denoised steps leaves a
        short last block, which still selects: blockwise b=300 at T=1000
        makes 4 selections, and blockwise_ref b=10 with eta=0.5 at T=30
        (15 steps) makes 2."""
        assert kl_upper_bound("blockwise", 4, 300, 1000) == selection_gap(4) * 4
        assert kl_upper_bound("blockwise_ref", 2, 10, 30, eta=0.5) == selection_gap(2) * 2
        # the denoised steps are round(eta T), as blockwise_batch takes them
        assert kl_upper_bound("stepwise", 3, 1, 1000, eta=0.6005) == selection_gap(3) * 600

    def test_single_stream_is_zero(self):
        for method in ("best_of_n", "blockwise", "stepwise"):
            assert kl_upper_bound(method, 1, 50, 1000) == 0.0

    def test_base_zero_grad_nan(self):
        assert kl_upper_bound("base", 5, 1, 100) == 0.0
        assert math.isnan(kl_upper_bound("grad", 5, 1, 100))

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            kl_upper_bound("magic", 2, 1, 100)

    def test_monotone_in_n_and_block(self):
        ns = [2, 3, 5, 10, 50, 200]
        vals = [kl_upper_bound("blockwise", n, 100, 1000) for n in ns]
        assert all(a < b for a, b in zip(vals, vals[1:]))
        blocks = [1, 10, 100, 500, 1000]
        vals = [kl_upper_bound("blockwise", 4, b, 1000) for b in blocks]
        assert all(a > b for a, b in zip(vals, vals[1:]))


class TestExpectedReward:
    def test_all_at_mode(self):
        spec = GaussianReward(mu=[2.0, 2.0], sigma=2.0)
        xs = np.tile([2.0, 2.0], (5, 1))
        assert expected_reward(xs, spec) == pytest.approx(1.0 / (8.0 * np.pi), rel=1e-14)

    def test_normalization_against_self(self):
        spec = GaussianReward(mu=[0.0, 0.0], sigma=1.0)
        xs = np.random.default_rng(0).normal(size=(100, 2))
        assert normalized_expected_reward(xs, xs, spec) == pytest.approx(1.0)

    def test_reward_distribution_self_expectation(self):
        """Monte-Carlo oracle: E of the density under its own distribution
        is 1/(4 pi sigma^2), which is 1/(16 pi) at sigma = 2."""
        spec = GaussianReward(mu=[3.0, -1.0], sigma=2.0)
        rng = np.random.default_rng(42)
        xs = spec.mu + spec.sigma * rng.standard_normal((1_000_000, 2))
        got = expected_reward(xs, spec)
        assert got == pytest.approx(1.0 / (16.0 * np.pi), rel=5e-3)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            expected_reward(np.zeros((0, 2)), GaussianReward(mu=[0.0, 0.0], sigma=1.0))


class TestWinRate:
    SPEC = GaussianReward(mu=[0.0, 0.0], sigma=2.0)

    def test_uniform_winner(self):
        guided = np.tile([0.1, 0.0], (8, 1))
        base = np.tile([3.0, 0.0], (8, 1))
        assert win_rate(guided, base, self.SPEC) == 1.0

    def test_self_comparison_is_half(self):
        xs = np.random.default_rng(0).normal(size=(50, 2))
        assert win_rate(xs, xs, self.SPEC) == 0.5

    def test_split_pairs(self):
        # rewards decay with distance: pair one win and one loss
        guided = np.array([[1.0, 0.0], [3.0, 0.0]])
        base = np.array([[2.0, 0.0], [2.0, 0.0]])
        assert win_rate(guided, base, self.SPEC) == 0.5

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            win_rate(np.zeros((3, 2)), np.zeros((4, 2)), self.SPEC)


class TestBatchVariance:
    def test_identical_points(self):
        assert batch_variance(np.tile([1.0, 2.0], (5, 1))) == (0.0, 0.0)

    def test_two_points(self):
        assert batch_variance([[0.0, 0.0], [2.0, 0.0]]) == (2.0, 0.0)

    def test_known_distribution(self):
        xs = np.random.default_rng(1).normal(scale=2.0, size=(100_000, 2))
        vx, vy = batch_variance(xs)
        assert vx == pytest.approx(4.0, rel=0.05)
        assert vy == pytest.approx(4.0, rel=0.05)

    def test_too_few(self):
        with pytest.raises(ValueError):
            batch_variance([[1.0, 1.0]])
