"""Reward functions, gradients, and the endpoint value estimate."""

import numpy as np
import pytest

from diffguide import (
    GaussianReward,
    IsotropicGaussianEps,
    QuantizedReward,
    UnsupportedRewardError,
    build_linear_schedule,
    init_model,
    log_reward,
    predict_eps,
    reward,
    reward_grad,
)
from diffguide.rewards import value_given_eps


class TestGaussianReward:
    def test_density_at_mode(self):
        spec = GaussianReward(mu=[14.0, 3.0], sigma=2.0)
        np.testing.assert_allclose(reward(spec, [14.0, 3.0]), 1.0 / (8.0 * np.pi), rtol=1e-14)

    def test_rotation_invariance(self):
        spec = GaussianReward(mu=[1.0, -1.0], sigma=1.5)
        rng = np.random.default_rng(0)
        for _ in range(10):
            r = rng.uniform(0, 5)
            a, b = rng.uniform(0, 2 * np.pi, size=2)
            pa = spec.mu + r * np.array([np.cos(a), np.sin(a)])
            pb = spec.mu + r * np.array([np.cos(b), np.sin(b)])
            np.testing.assert_allclose(reward(spec, pa), reward(spec, pb), rtol=1e-12)

    def test_log_at_mode(self):
        spec = GaussianReward(mu=[0.0, 0.0], sigma=2.0)
        np.testing.assert_allclose(log_reward(spec, [0.0, 0.0]), -np.log(8.0 * np.pi), rtol=1e-14)

    def test_log_two_sigma_drop(self):
        spec = GaussianReward(mu=[3.0, 4.0], sigma=2.0)
        at_mode = log_reward(spec, [3.0, 4.0])
        away = log_reward(spec, [3.0 + 2 * spec.sigma, 4.0])
        np.testing.assert_allclose(at_mode - away, 2.0, rtol=1e-13)

    def test_argmax_agreement(self):
        spec = GaussianReward(mu=[2.0, 2.0], sigma=0.7)
        pts = np.random.default_rng(1).normal(scale=4.0, size=(100, 2))
        assert np.argmax(reward(spec, pts)) == np.argmax(log_reward(spec, pts))

    def test_rejects_bad_sigma(self):
        with pytest.raises(ValueError):
            GaussianReward(mu=[0.0, 0.0], sigma=0.0)

    @pytest.mark.parametrize("mu", [["14", "3"], [14.0, True], [14.0, float("nan")], [14.0, None], [10**400, 3]])
    def test_rejects_an_entry_that_is_no_finite_number(self, mu):
        with pytest.raises(ValueError, match="mu must be an array of finite numbers"):
            GaussianReward(mu=mu, sigma=2.0)

    def test_stores_a_read_only_float_array(self):
        spec = GaussianReward(mu=[14, 3])
        assert spec.mu.dtype == np.float64 and not spec.mu.flags.writeable
        np.testing.assert_array_equal(spec.mu, [14.0, 3.0])
        assert spec.sigma == 2.0

    def test_compares_and_hashes_by_value(self):
        a, b = GaussianReward(mu=[1, 2]), GaussianReward(mu=[1.0, 2.0])
        assert a == b and hash(a) == hash(b)
        assert GaussianReward(mu=[0.0, 2.0]) == GaussianReward(mu=[-0.0, 2.0])
        assert hash(GaussianReward(mu=[0.0, 2.0])) == hash(GaussianReward(mu=[-0.0, 2.0]))
        assert a != GaussianReward(mu=[1, 3]) and a != GaussianReward(mu=[1, 2], sigma=3)
        assert a != QuantizedReward(mu=[1, 2], delta=2.0)
        assert QuantizedReward(mu=[1, 2]) == QuantizedReward(mu=[1.0, 2.0])


class TestQuantizedReward:
    def test_floor_steps(self):
        spec = QuantizedReward(mu=[0.0, 0.0], delta=1.0)
        assert reward(spec, [0.5, 0.0]) == 0.0
        assert reward(spec, [1.5, 0.0]) == -1.0
        assert reward(spec, [0.0, 3.2]) == -3.0

    def test_log_and_grad_unsupported(self):
        spec = QuantizedReward(mu=[0.0, 0.0], delta=1.0)
        with pytest.raises(UnsupportedRewardError):
            log_reward(spec, [1.0, 1.0])
        with pytest.raises(UnsupportedRewardError):
            reward_grad(spec, [1.0, 1.0])

    def test_piecewise_constant(self):
        spec = QuantizedReward(mu=[0.0, 0.0], delta=2.0)
        assert reward(spec, [0.3, 0.0]) == reward(spec, [1.9, 0.0])


class TestRewardGrad:
    def test_zero_at_mode(self):
        spec = GaussianReward(mu=[5.0, -1.0], sigma=2.0)
        np.testing.assert_array_equal(reward_grad(spec, [5.0, -1.0]), [0.0, 0.0])

    def test_closed_form_value(self):
        spec = GaussianReward(mu=[1.0, 1.0], sigma=2.0)
        np.testing.assert_allclose(reward_grad(spec, [3.0, 1.0]), [-0.5, 0.0], rtol=1e-14)

    def test_matches_finite_differences(self):
        spec = GaussianReward(mu=[0.5, -2.0], sigma=1.3)
        rng = np.random.default_rng(2)
        h = 1e-6
        for _ in range(10):
            x = rng.normal(scale=3.0, size=2)
            got = reward_grad(spec, x)
            fd = np.array(
                [
                    (log_reward(spec, x + [h, 0]) - log_reward(spec, x - [h, 0])) / (2 * h),
                    (log_reward(spec, x + [0, h]) - log_reward(spec, x - [0, h])) / (2 * h),
                ]
            )
            np.testing.assert_allclose(got, fd, atol=1e-8)


def value(model, sched, spec, x_t, t):
    """The value estimate of states ``x_t`` at step ``t >= 1``, from the
    model's predicted noise, as the selection core scores an endpoint."""
    return value_given_eps(spec, sched, x_t, t, predict_eps(model, x_t, t, sched))


class TestEstimateValue:
    def test_t0_is_terminal_reward(self):
        sched = build_linear_schedule(10)
        g = GaussianReward(mu=[1.0, 1.0], sigma=2.0)
        q = QuantizedReward(mu=[1.0, 1.0], delta=1.0)
        x = np.array([0.2, 2.0])
        assert value_given_eps(g, sched, x, 0, None) == reward(g, x)
        assert value_given_eps(q, sched, x, 0, None) == reward(q, x)

    def test_matches_analytic_posterior_reward(self):
        """With the exact single-Gaussian predictor the value is the log
        reward of the closed-form conditional mean."""
        sched = build_linear_schedule(100)
        mean = np.array([2.0, 5.0])
        s = 1.4
        model = IsotropicGaussianEps(mean=mean, sigma=s)
        spec = GaussianReward(mu=[6.0, 1.0], sigma=2.0)
        rng = np.random.default_rng(3)
        for t in [1, 20, 100]:
            x_t = rng.normal(scale=2.0, size=2)
            ab = sched.alpha_bar[t]
            gain = np.sqrt(ab) * s**2 / (ab * s**2 + 1.0 - ab)
            post_mean = mean + gain * (x_t - np.sqrt(ab) * mean)
            want = log_reward(spec, post_mean)
            got = value(model, sched, spec, x_t, t)
            np.testing.assert_allclose(got, want, atol=1e-12)

    def test_orders_by_distance_to_reward(self):
        sched = build_linear_schedule(50)
        model = IsotropicGaussianEps(mean=np.array([0.0, 0.0]), sigma=1.0)
        spec = GaussianReward(mu=[4.0, 0.0], sigma=2.0)
        # candidate whose predicted endpoint is closer to mu gets more value
        near = value(model, sched, spec, np.array([3.0, 0.0]), 25)
        far = value(model, sched, spec, np.array([-3.0, 0.0]), 25)
        assert near > far

    def test_batched_values(self):
        sched = build_linear_schedule(20)
        model = init_model(4, 2, seed=1)
        spec = GaussianReward(mu=[1.0, 0.0], sigma=2.0)
        xs = np.random.default_rng(4).normal(size=(5, 2))
        vals = value(model, sched, spec, xs, 7)
        assert vals.shape == (5,)
        single = value(model, sched, spec, xs[2:3], 7)
        np.testing.assert_allclose(vals[2], single[0], rtol=1e-13, atol=1e-15)
