"""Guided samplers: special-case reductions, selection logic, counters."""

import functools
import sys
import threading

import numpy as np
import pytest

from diffguide import (
    GaussianReward,
    IsotropicGaussianEps,
    QuantizedReward,
    UnsupportedRewardError,
    base_sample,
    blockwise_batch,
    build_linear_schedule,
    ddpm_step,
    fit_gaussian,
    gaussian_kl,
    grad_guided_batch,
    init_model,
    paper_prior,
    posterior_mean,
    predict_eps,
)
from diffguide import input_grad, reward_grad, samplers, streams, tweedie_x0
from diffguide.analytic import MixtureEps
from diffguide.config import GuidancePoint
from diffguide.experiments import guided_batch
from diffguide.model import CHUNK_ROWS
from diffguide.rewards import value_given_eps
from diffguide.samplers import STATE_BOUND, _block_bounds

SCHED = build_linear_schedule(50)
MODEL = init_model(12, 6, seed=1)
REWARD = GaussianReward(mu=[14.0, 3.0], sigma=2.0)


@functools.lru_cache(maxsize=None)
def exact_study_batch(scale):
    """200 exact-chain gradient runs on the exact predictor of the study
    prior (T=1000): ``(samples, counters, kl)``, with the Gaussian-fit KL of
    the samples against 200 base runs."""
    prior = paper_prior()
    model = MixtureEps(prior)
    sched = build_linear_schedule(1000)
    seeds = [streams.derive_seed(41, i) for i in range(200)]
    out, counters = grad_guided_batch(model, sched, REWARD, scale, seeds)
    base = fit_gaussian(base_sample(model, sched, 200, seed=43))
    return out, counters, gaussian_kl(fit_gaussian(out), base)


def separate_calls_grad_batch(model, sched, spec, scale, seeds):
    """Exact-chain gradient guidance with a ``predict_eps`` and an
    ``input_grad`` call per step: ``(samples, last step)``.  The chain ends
    early at the first step after which a state is not finite or has a
    coordinate beyond ``STATE_BOUND``."""
    seeds = np.asarray(seeds, dtype=np.uint64)
    x = streams.normal_pair(seeds, streams.ROLE_INIT, 0, 0)
    for t in range(sched.T, 0, -1):
        ab = sched.alpha_bar[t]
        eps_hat = predict_eps(model, x, t, sched)
        g = reward_grad(spec, tweedie_x0(x, eps_hat, t, sched))
        vjp = input_grad(model, x, t, sched, g)
        glog = (g - np.sqrt(1.0 - ab) * vjp) / np.sqrt(ab)
        eps_hat = eps_hat - np.sqrt(1.0 - ab) * scale * glog
        x = posterior_mean(x, eps_hat, t, sched)
        if t > 1:
            x = x + np.sqrt(sched.beta[t]) * streams.normal_pair(seeds, streams.ROLE_STEP, t, 0)
        if not (np.all(np.isfinite(x)) and np.max(np.abs(x)) <= STATE_BOUND):
            break
    return x, t


class TestDdpmStep:
    def test_zero_noise_gives_mean(self):
        x = np.array([0.4, -1.1])
        got = ddpm_step(MODEL, SCHED, x, 9, [0.0, 0.0])
        want = posterior_mean(x, predict_eps(MODEL, x, 9, SCHED), 9, SCHED)
        np.testing.assert_array_equal(got, want)

    def test_final_step_ignores_noise(self):
        x = np.array([0.4, -1.1])
        a = ddpm_step(MODEL, SCHED, x, 1, [5.0, -5.0])
        b = ddpm_step(MODEL, SCHED, x, 1, [0.0, 0.0])
        np.testing.assert_array_equal(a, b)

    def test_composed_hand_value(self):
        x = np.array([1.0, 2.0])
        noise = np.array([0.5, -0.5])
        t = 20
        got = ddpm_step(MODEL, SCHED, x, t, noise)
        mu = posterior_mean(x, predict_eps(MODEL, x, t, SCHED), t, SCHED)
        np.testing.assert_array_equal(got, mu + np.sqrt(SCHED.beta[t]) * noise)


class TestBaseSample:
    def test_reproducible(self):
        a = base_sample(MODEL, SCHED, 5, seed=11)
        b = base_sample(MODEL, SCHED, 5, seed=11)
        assert a.tobytes() == b.tobytes()

    def test_prefix_stable_across_n(self):
        """Rollout i only consumes its own substreams, so growing the batch
        never changes earlier rollouts (up to BLAS kernel ulps)."""
        a = base_sample(MODEL, SCHED, 1, seed=4)
        b = base_sample(MODEL, SCHED, 2, seed=4)
        np.testing.assert_allclose(a[0], b[0], rtol=0, atol=1e-12)

    def test_trained_mean_is_finite_scale(self):
        xs = base_sample(MODEL, SCHED, 64, seed=0)
        assert np.all(np.isfinite(xs))


class TestBlockBounds:
    def test_divisible(self):
        assert _block_bounds(10, 5) == [(10, 6), (5, 1)]

    def test_short_final_block(self):
        assert _block_bounds(10, 4) == [(10, 7), (6, 3), (2, 1)]

    def test_single_step_blocks(self):
        assert _block_bounds(3, 1) == [(3, 3), (2, 2), (1, 1)]

    def test_one_big_block(self):
        assert _block_bounds(7, 7) == [(7, 1)]
        assert _block_bounds(7, 99) == [(7, 1)]


class TestSpecialCaseEquivalences:
    """The reductions are definitional and must hold bit for bit."""

    def test_single_stream_is_base(self):
        want = base_sample(MODEL, SCHED, 1, seed=7)[0]
        for block in (1, 13, 50):
            got, _ = blockwise_batch(MODEL, SCHED, REWARD, 1, block, [7])
            np.testing.assert_array_equal(got[0], want)

    @staticmethod
    def point_run(point):
        """One run of ``point`` from row seed 9, as the sweep runs it."""
        block = point.resolved_block(SCHED.T, "test")
        return guided_batch(MODEL, SCHED, REWARD, point, block, 9, 1)[0]

    def test_best_of_n_is_full_block(self):
        a = self.point_run(GuidancePoint("best_of_n", n_streams=4))
        b = self.point_run(GuidancePoint("blockwise", n_streams=4, block_size=SCHED.T))
        np.testing.assert_array_equal(a, b)

    def test_stepwise_is_unit_block(self):
        a = self.point_run(GuidancePoint("stepwise", n_streams=3))
        b = self.point_run(GuidancePoint("blockwise", n_streams=3, block_size=1))
        np.testing.assert_array_equal(a, b)

    def test_full_noise_ref_reduces_to_plain(self):
        a, _ = blockwise_batch(MODEL, SCHED, REWARD, 4, 10, [5], eta=1.0, x_refs=[99.0, -99.0])
        b, _ = blockwise_batch(MODEL, SCHED, REWARD, 4, 10, [5])
        np.testing.assert_array_equal(a, b)

    def test_explicit_best_of_n_oracle(self):
        """Independent path: unroll each stream as a plain chain with the
        same keyed noises, pick the best terminal reward by hand."""
        from diffguide import reward

        n, seed = 4, 21
        z0 = streams.normal_pair(seed, streams.ROLE_INIT, 0, 0)
        finals = []
        for stream in range(n):
            x = z0.copy()
            for t in range(SCHED.T, 0, -1):
                eps_hat = predict_eps(MODEL, x, t, SCHED)
                mu = posterior_mean(x, eps_hat, t, SCHED)
                if t > 1:
                    x = mu + np.sqrt(SCHED.beta[t]) * streams.normal_pair(
                        seed, streams.ROLE_STEP, t, stream
                    )
                else:
                    x = mu
            finals.append(x)
        finals = np.asarray(finals)
        best = finals[int(np.argmax(reward(REWARD, finals)))]
        got, _ = blockwise_batch(MODEL, SCHED, REWARD, n, SCHED.T, [seed])
        np.testing.assert_allclose(got[0], best, rtol=0, atol=1e-12)


class TestSelectionLogic:
    def test_tiny_enumeration_matches(self):
        """T=4, B=2, N=2: enumerate both streams per block by hand and apply
        the argmax selection independently of the sampler internals."""
        sched = build_linear_schedule(4)
        model = IsotropicGaussianEps(mean=np.array([1.0, 1.0]), sigma=2.0)
        spec = GaussianReward(mu=[4.0, 4.0], sigma=1.0)
        seed = 3

        x = streams.normal_pair(seed, streams.ROLE_INIT, 0, 0)
        for t_hi, t_lo in [(4, 3), (2, 1)]:
            endpoints = []
            for stream in range(2):
                y = x.copy()
                for t in range(t_hi, t_lo - 1, -1):
                    mu = posterior_mean(y, predict_eps(model, y, t, sched), t, sched)
                    if t > 1:
                        y = mu + np.sqrt(sched.beta[t]) * streams.normal_pair(
                            seed, streams.ROLE_STEP, t, stream
                        )
                    else:
                        y = mu
                endpoints.append(y)
            t = t_lo - 1
            eps = [predict_eps(model, y, t, sched) if t > 0 else None for y in endpoints]
            vals = [value_given_eps(spec, sched, y, t, e) for y, e in zip(endpoints, eps)]
            x = endpoints[int(np.argmax(vals))]

        got, _ = blockwise_batch(model, sched, spec, 2, 2, [seed])
        np.testing.assert_allclose(got[0], x, rtol=0, atol=1e-13)

    def test_ties_pick_lowest_stream(self):
        """A constant reward ties every candidate; stream 0 must win, which
        makes the output identical to the single-stream chain."""
        flat = QuantizedReward(mu=[0.0, 0.0], delta=1e12)
        a, _ = blockwise_batch(MODEL, SCHED, flat, 5, 10, [13])
        b, _ = blockwise_batch(MODEL, SCHED, flat, 1, 10, [13])
        np.testing.assert_array_equal(a, b)

    def test_constant_reward_matches_base_distribution(self):
        """Selection under a flat reward must not bias the sampler: the
        Gaussian-fit KL between 2000 guided and 2000 base draws stays tiny."""
        sched = build_linear_schedule(40)
        model = init_model(8, 4, seed=2)
        flat = QuantizedReward(mu=[0.0, 0.0], delta=1e12)
        seeds = [streams.derive_seed(77, i) for i in range(2000)]
        guided, _ = blockwise_batch(model, sched, flat, 4, 10, seeds)
        base = base_sample(model, sched, 2000, seed=1234)
        kl = gaussian_kl(fit_gaussian(guided), fit_gaussian(base))
        assert kl <= 0.02, f"flat-reward KL {kl}"

    def test_selection_moves_toward_reward(self):
        sched = build_linear_schedule(60)
        model = IsotropicGaussianEps(mean=np.array([0.0, 0.0]), sigma=1.0)
        spec = GaussianReward(mu=[3.0, 0.0], sigma=1.0)
        seeds = [streams.derive_seed(5, i) for i in range(300)]
        guided, _ = blockwise_batch(model, sched, spec, 8, 10, seeds)
        base = base_sample(model, sched, 300, seed=42)
        assert guided[:, 0].mean() > base[:, 0].mean() + 0.5


class TestBatchedRuns:
    def test_batch_equals_single_runs(self):
        """Vectorizing runs must not change any individual run."""
        seeds = [streams.derive_seed(900, i) for i in range(3)]
        batch, _ = blockwise_batch(MODEL, SCHED, REWARD, 3, 10, seeds)
        for i, s in enumerate(seeds):
            single, _ = blockwise_batch(MODEL, SCHED, REWARD, 3, 10, [s])
            np.testing.assert_array_equal(batch[i], single[0])

    def test_grad_batch_equals_single_runs(self):
        """Gradient guidance over 37 runs gives each run the bits it has alone."""
        seeds = [streams.derive_seed(902, i) for i in range(37)]
        batch, _ = grad_guided_batch(MODEL, SCHED, REWARD, 1.0, seeds)
        for i, s in enumerate(seeds):
            single, _ = grad_guided_batch(MODEL, SCHED, REWARD, 1.0, [s])
            np.testing.assert_array_equal(batch[i], single[0])

    @pytest.mark.parametrize("scale", [0.5, 2.0])
    def test_grad_batch_matches_separate_calls(self, scale):
        """One model pass per step for the noise and its input VJP gives the
        bits of separate ``predict_eps`` and ``input_grad`` calls, over three
        chunks, the last one padded."""
        seeds = [streams.derive_seed(903, i) for i in range(2 * CHUNK_ROWS + 5)]
        got, counters = grad_guided_batch(MODEL, SCHED, REWARD, scale, seeds)
        want, last = separate_calls_grad_batch(MODEL, SCHED, REWARD, scale, seeds)
        assert last == 1
        np.testing.assert_array_equal(got, want)
        assert counters.stopped_at is None

    def test_validation(self):
        with pytest.raises(ValueError):
            blockwise_batch(MODEL, SCHED, REWARD, 0, 10, [0])
        with pytest.raises(ValueError):
            blockwise_batch(MODEL, SCHED, REWARD, 2, 0, [0])
        with pytest.raises(ValueError):
            blockwise_batch(MODEL, SCHED, REWARD, 2, SCHED.T + 1, [0])


class TestSeedChecks:
    @pytest.mark.parametrize(
        "seeds, shown",
        [([1.5], "1.5"), ([True], "True"), (np.array([-1]), "-1"), ([0, -2, 1.5], "-2")],
    )
    def test_batch_samplers_refuse_a_seed_that_is_no_key(self, seeds, shown):
        """A float, a bool or a negative seed is refused, not cast to a key;
        the message names the first such entry."""
        for run in (
            lambda: blockwise_batch(MODEL, SCHED, REWARD, 2, 10, seeds),
            lambda: grad_guided_batch(MODEL, SCHED, REWARD, 1.0, seeds),
        ):
            with pytest.raises(ValueError, match=rf"got {shown}$"):
                run()

    def test_the_largest_key_is_a_seed(self):
        a, _ = blockwise_batch(MODEL, SCHED, REWARD, 2, 10, [2**64 - 1])
        b, _ = blockwise_batch(MODEL, SCHED, REWARD, 2, 10, np.array([2**64 - 1], dtype=np.uint64))
        np.testing.assert_array_equal(a, b)


def split_into(monkeypatch, count):
    """Makes every sampler batch split its runs into ``count`` slices."""
    monkeypatch.setattr(samplers, "_workers", lambda rows, runs: count)


class TestSplitRuns:
    """A batch's runs split across threads keep their bits and counters."""

    RUNS = [7, 2, 1, 0]  # not divisible by 2 or 3, fewer runs than slices, one, none

    @staticmethod
    def selection(runs, block, **kwargs):
        seeds = [streams.derive_seed(905, i) for i in range(runs)]
        return blockwise_batch(MODEL, SCHED, REWARD, 3, block, seeds, **kwargs)

    @pytest.mark.parametrize("count", [2, 3])
    @pytest.mark.parametrize("runs", RUNS)
    @pytest.mark.parametrize("block", [SCHED.T, 1, 10], ids=["best_of_n", "stepwise", "blockwise"])
    def test_selection_keeps_its_bits(self, monkeypatch, count, runs, block):
        split_into(monkeypatch, 1)
        want, want_counters = self.selection(runs, block)
        split_into(monkeypatch, count)
        got, counters = self.selection(runs, block)
        assert got.shape == (runs, 2)
        np.testing.assert_array_equal(got, want)
        assert counters == want_counters

    @pytest.mark.parametrize("count", [2, 3])
    @pytest.mark.parametrize("runs", RUNS)
    @pytest.mark.parametrize("shared", [True, False], ids=["shared_ref", "per_run_refs"])
    def test_reference_start_keeps_its_bits(self, monkeypatch, count, runs, shared):
        refs = [6.0, 4.0] if shared else np.arange(2.0 * runs).reshape(runs, 2)
        split_into(monkeypatch, 1)
        want, want_counters = self.selection(runs, 10, eta=0.6, x_refs=refs)
        split_into(monkeypatch, count)
        got, counters = self.selection(runs, 10, eta=0.6, x_refs=refs)
        np.testing.assert_array_equal(got, want)
        assert counters == want_counters

    @pytest.mark.parametrize("count", [2, 3])
    @pytest.mark.parametrize("n", [7, 2, 1])
    def test_base_sample_keeps_its_bits(self, monkeypatch, count, n):
        split_into(monkeypatch, 1)
        want = base_sample(MODEL, SCHED, n, seed=11)
        split_into(monkeypatch, count)
        np.testing.assert_array_equal(base_sample(MODEL, SCHED, n, seed=11), want)

    def test_more_slices_than_cores_under_fast_switching(self, monkeypatch):
        """Eight slices with a thread switch every microsecond: each thread
        keeps its own model scratch buffers, so no run takes another's bits."""
        seeds = [streams.derive_seed(906, i) for i in range(40)]
        split_into(monkeypatch, 1)
        want = blockwise_batch(MODEL, SCHED, REWARD, 4, 5, seeds)
        split_into(monkeypatch, 8)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = blockwise_batch(MODEL, SCHED, REWARD, 4, 5, seeds)
        finally:
            sys.setswitchinterval(interval)
        np.testing.assert_array_equal(got[0], want[0])
        assert got[1] == want[1]

    def test_a_worker_error_reaches_the_caller(self, monkeypatch):
        caller = threading.get_ident()

        def failing(*args):
            if threading.get_ident() != caller:
                raise ArithmeticError("worker slice failed")
            return predict_eps(*args)

        split_into(monkeypatch, 2)
        monkeypatch.setattr(samplers, "predict_eps", failing)
        with pytest.raises(ArithmeticError, match="worker slice failed"):
            self.selection(4, 10)

    def test_workers_run_under_the_callers_errstate(self, monkeypatch):
        seen = []

        def recording(*args):
            seen.append((threading.get_ident(), np.geterr()["divide"]))
            return predict_eps(*args)

        split_into(monkeypatch, 2)
        monkeypatch.setattr(samplers, "predict_eps", recording)
        with np.errstate(divide="raise"):
            self.selection(4, 10)
        assert len({ident for ident, _ in seen}) == 2
        assert {mode for _, mode in seen} == {"raise"}


class TestWorkerRule:
    @pytest.fixture
    def two_cpus(self, monkeypatch):
        monkeypatch.setattr(samplers.os, "sched_getaffinity", lambda pid: {0, 1})
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        return monkeypatch

    def test_one_blas_thread_on_two_cpus_gives_two(self, two_cpus):
        assert samplers._workers(4 * CHUNK_ROWS, 100) == 2
        assert samplers._workers(3000, 100) == 2

    def test_fewer_than_two_chunks_of_rows_per_slice_give_one(self, two_cpus):
        assert samplers._workers(2 * CHUNK_ROWS - 1, 100) == 1
        assert samplers._workers(4 * CHUNK_ROWS - 1, 100) == 1
        assert samplers._workers(0, 0) == 1

    def test_a_slice_holds_at_least_one_run(self, two_cpus):
        assert samplers._workers(3000, 1) == 1

    def test_omp_budget_counts_when_openblas_is_unset(self, two_cpus):
        two_cpus.delenv("OPENBLAS_NUM_THREADS")
        two_cpus.setenv("OMP_NUM_THREADS", "1")
        assert samplers._workers(3000, 100) == 2

    @pytest.mark.parametrize("budget", [None, "2", "0", "many"])
    def test_a_blas_budget_that_fills_the_cpus_gives_one(self, two_cpus, budget):
        """Unset or unparsable counts one BLAS thread per CPU."""
        if budget is None:
            two_cpus.delenv("OPENBLAS_NUM_THREADS")
        else:
            two_cpus.setenv("OPENBLAS_NUM_THREADS", budget)
        assert samplers._workers(3000, 100) == 1


class TestNoisedReferenceStart:
    def test_small_eta_hugs_reference(self):
        """With round(eta T) = 1 and one stream the output is one denoising
        step away from the reference."""
        sched = build_linear_schedule(100, 1e-3, 0.2)
        model = IsotropicGaussianEps(mean=np.array([5.0, 5.0]), sigma=2.0)
        x_ref = np.array([6.0, 4.0])
        got, _ = blockwise_batch(model, sched, REWARD, 1, 1, [8], eta=0.01, x_refs=x_ref)
        assert np.linalg.norm(got[0] - x_ref) < 0.3

    def test_eta_validation(self):
        with pytest.raises(ValueError):
            blockwise_batch(MODEL, SCHED, REWARD, 2, 5, [0], eta=0.0, x_refs=[0, 0])
        with pytest.raises(ValueError):
            blockwise_batch(MODEL, SCHED, REWARD, 2, 5, [0], eta=1.5, x_refs=[0, 0])
        with pytest.raises(ValueError):
            blockwise_batch(MODEL, SCHED, REWARD, 2, 5, [0], eta=0.5, x_refs=None)

    def test_partial_chain_step_count(self):
        _, c = blockwise_batch(MODEL, SCHED, REWARD, 2, 5, [0], eta=0.6, x_refs=[1.0, 1.0])
        assert c.model_evals == 2 * round(0.6 * SCHED.T)
        assert c.reward_queries == 2 * int(np.ceil(round(0.6 * SCHED.T) / 5))


class TestCounters:
    def test_study_scale_accounting(self):
        """T=1000, B=100, N=3: exactly 10 selections and N*T denoising evals."""
        sched = build_linear_schedule(1000)
        model = init_model(4, 2, seed=0)
        _, c = blockwise_batch(model, sched, REWARD, 3, 100, [0])
        assert c.reward_queries == 3 * 10
        assert c.model_evals == 3 * 1000

    def test_best_of_n_accounting(self):
        _, c = blockwise_batch(MODEL, SCHED, REWARD, 6, SCHED.T, [0])
        assert c.model_evals == 6 * SCHED.T
        assert c.reward_queries == 6

    def test_stepwise_accounting(self):
        _, c = blockwise_batch(MODEL, SCHED, REWARD, 2, 1, [0])
        assert c.model_evals == 2 * SCHED.T
        assert c.reward_queries == 2 * SCHED.T


class TestGradGuidance:
    def test_zero_scale_is_base(self):
        a, _ = grad_guided_batch(MODEL, SCHED, REWARD, 0.0, [7])
        b = base_sample(MODEL, SCHED, 1, seed=7)
        np.testing.assert_array_equal(a, b)

    def test_rejects_quantized_reward(self):
        with pytest.raises(UnsupportedRewardError):
            grad_guided_batch(MODEL, SCHED, QuantizedReward(mu=[0.0, 0.0]), 5.0, [0])

    @pytest.mark.parametrize("scale", [-1.0, float("nan"), float("inf")])
    def test_rejects_a_scale_that_is_no_finite_number_at_least_zero(self, scale):
        """A NaN scale fails every comparison, so it would run the base chain."""
        with pytest.raises(ValueError, match="scale must be a finite number >= 0"):
            grad_guided_batch(MODEL, SCHED, REWARD, scale, [0])

    def test_guidance_moves_toward_reward(self):
        sched = build_linear_schedule(60)
        model = IsotropicGaussianEps(mean=np.array([0.0, 0.0]), sigma=1.0)
        spec = GaussianReward(mu=[4.0, 0.0], sigma=1.0)
        from diffguide import grad_guided_batch

        seeds = [streams.derive_seed(31, i) for i in range(200)]
        guided, counters = grad_guided_batch(model, sched, spec, 5.0, seeds)
        base = base_sample(model, sched, 200, seed=5)
        assert guided[:, 0].mean() > base[:, 0].mean() + 0.5
        assert counters.model_evals == sched.T
        assert counters.reward_queries == sched.T

    def test_one_step_tilted_mean_oracle(self):
        """One guided step on the exact Gaussian predictor equals the mean
        shift of tilting the reverse kernel by the linearized log reward.

        Oracle side: the value gradient is derived analytically (conditional
        mean map -> chain rule through the reward), never via input_grad.
        """
        sched = build_linear_schedule(100)
        mean = np.array([1.0, -1.0])
        s = 2.0
        model = IsotropicGaussianEps(mean=mean, sigma=s)
        spec = GaussianReward(mu=[6.0, 2.0], sigma=1.5)
        t = 60
        lam = 3.0
        x = np.array([0.5, 0.3])

        ab = sched.alpha_bar[t]
        a = sched.alpha[t]
        # analytic value gradient: x0_hat(x) = mean + c1 (x - sqrt(ab) mean)
        c1 = np.sqrt(ab) * s**2 / (ab * s**2 + 1.0 - ab)
        x0_hat = mean + c1 * (x - np.sqrt(ab) * mean)
        grad_v = c1 * (spec.mu - x0_hat) / spec.sigma**2
        # tilting N(mu, beta I) by exp(lam g . x) shifts the mean by
        # lam beta g; the epsilon-space correction applies it pre-division
        # by sqrt(alpha_t)
        shift_oracle = lam * (1.0 - a) / np.sqrt(a) * grad_v

        eps_hat = predict_eps(model, x, t, sched)
        mu_plain = posterior_mean(x, eps_hat, t, sched)
        g = reward_grad(spec, tweedie_x0(x, eps_hat, t, sched))
        vjp = input_grad(model, x, t, sched, g)
        glog = (g - np.sqrt(1.0 - ab) * vjp) / np.sqrt(ab)
        eps_guided = eps_hat - np.sqrt(1.0 - ab) * lam * glog
        mu_guided = posterior_mean(x, eps_guided, t, sched)
        np.testing.assert_allclose(mu_guided - mu_plain, shift_oracle, rtol=1e-10)

    @pytest.mark.parametrize("scale", [1.0, 5.0, 50.0])
    def test_exact_predictor_stays_bounded_on_the_study_prior(self, scale):
        """With the exact mixture predictor of the study prior (T=1000),
        the exact-chain guided batch of 200 runs goes to the end at scales
        where the trained model's chains can blow up, lands near the reward,
        and moves further from the base distribution as the scale grows: the
        Gaussian-fit KL against a 200-run base batch rises from scale 1 to 5
        to 50."""
        out, counters, kl = exact_study_batch(scale)
        assert counters.stopped_at is None
        assert np.all(np.abs(out) <= STATE_BOUND)
        assert np.linalg.norm(out.mean(axis=0) - REWARD.mu) < 3.0
        lower = {5.0: 1.0, 50.0: 5.0}.get(scale)
        if lower is not None:
            assert kl > exact_study_batch(lower)[2]


class TestDivergenceGuard:
    def test_batch_stops_at_the_step_it_leaves_the_bound(self):
        """At scale 1000 a state passes the bound a few steps in: the batch
        stops at that step, returns NaN and counts only the steps it ran."""
        seeds = [streams.derive_seed(904, i) for i in range(20)]
        out, counters = grad_guided_batch(MODEL, SCHED, REWARD, 1000.0, seeds)
        _, step = separate_calls_grad_batch(MODEL, SCHED, REWARD, 1000.0, seeds)
        assert SCHED.T - 10 < step < SCHED.T
        assert counters.stopped_at == step
        assert out.shape == (20, 2) and np.all(np.isnan(out))
        ran = SCHED.T - step + 1
        assert (counters.model_evals, counters.reward_queries) == (ran, ran)

    def test_single_run_reports_the_step(self):
        got, c = grad_guided_batch(MODEL, SCHED, REWARD, 1e6, [0])
        assert np.all(np.isnan(got))
        assert c.stopped_at == SCHED.T - 1
        assert (c.model_evals, c.reward_queries) == (2, 2)
