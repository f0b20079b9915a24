"""Mixture sampling and the training loop (smoke scale)."""

import os
import subprocess
import sys

import numpy as np
import pytest

import diffguide
from diffguide import (
    GmmSpec,
    TrainConfig,
    build_linear_schedule,
    init_model,
    mixture_cov,
    mixture_mean,
    paper_prior,
    sample_gmm,
    train,
)


class TestGmmSpec:
    def test_rejects_bad_weights(self):
        with pytest.raises(ValueError):
            GmmSpec(weights=[0.5, 0.6], means=[[0, 0], [1, 1]], sigma=1.0)
        with pytest.raises(ValueError):
            GmmSpec(weights=[-0.5, 1.5], means=[[0, 0], [1, 1]], sigma=1.0)
        with pytest.raises(ValueError):
            GmmSpec(weights=[1.0], means=[[0, 0]], sigma=0.0)

    @pytest.mark.parametrize(
        "weights, means",
        [
            ([True, False], [[0, 0], [4, 4]]),
            (["0.5", "0.5"], [[0, 0], [4, 4]]),
            ([0.5, 0.5], [[0, 0], ["4", 4]]),
            ([0.5, 0.5], [[0, 0], [4, float("inf")]]),
        ],
    )
    def test_rejects_an_entry_that_is_no_finite_number(self, weights, means):
        with pytest.raises(ValueError, match="must be an array of finite numbers"):
            GmmSpec(weights=weights, means=means, sigma=2.0)

    def test_stores_read_only_float_arrays(self):
        spec = GmmSpec(weights=[1], means=[[2, -3]])
        for arr in (spec.weights, spec.means):
            assert arr.dtype == np.float64 and not arr.flags.writeable
        np.testing.assert_array_equal(spec.means, [[2.0, -3.0]])
        assert spec.sigma == 2.0

    def test_compares_and_hashes_by_value(self):
        a, b = GmmSpec(weights=[1], means=[[2, -3]]), GmmSpec(weights=[1.0], means=[[2.0, -3.0]])
        assert a == b and hash(a) == hash(b)
        assert a != GmmSpec(weights=[1], means=[[2, 3]])
        assert paper_prior() == paper_prior() and hash(paper_prior()) == hash(paper_prior())
        assert paper_prior() != GmmSpec(paper_prior().weights, paper_prior().means, sigma=1.0)

    def test_analytic_moments_of_study_prior(self):
        spec = paper_prior()
        np.testing.assert_allclose(mixture_mean(spec), [5.0, 17.0 / 3.0], rtol=1e-14)
        np.testing.assert_allclose(
            mixture_cov(spec), np.diag([20.0 / 3.0, 68.0 / 9.0]), atol=1e-13
        )


class TestSampleGmm:
    def test_tiny_sigma_sticks_to_mean(self):
        spec = GmmSpec(weights=[1.0], means=[[2.0, -3.0]], sigma=1e-12)
        xs = sample_gmm(spec, 50, seed=0)
        np.testing.assert_allclose(xs, np.tile([2.0, -3.0], (50, 1)), atol=1e-10)

    def test_study_prior_moments(self):
        """Sample moments against the analytic mixture oracle:
        mean = sum(w mu); cov = sigma^2 I + between-component scatter."""
        spec = paper_prior()
        xs = sample_gmm(spec, 100_000, seed=7)
        want_mean = np.array([5.0, 17.0 / 3.0])
        want_cov = np.diag([4.0 + 8.0 / 3.0, 4.0 + 32.0 / 9.0])
        assert np.all(np.abs(xs.mean(axis=0) - want_mean) < 0.05)
        assert np.all(np.abs(np.cov(xs, rowvar=False) - want_cov) < 0.2)

    def test_deterministic(self):
        spec = paper_prior()
        a = sample_gmm(spec, 100, seed=3)
        b = sample_gmm(spec, 100, seed=3)
        assert a.tobytes() == b.tobytes()

    def test_rejects_nonpositive_n(self):
        with pytest.raises(ValueError):
            sample_gmm(paper_prior(), 0, seed=0)


class TestTrain:
    def test_zero_learning_rate_keeps_parameters(self):
        sched = build_linear_schedule(20)
        model = init_model(6, 4, seed=0)
        cfg = TrainConfig(epochs=3, dataset_size=64, batch_size=32, lr=0.0, seed=1)
        trained, losses = train(model, paper_prior(), sched, cfg)
        for (_, pa), (_, pb) in zip(model.params(), trained.params()):
            assert pa.tobytes() == pb.tobytes()
        # loss only fluctuates with the minibatch draws
        assert losses.std() < 0.2 * losses.mean()

    def test_seeded_runs_identical(self):
        sched = build_linear_schedule(15)
        model = init_model(6, 4, seed=2)
        cfg = TrainConfig(epochs=2, dataset_size=128, batch_size=32, seed=9)
        a, la = train(model, paper_prior(), sched, cfg)
        b, lb = train(model, paper_prior(), sched, cfg)
        assert la.tobytes() == lb.tobytes()
        for (_, pa), (_, pb) in zip(a.params(), b.params()):
            assert pa.tobytes() == pb.tobytes()

    def test_parameters_do_not_depend_on_blas_threads(self):
        """The study-width model trained with one and with two BLAS threads
        has the same parameter bytes, and sampling with it gives the same
        bits: ``predict_eps`` and ``input_grad`` on a 1000-row batch, a
        small blockwise batch, a selection batch of 128 runs x 4 streams
        (``4 * CHUNK_ROWS`` rows, which the one-thread process splits across
        two CPUs when it has them) and a small gradient-guided batch.  6000
        examples in batches of 1024 leave an 880-row tail batch.  Each run
        is a fresh process, because the thread count is read when numpy is
        imported."""
        script = (
            "import hashlib\n"
            "import numpy as np\n"
            "from diffguide import (GaussianReward, TrainConfig, blockwise_batch, build_linear_schedule,\n"
            "    grad_guided_batch, init_model, input_grad, paper_prior, predict_eps, train)\n"
            "from diffguide.training import pooled_input_stats\n"
            "def digest(arrays):\n"
            "    return hashlib.sha256(b''.join(np.asarray(a).tobytes() for a in arrays)).hexdigest()\n"
            "sched = build_linear_schedule(1000)\n"
            "shift, scale = pooled_input_stats(paper_prior(), sched)\n"
            "model = init_model(128, 32, seed=0, in_shift=shift, in_scale=scale)\n"
            "cfg = TrainConfig(epochs=2, dataset_size=6000, batch_size=1024, seed=0)\n"
            "trained, _ = train(model, paper_prior(), sched, cfg)\n"
            "print(digest(a for _, a in trained.params()))\n"
            "rng = np.random.default_rng(1)\n"
            "x = rng.normal(5.0, 4.0, size=(1000, 2))\n"
            "steps = rng.integers(1, 1001, size=1000)\n"
            "print(digest([predict_eps(trained, x, 700, sched), predict_eps(trained, x, steps, sched)]))\n"
            "print(digest([input_grad(trained, x, 700, sched, x),\n"
            "              input_grad(trained, x, steps, sched, x)]))\n"
            "reward = GaussianReward(mu=[14.0, 3.0], sigma=2.0)\n"
            "print(digest([blockwise_batch(trained, sched, reward, 3, 100, list(range(12)))[0]]))\n"
            "print(digest([blockwise_batch(trained, sched, reward, 4, 100, list(range(128)))[0]]))\n"
            "print(digest([grad_guided_batch(trained, sched, reward, 1.0, list(range(12)))[0]]))\n"
            "from diffguide import samplers\n"
            "print(samplers._workers(4 * 128, 128))\n"
        )
        src = os.path.dirname(os.path.dirname(os.path.abspath(diffguide.__file__)))
        digests = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=src)
            run = subprocess.run(
                [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=300
            )
            assert run.returncode == 0, run.stderr
            digests.append(run.stdout.split())
        assert len(digests[0]) == 7
        assert digests[0][:-1] == digests[1][:-1]
        # the slices each run split the 128-run batch into
        cpus = len(os.sched_getaffinity(0))
        assert [d[-1] for d in digests] == [str(min(cpus, 2)), str(max(1, min(cpus // 2, 2)))]

    def test_smoke_training_reduces_loss(self):
        """CI-scale run (rescaled betas): loss drops well below its start."""
        sched = build_linear_schedule(100, 1e-3, 0.2)
        model = init_model(64, 16, seed=0)
        cfg = TrainConfig(epochs=12, dataset_size=4096, batch_size=128, lr=2e-3, seed=0)
        _, losses = train(model, paper_prior(), sched, cfg)
        assert losses[-1] < 0.75 * losses[0]

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(batch_size=0)
        with pytest.raises(ValueError):
            TrainConfig(dataset_size=10, batch_size=20)
        with pytest.raises(ValueError):
            TrainConfig(lr=-1.0)
        for lr in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="lr finite"):
                TrainConfig(lr=lr)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_aborts_with_diagnostic(self):
        """An absurd learning rate blows the parameters up; the loop must
        stop with a located error instead of looping on NaNs."""
        from diffguide.training import TrainingDivergedError

        sched = build_linear_schedule(10)
        model = init_model(4, 2, seed=0)
        cfg = TrainConfig(epochs=50, dataset_size=256, batch_size=64, lr=1e200, seed=0)
        with pytest.raises(TrainingDivergedError, match="epoch"):
            train(model, paper_prior(), sched, cfg)
