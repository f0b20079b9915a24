"""Noise-predictor forward pass, exact gradients, checkpoint round trips."""

import re
import sys
import threading
import warnings

import numpy as np
import pytest

from diffguide import (
    EpsModel,
    IsotropicGaussianEps,
    build_linear_schedule,
    eps_and_input_grad,
    forward_noising,
    init_model,
    input_grad,
    load_checkpoint,
    loss_and_param_grads,
    predict_eps,
    save_checkpoint,
)
from diffguide import model as model_module
from diffguide.model import (
    PARAM_NAMES,
    CheckpointFormatError,
    CheckpointShapeError,
    CheckpointVersionError,
    time_embedding,
    with_params,
)
from diffguide.samplers import STATE_BOUND


def rel_err(got, want):
    return np.max(np.abs(got - want)) / max(1.0, np.max(np.abs(want)))


def fd_param_grads(model, x0, eps, t, sched, h=1e-6):
    """Central finite differences of the loss through every parameter."""
    grads = {}
    for name, arr in model.params():
        g = np.zeros_like(arr)
        flat = arr.ravel()
        gflat = g.ravel()
        for i in range(flat.size):
            bumped = arr.copy().ravel()
            bumped[i] = flat[i] + h
            lo_hi = with_params(model, {name: bumped.reshape(arr.shape)})
            up = loss_and_param_grads(lo_hi, x0, eps, t, sched).loss
            bumped[i] = flat[i] - h
            lo_lo = with_params(model, {name: bumped.reshape(arr.shape)})
            down = loss_and_param_grads(lo_lo, x0, eps, t, sched).loss
            gflat[i] = (up - down) / (2 * h)
        grads[name] = g
    return grads


class TestInit:
    def test_deterministic_for_seed(self):
        a = init_model(16, 8, seed=3)
        b = init_model(16, 8, seed=3)
        for (_, pa), (_, pb) in zip(a.params(), b.params()):
            assert pa.tobytes() == pb.tobytes()

    def test_seeds_differ(self):
        a = init_model(16, 8, seed=0)
        b = init_model(16, 8, seed=1)
        assert any(not np.array_equal(pa, pb) for (_, pa), (_, pb) in zip(a.params(), b.params()))

    @pytest.mark.parametrize("hidden,embed", [(0, 4), (4, 3), (4, 0), (-1, 2)])
    def test_rejects_bad_dims(self, hidden, embed):
        with pytest.raises(ValueError):
            init_model(hidden, embed, seed=0)

    def test_init_is_fan_in_bounded(self):
        model = init_model(64, 16, seed=5)
        assert np.max(np.abs(model.w1)) <= 1.0 / np.sqrt(18)
        assert np.max(np.abs(model.w2)) <= 1.0 / np.sqrt(64)


class TestForward:
    def test_batch_of_one_matches_batch_of_many(self):
        sched = build_linear_schedule(100)
        model = init_model(16, 8, seed=2)
        rng = np.random.default_rng(0)
        xs = rng.normal(size=(6, 2))
        t = 37
        full = predict_eps(model, xs, t, sched)
        for i in range(6):
            np.testing.assert_array_equal(full[i], predict_eps(model, xs[i : i + 1], t, sched)[0])
            np.testing.assert_array_equal(full[i], predict_eps(model, xs[i], t, sched))

    def test_zero_model_outputs_zero(self):
        sched = build_linear_schedule(10)
        model = init_model(8, 4, seed=0)
        zeros = {name: np.zeros_like(arr) for name, arr in model.params()}
        model = with_params(model, zeros)
        out = predict_eps(model, [[3.0, -4.0], [0.1, 0.2]], 5, sched)
        np.testing.assert_array_equal(out, np.zeros((2, 2)))

    def test_hand_computed_tiny_model(self):
        """H=2, E=2, hand-set weights, identity activation."""
        sched = build_linear_schedule(4)
        w1 = np.array([[1.0, 0.5], [0.0, -1.0], [2.0, 0.0], [0.0, 1.0]])
        b1 = np.array([0.1, -0.2])
        w2 = np.array([[1.0, 2.0], [3.0, -1.0]])
        b2 = np.array([0.0, 0.5])
        w3 = np.array([[1.0, 0.0], [0.0, 2.0]])
        b3 = np.array([-1.0, 1.0])
        model = EpsModel(w1, b1, w2, b2, w3, b3, activation="identity", embed_width=2, freq_base=10.0)
        x = np.array([0.3, -0.7])
        t = 2
        emb = np.array([np.sin(0.5), np.cos(0.5)])  # single frequency 10**0 = 1
        z1 = np.array(
            [
                0.3 * 1.0 + (-0.7) * 0.0 + emb[0] * 2.0 + emb[1] * 0.0 + 0.1,
                0.3 * 0.5 + (-0.7) * (-1.0) + emb[0] * 0.0 + emb[1] * 1.0 - 0.2,
            ]
        )
        z2 = np.array([z1 @ w2[:, 0], z1 @ w2[:, 1]]) + b2
        expect = np.array([z2 @ w3[:, 0], z2 @ w3[:, 1]]) + b3
        got = predict_eps(model, x, t, sched)
        np.testing.assert_allclose(got, expect, rtol=1e-14)

    def test_batch_length_mismatch(self):
        sched = build_linear_schedule(10)
        model = init_model(4, 2, seed=0)
        with pytest.raises(ValueError, match="batch length mismatch"):
            predict_eps(model, np.zeros((3, 2)), np.array([1, 2]), sched)

    def test_embedding_range_and_shape(self):
        emb = time_embedding(np.array([1, 500, 1000]), 1000, 32, 1000.0)
        assert emb.shape == (3, 32)
        assert np.all(np.abs(emb) <= 1.0)


def plain_input(model, x, t, sched):
    """Layer-1 input of the documented model: the whitened point and the
    step embedding."""
    steps = np.broadcast_to(t, (len(x),))
    emb = time_embedding(steps, sched.T, model.embed_width, model.freq_base)
    return np.concatenate([(x - model.in_shift) / model.in_scale, emb], axis=1)


def plain_z1(model, x, t, sched):
    """Layer-1 pre-activations of the documented model in plain numpy."""
    return plain_input(model, x, t, sched) @ model.w1 + model.b1


def plain_layers(model, x, t, sched):
    """The documented model in plain numpy: biases added apart, no sign
    folding, SiLU as ``z / (1 + exp(-z))``.  Returns ``(z1, a1, z2, a2,
    eps)``."""
    act = (lambda z: z / (1.0 + np.exp(-z))) if model.activation == "silu" else (lambda z: z)
    z1 = plain_z1(model, x, t, sched)
    a1 = act(z1)
    z2 = a1 @ model.w2 + model.b2
    a2 = act(z2)
    return z1, a1, z2, a2, a2 @ model.w3 + model.b3


def plain_eps(model, x, t, sched):
    return plain_layers(model, x, t, sched)[-1]


def plain_backward(model, z1, z2, dout):
    """Gradients ``(dz2, dz1)`` at both pre-activations from the gradient
    ``dout`` at the output, with SiLU' as ``s (1 + z (1 - s))``."""

    def act_grad(z):
        if model.activation == "identity":
            return np.ones_like(z)
        s = 1.0 / (1.0 + np.exp(-z))
        return s * (1.0 + z * (1.0 - s))

    dz2 = (dout @ model.w3.T) * act_grad(z2)
    return dz2, (dz2 @ model.w2.T) * act_grad(z1)


def assert_close_to_scale(got, want, rtol):
    """``got`` within ``rtol`` of ``want``, elementwise and relative to
    ``want``'s largest entry: a near-zero entry carries the rounding of its
    larger terms."""
    np.testing.assert_allclose(got, want, rtol=rtol, atol=rtol * np.max(np.abs(want)))


class TestPlainEvaluation:
    """The chunk kernel (sign-folded products, biases inside them, SiLU and
    its derivative from ``-a`` and ``1 + exp(-z)``) against the documented
    model written out in plain numpy."""

    @staticmethod
    def case(activation, per_row_steps, n):
        model = init_model(128, 32, seed=5, activation=activation, in_shift=[5.0, 5.7], in_scale=3.0)
        rng = np.random.default_rng(n)
        x = rng.normal(5.0, 4.0, size=(n, 2))
        t = rng.integers(1, 1001, size=n) if per_row_steps else 400
        return model, x, t, rng.normal(size=(n, 2))

    @pytest.mark.parametrize("n", [1, 5, 2 * model_module.CHUNK_ROWS + 5])
    @pytest.mark.parametrize("per_row_steps", [False, True])
    @pytest.mark.parametrize("activation", ["silu", "identity"])
    def test_matches_the_documented_model(self, activation, per_row_steps, n):
        sched = build_linear_schedule(1000)
        model, x, t, _ = self.case(activation, per_row_steps, n)
        assert_close_to_scale(predict_eps(model, x, t, sched), plain_eps(model, x, t, sched), 1e-13)

    @pytest.mark.parametrize("n", [1, 5, 2 * model_module.CHUNK_ROWS + 5])
    @pytest.mark.parametrize("per_row_steps", [False, True])
    @pytest.mark.parametrize("activation", ["silu", "identity"])
    def test_input_grad_matches_the_documented_model(self, activation, per_row_steps, n):
        sched = build_linear_schedule(1000)
        model, x, t, cot = self.case(activation, per_row_steps, n)
        z1, _, z2, _, _ = plain_layers(model, x, t, sched)
        _, dz1 = plain_backward(model, z1, z2, cot)
        assert_close_to_scale(
            input_grad(model, x, t, sched, cot), dz1 @ model.w1[:2].T / model.in_scale, 1e-12
        )

    @pytest.mark.parametrize("n", [1, 5, 2 * model_module.CHUNK_ROWS + 5])
    @pytest.mark.parametrize("per_row_steps", [False, True])
    @pytest.mark.parametrize("activation", ["silu", "identity"])
    def test_param_grads_match_the_documented_model(self, activation, per_row_steps, n):
        sched = build_linear_schedule(1000)
        model, x0, t, eps = self.case(activation, per_row_steps, n)
        steps = np.broadcast_to(t, (n,))
        x_t = forward_noising(x0, steps, eps, sched)
        z1, a1, z2, a2, out = plain_layers(model, x_t, steps, sched)
        dout = 2.0 * (out - eps) / n
        dz2, dz1 = plain_backward(model, z1, z2, dout)
        want = {
            "w1": plain_input(model, x_t, steps, sched).T @ dz1,
            "b1": dz1.sum(axis=0),
            "w2": a1.T @ dz2,
            "b2": dz2.sum(axis=0),
            "w3": a2.T @ dout,
            "b3": dout.sum(axis=0),
        }
        got = loss_and_param_grads(model, x0, eps, steps, sched)
        assert_close_to_scale(got.loss, np.mean(np.sum((out - eps) ** 2, axis=1)), 1e-12)
        for name in PARAM_NAMES:
            assert_close_to_scale(getattr(got, name), want[name], 1e-12)

    def test_states_at_the_bound_stay_finite(self):
        """At |x| = STATE_BOUND some pre-activations lie below -709.78,
        where exp(-z) overflows to inf; that gives the exact limits of SiLU
        and of its derivative (0), so every path returns finite results and
        raises no RuntimeWarning."""
        sched = build_linear_schedule(1000)
        model = init_model(128, 32, seed=2, in_shift=[5.0, 5.7], in_scale=3.0)
        corners = np.array([[1.0, 1.0], [-1.0, 1.0], [1.0, -1.0], [-1.0, -1.0], [1.0, 0.0], [0.0, -1.0]])
        x = STATE_BOUND * corners
        steps = np.array([1, 10, 200, 500, 900, 1000])
        cot = np.ones_like(x)
        z = plain_z1(model, x, 400, sched)
        overflow = z < -709.79
        assert overflow.any() and not overflow.all()

        def cotangent_of(x, eps):
            return np.ones_like(eps)

        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            results = [
                predict_eps(model, x, 400, sched),
                predict_eps(model, x, steps, sched),
                input_grad(model, x, 400, sched, cot),
                input_grad(model, x, steps, sched, cot),
                *eps_and_input_grad(model, x, 400, sched, cotangent_of),
            ]
            bundle = loss_and_param_grads(model, x, cot, steps, sched)
            # SiLU' from -a and d = 1 + exp(-z), as the backward pass forms it
            na, d, act_grad = -z, np.empty_like(z), np.empty_like(z)
            with np.errstate(over="ignore"):
                model_module._activate("silu", na, d)
            model_module._act_grad("silu", na, d, np.ones_like(z), act_grad)
        results += [bundle.loss, *(arr for _, arr in bundle.params()), act_grad]
        for arr in results:
            assert np.all(np.isfinite(arr))
        assert np.all(d[overflow] == np.inf)
        assert np.all(act_grad[overflow] == 0.0)


class TestParamGrads:
    def test_gradients_match_finite_differences(self):
        """>= 20 random instances of 1 to 4 rows, and one of
        2 CHUNK_ROWS + 5 rows (three chunks, the last padded); relative
        error <= 1e-6 (silu and identity)."""
        sched = build_linear_schedule(50)
        rng = np.random.default_rng(7)
        worst = 0.0
        for trial in range(21):
            act = "silu" if trial % 2 == 0 else "identity"
            whiten = {"in_shift": [1.5, -0.5], "in_scale": 2.5} if trial % 3 == 0 else {}
            model = init_model(3, 4, seed=100 + trial, activation=act, **whiten)
            n = 2 * model_module.CHUNK_ROWS + 5 if trial == 20 else int(rng.integers(1, 5))
            x0 = rng.normal(scale=3.0, size=(n, 2))
            eps = rng.normal(size=(n, 2))
            t = rng.integers(1, 51, size=n)
            got = loss_and_param_grads(model, x0, eps, t, sched)
            want = fd_param_grads(model, x0, eps, t, sched)
            for name in PARAM_NAMES:
                worst = max(worst, rel_err(getattr(got, name), want[name]))
        assert worst <= 1e-6, f"worst relative error {worst}"

    def test_perfect_model_has_zero_loss_and_grads(self):
        """A predictor that already outputs eps exactly sits at a stationary
        point of the squared error."""
        sched = build_linear_schedule(20)
        base = init_model(4, 4, seed=1)
        # identity activation with weights arranged to reproduce a linear map
        w1 = np.zeros((6, 4))
        w1[0, 0] = 1.0
        w1[1, 1] = 1.0
        w2 = np.zeros((4, 4))
        w2[0, 0] = 1.0
        w2[1, 1] = 1.0
        w3 = np.zeros((4, 2))
        w3[0, 0] = 1.0
        w3[1, 1] = 1.0
        model = EpsModel(
            w1, np.zeros(4), w2, np.zeros(4), w3, np.zeros(2),
            activation="identity", embed_width=4, freq_base=base.freq_base,
        )
        # with x0 = 0 the noised input is sqrt(1-ab) eps, so scale the final
        # layer to undo the factor; use a fixed t so the factor is constant
        t = 7
        ab = sched.alpha_bar[t]
        w3 = w3 / np.sqrt(1.0 - ab)
        model = with_params(model, {"w3": w3})
        x0 = np.zeros((5, 2))
        eps = np.random.default_rng(2).normal(size=(5, 2))
        bundle = loss_and_param_grads(model, x0, eps, np.full(5, t), sched)
        assert bundle.loss <= 1e-28
        for name in PARAM_NAMES:
            np.testing.assert_allclose(getattr(bundle, name), 0.0, atol=1e-13)

    def test_duplicated_batch_is_invariant(self):
        sched = build_linear_schedule(30)
        model = init_model(6, 4, seed=9)
        rng = np.random.default_rng(4)
        x0 = rng.normal(size=(3, 2))
        eps = rng.normal(size=(3, 2))
        t = np.array([2, 15, 30])
        single = loss_and_param_grads(model, x0, eps, t, sched)
        doubled = loss_and_param_grads(
            model, np.tile(x0, (2, 1)), np.tile(eps, (2, 1)), np.tile(t, 2), sched
        )
        np.testing.assert_allclose(doubled.loss, single.loss, rtol=1e-14)
        for name in PARAM_NAMES:
            np.testing.assert_allclose(
                getattr(doubled, name), getattr(single, name), rtol=1e-12, atol=1e-15
            )

    def test_empty_batch_rejected(self):
        sched = build_linear_schedule(10)
        model = init_model(4, 2, seed=0)
        with pytest.raises(ValueError):
            loss_and_param_grads(model, np.zeros((0, 2)), np.zeros((0, 2)), np.zeros(0, dtype=int), sched)


class TestInputGrad:
    def test_zero_cotangent(self):
        sched = build_linear_schedule(10)
        model = init_model(8, 4, seed=3)
        got = input_grad(model, [0.5, -0.5], 4, sched, [0.0, 0.0])
        np.testing.assert_array_equal(got, [0.0, 0.0])

    def test_matches_finite_differences(self):
        """>= 20 random instances against an FD Jacobian contraction."""
        sched = build_linear_schedule(40)
        rng = np.random.default_rng(12)
        h = 1e-6
        worst = 0.0
        for trial in range(20):
            whiten = {"in_shift": [0.5, 2.0], "in_scale": 1.8} if trial % 3 == 0 else {}
            model = init_model(5, 4, seed=200 + trial, **whiten)
            x = rng.normal(scale=2.0, size=2)
            t = int(rng.integers(1, 41))
            cot = rng.normal(size=2)
            got = input_grad(model, x, t, sched, cot)
            want = np.zeros(2)
            for j in range(2):
                step = np.zeros(2)
                step[j] = h
                up = predict_eps(model, x + step, t, sched)
                down = predict_eps(model, x - step, t, sched)
                want[j] = cot @ ((up - down) / (2 * h))
            worst = max(worst, rel_err(got, want))
        assert worst <= 1e-6, f"worst relative error {worst}"

    @pytest.mark.parametrize("t", [0, -3, 101, 5000])
    def test_step_out_of_range(self, t):
        sched = build_linear_schedule(100)
        model = init_model(8, 4, seed=3)
        with pytest.raises(ValueError, match="out of range"):
            input_grad(model, np.zeros((3, 2)), t, sched, np.ones((3, 2)))

    def test_batch_length_mismatch(self):
        sched = build_linear_schedule(100)
        model = init_model(8, 4, seed=3)
        with pytest.raises(ValueError, match="batch length mismatch"):
            input_grad(model, np.zeros((3, 2)), np.array([1, 2]), sched, np.ones((3, 2)))
        with pytest.raises(ValueError, match="batch length mismatch"):
            input_grad(model, np.zeros((3, 2)), 5, sched, np.ones((2, 2)))

    def test_single_point_against_steps(self):
        """One point with a step per row is that point repeated."""
        sched = build_linear_schedule(100)
        model = init_model(8, 4, seed=3)
        t = np.array([3, 50, 99])
        cot = np.random.default_rng(0).normal(size=(3, 2))
        x = np.array([0.4, -1.3])
        np.testing.assert_array_equal(
            input_grad(model, x, t, sched, cot), input_grad(model, np.tile(x, (3, 1)), t, sched, cot)
        )

    def test_linear_model_closed_form(self):
        """Identity activations make the VJP the composed weight product."""
        sched = build_linear_schedule(10)
        model = init_model(6, 4, seed=8, activation="identity")
        cot = np.array([0.3, -1.2])
        got = input_grad(model, [0.7, 0.1], 3, sched, cot)
        expect = cot @ model.w3.T @ model.w2.T @ model.w1[:2].T
        np.testing.assert_allclose(got, expect, rtol=1e-12)


class TestEpsAndInputGrad:
    """One pass for the noise, a row-wise cotangent and its input VJP."""

    @staticmethod
    def cotangent_of(x, eps):
        return np.sin(x) - 2.0 * eps

    @pytest.mark.parametrize("n", [1, 2 * model_module.CHUNK_ROWS + 5])
    @pytest.mark.parametrize("per_row_steps", [False, True])
    def test_matches_separate_calls(self, n, per_row_steps):
        sched = build_linear_schedule(100)
        model = init_model(16, 8, seed=4, in_shift=[1.0, -2.0], in_scale=2.5)
        rng = np.random.default_rng(n)
        x = rng.normal(scale=3.0, size=(n, 2))
        t = rng.integers(1, 101, size=n) if per_row_steps else 37
        eps, cot, vjp = eps_and_input_grad(model, x, t, sched, self.cotangent_of)
        want_eps = predict_eps(model, x, t, sched)
        want_cot = self.cotangent_of(x, want_eps)
        np.testing.assert_array_equal(eps, want_eps)
        np.testing.assert_array_equal(cot, want_cot)
        np.testing.assert_array_equal(vjp, input_grad(model, x, t, sched, want_cot))

    def test_cotangent_may_evaluate_a_model(self):
        """A cotangent that evaluates another model between a chunk's
        forward and backward passes leaves the chunk's scratch buffers as
        they were: the three results keep the bits of the separate calls."""
        sched = build_linear_schedule(100)
        model = init_model(16, 8, seed=4, in_shift=[1.0, -2.0], in_scale=2.5)
        other = init_model(16, 8, seed=9)
        x = np.random.default_rng(3).normal(scale=3.0, size=(2 * model_module.CHUNK_ROWS + 5, 2))

        def cotangent_of(x, eps):
            return predict_eps(other, x, 20, sched) - eps

        eps, cot, vjp = eps_and_input_grad(model, x, 20, sched, cotangent_of)
        want_eps = predict_eps(model, x, 20, sched)
        want_cot = cotangent_of(x, want_eps)
        np.testing.assert_array_equal(eps, want_eps)
        np.testing.assert_array_equal(cot, want_cot)
        np.testing.assert_array_equal(vjp, input_grad(model, x, 20, sched, want_cot))

    def test_single_point(self):
        sched = build_linear_schedule(100)
        model = init_model(16, 8, seed=4)
        x = np.array([0.4, -1.3])
        got = eps_and_input_grad(model, x, 12, sched, self.cotangent_of)
        batch = eps_and_input_grad(model, x[None], 12, sched, self.cotangent_of)
        assert [a.shape for a in got] == [(2,)] * 3
        for single, rows in zip(got, batch):
            np.testing.assert_array_equal(single, rows[0])

    def test_default_composes_the_two_functions(self):
        """A predictor without its own pass (the closed-form Gaussian one)
        gets ``predict_eps`` then ``input_grad``."""
        sched = build_linear_schedule(100)
        model = IsotropicGaussianEps(mean=np.array([1.0, -1.0]), sigma=2.0)
        x = np.random.default_rng(5).normal(size=(7, 2))
        eps, cot, vjp = eps_and_input_grad(model, x, 60, sched, self.cotangent_of)
        np.testing.assert_array_equal(eps, predict_eps(model, x, 60, sched))
        np.testing.assert_array_equal(cot, self.cotangent_of(x, eps))
        np.testing.assert_array_equal(vjp, input_grad(model, x, 60, sched, cot))

    def test_unregistered_model(self):
        with pytest.raises(TypeError, match="no noise predictor"):
            eps_and_input_grad(object(), np.zeros(2), 1, build_linear_schedule(10), self.cotangent_of)


class TestChunking:
    def test_rows_do_not_depend_on_the_batch(self):
        """Study-width model: every row of a batch of 1, 2, CHUNK_ROWS +- 1,
        4000 or 50,000 rows, taken at two row offsets (the 50,000-row batch
        rotated), has the bits the same row has in one 50,000-row batch,
        for ``predict_eps`` and ``input_grad``, with a scalar step and with
        a step per row."""
        sched = build_linear_schedule(1000)
        model = init_model(128, 32, seed=1, in_shift=[5.0, 5.7], in_scale=3.0)
        rng = np.random.default_rng(3)
        n = 50_000
        x = rng.normal(5.0, 4.0, size=(n, 2))
        cot = rng.normal(size=(n, 2))
        steps = rng.integers(1, 1001, size=n)

        def evaluate(idx):
            return [
                predict_eps(model, x[idx], 400, sched),
                predict_eps(model, x[idx], steps[idx], sched),
                input_grad(model, x[idx], 400, sched, cot[idx]),
                input_grad(model, x[idx], steps[idx], sched, cot[idx]),
            ]

        whole = evaluate(np.arange(n))
        rows = model_module.CHUNK_ROWS
        for size in (1, 2, rows - 1, rows + 1, 4000, n):
            for offset in (1, 7 * rows + 3):
                idx = (offset + np.arange(size)) % n
                for got, want in zip(evaluate(idx), whole):
                    np.testing.assert_array_equal(got, want[idx], err_msg=f"{size} rows at {offset}")

    def test_threads_keep_separate_buffers(self):
        """Concurrent threads evaluate in their own scratch buffers: each
        gets the bits a lone evaluation of its input gives."""
        sched = build_linear_schedule(100)
        model = init_model(32, 8, seed=6)
        inputs = [np.random.default_rng(k).normal(size=(300 + 50 * k, 2)) for k in range(4)]
        expect = [predict_eps(model, x, 50, sched) for x in inputs]
        mismatches = []

        def work(k):
            for _ in range(20):
                if not np.array_equal(predict_eps(model, inputs[k], 50, sched), expect[k]):
                    mismatches.append(k)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(th.is_alive() for th in threads)
        assert mismatches == []

    @pytest.mark.parametrize("n", [5, 2 * model_module.CHUNK_ROWS + 5])
    def test_stale_scratch_rows_do_not_leak(self, n):
        """With every scratch buffer of this thread filled with NaN and
        +-inf before each call, a batch whose last chunk has 5 rows gives
        the bits it gives with zeroed buffers and raises no RuntimeWarning.
        With 5 rows the padded rows hold the NaN and inf; with
        ``2 * CHUNK_ROWS + 5`` they hold what the full chunks left."""
        sched = build_linear_schedule(1000)
        model = init_model(128, 32, seed=2, in_shift=[5.0, 5.7], in_scale=3.0)
        rng = np.random.default_rng(8)
        x = rng.normal(5.0, 4.0, size=(n, 2))
        cot = rng.normal(size=(n, 2))
        steps = rng.integers(1, 1001, size=n)

        def cotangent_of(x, eps):
            return x - 2.0 * eps

        calls = [
            lambda: predict_eps(model, x, 400, sched),
            lambda: predict_eps(model, x, steps, sched),
            lambda: input_grad(model, x, 400, sched, cot),
            lambda: input_grad(model, x, steps, sched, cot),
            lambda: eps_and_input_grad(model, x, 400, sched, cotangent_of),
            lambda: eps_and_input_grad(model, x, steps, sched, cotangent_of),
            lambda: loss_and_param_grads(model, x, cot, steps, sched),
        ]

        def flat(result):
            if hasattr(result, "params"):
                return [result.loss, *(arr for _, arr in result.params())]
            return list(result) if isinstance(result, tuple) else [result]

        def run(call, fill):
            call()  # makes every buffer the call uses
            for buf in model_module._scratch.buffers.values():
                buf.flat = fill
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                return flat(call())

        for call in calls:
            want = run(call, [0.0])
            for got, ref in zip(run(call, [np.nan, np.inf, -np.inf]), want):
                np.testing.assert_array_equal(got, ref)

    def test_results_are_fresh_arrays(self):
        """Scratch buffers are reused between calls; what a call returns is not."""
        sched = build_linear_schedule(100)
        model = init_model(16, 8, seed=4)
        x = np.random.default_rng(5).normal(size=(20, 2))
        first = predict_eps(model, x, 30, sched)
        kept = first.copy()
        predict_eps(model, -x, 70, sched)
        input_grad(model, x, 30, sched, np.ones((20, 2)))
        np.testing.assert_array_equal(first, kept)


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path):
        sched = build_linear_schedule(25, 2e-4, 0.015)
        model = init_model(12, 6, seed=4)
        path = tmp_path / "ckpt.json"
        save_checkpoint(model, sched, path)
        loaded, lsched = load_checkpoint(path)
        for (_, pa), (_, pb) in zip(model.params(), loaded.params()):
            assert pa.tobytes() == pb.tobytes()
        assert lsched.beta.tobytes() == sched.beta.tobytes()
        assert lsched.alpha_bar.tobytes() == sched.alpha_bar.tobytes()
        assert loaded.activation == model.activation
        assert loaded.freq_base == model.freq_base

    def test_version_mismatch(self, tmp_path):
        import json

        sched = build_linear_schedule(5)
        model = init_model(4, 2, seed=0)
        path = tmp_path / "ckpt.json"
        save_checkpoint(model, sched, path)
        payload = json.loads(path.read_text())
        payload["version"] = 99
        path.write_text(json.dumps(payload))
        with pytest.raises(CheckpointVersionError):
            load_checkpoint(path)

    def test_truncated_array_names_layer(self, tmp_path):
        import json

        sched = build_linear_schedule(5)
        model = init_model(4, 2, seed=0)
        path = tmp_path / "ckpt.json"
        save_checkpoint(model, sched, path)
        payload = json.loads(path.read_text())
        payload["model"]["w2"] = payload["model"]["w2"][:-1]
        path.write_text(json.dumps(payload))
        with pytest.raises(CheckpointShapeError, match="w2"):
            load_checkpoint(path)

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda m, s: m.update(in_scale=0), "in_scale must be positive and finite, got 0.0"),
            (lambda m, s: m.update(in_scale=-1), "in_scale must be positive and finite, got -1.0"),
            (lambda m, s: m.update(embed_width=1, w1=m["w1"][:-1]), "embed_width must be even and >= 2, got 1"),
            (lambda m, s: m.update(freq_base=0), "freq_base must be positive and finite, got 0.0"),
            (lambda m, s: m.update(freq_base=-5), "freq_base must be positive and finite, got -5.0"),
            (lambda m, s: m["w2"][1].__setitem__(0, float("nan")), "w2 holds a non-finite value"),
            (lambda m, s: m["in_shift"].__setitem__(0, float("inf")), "in_shift holds a non-finite value"),
            (lambda m, s: s["beta"].__setitem__(-1, 1.0), "every beta must lie in (0, 1)"),
            (lambda m, s: s.update(T=0, beta=[]), "T must be a positive integer, got 0"),
        ],
    )
    def test_constructor_refusals_name_the_file(self, tmp_path, capsys, edit, message):
        """Loading refuses what ``init_model`` and ``build_linear_schedule``
        refuse, plus non-finite parameters; ``sample`` exits 2 on it."""
        import json

        from diffguide.cli import main
        from diffguide.model import CheckpointError

        path = tmp_path / "ckpt.json"
        save_checkpoint(init_model(4, 2, seed=0), build_linear_schedule(5), path)
        payload = json.loads(path.read_text())
        edit(payload["model"], payload["schedule"])
        path.write_text(json.dumps(payload))
        with pytest.raises(CheckpointError, match=re.escape(f"{path}: {message}")):
            load_checkpoint(path)
        out = tmp_path / "samples.csv"
        assert main(["sample", "--checkpoint", str(path), "--n", "3", "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_malformed_file(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text("{ not json")
        with pytest.raises(CheckpointFormatError):
            load_checkpoint(path)
        path.write_text('{"format": "something-else", "version": 1}')
        with pytest.raises(CheckpointFormatError):
            load_checkpoint(path)

    def test_forward_outputs_survive_round_trip(self, tmp_path):
        sched = build_linear_schedule(30)
        model = init_model(10, 4, seed=6)
        path = tmp_path / "ckpt.json"
        save_checkpoint(model, sched, path)
        loaded, lsched = load_checkpoint(path)
        x = np.random.default_rng(1).normal(size=(5, 2))
        np.testing.assert_array_equal(
            predict_eps(model, x, 17, sched), predict_eps(loaded, x, 17, lsched)
        )
