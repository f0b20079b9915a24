"""Ancestral sampling and the inference-time guidance samplers.

All guided variants share one blockwise selection core: the reverse chain is
cut into consecutive blocks of ``block_size`` steps (a shorter final block
when the step count is not divisible), each block unrolls ``n_streams``
independent continuations of the current state, the endpoint with the best
estimated value survives, ties go to the lowest stream id.  Special cases:

* ``best_of_n_sample``  - one block covering the whole chain (block = T),
* ``stepwise_sample``   - selection after every single step (block = 1),
* ``blockwise_ref_sample`` - start from a partially noised reference point
  and denoise only the remaining ``round(eta * T)`` steps.

Gradient guidance (``grad_guided_sample``) instead shifts the predicted
noise along the reward gradient each step and needs a differentiable reward.
Its batch stops at the first step that leaves a state outside
``STATE_BOUND`` (see ``grad_guided_batch``).

Every random draw is keyed by ``(seed, role, step, stream)`` (see
``streams``), which makes runs reproducible, order-independent and exactly
reducible: a single-stream guided run is bit-identical to a plain rollout,
regardless of block size.

Counters: ``model_evals`` counts denoising forward passes per run (streams x
steps); the model call inside an endpoint value estimate is part of that
reward query and is tallied in ``reward_queries`` instead.  The counts are
the methods' nominal costs, not the rows the model evaluates.  A block's
value estimate predicts the noise of every candidate at the next step, and
the next block starts from the winner's prediction repeated over its
streams, so a selection run evaluates one model row per stream and step
(one per run at its first step).  A row's prediction does not depend on
the batch it is evaluated in, so this reuse gives the bits a fresh
evaluation of every stream would.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import streams
from .model import eps_and_input_grad, predict_eps
from .rewards import (
    GaussianReward,
    RewardSpec,
    UnsupportedRewardError,
    reward_grad,
    value_given_eps,
)
from .schedule import NoiseSchedule, posterior_mean, tweedie_x0


# Bound on every coordinate of a guided state.  A state beyond it, or not
# finite, has diverged, so gradient guidance stops there and the harnesses
# refuse a batch with such a sample: the study's prior means and reward
# centre have coordinates of at most 14, every state of the trained
# study-scale checkpoints' guided chains at scales 1 and 2 stayed within
# |x| <= 16.7, and the chains that blow up at scale 5 pass 1e6 within five
# steps of the start.
STATE_BOUND = 1e6


@dataclass
class RunCounters:
    """Per-run instrumentation; identical across the runs of one batch.

    ``stopped_at`` is the step at which a batch stopped early because a
    state diverged (``None`` when it ran to the end); the counts then cover
    only the steps that ran.
    """

    model_evals: int = 0
    reward_queries: int = 0
    stopped_at: int | None = None


def _as_seed_array(seeds) -> np.ndarray:
    arr = np.atleast_1d(np.asarray(seeds, dtype=np.uint64))
    if arr.ndim != 1:
        raise ValueError("seeds must be a scalar or a 1-d sequence")
    return arr


def ddpm_step(model, sched: NoiseSchedule, x_t, t: int, noise):
    """One reverse transition; the final step (t = 1) returns the mean only."""
    eps_hat = predict_eps(model, x_t, t, sched)
    mu = posterior_mean(x_t, eps_hat, t, sched)
    if t > 1:
        return mu + np.sqrt(sched.beta[t]) * np.asarray(noise, dtype=np.float64)
    return mu


def base_sample(model, sched: NoiseSchedule, n: int, seed: int, counters: RunCounters | None = None) -> np.ndarray:
    """n independent full ancestral rollouts from pure noise, shape (n, 2).

    Rollout i occupies stream slot i of the seed's key space, so the first
    rollouts of two calls with different n coincide bit for bit.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    ids = np.arange(n)
    x = streams.normal_pair(seed, streams.ROLE_INIT, ids, 0)
    for t in range(sched.T, 0, -1):
        noise = streams.normal_pair(seed, streams.ROLE_STEP, t, ids) if t > 1 else None
        x = ddpm_step(model, sched, x, t, noise)
        if counters is not None:
            counters.model_evals += 1
    return x


def _block_bounds(top: int, block_size: int):
    """Consecutive (t_hi, t_lo) blocks from step ``top`` down to 1."""
    bounds = []
    t_hi = top
    while t_hi >= 1:
        t_lo = max(1, t_hi - block_size + 1)
        bounds.append((t_hi, t_lo))
        t_hi = t_lo - 1
    return bounds


def _selection_rollout(
    model,
    sched: NoiseSchedule,
    spec: RewardSpec,
    n_streams: int,
    block_size: int,
    seeds: np.ndarray,
    x_start: np.ndarray,
    top: int,
    counters: RunCounters,
) -> np.ndarray:
    """Blockwise best-of-n core, vectorized over R independent runs.

    ``x_start`` holds each run's state at step ``top``; returns the R final
    samples.  Stream n of run r draws its step-t noise from key
    (seeds[r], STEP, t, n), so results do not depend on R or on scheduling.
    """
    R = seeds.shape[0]
    N = n_streams
    stream_ids = np.arange(N)
    runs = np.arange(R)
    x = x_start
    eps_x = predict_eps(model, x, top, sched)
    for t_hi, t_lo in _block_bounds(top, block_size):
        # the streams of a run all start the block from its state
        flat = np.repeat(x, N, axis=0)
        eps_hat = np.repeat(eps_x, N, axis=0)
        for t in range(t_hi, t_lo - 1, -1):
            counters.model_evals += N
            mu = posterior_mean(flat, eps_hat, t, sched)
            if t > 1:
                z = streams.normal_pair(
                    seeds[:, None], streams.ROLE_STEP, t, stream_ids[None, :]
                )
                flat = mu + np.sqrt(sched.beta[t]) * z.reshape(R * N, 2)
                eps_hat = predict_eps(model, flat, t - 1, sched)
            else:
                flat = mu
        # eps_hat predicts the endpoints' noise at t_lo - 1: the value
        # estimate scores it, and the winner's starts the next block
        values = np.asarray(value_given_eps(spec, sched, flat, t_lo - 1, eps_hat))
        counters.reward_queries += N
        # argmax returns the first maximum, i.e. the lowest stream id on ties
        best = values.reshape(R, N).argmax(axis=1)
        x = flat.reshape(R, N, 2)[runs, best]
        eps_x = eps_hat.reshape(R, N, 2)[runs, best]
    return x


def blockwise_batch(
    model,
    sched: NoiseSchedule,
    spec: RewardSpec,
    n_streams: int,
    block_size: int,
    seeds,
    eta: float = 1.0,
    x_refs=None,
) -> tuple[np.ndarray, RunCounters]:
    """Blockwise guided sampling for a batch of independent runs.

    With ``eta = 1`` the chain starts from pure noise at step T and any
    reference input is ignored.  With ``eta < 1`` each run starts from its
    reference point noised forward to step ``round(eta * T)`` and only that
    many steps are denoised.  ``x_refs`` may be one point shared by all runs
    or one row per run.
    """
    seeds = _as_seed_array(seeds)
    if n_streams < 1:
        raise ValueError(f"n_streams must be >= 1, got {n_streams}")
    if not (1 <= block_size <= sched.T):
        raise ValueError(f"block_size must be in [1, {sched.T}], got {block_size}")
    if not (0.0 < eta <= 1.0):
        raise ValueError(f"eta must be in (0, 1], got {eta}")
    counters = RunCounters()
    R = seeds.shape[0]
    z = streams.normal_pair(seeds, streams.ROLE_INIT, 0, 0)  # (R, 2)
    if eta == 1.0:
        top = sched.T
        x_start = z
    else:
        top = int(round(eta * sched.T))
        if top < 1:
            raise ValueError(f"eta {eta} leaves no denoising steps (round(eta T) < 1)")
        if x_refs is None:
            raise ValueError("eta < 1 requires a reference point")
        refs = np.asarray(x_refs, dtype=np.float64)
        if refs.shape == (2,):
            refs = np.broadcast_to(refs, (R, 2))
        if refs.shape != (R, 2):
            raise ValueError(f"x_refs must be (2,) or ({R}, 2), got {refs.shape}")
        ab = sched.alpha_bar[top]
        x_start = np.sqrt(ab) * refs + np.sqrt(1.0 - ab) * z
    out = _selection_rollout(
        model, sched, spec, n_streams, block_size, seeds, x_start, top, counters
    )
    return out, counters


def _one_run(batch, counters: RunCounters | None) -> np.ndarray:
    """The sample of a one-run ``(samples, counters)`` batch; its counts
    are added to ``counters`` when given."""
    out, c = batch
    if counters is not None:
        counters.model_evals += c.model_evals
        counters.reward_queries += c.reward_queries
        if c.stopped_at is not None:
            counters.stopped_at = c.stopped_at
    return out[0]


def blockwise_sample(
    model,
    sched: NoiseSchedule,
    spec: RewardSpec,
    n_streams: int,
    block_size: int,
    seed: int,
    counters: RunCounters | None = None,
) -> np.ndarray:
    """One guided sample via blockwise best-of-n selection."""
    return _one_run(blockwise_batch(model, sched, spec, n_streams, block_size, [seed]), counters)


def blockwise_ref_sample(
    model,
    sched: NoiseSchedule,
    spec: RewardSpec,
    n_streams: int,
    block_size: int,
    eta: float,
    x_ref,
    seed: int,
    counters: RunCounters | None = None,
) -> np.ndarray:
    """Guided sample conditioned on a partially noised reference point."""
    batch = blockwise_batch(model, sched, spec, n_streams, block_size, [seed], eta=eta, x_refs=x_ref)
    return _one_run(batch, counters)


def best_of_n_sample(model, sched, spec, n_streams, seed, counters=None) -> np.ndarray:
    """Keep the best of n full rollouts: blockwise with a single T-step block."""
    return blockwise_sample(model, sched, spec, n_streams, sched.T, seed, counters)


def stepwise_sample(model, sched, spec, n_streams, seed, counters=None) -> np.ndarray:
    """Select after every reverse step: blockwise with block size 1."""
    return blockwise_sample(model, sched, spec, n_streams, 1, seed, counters)


def _endpoint_score(spec: GaussianReward, sched: NoiseSchedule, t: int):
    """Row-wise ``grad log r`` at the predicted endpoints of states at step
    ``t``, as a function of the states and their predicted noise."""
    return lambda x, eps_hat: reward_grad(spec, tweedie_x0(x, eps_hat, t, sched))


def grad_guided_batch(
    model,
    sched: NoiseSchedule,
    spec: RewardSpec,
    scale: float,
    seeds,
    exact_chain: bool = True,
) -> tuple[np.ndarray, RunCounters]:
    """Reward-gradient guided rollouts for a batch of independent runs.

    Each step shifts the predicted noise against the score of the reward at
    the predicted endpoint:

        eps' = eps - sqrt(1 - ab_t) * scale * grad_x log r(x0_hat(x))

    With ``exact_chain`` the chain rule runs through the predictor's input
    Jacobian (``eps_and_input_grad``, one model pass per step); otherwise
    the frozen-noise approximation ``d x0_hat / d x ~= I / sqrt(ab_t)`` is
    used.

    If a step leaves any state non-finite or with a coordinate beyond
    ``STATE_BOUND``, the whole batch stops there: every sample is NaN,
    ``stopped_at`` names that step and the counts cover the steps that ran.
    """
    if scale < 0:
        raise ValueError(f"scale must be >= 0, got {scale}")
    if not isinstance(spec, GaussianReward):
        raise UnsupportedRewardError(
            "gradient guidance needs a differentiable reward; "
            f"{type(spec).__name__} provides no gradient"
        )
    seeds = _as_seed_array(seeds)
    counters = RunCounters()
    x = streams.normal_pair(seeds, streams.ROLE_INIT, 0, 0)
    for t in range(sched.T, 0, -1):
        counters.model_evals += 1
        if scale > 0:
            ab = sched.alpha_bar[t]
            score = _endpoint_score(spec, sched, t)
            counters.reward_queries += 1
            if exact_chain:
                eps_hat, g, vjp = eps_and_input_grad(model, x, t, sched, score)
                glog = (g - np.sqrt(1.0 - ab) * vjp) / np.sqrt(ab)
            else:
                eps_hat = predict_eps(model, x, t, sched)
                glog = score(x, eps_hat) / np.sqrt(ab)
            eps_hat = eps_hat - np.sqrt(1.0 - ab) * scale * glog
        else:
            eps_hat = predict_eps(model, x, t, sched)
        mu = posterior_mean(x, eps_hat, t, sched)
        if t > 1:
            x = mu + np.sqrt(sched.beta[t]) * streams.normal_pair(
                seeds, streams.ROLE_STEP, t, 0
            )
        else:
            x = mu
        # NaN fails the comparison too
        if not np.all(np.abs(x) <= STATE_BOUND):
            counters.stopped_at = t
            return np.full_like(x, np.nan), counters
    return x, counters


def grad_guided_sample(
    model,
    sched: NoiseSchedule,
    spec: RewardSpec,
    scale: float,
    seed: int,
    exact_chain: bool = True,
    counters: RunCounters | None = None,
) -> np.ndarray:
    """One reward-gradient guided sample; ``scale = 0`` reduces to the base chain."""
    batch = grad_guided_batch(model, sched, spec, scale, [seed], exact_chain=exact_chain)
    return _one_run(batch, counters)
