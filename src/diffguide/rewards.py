"""Reward functions and the predicted-endpoint value estimate.

Two reward families are provided: a differentiable isotropic Gaussian
density and a deliberately non-differentiable quantized distance score
(piecewise constant, gradient zero almost everywhere).  The value of an
intermediate noisy state is estimated by rewarding the predicted clean
endpoint, so no separate value model is ever trained.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .model import predict_eps
from .schedule import NoiseSchedule, tweedie_x0


class UnsupportedRewardError(ValueError):
    """Raised when an operation needs a reward variant it cannot handle."""


def _check_mu(mu) -> np.ndarray:
    arr = np.asarray(mu, dtype=np.float64)
    if arr.shape != (2,):
        raise ValueError(f"reward center must be a 2-vector, got shape {arr.shape}")
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class GaussianReward:
    """Reward = density of x under an isotropic Gaussian N(mu, sigma^2 I)."""

    mu: np.ndarray
    sigma: float
    _mu: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if self.sigma <= 0:
            raise ValueError(f"sigma must be positive, got {self.sigma}")
        object.__setattr__(self, "_mu", _check_mu(self.mu))


@dataclass(frozen=True)
class QuantizedReward:
    """Reward = -delta * floor(|x - mu| / delta); non-differentiable."""

    mu: np.ndarray
    delta: float = 1.0
    _mu: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if self.delta <= 0:
            raise ValueError(f"delta must be positive, got {self.delta}")
        object.__setattr__(self, "_mu", _check_mu(self.mu))


RewardSpec = GaussianReward | QuantizedReward


def _sqdist(spec, x) -> np.ndarray:
    d = np.asarray(x, dtype=np.float64) - spec._mu
    return np.sum(d * d, axis=-1)


def reward(spec: RewardSpec, x):
    """Reward of point(s) x; shape follows the batch."""
    if isinstance(spec, GaussianReward):
        v = 2.0 * spec.sigma**2
        return np.exp(-_sqdist(spec, x) / v) / (np.pi * v)
    if isinstance(spec, QuantizedReward):
        return -spec.delta * np.floor(np.sqrt(_sqdist(spec, x)) / spec.delta)
    raise UnsupportedRewardError(f"unknown reward spec {type(spec).__name__}")


def log_reward(spec: RewardSpec, x):
    """Exact log of the Gaussian reward; same argmax as ``reward``."""
    if not isinstance(spec, GaussianReward):
        raise UnsupportedRewardError(
            f"log_reward is only defined for GaussianReward, got {type(spec).__name__}"
        )
    v = 2.0 * spec.sigma**2
    return -_sqdist(spec, x) / v - np.log(np.pi * v)


def reward_grad(spec: RewardSpec, x):
    """Gradient of the log reward, ``(mu - x) / sigma^2``.

    Raises ``UnsupportedRewardError`` for the quantized variant; that is the
    signal that gradient-based guidance cannot run on it.
    """
    if not isinstance(spec, GaussianReward):
        raise UnsupportedRewardError(
            f"reward_grad needs a differentiable reward, got {type(spec).__name__}"
        )
    return (spec._mu - np.asarray(x, dtype=np.float64)) / spec.sigma**2


def estimate_value(model, sched: NoiseSchedule, spec: RewardSpec, x_t, t):
    """Selection score of noisy state(s): reward the predicted endpoint.

    For t >= 1 the endpoint is the model's clean-sample prediction; Gaussian
    rewards are scored in log space (monotone, so any argmax is unchanged),
    the quantized variant by its raw value.  t = 0 scores the state itself.
    """
    t_arr = np.asarray(t)
    if np.ndim(t_arr) != 0:
        raise ValueError("estimate_value takes a single step index")
    t = int(t_arr)
    eps_hat = predict_eps(model, x_t, t, sched) if t > 0 else None
    return value_given_eps(spec, sched, x_t, t, eps_hat)


def value_given_eps(spec: RewardSpec, sched: NoiseSchedule, x_t, t: int, eps_hat):
    """``estimate_value`` of states ``x_t`` at step ``t`` whose predicted
    noise ``eps_hat`` is already known (ignored at t = 0)."""
    if t == 0:
        return reward(spec, x_t)
    x0_hat = tweedie_x0(x_t, eps_hat, t, sched)
    if isinstance(spec, GaussianReward):
        return log_reward(spec, x0_hat)
    return reward(spec, x0_hat)
