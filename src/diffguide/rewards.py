"""Reward functions and the predicted-endpoint value estimate.

Two reward families are provided: a differentiable isotropic Gaussian
density and a deliberately non-differentiable quantized distance score
(piecewise constant, gradient zero almost everywhere).  The value of an
intermediate noisy state is estimated by rewarding the predicted clean
endpoint, so no separate value model is ever trained.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, fields

import numpy as np

from .schedule import NoiseSchedule, tweedie_x0


class UnsupportedRewardError(ValueError):
    """Raised when an operation needs a reward variant it cannot handle."""


def is_number(value) -> bool:
    """Whether ``value`` is a finite int or float (numpy's included): a bool
    or a string is never a number, nor an int beyond the float range."""
    numeric = type(value) in (int, float) or isinstance(value, (np.integer, np.floating))
    return numeric and abs(value) <= sys.float_info.max


def float_array(value, name: str) -> np.ndarray:
    """``value`` as a read-only float64 array once every entry passes
    ``is_number``; otherwise a ``ValueError`` naming ``name``."""
    entries = np.asarray(value, dtype=object)
    if not all(is_number(v) for v in entries.flat):
        raise ValueError(f"{name} must be an array of finite numbers, got {value!r}")
    arr = entries.astype(np.float64)
    arr.flags.writeable = False
    return arr


class ByValue:
    """Equality and hash by value for a frozen dataclass declared with
    ``eq=False``: an array field counts as its shape and its tuple of
    floats, so ``-0.0`` and ``0.0`` agree in both."""

    def _key(self) -> tuple:
        values = (getattr(self, f.name) for f in fields(self))
        return (type(self), *((v.shape, tuple(v.flat)) if isinstance(v, np.ndarray) else v for v in values))

    def __eq__(self, other):
        return self._key() == other._key() if isinstance(other, ByValue) else NotImplemented

    def __hash__(self):
        return hash(self._key())


def _center(mu) -> np.ndarray:
    arr = float_array(mu, "mu")
    if arr.shape != (2,):
        raise ValueError(f"reward center must be a 2-vector, got shape {arr.shape}")
    return arr


@dataclass(frozen=True, eq=False)
class GaussianReward(ByValue):
    """Reward = density of x under an isotropic Gaussian N(mu, sigma^2 I)."""

    mu: np.ndarray
    sigma: float = 2.0

    def __post_init__(self):
        if self.sigma <= 0:
            raise ValueError(f"sigma must be positive, got {self.sigma}")
        object.__setattr__(self, "mu", _center(self.mu))


@dataclass(frozen=True, eq=False)
class QuantizedReward(ByValue):
    """Reward = -delta * floor(|x - mu| / delta); non-differentiable."""

    mu: np.ndarray
    delta: float = 1.0

    def __post_init__(self):
        if self.delta <= 0:
            raise ValueError(f"delta must be positive, got {self.delta}")
        object.__setattr__(self, "mu", _center(self.mu))


RewardSpec = GaussianReward | QuantizedReward


def _sqdist(spec, x) -> np.ndarray:
    d = np.asarray(x, dtype=np.float64) - spec.mu
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
    return (spec.mu - np.asarray(x, dtype=np.float64)) / spec.sigma**2


def value_given_eps(spec: RewardSpec, sched: NoiseSchedule, x_t, t: int, eps_hat):
    """Selection score of states ``x_t`` at step ``t`` with predicted noise
    ``eps_hat``: the log reward (Gaussian; monotone, so any argmax is kept)
    or the reward (quantized) of the predicted endpoint.  t = 0 scores the
    states themselves and ignores ``eps_hat``."""
    if t == 0:
        return reward(spec, x_t)
    x0_hat = tweedie_x0(x_t, eps_hat, t, sched)
    if isinstance(spec, GaussianReward):
        return log_reward(spec, x0_hat)
    return reward(spec, x0_hat)
