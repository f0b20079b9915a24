"""Variance schedules and the closed-form diffusion identities.

The forward process adds Gaussian noise over ``T`` discrete steps with
per-step variances ``beta[t]``; ``alpha[t] = 1 - beta[t]`` and ``alpha_bar[t]``
is the running product of the alphas.  Steps are indexed 1..T (denoising
iterates T down to 1) and index 0 is the clean-data sentinel with
``alpha_bar[0] = 1``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class NoiseSchedule:
    """Precomputed beta/alpha/alpha_bar arrays, each of length T + 1.

    Entry 0 is the sentinel (beta 0, alpha 1, alpha_bar 1); entries 1..T
    are the actual schedule.
    """

    beta: np.ndarray
    alpha: np.ndarray
    alpha_bar: np.ndarray

    @property
    def T(self) -> int:
        return self.beta.shape[0] - 1


def build_linear_schedule(T: int, beta_start: float = 1e-4, beta_end: float = 0.02) -> NoiseSchedule:
    """Linearly spaced betas from ``beta_start`` to ``beta_end`` inclusive.

    Raises ``ValueError`` for T < 1 or betas outside (0, 1) or a decreasing
    range.
    """
    if int(T) != T or T < 1:
        raise ValueError(f"T must be a positive integer, got {T!r}")
    if not (0.0 < beta_start <= beta_end < 1.0):
        raise ValueError(
            f"need 0 < beta_start <= beta_end < 1, got ({beta_start}, {beta_end})"
        )
    T = int(T)
    beta = np.empty(T + 1, dtype=np.float64)
    beta[0] = 0.0
    beta[1:] = np.linspace(beta_start, beta_end, T)
    alpha = 1.0 - beta
    alpha_bar = np.cumprod(alpha)
    for arr in (beta, alpha, alpha_bar):
        arr.flags.writeable = False
    return NoiseSchedule(beta=beta, alpha=alpha, alpha_bar=alpha_bar)


def _check_t(t, T: int, low: int = 1):
    """``t`` as an array, checked to be integral and within ``[low, T]``."""
    if type(t) is int and low <= t <= T:
        # the samplers' step loops pass plain ints; ``bool`` is not ``int``
        # here, so it still meets the dtype check below
        return np.asarray(t)
    t = np.asarray(t)
    if t.dtype.kind not in "iu":
        raise ValueError(f"step index must be integral, got dtype {t.dtype}")
    if np.any(t < low) or np.any(t > T):
        raise ValueError(f"step index out of range [{low}, {T}]: {t}")
    return t


def _coef(values: np.ndarray, t) -> np.ndarray | float:
    """Gather a coefficient; array t gets a trailing axis for broadcasting."""
    picked = values[t]
    if np.ndim(t) == 0:
        return float(picked)
    return picked[..., None]


def forward_noising(x0, t, eps, sched: NoiseSchedule):
    """Noised sample ``sqrt(a_bar_t) x0 + sqrt(1 - a_bar_t) eps``.

    Deterministic: the caller supplies the noise draw.  ``t`` may be a scalar
    or an array matching the batch.
    """
    t = _check_t(t, sched.T)
    ab = _coef(sched.alpha_bar, t)
    return np.sqrt(ab) * np.asarray(x0, dtype=np.float64) + np.sqrt(1.0 - ab) * np.asarray(
        eps, dtype=np.float64
    )


def posterior_mean(x_t, eps_hat, t, sched: NoiseSchedule):
    """Reverse-step mean ``(x_t - (1-a_t)/sqrt(1-a_bar_t) eps_hat) / sqrt(a_t)``."""
    t = _check_t(t, sched.T)
    a = _coef(sched.alpha, t)
    ab = _coef(sched.alpha_bar, t)
    x_t = np.asarray(x_t, dtype=np.float64)
    eps_hat = np.asarray(eps_hat, dtype=np.float64)
    return (x_t - ((1.0 - a) / np.sqrt(1.0 - ab)) * eps_hat) / np.sqrt(a)


def tweedie_x0(x_t, eps_hat, t, sched: NoiseSchedule):
    """Predicted clean sample ``(x_t - sqrt(1-a_bar_t) eps_hat) / sqrt(a_bar_t)``."""
    t = _check_t(t, sched.T)
    ab = _coef(sched.alpha_bar, t)
    x_t = np.asarray(x_t, dtype=np.float64)
    eps_hat = np.asarray(eps_hat, dtype=np.float64)
    return (x_t - np.sqrt(1.0 - ab) * eps_hat) / np.sqrt(ab)
