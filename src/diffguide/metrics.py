"""Evaluation quantities: rewards, win rate, Gaussian-fit KL, analytic bounds."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .rewards import RewardSpec, reward

RIDGE = 1e-8
MIN_EIG = 1e-10
# the ridge also scales with the covariance's trace, so that it stays above
# the rounding error of a widely spread batch's covariance
RELATIVE_RIDGE = 1e-12

# the selection-based samplers, which admit an analytic divergence bound
BOUNDED_METHODS = ("best_of_n", "blockwise", "blockwise_ref", "stepwise")


@dataclass(frozen=True)
class GaussianFit:
    mean: np.ndarray
    cov: np.ndarray


def fit_gaussian(samples) -> GaussianFit:
    """Sample mean and unbiased covariance, ridge-regularized if degenerate.

    A collapsed batch (smallest eigenvalue below ``max(MIN_EIG,
    RELATIVE_RIDGE * trace)``) gets ``max(RIDGE, RELATIVE_RIDGE * trace)``
    added to the diagonal, so the fit of any finite batch within
    ``samplers.STATE_BOUND`` is positive-definite and downstream KL stays
    finite and large instead of crashing.
    """
    x = np.asarray(samples, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != 2:
        raise ValueError(f"samples must be (n, 2), got {x.shape}")
    if x.shape[0] < 2:
        raise ValueError(f"need at least 2 samples, got {x.shape[0]}")
    mean = x.mean(axis=0)
    cov = np.cov(x, rowvar=False)
    cov = 0.5 * (cov + cov.T)
    relative = RELATIVE_RIDGE * np.trace(cov)
    if np.linalg.eigvalsh(cov)[0] < max(MIN_EIG, relative):
        cov = cov + max(RIDGE, relative) * np.eye(2)
    return GaussianFit(mean=mean, cov=cov)


def gaussian_kl(a: GaussianFit, b: GaussianFit) -> float:
    """Closed-form KL(a || b) between two Gaussian fits."""
    try:
        chol_b = np.linalg.cholesky(b.cov)
        chol_a = np.linalg.cholesky(a.cov)
    except np.linalg.LinAlgError as exc:
        raise ValueError("covariances must be positive-definite") from exc
    d = a.mean.shape[0]
    solve = np.linalg.solve
    trace = np.trace(solve(b.cov, a.cov))
    dmu = b.mean - a.mean
    maha = float(dmu @ solve(b.cov, dmu))
    logdet = 2.0 * (np.log(np.diag(chol_b)).sum() - np.log(np.diag(chol_a)).sum())
    return float(0.5 * (trace + maha - d + logdet))


def selection_gap(n: int) -> float:
    """Per-selection divergence budget ``log n - (n - 1)/n``."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return math.log(n) - (n - 1) / n


def kl_upper_bound(method: str, n: int, block_size: int, T: int, eta: float = 1.0) -> float:
    """Analytic upper bound on the divergence of a guided sampler from base.

    One best-of-n selection costs at most ``log n - (n-1)/n``; a run pays
    that once per selection it makes, ``ceil(round(eta T) / block_size)``
    over its denoised steps (a short last block still selects).
    ``block_size`` is the resolved block (``GuidancePoint.resolved_block``):
    T for best-of-n, whose one full-rollout selection this counts, and 1 for
    stepwise, which selects at every step.  The base chain costs nothing and
    gradient guidance has no such bound (returns nan).
    """
    if method == "base":
        return 0.0
    if method == "grad":
        return float("nan")
    if method not in BOUNDED_METHODS:
        raise ValueError(f"unknown method tag {method!r}")
    # an integer count of selections, so the product with the gap rounds once
    return selection_gap(n) * math.ceil(round(eta * T) / block_size)


def expected_reward(samples, spec: RewardSpec) -> float:
    """Mean reward of a batch."""
    x = np.asarray(samples, dtype=np.float64)
    if x.size == 0:
        raise ValueError("empty batch")
    return float(np.mean(reward(spec, x)))


def win_rate(guided, base, spec: RewardSpec) -> float:
    """Fraction of index-paired comparisons the guided sample wins; ties 0.5."""
    g = np.asarray(guided, dtype=np.float64)
    b = np.asarray(base, dtype=np.float64)
    if g.shape != b.shape:
        raise ValueError(f"batch shapes differ: {g.shape} vs {b.shape}")
    rg = reward(spec, g)
    rb = reward(spec, b)
    return float(np.mean(np.where(rg > rb, 1.0, 0.0) + 0.5 * (rg == rb)))


def batch_variance(samples) -> tuple[float, float]:
    """Per-coordinate unbiased sample variance."""
    x = np.asarray(samples, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] < 2:
        raise ValueError("need at least 2 samples")
    v = x.var(axis=0, ddof=1)
    return float(v[0]), float(v[1])
