"""Gaussian-mixture data generation and the noise-prediction training loop."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import streams
from .model import EpsModel, loss_and_param_grads, with_params
from .rewards import ByValue, float_array
from .schedule import NoiseSchedule


class TrainingDivergedError(RuntimeError):
    """Loss became non-finite during training."""


@dataclass(frozen=True, eq=False)
class GmmSpec(ByValue):
    """Mixture of isotropic Gaussians with a shared standard deviation."""

    weights: np.ndarray
    means: np.ndarray
    sigma: float = 2.0

    def __post_init__(self):
        w = float_array(self.weights, "weights")
        m = float_array(self.means, "means")
        if w.ndim != 1 or w.size < 1:
            raise ValueError("need at least one mixture component")
        if np.any(w < 0) or abs(float(w.sum()) - 1.0) > 1e-12:
            raise ValueError("weights must be non-negative and sum to 1")
        if m.shape != (w.size, 2):
            raise ValueError(f"means must have shape ({w.size}, 2), got {m.shape}")
        if self.sigma <= 0:
            raise ValueError("sigma must be positive")
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "means", m)


def paper_prior() -> GmmSpec:
    """The default three-component study prior (equal weights, sigma 2)."""
    return GmmSpec(
        weights=np.full(3, 1.0 / 3.0),
        means=np.array([[5.0, 3.0], [3.0, 7.0], [7.0, 7.0]]),
        sigma=2.0,
    )


def mixture_mean(spec: GmmSpec) -> np.ndarray:
    return spec.weights @ spec.means


def mixture_cov(spec: GmmSpec) -> np.ndarray:
    centered = spec.means - mixture_mean(spec)
    between = (spec.weights[:, None] * centered).T @ centered
    return spec.sigma**2 * np.eye(2) + between


def sample_gmm(spec: GmmSpec, n: int, seed: int) -> np.ndarray:
    """n i.i.d. mixture draws, deterministic for a fixed seed."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return _draw(spec, n, np.random.default_rng(seed))


def _draw(spec: GmmSpec, n: int, rng: np.random.Generator) -> np.ndarray:
    """``n`` mixture draws from ``rng``: the components, then their noise."""
    comps = rng.choice(spec.weights.size, size=n, p=spec.weights)
    return spec.means[comps] + spec.sigma * rng.standard_normal((n, 2))


def pooled_input_stats(spec: GmmSpec, sched: NoiseSchedule) -> tuple[np.ndarray, float]:
    """Whitening constants for the predictor's spatial input.

    Mean and scale of the noised inputs pooled over a uniform step draw:
    the mean shrinks the mixture mean by the average signal level and the
    scale mixes the retained data variance with the injected unit noise.
    """
    ab = sched.alpha_bar[1:]
    shift = np.sqrt(ab).mean() * mixture_mean(spec)
    data_var = float(np.trace(mixture_cov(spec))) / 2.0
    scale = float(np.sqrt(np.mean(ab * data_var + (1.0 - ab))))
    return shift, scale


@dataclass(frozen=True)
class TrainConfig:
    """Defaults reproduce the study-scale base model.

    The large dataset and batch are deliberate: the sampled mixture's
    mode balance is limited by gradient noise, and smaller settings leave
    a visible bias in the sampled mean.
    """

    epochs: int = 200
    dataset_size: int = 100_000
    batch_size: int = 1024
    lr: float = 1e-3
    seed: int = 0

    def __post_init__(self):
        if min(self.epochs, self.dataset_size, self.batch_size) < 1 or self.lr < 0:
            raise ValueError("epochs, dataset_size and batch_size must be positive, lr >= 0")
        if self.batch_size > self.dataset_size:
            raise ValueError("batch_size cannot exceed dataset_size")
        if not streams.is_seed(self.seed):
            raise ValueError(f"train seed must be an integer in [0, 2^64), got {self.seed!r}")


# Adam's moment decay rates and denominator guard (Kingma & Ba's defaults)
BETA1, BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


def _adam_update(param, m1, m2, g, lr: float, corr1: float, corr2: float) -> None:
    """One Adam step, in place on ``param``, ``m1`` and ``m2``.

    Evaluates ``m1 = b1 m1 + (1 - b1) g``, ``m2 = b2 m2 + (1 - b2) g g`` and
    ``param -= lr (m1 / corr1) / (sqrt(m2 / corr2) + eps)`` operation by
    operation in that order, with two temporaries instead of one per
    operation.
    """
    tmp = np.multiply(g, 1.0 - BETA1)
    m1 *= BETA1
    m1 += tmp
    np.multiply(g, 1.0 - BETA2, out=tmp)
    tmp *= g
    m2 *= BETA2
    m2 += tmp
    denom = np.divide(m2, corr2)
    np.sqrt(denom, out=denom)
    denom += ADAM_EPS
    np.divide(m1, corr1, out=tmp)
    tmp *= lr
    tmp /= denom
    param -= tmp


def train(
    model: EpsModel, spec: GmmSpec, sched: NoiseSchedule, cfg: TrainConfig
) -> tuple[EpsModel, np.ndarray]:
    """Train the noise predictor; returns the model and per-epoch mean loss.

    Each minibatch draws a fresh step index uniform in 1..T and a fresh
    standard-normal noise per example, then applies one Adam update of the
    squared-residual objective.  Everything is driven by a single seeded
    generator, so identical seeds give identical final parameters.
    """
    rng = np.random.default_rng(cfg.seed)
    dataset = _draw(spec, cfg.dataset_size, rng)

    params = {name: arr.copy() for name, arr in model.params()}
    m1 = {name: np.zeros_like(arr) for name, arr in params.items()}
    m2 = {name: np.zeros_like(arr) for name, arr in params.items()}
    step = 0
    losses = np.empty(cfg.epochs)
    # the model shares the arrays in params, which Adam updates in place
    current = with_params(model, params)
    for epoch in range(cfg.epochs):
        order = rng.permutation(cfg.dataset_size)
        epoch_loss = 0.0
        n_batches = 0
        for lo in range(0, cfg.dataset_size, cfg.batch_size):
            idx = order[lo : lo + cfg.batch_size]
            x0 = dataset[idx]
            t = rng.integers(1, sched.T + 1, size=idx.size)
            eps = rng.standard_normal((idx.size, 2))
            try:
                bundle = loss_and_param_grads(current, x0, eps, t, sched)
            except FloatingPointError as exc:
                raise TrainingDivergedError(
                    f"{exc} at epoch {epoch}, step {step}"
                ) from exc
            if not np.isfinite(bundle.loss):
                raise TrainingDivergedError(
                    f"loss became {bundle.loss} at epoch {epoch}, step {step}"
                )
            step += 1
            corr1 = 1.0 - BETA1**step
            corr2 = 1.0 - BETA2**step
            for name, g in bundle.params():
                _adam_update(params[name], m1[name], m2[name], g, cfg.lr, corr1, corr2)
            epoch_loss += bundle.loss
            n_batches += 1
        losses[epoch] = epoch_loss / n_batches
    return current, losses
