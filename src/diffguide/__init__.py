"""diffguide: a 2D diffusion laboratory for inference-time reward guidance.

Train a small noise-prediction MLP on a Gaussian-mixture prior, then steer
its sampling with blockwise best-of-n selection, per-step selection, plain
best-of-n, reference-conditioned starts, or reward-gradient corrections, and
measure the reward / divergence trade-offs.
"""

from .analytic import IsotropicGaussianEps  # also registers the closed-form predictor
from .metrics import (
    GaussianFit,
    batch_variance,
    expected_reward,
    fit_gaussian,
    gaussian_kl,
    kl_upper_bound,
    win_rate,
)
from .model import (
    EpsModel,
    GradBundle,
    eps_and_input_grad,
    init_model,
    input_grad,
    load_checkpoint,
    loss_and_param_grads,
    predict_eps,
    save_checkpoint,
)
from .rewards import (
    GaussianReward,
    QuantizedReward,
    UnsupportedRewardError,
    log_reward,
    reward,
    reward_grad,
)
from .samplers import (
    RunCounters,
    base_sample,
    blockwise_batch,
    grad_guided_batch,
)
from .schedule import (
    NoiseSchedule,
    build_linear_schedule,
    forward_noising,
    posterior_mean,
    tweedie_x0,
)
from .training import GmmSpec, TrainConfig, mixture_cov, mixture_mean, paper_prior, sample_gmm, train

__version__ = "0.1.0"

__all__ = [
    "EpsModel",
    "GaussianFit",
    "GaussianReward",
    "GmmSpec",
    "GradBundle",
    "IsotropicGaussianEps",
    "NoiseSchedule",
    "QuantizedReward",
    "RunCounters",
    "TrainConfig",
    "UnsupportedRewardError",
    "base_sample",
    "batch_variance",
    "blockwise_batch",
    "build_linear_schedule",
    "eps_and_input_grad",
    "expected_reward",
    "fit_gaussian",
    "forward_noising",
    "gaussian_kl",
    "grad_guided_batch",
    "init_model",
    "input_grad",
    "kl_upper_bound",
    "load_checkpoint",
    "log_reward",
    "loss_and_param_grads",
    "mixture_cov",
    "mixture_mean",
    "paper_prior",
    "posterior_mean",
    "predict_eps",
    "reward",
    "reward_grad",
    "sample_gmm",
    "save_checkpoint",
    "train",
    "tweedie_x0",
    "win_rate",
]
