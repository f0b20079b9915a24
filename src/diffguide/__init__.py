"""diffguide: a 2D diffusion laboratory for inference-time reward guidance.

Train a small noise-prediction MLP on a Gaussian-mixture prior, then steer
its sampling with blockwise best-of-n selection, per-step selection, plain
best-of-n, reference-conditioned starts, or reward-gradient corrections, and
measure the reward / divergence trade-offs.
"""

from . import analytic as _analytic  # registers the closed-form predictor
from .analytic import IsotropicGaussianEps
from .metrics import (
    GaussianFit,
    batch_variance,
    expected_reward,
    fit_gaussian,
    gaussian_kl,
    kl_upper_bound,
    normalized_expected_reward,
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
    param_count,
    predict_eps,
    save_checkpoint,
)
from .rewards import (
    GaussianReward,
    QuantizedReward,
    UnsupportedRewardError,
    estimate_value,
    log_reward,
    reward,
    reward_grad,
)
from .samplers import (
    RunCounters,
    base_sample,
    best_of_n_sample,
    blockwise_batch,
    blockwise_ref_sample,
    blockwise_sample,
    ddpm_step,
    grad_guided_batch,
    grad_guided_sample,
    stepwise_sample,
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
    "best_of_n_sample",
    "blockwise_batch",
    "blockwise_ref_sample",
    "blockwise_sample",
    "build_linear_schedule",
    "ddpm_step",
    "eps_and_input_grad",
    "estimate_value",
    "expected_reward",
    "fit_gaussian",
    "forward_noising",
    "gaussian_kl",
    "grad_guided_batch",
    "grad_guided_sample",
    "init_model",
    "input_grad",
    "kl_upper_bound",
    "load_checkpoint",
    "log_reward",
    "loss_and_param_grads",
    "mixture_cov",
    "mixture_mean",
    "normalized_expected_reward",
    "paper_prior",
    "param_count",
    "posterior_mean",
    "predict_eps",
    "reward",
    "reward_grad",
    "sample_gmm",
    "save_checkpoint",
    "stepwise_sample",
    "train",
    "tweedie_x0",
    "win_rate",
]
