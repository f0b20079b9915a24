"""Train the noise predictor at smoke scale and check its fidelity.

Builds a T=100 schedule with betas from 1e-3 to 0.2, so the whole script
runs in a few seconds; the study-scale run is driven through the CLI instead
(see the README).
"""

import numpy as np

from diffguide import (
    TrainConfig,
    base_sample,
    build_linear_schedule,
    fit_gaussian,
    gaussian_kl,
    init_model,
    mixture_mean,
    paper_prior,
    sample_gmm,
    train,
)
from diffguide.training import pooled_input_stats

prior = paper_prior()
sched = build_linear_schedule(T=100, beta_start=1e-3, beta_end=0.2)
shift, scale = pooled_input_stats(prior, sched)
model = init_model(64, 16, seed=0, in_shift=shift, in_scale=scale)

cfg = TrainConfig(epochs=20, dataset_size=4096, batch_size=128, lr=2e-3, seed=0)
trained, losses = train(model, prior, sched, cfg)
print("epoch losses:", " ".join(f"{v:.3f}" for v in losses[::4]), "->", f"{losses[-1]:.3f}")

xs = base_sample(trained, sched, 4000, seed=1)
print("sample mean:", xs.mean(axis=0).round(3), " target", mixture_mean(prior).round(3))
kl = gaussian_kl(fit_gaussian(xs), fit_gaussian(sample_gmm(prior, 4000, seed=2)))
print(f"Gaussian-fit KL vs the prior: {kl:.4f}")
