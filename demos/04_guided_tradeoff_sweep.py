"""Reward-guidance trade-off sweep on a smoke-scale model.

Trains quickly, then compares plain sampling, best-of-n, blockwise and
per-step selection, and gradient guidance against a far-off Gaussian
reward.  Emits the metrics CSV and the two standard SVG figures.  On this
small model gradient guidance blows up at every scale tried; each such point
is refused (``GuidanceDivergedError``, naming the step) and printed, and
writes no row.
"""

import os

from diffguide import GaussianReward, TrainConfig, build_linear_schedule, init_model, train
from diffguide.config import GuidancePoint
from diffguide.experiments import SWEEP_COLUMNS, GuidanceDivergedError, run_sweep, write_csv
from diffguide.plots import plot_csv
from diffguide.training import paper_prior, pooled_input_stats

OUT = os.path.join(os.path.dirname(__file__), "out_sweep")
os.makedirs(OUT, exist_ok=True)

prior = paper_prior()
sched = build_linear_schedule(T=100, beta_start=1e-3, beta_end=0.2)
shift, scale = pooled_input_stats(prior, sched)
model = init_model(64, 16, seed=0, in_shift=shift, in_scale=scale)
model, _ = train(model, prior, sched, TrainConfig(epochs=20, dataset_size=4096, batch_size=128, lr=2e-3, seed=0))

reward = GaussianReward(mu=[14.0, 3.0], sigma=2.0)
points = [
    GuidancePoint(method="base"),
    GuidancePoint(method="best_of_n", n_streams=4),
    GuidancePoint(method="best_of_n", n_streams=16),
    GuidancePoint(method="best_of_n", n_streams=64),
    GuidancePoint(method="blockwise", n_streams=2, block_size=10),
    GuidancePoint(method="blockwise", n_streams=4, block_size=10),
    GuidancePoint(method="blockwise", n_streams=8, block_size=10),
    GuidancePoint(method="stepwise", n_streams=2),
    GuidancePoint(method="stepwise", n_streams=4),
]
rows = run_sweep(model, sched, reward, points, samples_per_point=400, kl_samples=400, seed=0)
# one sweep per gradient point, so that a refused point costs only itself
for scale in (1.0, 5.0, 20.0):
    point = GuidancePoint(method="grad", scale=scale)
    try:
        rows += run_sweep(model, sched, reward, [point], samples_per_point=400, kl_samples=400, seed=0)
    except GuidanceDivergedError as exc:
        print(f"refused: {exc}")

print(f"{'method':<12} {'n':>3} {'b':>4} {'win':>6} {'norm_r':>8} {'kl_fit':>8} {'bound':>8}")
for r in rows:
    print(
        f"{r.method:<12} {r.n:>3} {r.b:>4} {r.win_rate:>6.3f} "
        f"{r.normalized_reward:>8.2f} {r.kl_fit:>8.3f} {r.kl_bound:>8.3f}"
    )

csv_path = os.path.join(OUT, "metrics.csv")
write_csv(csv_path, SWEEP_COLUMNS, rows)
for fig in plot_csv(csv_path, OUT):
    print("wrote", fig)
