#!/usr/bin/env python3
"""Show that each output check of the benchmark accepts right outputs and
rejects wrong ones.

    python3 bench/selftest.py

Works on a small model (T=20, H=16) so it finishes in seconds.  For every
kind of check it feeds first the program's own output, which must pass, then
a deliberately wrong one, which must raise ``CheckError``: a sample taken
from a stream the selection did not keep, a model with one perturbed row, a
sign-flipped gradient, a changed row value or counter, and the loss of an
untrained model.  Exits 0 when every case behaves, 1 otherwise.
"""

import copy
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402
from diffguide import experiments, streams  # noqa: E402
from diffguide.config import GuidancePoint  # noqa: E402
from diffguide.model import init_model, input_grad, loss_and_param_grads, predict_eps, with_params  # noqa: E402
from diffguide.rewards import GaussianReward  # noqa: E402
from diffguide.samplers import blockwise_batch, grad_guided_batch  # noqa: E402
from diffguide.schedule import build_linear_schedule  # noqa: E402
from diffguide.training import TrainConfig, paper_prior, pooled_input_stats, train  # noqa: E402

import reference as ref  # noqa: E402

MU, SIGMA = (14.0, 3.0), 2.0


def main() -> int:
    sched = build_linear_schedule(20, 1e-3, 0.3)
    beta = sched.beta[1:]
    prior = paper_prior()
    shift, scale = pooled_input_stats(prior, sched)
    initial = init_model(16, 8, 3, in_shift=shift, in_scale=scale)
    model, losses = train(initial, prior, sched, TrainConfig(epochs=3, dataset_size=4000, batch_size=200, seed=1))
    net = ref.Net.from_model(model, beta)
    bent = with_params(model, {"w2": model.w2.copy()})
    bent.w2[3] += 1e-3
    bent_net = ref.Net.from_model(bent, beta)
    spec = GaussianReward(mu=MU, sigma=SIGMA)
    rng = np.random.default_rng(0)

    seeds = np.asarray([streams.derive_seed(9, r) for r in range(5)], dtype=np.uint64)
    n, block = 4, 6
    samples, _ = blockwise_batch(model, sched, spec, n, block, seeds)
    refs = np.asarray(MU) + rng.normal(size=(len(seeds), 2))
    ref_samples, _ = blockwise_batch(model, sched, spec, n, 3, seeds, eta=0.6, x_refs=refs)

    def other_stream(got, *args):
        """``got`` with run 0's sample replaced by a stream the selection dropped."""
        _, candidates = ref.selection_samples(net, MU, *args)
        kept = int(np.argmin(np.abs(candidates[0] - got[0]).sum(axis=1)))
        out = got.copy()
        out[0] = candidates[0][(kept + 1) % len(candidates[0])]
        return out

    captured = {}
    real_base, real_batch = experiments.base_sample, experiments.blockwise_batch

    def base_sample(*args, **kwargs):
        captured["base"] = real_base(*args, **kwargs)
        return captured["base"]

    def batch(*args, **kwargs):
        out = real_batch(*args, **kwargs)
        captured["guided"] = out[0]
        return out

    experiments.base_sample, experiments.blockwise_batch = base_sample, batch
    try:
        row = experiments.run_sweep(model, sched, spec, [GuidancePoint("blockwise", n, block_size=block)],
                                    40, 40, 4)[0]
    finally:
        experiments.base_sample, experiments.blockwise_batch = real_base, real_batch
    guided, base = captured["guided"], captured["base"][:40]
    odd_counter = copy.copy(row)
    odd_counter.reward_queries += 1
    odd_reward = copy.copy(row)
    odd_reward.win_rate += 1.0 / 40

    grad, _ = grad_guided_batch(model, sched, spec, 1.0, seeds)
    blown = grad.copy()
    blown[2, 0] = np.inf
    points = np.concatenate([grad, base[:3]])

    def flipped_input_grad(*args):
        return -input_grad(*args)

    def flipped_param_grads(*args):
        bundle = loss_and_param_grads(*args)
        bundle.w2 = -bundle.w2
        return bundle

    heldout = ref.heldout_batch(prior.weights, prior.means, prior.sigma, sched.T, 2000, 5)
    small = ref.heldout_batch(prior.weights, prior.means, prior.sigma, sched.T, 64, 6)
    cases = [
        ("forward pass", lambda: ref.check_forward(predict_eps, model, sched, net, rng),
         lambda: ref.check_forward(predict_eps, model, sched, bent_net, rng)),
        ("selection, non-selected stream", lambda: ref.check_selection("bw", samples, net, MU, n, block, 1.0, seeds),
         lambda: ref.check_selection("bw", other_stream(samples, n, block, 1.0, seeds), net, MU, n, block, 1.0,
                                     seeds)),
        ("selection, perturbed model row", lambda: ref.check_selection("bw", samples, net, MU, n, block, 1.0, seeds),
         lambda: ref.check_selection("bw", samples, bent_net, MU, n, block, 1.0, seeds)),
        ("reference-conditioned selection, non-selected stream",
         lambda: ref.check_selection("ref", ref_samples, net, MU, n, 3, 0.6, seeds, refs),
         lambda: ref.check_selection("ref", other_stream(ref_samples, n, 3, 0.6, seeds, refs), net, MU, n, 3,
                                     0.6, seeds, refs)),
        ("selection counters", lambda: ref.check_counters("bw", row, sched.T),
         lambda: ref.check_counters("bw", odd_counter, sched.T)),
        ("row reward values", lambda: ref.check_row_values("bw", row, guided, base, MU, SIGMA),
         lambda: ref.check_row_values("bw", odd_reward, guided, base, MU, SIGMA)),
        ("guided batch, non-finite sample", lambda: ref.check_guided("grad", grad, base[:5], MU, SIGMA),
         lambda: ref.check_guided("grad", blown, base[:5], MU, SIGMA)),
        ("guided batch, no better than base", lambda: ref.check_guided("grad", grad, base[:5], MU, SIGMA),
         lambda: ref.check_guided("grad", base[:5], base[:5], MU, SIGMA)),
        ("input gradient, sign flipped",
         lambda: ref.check_input_grad(input_grad, predict_eps, model, sched, points, rng),
         lambda: ref.check_input_grad(flipped_input_grad, predict_eps, model, sched, points, rng)),
        ("parameter gradient, sign flipped",
         lambda: ref.check_param_grads(loss_and_param_grads, model, sched, small),
         lambda: ref.check_param_grads(flipped_param_grads, model, sched, small)),
        ("training, untrained model",
         lambda: ref.check_training(losses, ref.Net.from_model(initial, beta), net, heldout),
         lambda: ref.check_training(losses, ref.Net.from_model(initial, beta),
                                    ref.Net.from_model(initial, beta), heldout)),
        ("training, non-finite loss",
         lambda: ref.check_training(losses, ref.Net.from_model(initial, beta), net, heldout),
         lambda: ref.check_training(np.append(losses, np.nan), ref.Net.from_model(initial, beta), net, heldout)),
    ]
    bad = 0
    for name, right, wrong in cases:
        try:
            right()
        except ref.CheckError as exc:
            print(f"FAIL {name}: the right output was rejected: {exc}")
            bad += 1
            continue
        try:
            wrong()
        except ref.CheckError as exc:
            print(f"ok   {name}: rejected ({exc})")
        else:
            print(f"FAIL {name}: the wrong output was accepted")
            bad += 1
    print(f"{len(cases) - bad} of {len(cases)} checks accept the right output and reject the wrong one")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
