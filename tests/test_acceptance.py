"""Study-scale acceptance suite.

Trains the full model once per session through the CLI, then checks each
acceptance criterion at its stated tolerance, printing one PASS/FAIL line
per criterion (run with ``pytest tests/test_acceptance.py -v -s``).  Expect
tens of minutes on a small CPU; everything is deterministic.
"""

import json
import math
import os

import numpy as np
import pytest

import diffguide as dg
from diffguide import streams
from diffguide.cli import main
from diffguide.config import GuidancePoint, ShiftStudyConfig
from diffguide.experiments import (
    SWEEP_COLUMNS,
    guided_batch,
    read_csv,
    run_shift_study,
    run_sweep,
)
from diffguide.model import load_checkpoint

pytestmark = pytest.mark.acceptance

FULL_T = 1000
TRAIN_EPOCHS = 200
SAMPLES_PER_POINT = 1000
KL_SAMPLES = 1000

# loss-trace fixture recorded from the pilot run of the exact training
# recipe below (first epoch 1.298, final 0.892); the final epoch must stay
# within 10% of the recorded floor and keep the recorded relative drop
PILOT_FINAL_LOSS = 0.892
PILOT_LOSS_RATIO = 0.75  # final / first epoch mean, with headroom


def report(num, name, ok, detail=""):
    print(f"ACCEPTANCE {num:>2} {name}: {'PASS' if ok else 'FAIL'} {detail}")
    return ok


def full_config(out_dir: str) -> dict:
    return {
        "seed": 0,
        "out_dir": out_dir,
        "schedule": {"T": FULL_T, "beta_start": 1e-4, "beta_end": 0.02},
        "model": {"hidden_width": 128, "embed_width": 32},
        "prior": {
            "weights": [1 / 3, 1 / 3, 1 / 3],
            "means": [[5, 3], [3, 7], [7, 7]],
            "sigma": 2.0,
        },
        "reward": {"kind": "gaussian", "mu": [14, 3], "sigma": 2.0},
        "train": {
            "epochs": TRAIN_EPOCHS,
            "dataset_size": 100_000,
            "batch_size": 1024,
            "lr": 1e-3,
            "seed": 0,
        },
        "sweep": [],
        "samples_per_point": SAMPLES_PER_POINT,
        "kl_samples": KL_SAMPLES,
    }


@pytest.fixture(scope="session")
def lab(tmp_path_factory):
    """Train the study-scale model once and expose the shared artifacts."""
    out = tmp_path_factory.mktemp("full_run")
    cfg_path = out / "config.json"
    cfg = full_config(str(out))
    cfg_path.write_text(json.dumps(cfg))
    assert main(["train", "--config", str(cfg_path)]) == 0
    ckpt = out / "checkpoint.json"
    model, sched = load_checkpoint(ckpt)
    losses = np.array(
        [
            float(line.split(",")[1])
            for line in (out / "loss_trace.csv").read_text().splitlines()[1:]
        ]
    )
    reward = dg.GaussianReward(mu=[14.0, 3.0], sigma=2.0)
    prior = dg.paper_prior()
    return {
        "dir": out,
        "config_path": cfg_path,
        "config": cfg,
        "ckpt": ckpt,
        "model": model,
        "sched": sched,
        "losses": losses,
        "reward": reward,
        "prior": prior,
    }


@pytest.fixture(scope="session")
def base10k(lab):
    return dg.base_sample(lab["model"], lab["sched"], 10_000, seed=424242)


class TestCriterion01BaseFidelity:
    def test_mean_and_kl(self, lab, base10k):
        target = np.array([5.0, 17.0 / 3.0])
        mean_err = float(np.abs(base10k.mean(axis=0) - target).max())
        gmm = dg.sample_gmm(lab["prior"], 10_000, seed=515151)
        kl = dg.gaussian_kl(dg.fit_gaussian(base10k), dg.fit_gaussian(gmm))
        ok = mean_err <= 0.15 and kl <= 0.05
        assert report(
            1, "base-model fidelity", ok, f"(mean err {mean_err:.3f} <= 0.15, KL {kl:.4f} <= 0.05)"
        )

    def test_loss_trace_behaviour(self, lab):
        """Pilot-recorded floor and the smoothed monotone-descent property
        (10-epoch moving average, at most 2 violating windows)."""
        losses = lab["losses"]
        ratio = losses[-1] / losses[0]
        smooth = np.convolve(losses, np.ones(10) / 10.0, mode="valid")
        violations = int(np.sum(np.diff(smooth) > 1e-3))
        ok = losses[-1] <= PILOT_FINAL_LOSS * 1.10 and ratio <= PILOT_LOSS_RATIO and violations <= 2
        assert report(
            1,
            "training trace",
            ok,
            f"(final {losses[-1]:.3f}, ratio {ratio:.3f}, {violations} rising windows)",
        )


class TestCriterion02SpecialCases:
    def test_bit_exact_reductions(self):
        sched = dg.build_linear_schedule(100, 1e-3, 0.2)
        model = dg.init_model(16, 8, seed=5)
        spec = dg.GaussianReward(mu=[14.0, 3.0], sigma=2.0)

        def run(point):
            block = point.resolved_block(sched.T, "criterion 02")
            return guided_batch(model, sched, spec, point, block, 11, 1)[0]

        checks = [
            np.array_equal(
                run(GuidancePoint("best_of_n", n_streams=6)),
                run(GuidancePoint("blockwise", n_streams=6, block_size=sched.T)),
            ),
            np.array_equal(
                run(GuidancePoint("stepwise", n_streams=3)),
                run(GuidancePoint("blockwise", n_streams=3, block_size=1)),
            ),
        ]
        single, _ = dg.blockwise_batch(model, sched, spec, 1, 25, [11])
        checks.append(np.array_equal(single, dg.base_sample(model, sched, 1, seed=11)))
        ref, _ = dg.blockwise_batch(model, sched, spec, 4, 20, [11], eta=1.0, x_refs=[0.0, 0.0])
        checks.append(np.array_equal(ref, dg.blockwise_batch(model, sched, spec, 4, 20, [11])[0]))
        assert report(2, "special-case exactness", all(checks), f"({sum(checks)}/4 bit-identical)")


def _rel_err(got, want):
    return np.max(np.abs(got - want)) / max(1.0, np.max(np.abs(want)))


def _fd_param_grads(model, x0, eps, t, sched, h=1e-6):
    from diffguide.model import with_params

    grads = {}
    for name, arr in model.params():
        g = np.zeros_like(arr).ravel()
        flat = arr.ravel()
        for i in range(flat.size):
            bumped = flat.copy()
            bumped[i] = flat[i] + h
            up = dg.loss_and_param_grads(
                with_params(model, {name: bumped.reshape(arr.shape)}), x0, eps, t, sched
            ).loss
            bumped[i] = flat[i] - h
            down = dg.loss_and_param_grads(
                with_params(model, {name: bumped.reshape(arr.shape)}), x0, eps, t, sched
            ).loss
            g[i] = (up - down) / (2 * h)
        grads[name] = g.reshape(arr.shape)
    return grads


class TestCriterion03Gradients:
    def test_gradient_checks(self):
        sched = dg.build_linear_schedule(60)
        rng = np.random.default_rng(77)
        worst = 0.0
        for trial in range(20):
            model = dg.init_model(3, 4, seed=300 + trial, in_shift=[1.0, 2.0], in_scale=2.0)
            n = int(rng.integers(1, 4))
            x0 = rng.normal(scale=3.0, size=(n, 2))
            eps = rng.normal(size=(n, 2))
            t = rng.integers(1, 61, size=n)
            got = dg.loss_and_param_grads(model, x0, eps, t, sched)
            want = _fd_param_grads(model, x0, eps, t, sched)
            for name, g in got.params():
                worst = max(worst, _rel_err(g, want[name]))
            x = rng.normal(size=2)
            cot = rng.normal(size=2)
            ti = int(rng.integers(1, 61))
            fd = np.zeros(2)
            h = 1e-6
            for j in range(2):
                step = np.zeros(2)
                step[j] = h
                up = dg.predict_eps(model, x + step, ti, sched)
                down = dg.predict_eps(model, x - step, ti, sched)
                fd[j] = cot @ ((up - down) / (2 * h))
            worst = max(worst, _rel_err(dg.input_grad(model, x, ti, sched, cot), fd))
        assert report(3, "gradient correctness", worst <= 1e-6, f"(worst rel err {worst:.2e})")


class TestCriterion04TweedieOracle:
    def test_analytic_posterior_mean(self):
        sched = dg.build_linear_schedule(FULL_T)
        mean = np.array([4.0, -1.0])
        s = 1.8
        model = dg.IsotropicGaussianEps(mean=mean, sigma=s)
        rng = np.random.default_rng(8)
        worst = 0.0
        for t in (1, 10, 100, 500, 1000):
            x_t = rng.normal(scale=3.0, size=2)
            got = dg.tweedie_x0(x_t, dg.predict_eps(model, x_t, t, sched), t, sched)
            ab = sched.alpha_bar[t]
            want = mean + np.sqrt(ab) * s**2 / (ab * s**2 + 1 - ab) * (x_t - np.sqrt(ab) * mean)
            worst = max(worst, float(np.abs(got - want).max()))
        assert report(4, "endpoint-prediction oracle", worst <= 1e-10, f"(worst abs err {worst:.2e})")


class TestCriterion05ClosedFormKl:
    def test_exact_values(self):
        a = dg.GaussianFit(mean=np.zeros(2), cov=np.eye(2))
        b = dg.GaussianFit(mean=np.array([1.0, 0.0]), cov=np.eye(2))
        c = dg.GaussianFit(mean=np.zeros(2), cov=2 * np.eye(2))
        checks = [
            abs(dg.gaussian_kl(a, a)) <= 1e-12,
            abs(dg.gaussian_kl(a, b) - 0.5) <= 1e-12,
            abs(dg.gaussian_kl(c, a) - (1.0 - math.log(2.0))) <= 1e-12,
            abs(dg.kl_upper_bound("best_of_n", 2, FULL_T, FULL_T) - (math.log(2.0) - 0.5)) <= 1e-15,
            dg.kl_upper_bound("blockwise", 2, 100, 1000)
            == (math.log(2.0) - 0.5) * 10.0,
            dg.kl_upper_bound("blockwise", 2, 100, 1000, eta=0.6)
            == (math.log(2.0) - 0.5) * 6.0,
            dg.kl_upper_bound("stepwise", 2, 1, 1000) == (math.log(2.0) - 0.5) * 1000,
        ]
        assert report(5, "closed-form KL values", all(checks), f"({sum(checks)}/7 exact)")


@pytest.fixture(scope="session")
def tradeoff_rows(lab):
    """The far-reward sweep shared by criteria 6, 7, 12 and the bound check."""
    points = [{"method": "base"}]
    points += [{"method": "blockwise", "n_streams": n, "block_size": 100} for n in (2, 4, 6, 8, 10)]
    points += [{"method": "best_of_n", "n_streams": n} for n in (2, 10, 30, 50)]
    points += [{"method": "stepwise", "n_streams": 2}]
    cfg = dict(lab["config"], sweep=points, out_dir=str(lab["dir"] / "sweep"))
    cfg_path = lab["dir"] / "sweep_config.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["sweep", "--config", str(cfg_path), "--checkpoint", str(lab["ckpt"])]) == 0
    header, rows = read_csv(lab["dir"] / "sweep" / "metrics.csv")
    assert header == list(SWEEP_COLUMNS)
    return rows


class TestCriterion06Efficiency:
    def test_blockwise_matches_large_n_best_of_n(self, tradeoff_rows):
        code_best = max(
            r["win_rate"] for r in tradeoff_rows if r["method"] == "blockwise" and r["n"] <= 10
        )
        bon30 = next(
            r["win_rate"] for r in tradeoff_rows if r["method"] == "best_of_n" and r["n"] == 30
        )
        ok = code_best >= bon30 - 0.05
        assert report(
            6,
            "small-n blockwise vs best-of-30",
            ok,
            f"(blockwise best {code_best:.3f} vs best_of_n(30) {bon30:.3f} - 0.05)",
        )


class TestCriterion07StepwiseDivergence:
    def test_stepwise_kl_exceeds_blockwise(self, tradeoff_rows):
        sv = next(r["kl_fit"] for r in tradeoff_rows if r["method"] == "stepwise" and r["n"] == 2)
        bw = next(r["kl_fit"] for r in tradeoff_rows if r["method"] == "blockwise" and r["n"] == 2)
        ok = sv >= 2.0 * bw
        assert report(
            7, "per-step selection divergence", ok, f"(stepwise {sv:.3f} >= 2 x blockwise {bw:.3f})"
        )

    def test_best_of_n_estimate_respects_bound(self, tradeoff_rows):
        """Fitted KL of full-rollout selection stays below the analytic
        bound (plus estimation slack 0.1) for n in {2, 10, 50}."""
        pairs = [
            (r["n"], r["kl_fit"], r["kl_bound"])
            for r in tradeoff_rows
            if r["method"] == "best_of_n" and r["n"] in (2, 10, 50)
        ]
        ok = len(pairs) == 3 and all(fit <= bound + 0.1 for _, fit, bound in pairs)
        detail = ", ".join(f"n={n}: {fit:.3f} <= {bound:.3f}+0.1" for n, fit, bound in pairs)
        assert report(7, "selection divergence bound", ok, f"({detail})")


@pytest.fixture(scope="session")
def shift_rows(lab):
    study = ShiftStudyConfig(
        displacements=(0.0, 12.0),
        cells=(
            GuidancePoint(method="best_of_n", n_streams=50),
            GuidancePoint(method="stepwise", n_streams=50),
            GuidancePoint(method="blockwise_ref", n_streams=50, block_size=80, eta=0.6),
        ),
        runs_per_cell=200,
    )
    rows = run_shift_study(lab["model"], lab["sched"], lab["reward"], lab["prior"], study, seed=7)
    return {(r.displacement, r.method): r for r in rows}


class TestCriterion08VarianceCollapse:
    def test_stepwise_variance_collapse(self, shift_rows):
        far_sv = shift_rows[(12.0, "stepwise")]
        far_bon = shift_rows[(12.0, "best_of_n")]
        total_sv = far_sv.variance_x + far_sv.variance_y
        total_bon = far_bon.variance_x + far_bon.variance_y
        ok = total_sv <= total_bon / 100.0
        assert report(
            8, "variance collapse", ok, f"(stepwise {total_sv:.2e} vs best_of_n {total_bon:.2e} / 100)"
        )


class TestCriterion09ShiftRobustness:
    def test_reference_conditioning_is_robust(self, shift_rows):
        bon_ratio = (
            shift_rows[(12.0, "best_of_n")].mean_reward
            / shift_rows[(0.0, "best_of_n")].mean_reward
        )
        ref_ratio = (
            shift_rows[(12.0, "blockwise_ref")].mean_reward
            / shift_rows[(0.0, "blockwise_ref")].mean_reward
        )
        ok = bon_ratio < ref_ratio
        assert report(
            9,
            "shift robustness ordering",
            ok,
            f"(best_of_n falls to {bon_ratio:.4f}, conditioned holds {ref_ratio:.4f})",
        )

    def test_reward_on_prior_all_methods_win(self, lab, shift_rows, base10k):
        """At displacement 0 the reward sits on the prior centroid and every
        guidance method beats plain sampling comfortably."""
        from diffguide.experiments import shifted_reward

        spec0 = shifted_reward(lab["reward"], lab["prior"], 0.0)
        base_reward = dg.expected_reward(base10k[:2000], spec0)
        ratios = {
            m: shift_rows[(0.0, m)].mean_reward / base_reward
            for m in ("best_of_n", "stepwise", "blockwise_ref")
        }
        ok = all(v > 1.2 for v in ratios.values())
        detail = ", ".join(f"{m} {v:.2f}x" for m, v in ratios.items())
        assert report(9, "near-reward regime", ok, f"(normalized rewards: {detail})")


class TestCriterion10GradTradeoff:
    def test_kl_monotone_in_scale(self, lab):
        points = [GuidancePoint(method="grad", scale=s) for s in (1.0, 5.0, 10.0, 25.0, 50.0)]
        rows = run_sweep(
            lab["model"], lab["sched"], lab["reward"], points, SAMPLES_PER_POINT, KL_SAMPLES, seed=3
        )
        kls = [r.kl_fit for r in rows]
        inversions = [max(kls[i] - kls[i + 1], 0.0) for i in range(len(kls) - 1)]
        ok = all(np.isfinite(kls)) and sum(v > 0.05 for v in inversions) <= 1
        assert report(
            10, "gradient-guidance trade-off", ok, "(kl_fit " + " -> ".join(f"{v:.2f}" for v in kls) + ")"
        )


class TestCriterion11NonDifferentiable:
    def test_quantized_reward_capability(self, lab):
        spec = dg.QuantizedReward(mu=[14.0, 3.0], delta=1.0)
        sched = dg.build_linear_schedule(100, 1e-3, 0.2)
        model = dg.init_model(16, 8, seed=5)
        points = [
            GuidancePoint(method="best_of_n", n_streams=8),
            GuidancePoint(method="blockwise", n_streams=4, block_size=10),
            GuidancePoint(method="stepwise", n_streams=2),
        ]
        rows = run_sweep(model, sched, spec, points, 200, 200, seed=4)
        sweep_ok = len(rows) == 3 and all(np.isfinite(r.expected_reward) for r in rows)
        try:
            dg.grad_guided_batch(model, sched, spec, 5.0, [0])
            grad_refused = False
        except dg.UnsupportedRewardError:
            grad_refused = True
        ok = sweep_ok and grad_refused
        assert report(
            11,
            "non-differentiable reward",
            ok,
            f"(selection sweep ran {len(rows)} rows, gradient guidance refused: {grad_refused})",
        )


class TestCriterion12Determinism:
    def test_repeat_sweep_bytes_and_counters(self, lab, tradeoff_rows):
        # counters on the study-scale rows
        counter_ok = True
        for r in tradeoff_rows:
            tau = round(r["eta"] * FULL_T)
            if r["method"] == "base":
                counter_ok &= (r["model_evals"], r["reward_queries"]) == (FULL_T, 0)
            else:
                counter_ok &= r["model_evals"] == r["n"] * tau
                counter_ok &= r["reward_queries"] == r["n"] * math.ceil(tau / r["b"])
            want_bound = dg.kl_upper_bound(r["method"], r["n"], r["b"], FULL_T, r["eta"])
            counter_ok &= (r["kl_bound"] == want_bound) or (
                math.isnan(r["kl_bound"]) and math.isnan(want_bound)
            )
        # byte-determinism through the CLI, twice, on a reduced sweep
        det_cfg = dict(lab["config"], out_dir=str(lab["dir"] / "det"))
        det_cfg["sweep"] = [
            {"method": "base"},
            {"method": "blockwise", "n_streams": 3, "block_size": 20},
            {"method": "grad", "scale": 2.0},
        ]
        det_cfg["samples_per_point"] = 50
        det_cfg["kl_samples"] = 50
        path = lab["dir"] / "det_config.json"
        path.write_text(json.dumps(det_cfg))
        ckpt = lab["ckpt"]
        assert main(["sweep", "--config", str(path), "--checkpoint", str(ckpt)]) == 0
        first = (lab["dir"] / "det" / "metrics.csv").read_bytes()
        assert main(["sweep", "--config", str(path), "--checkpoint", str(ckpt)]) == 0
        identical = (lab["dir"] / "det" / "metrics.csv").read_bytes() == first
        ok = counter_ok and identical
        assert report(
            12,
            "determinism and counters",
            ok,
            f"(counters exact: {counter_ok}, repeated CSV byte-identical: {identical})",
        )
