"""Sweep and shift-study harnesses: schemas, determinism, accounting."""

import json
import math
from dataclasses import fields

import numpy as np
import pytest

from diffguide import build_linear_schedule, fit_gaussian, gaussian_kl, init_model, kl_upper_bound
from diffguide.config import GuidancePoint, ShiftStudyConfig, config_from_dict
from diffguide.experiments import (
    SHIFT_COLUMNS,
    SWEEP_COLUMNS,
    GuidanceDivergedError,
    MetricsRow,
    ShiftRow,
    _check_batch,
    rows_to_csv,
    run_shift_study,
    run_sweep,
    shifted_reward,
    summary_payload,
    write_csv,
    read_csv,
)
from diffguide.metrics import selection_gap
from diffguide.rewards import GaussianReward, QuantizedReward, UnsupportedRewardError
from diffguide.training import paper_prior

SCHED = build_linear_schedule(40, 1e-3, 0.2)
MODEL = init_model(10, 4, seed=0)
REWARD = GaussianReward(mu=[14.0, 3.0], sigma=2.0)


def small_sweep():
    return [
        GuidancePoint(method="base"),
        GuidancePoint(method="best_of_n", n_streams=4),
        GuidancePoint(method="blockwise", n_streams=3, block_size=10),
        GuidancePoint(method="stepwise", n_streams=2),
        GuidancePoint(method="grad", scale=2.0),
    ]


class TestRunSweep:
    def test_kl_bound_counts_the_selections_made(self):
        """With blocks that do not divide the denoised steps (40 and 20),
        each selection the sampler makes costs one gap: a row's bound is
        ``selection_gap(n)`` times its reward queries per stream."""
        points = [
            GuidancePoint(method="blockwise", n_streams=3, block_size=15),
            GuidancePoint(method="blockwise_ref", n_streams=2, block_size=15, eta=0.5),
        ]
        rows = run_sweep(MODEL, SCHED, REWARD, points, 20, 20, seed=2)
        assert [r.reward_queries // r.n for r in rows] == [3, 2]
        for r in rows:
            assert r.kl_bound == selection_gap(r.n) * (r.reward_queries / r.n)

    def test_row_schema_and_accounting(self):
        rows = run_sweep(MODEL, SCHED, REWARD, small_sweep(), 50, 50, seed=5)
        assert [r.method for r in rows] == ["base", "best_of_n", "blockwise", "stepwise", "grad"]
        for r in rows:
            tau = round(r.eta * SCHED.T)
            if r.method == "base":
                assert (r.model_evals, r.reward_queries) == (SCHED.T, 0)
            elif r.method == "grad":
                assert (r.model_evals, r.reward_queries) == (SCHED.T, SCHED.T)
            else:
                assert r.model_evals == r.n * tau
                assert r.reward_queries == r.n * math.ceil(tau / r.b)
            recomputed = kl_upper_bound(r.method, r.n, r.b, SCHED.T, r.eta)
            assert (r.kl_bound == recomputed) or (
                math.isnan(r.kl_bound) and math.isnan(recomputed)
            )
            assert r.wall_ms > 0

    def test_base_point_self_comparison(self):
        """A base-method row drawn independently should look like base:
        normalized reward near 1 and win rate near 1/2.  The reward sits on
        the sampler's mean so its density average concentrates."""
        sched = build_linear_schedule(30, 1e-3, 0.2)
        model = init_model(8, 4, seed=3)
        near = GaussianReward(mu=[0.0, 0.0], sigma=2.0)
        rows = run_sweep(model, sched, near, [GuidancePoint(method="base")], 2000, 200, seed=1)
        row = rows[0]
        assert abs(row.win_rate - 0.5) <= 0.03
        assert abs(row.normalized_reward - 1.0) <= 0.1

    def test_selection_beats_base_reward(self):
        rows = run_sweep(
            MODEL,
            SCHED,
            REWARD,
            [GuidancePoint(method="base"), GuidancePoint(method="best_of_n", n_streams=8)],
            200,
            100,
            seed=2,
        )
        assert rows[1].expected_reward > rows[0].expected_reward
        assert rows[1].win_rate > 0.6

    def test_deterministic_csv_bytes(self):
        a = rows_to_csv(SWEEP_COLUMNS, run_sweep(MODEL, SCHED, REWARD, small_sweep(), 40, 40, seed=9))
        b = rows_to_csv(SWEEP_COLUMNS, run_sweep(MODEL, SCHED, REWARD, small_sweep(), 40, 40, seed=9))
        assert a == b
        assert a.splitlines()[0] == ",".join(SWEEP_COLUMNS)

    def test_quantized_reward_sweep_completes(self):
        spec = QuantizedReward(mu=[10.0, 3.0], delta=1.0)
        points = [
            GuidancePoint(method="best_of_n", n_streams=3),
            GuidancePoint(method="blockwise", n_streams=3, block_size=10),
            GuidancePoint(method="stepwise", n_streams=2),
        ]
        rows = run_sweep(MODEL, SCHED, spec, points, 30, 30, seed=4)
        assert len(rows) == 3
        assert all(np.isfinite(r.expected_reward) for r in rows)

    def test_quantized_reward_has_no_references_to_draw(self):
        """The library refuses drawn references under a reward with no
        distribution; a config refuses such a point when it loads."""
        spec = QuantizedReward(mu=[10.0, 3.0], delta=1.0)
        point = GuidancePoint(method="blockwise_ref", n_streams=2, block_size=10, eta=0.5)
        with pytest.raises(UnsupportedRewardError, match="no distribution to draw references from"):
            run_sweep(MODEL, SCHED, spec, [point], 10, 10, seed=4)

    def test_diverged_point_names_the_step(self):
        """A gradient batch that leaves the bound is refused with the step
        at which it stopped (the first step at scale 1e3 on this model)."""
        points = [GuidancePoint(method="base"), GuidancePoint(method="grad", scale=1e3)]
        with pytest.raises(
            GuidanceDivergedError,
            match=r"grad batch \(n=1, scale=1000\.0\) diverged: a state left the bound "
            r"\|x\| <= 1e\+06 at step t=39 of the reverse chain t=40\.\.1",
        ):
            run_sweep(MODEL, SCHED, REWARD, points, 20, 20, seed=5)

    def test_refused_after_the_sampler_returns(self, monkeypatch):
        """The refusal comes after ``grad_guided_batch`` returns its NaN
        batch, and after the point's base batch is drawn, so a caller that
        wraps the samplers sees both calls complete."""
        from diffguide import experiments

        returned = []
        for name in ("base_sample", "grad_guided_batch"):
            fn = getattr(experiments, name)

            def wrapped(*args, _fn=fn, _name=name, **kwargs):
                out = _fn(*args, **kwargs)
                returned.append((_name, out))
                return out

            monkeypatch.setattr(experiments, name, wrapped)
        with pytest.raises(GuidanceDivergedError, match="at step t=40 "):
            run_sweep(MODEL, SCHED, REWARD, [GuidancePoint(method="grad", scale=1e6)], 10, 10, seed=5)
        assert [name for name, _ in returned] == ["base_sample", "grad_guided_batch"]
        samples, counters = returned[1][1]
        assert np.all(np.isnan(samples))
        assert (counters.stopped_at, counters.model_evals) == (SCHED.T, 1)


class TestShiftStudy:
    def test_shifted_reward_geometry(self):
        prior = paper_prior()
        spec = GaussianReward(mu=[14.0, 3.0], sigma=2.0)
        at0 = shifted_reward(spec, prior, 0.0)
        np.testing.assert_allclose(at0.mu, [5.0, 17.0 / 3.0], atol=1e-12)
        far = shifted_reward(spec, prior, 9.3868)
        # displacement ~ |mu_r - centroid| lands back on the configured mean
        np.testing.assert_allclose(far.mu, [14.0, 3.0], atol=1e-3)

    def test_rows_cover_grid(self):
        study = ShiftStudyConfig(
            displacements=(0.0, 4.0),
            cells=(
                GuidancePoint(method="best_of_n", n_streams=3),
                GuidancePoint(method="blockwise_ref", n_streams=3, block_size=10, eta=0.5),
            ),
            runs_per_cell=20,
        )
        rows = run_shift_study(MODEL, SCHED, REWARD, paper_prior(), study, seed=3)
        assert len(rows) == 4
        assert [(r.displacement, r.method) for r in rows] == [
            (0.0, "best_of_n"),
            (0.0, "blockwise_ref"),
            (4.0, "best_of_n"),
            (4.0, "blockwise_ref"),
        ]
        for r in rows:
            assert np.isfinite(r.mean_reward)
            assert r.runs == 20

    def test_conditioned_cell_tracks_far_reward(self):
        """With the reference drawn from the shifted reward distribution,
        the conditioned sampler keeps its reward while plain selection with
        the same stream budget falls behind."""
        study = ShiftStudyConfig(
            displacements=(0.0, 12.0),
            cells=(
                GuidancePoint(method="best_of_n", n_streams=4),
                GuidancePoint(method="blockwise_ref", n_streams=4, block_size=8, eta=0.4),
            ),
            runs_per_cell=60,
        )
        rows = run_shift_study(MODEL, SCHED, REWARD, paper_prior(), study, seed=8)
        by = {(r.displacement, r.method): r for r in rows}
        bon_ratio = by[(12.0, "best_of_n")].mean_reward / by[(0.0, "best_of_n")].mean_reward
        ref_ratio = by[(12.0, "blockwise_ref")].mean_reward / by[(0.0, "blockwise_ref")].mean_reward
        assert ref_ratio > bon_ratio

    def test_displacements_must_be_sorted(self):
        with pytest.raises(ValueError):
            ShiftStudyConfig(
                displacements=(4.0, 0.0),
                cells=(GuidancePoint(method="base"),),
                runs_per_cell=5,
            )


    def test_diverged_cell_is_refused(self):
        study = ShiftStudyConfig(
            displacements=(0.0,),
            cells=(GuidancePoint(method="grad", scale=1e200),),
            runs_per_cell=4,
        )
        with pytest.raises(GuidanceDivergedError, match=r"grad batch .*scale=1e\+200.* at step t=40 "):
            run_shift_study(MODEL, SCHED, REWARD, paper_prior(), study, seed=0)


class TestBatchCheck:
    def test_collinear_blow_up_is_refused(self):
        """Finite samples spread along a line at 1e127 are beyond the bound."""
        t = np.linspace(-1.0, 1.0, 50)[:, None]
        samples = 3e127 * t * np.array([[1.0, 0.7]])
        point = GuidancePoint(method="grad", scale=5.0)
        with pytest.raises(
            GuidanceDivergedError,
            match=r"grad batch \(n=1, scale=5\.0\) diverged: 50 of 50 samples left the bound "
            r"\|x\| <= 1e\+06$",
        ):
            _check_batch(point, samples)

    def test_one_sample_beyond_the_bound_is_refused(self):
        samples = np.random.default_rng(1).normal(size=(30, 2))
        samples[7, 1] = -1.5e6
        samples[9, 0] = np.nan
        with pytest.raises(GuidanceDivergedError, match="2 of 30 samples left the bound"):
            _check_batch(GuidancePoint(method="base"), samples)

    @pytest.mark.parametrize("spread", [1e4, 1e5, 1e6])
    def test_in_bound_collinear_batches_are_accepted(self, spread):
        """Batches on a line within the bound get a positive-definite fit
        and a finite KL; with an absolute ridge some fits were not
        positive-definite and the batches were refused as diverged."""
        rng = np.random.default_rng(int(spread))
        base = fit_gaussian(rng.normal(size=(200, 2)))
        point = GuidancePoint(method="grad", scale=5.0)
        for _ in range(200):
            angle = rng.uniform(0.0, 2.0 * np.pi)
            direction = np.array([[np.cos(angle), np.sin(angle)]])
            samples = spread * rng.uniform(-1.0, 1.0, size=(40, 1)) * direction
            fit = _check_batch(point, samples)
            np.linalg.cholesky(fit.cov)
            assert np.isfinite(gaussian_kl(fit, base))

    def test_returns_the_fit(self):
        samples = np.random.default_rng(0).normal(size=(40, 2))
        fit = _check_batch(GuidancePoint(method="base"), samples, fit_rows=30)
        np.testing.assert_array_equal(fit.cov, fit_gaussian(samples[:30]).cov)

    def test_collapsed_batch_is_accepted(self):
        """A batch collapsed onto one point keeps a ridged, usable fit."""
        _check_batch(GuidancePoint(method="stepwise", n_streams=2), np.full((20, 2), 4.0))


class TestCsvIo:
    def test_round_trip(self, tmp_path):
        rows = run_sweep(MODEL, SCHED, REWARD, small_sweep()[:2], 30, 30, seed=1)
        path = tmp_path / "m.csv"
        write_csv(path, SWEEP_COLUMNS, rows)
        header, parsed = read_csv(path)
        assert header == list(SWEEP_COLUMNS)
        assert parsed[0]["method"] == "base"
        assert parsed[1]["n"] == 4
        # floats survive exactly thanks to repr round-tripping
        assert parsed[1]["expected_reward"] == rows[1].expected_reward
        assert math.isnan(parsed[0]["wall_ms"])

    def test_shift_csv(self, tmp_path):
        study = ShiftStudyConfig(
            displacements=(0.0,),
            cells=(GuidancePoint(method="stepwise", n_streams=2),),
            runs_per_cell=10,
        )
        rows = run_shift_study(MODEL, SCHED, REWARD, paper_prior(), study, seed=0)
        path = tmp_path / "s.csv"
        write_csv(path, SHIFT_COLUMNS, rows)
        header, parsed = read_csv(path)
        assert header == list(SHIFT_COLUMNS)
        assert parsed[0]["runs"] == 10

    def test_cells_by_declared_type(self, tmp_path):
        """Every cell is written by its field's type (an int-valued float
        as ``1.0``, NaN as ``nan``, a uint64 seed in full, ``wall_ms``
        empty) and read back as that type."""
        seed = np.uint64(2**64 - 1)
        sweep = MetricsRow(
            method="grad", n=1, b=40, eta=1, scale=5, seed=seed,
            expected_reward=0.25, normalized_reward=math.nan, win_rate=0.5,
            kl_fit=1e300, kl_bound=math.nan, variance_x=np.float64(1e-300),
            variance_y=2.5, model_evals=40, reward_queries=40, wall_ms=12.5,
        )
        assert SWEEP_COLUMNS == (
            "method", "n", "b", "eta", "scale", "seed", "expected_reward",
            "normalized_reward", "win_rate", "kl_fit", "kl_bound", "variance_x",
            "variance_y", "model_evals", "reward_queries", "wall_ms",
        )
        assert sweep.csv_values() == [
            "grad", "1", "40", "1.0", "5.0", "18446744073709551615", "0.25",
            "nan", "0.5", "1e+300", "nan", "1e-300", "2.5", "40", "40", "",
        ]
        shift = ShiftRow(
            displacement=0, method="blockwise_ref", n=np.int64(4), b=8, eta=0.6,
            runs=10, mean_reward=math.nan, variance_x=3, variance_y=0.125,
        )
        assert SHIFT_COLUMNS == (
            "displacement", "method", "n", "b", "eta", "runs", "mean_reward",
            "variance_x", "variance_y",
        )
        assert shift.csv_values() == [
            "0.0", "blockwise_ref", "4", "8", "0.6", "10", "nan", "3.0", "0.125",
        ]

        for columns, row in ((SWEEP_COLUMNS, sweep), (SHIFT_COLUMNS, shift)):
            path = tmp_path / f"{row.method}.csv"
            write_csv(path, columns, [row])
            header, (parsed,) = read_csv(path)
            assert header == list(columns)
            for field in fields(row):
                want, got = getattr(row, field.name), parsed[field.name]
                assert type(got).__name__ == field.type
                if field.name == "wall_ms" or (field.type == "float" and math.isnan(want)):
                    assert math.isnan(got)
                else:
                    assert got == want


def test_summary_echoes_the_checked_numbers():
    """``summary.json`` echoes the reward and prior as the float arrays their
    dataclasses hold, so an integer ``mu`` entry echoes as a float."""
    prior = {"weights": [0.5, 0.5], "means": [[0, 0], [4, 4]], "sigma": 1}
    cfg = config_from_dict({"reward": {"kind": "gaussian", "mu": [14, 3]}, "prior": prior})
    echo = json.loads(json.dumps(summary_payload(cfg, [])))["config"]
    assert echo["reward"] == {"mu": [14.0, 3.0], "sigma": 2.0}
    assert echo["prior"] == {"weights": [0.5, 0.5], "means": [[0.0, 0.0], [4.0, 4.0]], "sigma": 1.0}
    numbers = [*echo["reward"]["mu"], *echo["prior"]["weights"], *echo["prior"]["means"][1]]
    assert all(type(v) is float for v in numbers)
