"""End-to-end CLI behavior on a miniature configuration."""

import importlib
import json
import re
import sys
from pathlib import Path

import numpy as np
import pytest

from diffguide.cli import main
from diffguide.model import load_checkpoint


def mini_config(tmp_path, **extra):
    """A configuration small enough to train and sweep in seconds."""
    cfg = {
        "seed": 7,
        "out_dir": str(tmp_path / "out"),
        "schedule": {"T": 30, "beta_start": 3e-3, "beta_end": 0.6},
        "model": {"hidden_width": 16, "embed_width": 8},
        "reward": {"kind": "gaussian", "mu": [14, 3], "sigma": 2.0},
        "train": {"epochs": 3, "dataset_size": 512, "batch_size": 128, "lr": 2e-3, "seed": 1},
        "sweep": [
            {"method": "base"},
            {"method": "best_of_n", "n_streams": 3},
            {"method": "blockwise", "n_streams": 2, "block_size": 10},
        ],
        "samples_per_point": 40,
        "kl_samples": 40,
        "shift_study": {
            "displacements": [0.0, 6.0],
            "runs_per_cell": 12,
            "cells": [
                {"method": "best_of_n", "n_streams": 2},
                {"method": "blockwise_ref", "n_streams": 2, "block_size": 10, "eta": 0.5},
            ],
        },
    }
    cfg.update(extra)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path, cfg


@pytest.fixture()
def trained(tmp_path):
    path, cfg = mini_config(tmp_path)
    assert main(["train", "--config", str(path)]) == 0
    ckpt = tmp_path / "out" / "checkpoint.json"
    assert ckpt.exists()
    return path, cfg, ckpt


class TestTrainCommand:
    def test_missing_config_exits_2(self, tmp_path, capsys):
        code = main(["train", "--config", str(tmp_path / "nope.json")])
        assert code == 2
        assert "nope.json" in capsys.readouterr().err

    def test_writes_checkpoint_and_trace(self, trained, tmp_path):
        _, _, ckpt = trained
        model, sched = load_checkpoint(ckpt)
        assert sched.T == 30
        assert model.hidden_width == 16
        trace = (tmp_path / "out" / "loss_trace.csv").read_text().splitlines()
        assert trace[0] == "epoch,mean_loss"
        assert len(trace) == 1 + 3
        # every value is a plain decimal number, not a numpy scalar repr
        for i, line in enumerate(trace[1:]):
            epoch, loss = line.split(",")
            assert int(epoch) == i
            assert np.isfinite(float(loss))

    def test_repeat_run_identical_checkpoint(self, tmp_path):
        path, _ = mini_config(tmp_path)
        assert main(["train", "--config", str(path)]) == 0
        first = (tmp_path / "out" / "checkpoint.json").read_bytes()
        assert main(["train", "--config", str(path)]) == 0
        assert (tmp_path / "out" / "checkpoint.json").read_bytes() == first

    def test_invalid_json_config(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{oops")
        assert main(["train", "--config", str(bad)]) == 2


class TestSampleAndGuide:
    def test_sample_writes_csv(self, trained, tmp_path):
        _, _, ckpt = trained
        out = tmp_path / "samples.csv"
        code = main(
            ["sample", "--checkpoint", str(ckpt), "--n", "25", "--seed", "3", "--out", str(out)]
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "x,y"
        assert len(lines) == 26
        for line in lines[1:]:
            assert all(np.isfinite(float(v)) for v in line.split(","))

    @pytest.mark.parametrize("n", ["0", "-3"])
    def test_sample_refuses_a_count_below_one(self, trained, tmp_path, capsys, n):
        _, _, ckpt = trained
        out = tmp_path / "samples.csv"
        code = main(["sample", "--checkpoint", str(ckpt), "--n", n, "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == f"error: --n must be >= 1, got {n}\n"
        assert not out.exists()

    def test_guide_reports_counters(self, trained, capsys):
        path, _, ckpt = trained
        code = main(
            [
                "guide",
                "--config",
                str(path),
                "--checkpoint",
                str(ckpt),
                "--method",
                "blockwise",
                "--n-streams",
                "3",
                "--block-size",
                "10",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["model_evals"] == 3 * 30
        assert payload["reward_queries"] == 3 * 3
        assert len(payload["sample"]) == 2
        assert payload["wall_ms"] > 0

    def test_guide_refuses_a_diverged_run(self, trained, capsys):
        path, _, ckpt = trained
        code = main(
            ["guide", "--config", str(path), "--checkpoint", str(ckpt),
             "--method", "grad", "--scale", "1e6"]
        )
        assert code == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "grad batch (n=1, scale=1000000.0) diverged" in captured.err
        assert "at step t=30 " in captured.err

    def test_guide_missing_checkpoint(self, trained):
        path, _, _ = trained
        code = main(
            ["guide", "--config", str(path), "--checkpoint", "/does/not/exist.json",
             "--method", "base"]
        )
        assert code == 2


class TestSweepCommand:
    def test_sweep_outputs_and_determinism(self, trained, tmp_path):
        path, _, ckpt = trained
        assert main(["sweep", "--config", str(path), "--checkpoint", str(ckpt)]) == 0
        csv_path = tmp_path / "out" / "metrics.csv"
        first = csv_path.read_bytes()
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert len(summary["rows"]) == 3
        assert summary["rows"][0]["method"] == "base"
        assert summary["rows"][0]["wall_ms"] > 0
        # second run must reproduce the CSV byte for byte
        assert main(["sweep", "--config", str(path), "--checkpoint", str(ckpt)]) == 0
        assert csv_path.read_bytes() == first

    def test_unknown_method_rejected(self, trained, tmp_path, capsys):
        _, cfg, ckpt = trained
        cfg = dict(cfg, sweep=[{"method": "teleport"}])
        bad = tmp_path / "bad_method.json"
        bad.write_text(json.dumps(cfg))
        code = main(["sweep", "--config", str(bad), "--checkpoint", str(ckpt)])
        assert code == 2
        assert "teleport" in capsys.readouterr().err


    @pytest.mark.parametrize("scale", [1e6, 1e200])
    def test_diverged_point_exits_3(self, trained, tmp_path, capsys, scale):
        """A guided batch that blows up is refused at the step it leaves the
        bound (here the first, t=30), not written as a NaN row."""
        _, cfg, ckpt = trained
        cfg = dict(cfg, sweep=[{"method": "base"}, {"method": "grad", "scale": scale}])
        path = tmp_path / "diverging.json"
        path.write_text(json.dumps(cfg))
        code = main(["sweep", "--config", str(path), "--checkpoint", str(ckpt)])
        assert code == 3
        err = capsys.readouterr().err
        assert f"grad batch (n=1, scale={scale!r}) diverged" in err
        assert "left the bound |x| <= 1e+06 at step t=30 of the reverse chain t=30..1" in err
        assert not (tmp_path / "out" / "metrics.csv").exists()


class TestShiftStudyCommand:
    def test_writes_csv_and_figures(self, trained, tmp_path):
        path, _, ckpt = trained
        assert main(["shift-study", "--config", str(path), "--checkpoint", str(ckpt)]) == 0
        out = tmp_path / "out"
        header = (out / "shift.csv").read_text().splitlines()[0]
        assert header.startswith("displacement,method")
        assert (out / "reward_vs_shift.svg").exists()
        assert (out / "variance_vs_shift.svg").exists()


class TestPlotCommand:
    def test_plots_from_sweep_csv(self, trained, tmp_path):
        path, _, ckpt = trained
        main(["sweep", "--config", str(path), "--checkpoint", str(ckpt)])
        plot_dir = tmp_path / "figs"
        code = main(["plot", str(tmp_path / "out" / "metrics.csv"), "--out", str(plot_dir)])
        assert code == 0
        assert (plot_dir / "win_rate_vs_kl.svg").exists()
        assert (plot_dir / "reward_vs_kl.svg").exists()

    def test_schema_mismatch_names_column(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("method,n,b,eta,scale,seed,expected_reward,WRONG,win_rate\n")
        code = main(["plot", str(bad), "--out", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert "normalized_reward" in err or "WRONG" in err

    @pytest.mark.parametrize(
        "cut, message",
        [
            (None, "line 1: empty file, expected a header"),
            (14, "line 3: 14 cells, the header has 16"),
        ],
    )
    def test_malformed_csv_names_the_line(self, tmp_path, capsys, cut, message):
        """An empty file, or a row with fewer cells than the header (here
        the second data row), exits 2 with a message naming the line."""
        lines = (Path(__file__).parent / "data" / "sweep_fixture.csv").read_text().splitlines()[:4]
        bad = tmp_path / "metrics.csv"
        if cut is None:
            bad.write_text("")
        else:
            lines[2] = ",".join(lines[2].split(",")[:cut])
            bad.write_text("\n".join(lines) + "\n")
        assert main(["plot", str(bad), "--out", str(tmp_path / "figs")]) == 2
        assert message in capsys.readouterr().err

    def test_missing_csv(self, tmp_path):
        assert main(["plot", str(tmp_path / "none.csv"), "--out", str(tmp_path)]) == 2

    def test_profile_override(self, tmp_path):
        """The ci profile rewrites schedule and sampling sizes."""
        path, _ = mini_config(tmp_path)
        from diffguide.config import load_config

        cfg = load_config(path, profile="ci")
        assert cfg.T == 100
        assert cfg.train.epochs == 20
        assert cfg.samples_per_point == 200


def test_console_script_target_runs(monkeypatch, capsys):
    """The ``diffguide`` console script in pyproject.toml resolves to a
    callable that, like the generated wrapper, reads ``sys.argv``."""
    text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    module, attr = re.search(r'^diffguide = "([\w.]+):(\w+)"$', text, re.M).groups()
    target = getattr(importlib.import_module(module), attr)
    monkeypatch.setattr(sys, "argv", ["diffguide", "--help"])
    assert target() == 0
    assert capsys.readouterr().out.startswith("usage: diffguide ")
