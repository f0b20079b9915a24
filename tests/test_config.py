"""Configuration refusals: points the harness cannot run and unknown keys
end a command with exit code 2 and a message, not a traceback."""

import json

import pytest

from diffguide import build_linear_schedule, init_model
from diffguide.cli import main
from diffguide.config import config_from_dict, example_config
from diffguide.model import save_checkpoint


def base_config(tmp_path) -> dict:
    return {
        "seed": 3,
        "out_dir": str(tmp_path / "out"),
        "schedule": {"T": 20, "beta_start": 3e-3, "beta_end": 0.6},
        "model": {"hidden_width": 8, "embed_width": 4},
        "reward": {"kind": "gaussian", "mu": [14, 3], "sigma": 2.0},
        "train": {"epochs": 1, "dataset_size": 256, "batch_size": 128, "seed": 1},
        "sweep": [{"method": "base"}],
        "samples_per_point": 10,
        "kl_samples": 10,
    }


@pytest.fixture()
def checkpoint(tmp_path):
    path = tmp_path / "checkpoint.json"
    save_checkpoint(init_model(8, 4, seed=0), build_linear_schedule(20, 3e-3, 0.6), path)
    return str(path)


def run(tmp_path, cfg, *args):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return main([args[0], "--config", str(path), *args[1:]])


class TestEtaOutsideBlockwiseRef:
    @pytest.mark.parametrize("method", ["base", "grad", "best_of_n", "stepwise", "blockwise"])
    def test_sweep_point_is_refused(self, tmp_path, checkpoint, capsys, method):
        cfg = base_config(tmp_path)
        cfg["sweep"] = [{"method": method, "n_streams": 2, "block_size": 5, "eta": 0.5}]
        assert run(tmp_path, cfg, "sweep", "--checkpoint", checkpoint) == 2
        assert f"eta applies to blockwise_ref only; {method} needs eta = 1" in capsys.readouterr().err

    def test_guide_is_refused(self, tmp_path, checkpoint, capsys):
        cfg = base_config(tmp_path)
        code = run(
            tmp_path, cfg, "guide", "--checkpoint", checkpoint,
            "--method", "stepwise", "--n-streams", "2", "--eta", "0.5",
        )
        assert code == 2
        assert "eta applies to blockwise_ref only" in capsys.readouterr().err

    def test_reference_needs_a_reward_distribution(self, tmp_path, checkpoint, capsys):
        """A quantized reward has no distribution to draw reference points
        from, so blockwise_ref with eta < 1 needs an explicit x_ref."""
        cfg = base_config(tmp_path)
        cfg["reward"] = {"kind": "quantized", "mu": [10, 3], "delta": 1.0}
        cfg["sweep"] = [{"method": "blockwise_ref", "n_streams": 2, "block_size": 5, "eta": 0.5}]
        assert run(tmp_path, cfg, "sweep", "--checkpoint", checkpoint) == 2
        assert "blockwise_ref needs an explicit x_ref" in capsys.readouterr().err
        cfg["sweep"][0]["x_ref"] = [10.0, 3.0]
        assert run(tmp_path, cfg, "sweep", "--checkpoint", checkpoint) == 0


class TestUnknownKeys:
    @pytest.mark.parametrize(
        "section, key, where",
        [
            (None, "samples_per_pont", "top-level"),
            ("schedule", "beta_stop", "schedule"),
            ("model", "hiden_width", "model"),
            ("prior", "sigmas", "prior"),
            ("reward", "delta", "gaussian reward"),
            ("train", "epoch", "train"),
            ("shift_study", "runs", "shift_study"),
        ],
    )
    def test_typo_is_refused(self, tmp_path, capsys, section, key, where):
        cfg = base_config(tmp_path)
        cfg["prior"] = {"weights": [0.5, 0.5], "means": [[0, 0], [4, 4]], "sigma": 1.0}
        cfg["shift_study"] = {"displacements": [0.0], "cells": [{"method": "base"}]}
        (cfg if section is None else cfg[section])[key] = 1
        assert run(tmp_path, cfg, "train") == 2
        assert f"unknown {where} keys: [{key!r}]" in capsys.readouterr().err

    def test_example_config_is_accepted(self):
        cfg = config_from_dict(example_config())
        assert len(cfg.sweep) == 5 and cfg.shift is not None
