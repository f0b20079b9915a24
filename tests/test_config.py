"""Configuration refusals: points the harness cannot run and unknown keys
end a command with exit code 2 and a message, not a traceback."""

import json
import re
from dataclasses import MISSING, fields
from pathlib import Path

import pytest

from diffguide import build_linear_schedule, cli, experiments, init_model
from diffguide.cli import main
from diffguide.config import METHODS, ExperimentConfig, ShiftStudyConfig, config_from_dict
from diffguide.model import save_checkpoint
from diffguide.training import TrainConfig


def readme_config() -> dict:
    """The README's config example, the one reference config document."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    (block,) = re.findall(r"```json\n(.*?)```", readme, re.S)
    return json.loads(block)


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


@pytest.fixture()
def no_work(monkeypatch):
    """Training and every sampler fail the test if they are called."""

    def refuse(*args, **kwargs):
        raise AssertionError("training or sampling started")

    monkeypatch.setattr(cli, "train", refuse)
    for name in ("base_sample", "blockwise_batch", "grad_guided_batch"):
        monkeypatch.setattr(experiments, name, refuse)


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
            # the Adam coefficients are constants of diffguide.training
            ("train", "beta1", "train"),
            ("train", "adam_eps", "train"),
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


class TestFieldsTheMethodIgnores:
    """A point that sets a field its method does not use would write a row
    whose columns describe another run (a grad point with ``n_streams: 4``
    wrote ``n=4`` and ran one stream); such a point is refused."""

    @pytest.mark.parametrize(
        "point, message",
        [
            (
                {"method": "base", "n_streams": 4},
                "n_streams applies to best_of_n, blockwise, stepwise and blockwise_ref only;"
                " base needs n_streams = 1",
            ),
            ({"method": "grad", "n_streams": 4}, "grad needs n_streams = 1"),
            (
                {"method": "base", "block_size": 5},
                "block_size applies to blockwise and blockwise_ref only; base takes no block_size",
            ),
            ({"method": "grad", "block_size": 5}, "grad takes no block_size"),
            ({"method": "stepwise", "n_streams": 2, "block_size": 5}, "stepwise takes no block_size"),
            ({"method": "best_of_n", "n_streams": 2, "block_size": 5}, "best_of_n takes no block_size"),
            ({"method": "base", "scale": 1.0}, "scale applies to grad only; base needs scale = 0"),
            (
                {"method": "blockwise", "n_streams": 2, "block_size": 5, "scale": 1.0},
                "blockwise needs scale = 0",
            ),
            ({"method": "grad", "exact_chain": True}, "unknown sweep point keys: ['exact_chain']"),
            (
                {"method": "best_of_n", "n_streams": 2, "x_ref": [1.0, 2.0]},
                "x_ref applies to blockwise_ref only; best_of_n takes no x_ref",
            ),
            (
                {"method": "blockwise", "n_streams": 2, "block_size": 5, "x_ref": [1.0, 2.0]},
                "blockwise takes no x_ref",
            ),
            # with eta = 1 the run starts from pure noise and never reads x_ref
            (
                {"method": "blockwise_ref", "n_streams": 2, "block_size": 5, "x_ref": [1.0, 2.0]},
                "x_ref applies to blockwise_ref with eta < 1 only; at eta = 1 it takes no x_ref",
            ),
        ],
    )
    def test_sweep_point_is_refused(self, tmp_path, checkpoint, capsys, point, message):
        cfg = base_config(tmp_path)
        cfg["sweep"] = [point]
        assert run(tmp_path, cfg, "sweep", "--checkpoint", checkpoint) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out" / "metrics.csv").exists()

    @pytest.mark.parametrize(
        "args, message",
        [
            (["--method", "grad", "--n-streams", "4"], "grad needs n_streams = 1"),
            (
                ["--method", "stepwise", "--n-streams", "2", "--block-size", "5"],
                "stepwise takes no block_size",
            ),
            (["--method", "best_of_n", "--n-streams", "2", "--scale", "1"], "best_of_n needs scale = 0"),
        ],
    )
    def test_guide_is_refused(self, tmp_path, checkpoint, capsys, args, message):
        assert run(tmp_path, base_config(tmp_path), "guide", "--checkpoint", checkpoint, *args) == 2
        assert message in capsys.readouterr().err


class TestShiftCells:
    @pytest.mark.parametrize(
        "cell, message",
        [
            ({"method": "grad", "exact_chain": True}, "unknown sweep point keys: ['exact_chain']"),
            # every cell's seed is derived from the config seed, so a cell seed
            # would be accepted and change nothing
            ({"method": "best_of_n", "n_streams": 2, "seed": 12345}, "shift_study cells take no seed"),
        ],
    )
    def test_cell_is_refused(self, tmp_path, checkpoint, capsys, cell, message):
        cfg = base_config(tmp_path)
        cfg["shift_study"] = {"displacements": [0.0, 2.0], "runs_per_cell": 4, "cells": [cell]}
        assert run(tmp_path, cfg, "shift-study", "--checkpoint", checkpoint) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out" / "shift.csv").exists()


@pytest.mark.usefixtures("no_work")
class TestPointsTheRewardCannotServe:
    """Gradient guidance under the quantized reward, or references drawn
    from a reward with no distribution, are refused when the config loads or
    when ``guide`` builds its point: exit 2 and a message that names the
    point, before any sampling."""

    QUANTIZED = {"kind": "quantized", "mu": [10, 3], "delta": 1.0}
    GRAD = ({"method": "grad", "scale": 1.0}, "(grad-n1-s1): gradient guidance needs a differentiable reward")
    REF = (
        {"method": "blockwise_ref", "n_streams": 2, "block_size": 5, "eta": 0.5},
        "(blockwise_ref-n2-b5-eta0.5): blockwise_ref needs an explicit x_ref",
    )

    @pytest.mark.parametrize("point, message", [GRAD, REF])
    def test_sweep(self, tmp_path, checkpoint, capsys, point, message):
        cfg = base_config(tmp_path)
        cfg["reward"] = self.QUANTIZED
        cfg["sweep"] = [{"method": "base"}, point]
        assert run(tmp_path, cfg, "sweep", "--checkpoint", checkpoint) == 2
        assert f"sweep[1] {message}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("cell, message", [GRAD, REF])
    def test_shift_study(self, tmp_path, checkpoint, capsys, cell, message):
        cfg = base_config(tmp_path)
        cfg["reward"] = self.QUANTIZED
        cells = [{"method": "best_of_n", "n_streams": 2}, cell]
        cfg["shift_study"] = {"displacements": [0.0, 2.0], "runs_per_cell": 4, "cells": cells}
        assert run(tmp_path, cfg, "shift-study", "--checkpoint", checkpoint) == 2
        assert f"shift_study.cells[1] {message}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "args, message",
        [
            (["--method", "grad", "--scale", "1"], GRAD[1]),
            (["--method", "blockwise_ref", "--n-streams", "2", "--block-size", "5", "--eta", "0.5"], REF[1]),
        ],
    )
    def test_guide(self, tmp_path, checkpoint, capsys, args, message):
        cfg = base_config(tmp_path)
        cfg["reward"] = self.QUANTIZED
        assert run(tmp_path, cfg, "guide", "--checkpoint", checkpoint, *args) == 2
        out, err = capsys.readouterr()
        assert f"guide {message}" in err
        assert out == ""


class TestScheduleAndModelValues:
    """Values that ``build_linear_schedule`` or the model refuse are
    refused when ``train`` builds them, before training starts."""

    @pytest.mark.parametrize(
        "section, key, value, message",
        [
            ("schedule", "T", 0, "T must be a positive integer, got 0"),
            ("schedule", "beta_start", 0.7, "need 0 < beta_start <= beta_end < 1, got (0.7, 0.6)"),
            ("model", "hidden_width", 0, "hidden_width must be >= 1, got 0"),
            ("model", "activation", "relu", "unknown activation 'relu'"),
            ("model", "embed_width", 3, "invalid model: embed_width must be even and >= 2, got 3"),
            ("model", "freq_base", -5, "invalid model: freq_base must be positive and finite, got -5.0"),
            ("model", "freq_base", 0, "freq_base must be positive and finite, got 0.0"),
        ],
    )
    def test_train_is_refused(self, tmp_path, capsys, section, key, value, message):
        cfg = base_config(tmp_path)
        cfg[section][key] = value
        assert run(tmp_path, cfg, "train") == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


@pytest.mark.usefixtures("no_work")
class TestMistypedValues:
    """Every section takes each value by its dataclass field's declared
    type: an integer field refuses a fraction, a number field a string, and
    no number field takes a bool.  A mistyped value ends the command with
    exit 2 and a message naming the section and key, before any training or
    sampling."""

    @pytest.mark.parametrize(
        "command, section, key, value, message",
        [
            ("train", None, "samples_per_point", 10.9, "top-level key 'samples_per_point' must be an integer, got 10.9"),
            ("sweep", None, "seed", "3", "top-level key 'seed' must be an integer, got '3'"),
            ("train", None, "out_dir", 5, "top-level key 'out_dir' must be a string, got 5"),
            ("train", "schedule", "T", 20.7, "schedule key 'T' must be an integer, got 20.7"),
            ("train", "schedule", "T", "20", "schedule key 'T' must be an integer, got '20'"),
            ("train", "schedule", "beta_end", True, "schedule key 'beta_end' must be a number, got True"),
            ("train", "model", "hidden_width", 8.5, "model key 'hidden_width' must be an integer, got 8.5"),
            ("train", "model", "activation", 1, "model key 'activation' must be a string, got 1"),
            ("train", "train", "epochs", 1.5, "train key 'epochs' must be an integer, got 1.5"),
            ("train", "train", "batch_size", "128", "train key 'batch_size' must be an integer, got '128'"),
            ("train", "train", "lr", None, "train key 'lr' must be a number, got None"),
            ("shift-study", "shift_study", "runs_per_cell", 4.5,
             "shift_study key 'runs_per_cell' must be an integer, got 4.5"),
            ("shift-study", "shift_study", "displacements", [0, "2"],
             "an entry of shift_study key 'displacements' must be a number, got '2'"),
            ("sweep", "sweep", "n_streams", 2.5, "sweep[1]: sweep point key 'n_streams' must be an integer, got 2.5"),
            ("sweep", "sweep", "block_size", 5.5,
             "sweep[1]: sweep point key 'block_size' must be an integer or null, got 5.5"),
            ("sweep", "sweep", "eta", "0.5", "sweep[1]: sweep point key 'eta' must be a number, got '0.5'"),
            ("sweep", "sweep", "x_ref", [1, "2"], "sweep[1]: an entry of sweep point key 'x_ref' must be a number"),
            ("shift-study", "cells", "n_streams", 2.5,
             "shift_study.cells[0]: sweep point key 'n_streams' must be an integer, got 2.5"),
            # the reward and prior sections of a config that once loaded with
            # strings and a bool in place of numbers
            ("train", None, "reward", {"kind": "gaussian", "mu": ["14", "3"], "sigma": "2"},
             "gaussian reward key 'mu' must be an array of finite numbers, got ['14', '3']"),
            ("train", None, "prior", {"weights": ["0.5", "0.5"], "means": [[0, 0], ["4", 4]], "sigma": True},
             "prior key 'weights' must be an array of finite numbers, got ['0.5', '0.5']"),
            ("train", "reward", "sigma", True, "gaussian reward key 'sigma' must be a number, got True"),
            ("train", "prior", "sigma", True, "prior key 'sigma' must be a number, got True"),
            ("train", None, "reward", {"kind": "quantized", "mu": [14, True]},
             "quantized reward key 'mu' must be an array of finite numbers, got [14, True]"),
            ("train", None, "reward", {"kind": "quantized", "mu": [14, 3], "delta": "1"},
             "quantized reward key 'delta' must be a number, got '1'"),
            ("train", "prior", "means", [[0, 0], ["4", 4]],
             "prior key 'means' must be an array of finite numbers, got [[0, 0], ['4', 4]]"),
            ("train", None, "reward", {"kind": ["gaussian"], "mu": [1, 2]},
             "reward key 'kind' must be a string, got ['gaussian']"),
            # a seed keys the noise streams, whose key fields hold [0, 2^64)
            ("train", None, "seed", -1, "seed must be an integer in [0, 2^64), got -1"),
            ("train", None, "seed", 2**64, f"seed must be an integer in [0, 2^64), got {2**64}"),
            ("train", "train", "seed", -1, "train seed must be an integer in [0, 2^64), got -1"),
            ("train", "train", "seed", 2**64, f"train seed must be an integer in [0, 2^64), got {2**64}"),
            ("sweep", "sweep", "seed", -1, "sweep[1]: seed must be an integer in [0, 2^64) or null, got -1"),
            ("sweep", "sweep", "seed", 2**64,
             f"sweep[1]: seed must be an integer in [0, 2^64) or null, got {2**64}"),
            # an integer beyond the float range is no finite number
            pytest.param("train", "schedule", "beta_end", 10**400,
                         "schedule key 'beta_end' must be a number, got 1000", id="train-schedule-beta_end-10**400"),
            pytest.param("train", "prior", "means", [[0, 0], [4, 10**400]],
                         "prior key 'means' must be an array of finite numbers, got [[0, 0], [4, 1000",
                         id="train-prior-means-10**400"),
        ],
    )
    def test_is_refused(self, tmp_path, checkpoint, capsys, command, section, key, value, message):
        cfg = base_config(tmp_path)
        cfg["prior"] = {"weights": [0.5, 0.5], "means": [[0, 0], [4, 4]], "sigma": 1.0}
        cfg["sweep"] = [{"method": "base"}, {"method": "blockwise_ref", "n_streams": 2, "block_size": 5}]
        cfg["shift_study"] = {
            "displacements": [0.0, 2.0],
            "runs_per_cell": 4,
            "cells": [{"method": "blockwise_ref", "n_streams": 2, "block_size": 5}],
        }
        targets = {None: cfg, "sweep": cfg["sweep"][1], "cells": cfg["shift_study"]["cells"][0]}
        targets.get(section, cfg.get(section))[key] = value
        args = () if command == "train" else ("--checkpoint", checkpoint)
        assert run(tmp_path, cfg, command, *args) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_integral_float_is_an_integer(self):
        """``20.0`` for an integer is taken as 20, and an integer for a
        number field as a float (so it echoes as ``5.0``)."""
        cfg = config_from_dict({"schedule": {"T": 20.0}, "sweep": [{"method": "grad", "scale": 5}]})
        assert cfg.T == 20 and type(cfg.T) is int
        assert cfg.sweep[0].scale == 5.0 and type(cfg.sweep[0].scale) is float


@pytest.mark.usefixtures("no_work")
class TestBlockSizes:
    """A blockwise point needs a block size in [1, T], T being the
    checkpoint's.  A point without one, or with one below 1, is refused when
    the config loads; one above T, or a blockwise_ref ``eta`` that leaves no
    step of that T to denoise, before the base batch.  Either way the
    command exits 2 with a message that names the point, before any
    sampling and before the output directory is made."""

    POINTS = [
        ({"method": "blockwise", "n_streams": 2}, "[1]: blockwise needs block_size >= 1, got None"),
        (
            {"method": "blockwise_ref", "n_streams": 2, "block_size": 0},
            "[1]: blockwise_ref needs block_size >= 1, got 0",
        ),
        (
            {"method": "blockwise", "n_streams": 2, "block_size": 21},
            "[1] (blockwise-n2-b21): block_size 21 exceeds the schedule's T = 20",
        ),
        (
            {"method": "blockwise_ref", "n_streams": 2, "block_size": 5, "eta": 0.01},
            "[1] (blockwise_ref-n2-b5-eta0.01): eta 0.01 leaves no denoising step at the schedule's T = 20",
        ),
    ]

    @pytest.mark.parametrize("point, message", POINTS)
    def test_sweep(self, tmp_path, checkpoint, capsys, point, message):
        cfg = base_config(tmp_path)
        cfg["sweep"] = [{"method": "base"}, point]
        assert run(tmp_path, cfg, "sweep", "--checkpoint", checkpoint) == 2
        assert f"sweep{message}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("cell, message", POINTS)
    def test_shift_study(self, tmp_path, checkpoint, capsys, cell, message):
        cfg = base_config(tmp_path)
        cells = [{"method": "best_of_n", "n_streams": 2}, cell]
        cfg["shift_study"] = {"displacements": [0.0, 2.0], "runs_per_cell": 4, "cells": cells}
        assert run(tmp_path, cfg, "shift-study", "--checkpoint", checkpoint) == 2
        assert f"shift_study.cells{message}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_guide(self, tmp_path, checkpoint, capsys):
        args = ["--method", "blockwise", "--n-streams", "2", "--block-size", "21"]
        assert run(tmp_path, base_config(tmp_path), "guide", "--checkpoint", checkpoint, *args) == 2
        assert "guide (blockwise-n2-b21): block_size 21 exceeds the schedule's T = 20" in capsys.readouterr().err

    def test_guide_eta_without_a_step(self, tmp_path, checkpoint, capsys):
        args = ["--method", "blockwise_ref", "--n-streams", "2", "--block-size", "5", "--eta", "0.001"]
        assert run(tmp_path, base_config(tmp_path), "guide", "--checkpoint", checkpoint, *args) == 2
        err = capsys.readouterr().err
        assert "guide (blockwise_ref-n2-b5-eta0.001): eta 0.001 leaves no denoising step at the schedule's T = 20" in err


class TestDefaults:
    def test_omitted_keys_take_the_dataclass_defaults(self):
        cfg = config_from_dict({"sweep": [{"method": "base"}]})
        for f in fields(ExperimentConfig):
            if f.name not in ("prior", "reward", "sweep"):
                want = f.default_factory() if f.default is MISSING else f.default
                assert getattr(cfg, f.name) == want, f.name
        assert cfg.train == TrainConfig()
        assert len(fields(TrainConfig)) == 5
        study = {"displacements": [0.0], "cells": [{"method": "base"}]}
        cfg = config_from_dict({"sweep": [{"method": "base"}], "shift_study": study})
        assert cfg.shift_study.runs_per_cell == next(
            f.default for f in fields(ShiftStudyConfig) if f.name == "runs_per_cell"
        )

    def test_equal_documents_give_equal_configs(self):
        """Two loads of one document compare and hash equal, arrays and all;
        a different reward centre compares unequal."""
        a, b = config_from_dict(readme_config()), config_from_dict(readme_config())
        assert a == b and hash(a) == hash(b)
        doc = readme_config()
        doc["reward"]["mu"] = [14, 4]
        assert config_from_dict(doc) != a


def test_readme_config_example_loads():
    """The README's config example is a config the schema accepts, its
    sweep points and shift cells together show every method, and it sets
    every field of every dataclass it builds.  Its reward is Gaussian, so
    the quantized reward's ``delta`` does not appear."""
    doc = readme_config()
    cfg = config_from_dict(doc)
    assert cfg.shift_study is not None
    points = cfg.sweep + cfg.shift_study.cells
    assert {p.method for p in points} == set(METHODS)
    shown = {
        type(cfg): {*doc, *doc["schedule"], *doc["model"]},
        type(cfg.prior): set(doc["prior"]),
        type(cfg.reward): set(doc["reward"]),
        type(cfg.train): set(doc["train"]),
        type(cfg.shift_study): set(doc["shift_study"]),
        type(points[0]): {key for entry in doc["sweep"] + doc["shift_study"]["cells"] for key in entry},
    }
    for cls, keys in shown.items():
        assert {f.name for f in fields(cls)} <= keys, cls.__name__
