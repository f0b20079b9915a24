"""Experiment configuration: JSON schema, validation, profiles.

A config file is a single JSON document with nested sections (see
``example_config`` for the full shape).  The ``ci`` profile shrinks the
schedule and sample counts for fast smoke runs; ``full`` is the study-scale
default.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .metrics import BOUNDED_METHODS
from .rewards import GaussianReward, QuantizedReward, RewardSpec
from .training import GmmSpec, TrainConfig

METHODS = ("base", "grad") + BOUNDED_METHODS

# the ci profile rescales the beta range by 1000/T so the shortened chain
# still ends near pure noise (alpha_bar[T] ~ 4e-5, like the full profile)
PROFILES = {
    "full": {},
    "ci": {
        "T": 100,
        "beta_start": 1e-3,
        "beta_end": 0.2,
        "epochs": 20,
        "samples_per_point": 200,
        "kl_samples": 200,
    },
}


class ConfigError(ValueError):
    """Invalid or unreadable experiment configuration."""


@dataclass(frozen=True)
class GuidancePoint:
    """One guided-sampling setting; fully determines a run given a seed."""

    method: str
    n_streams: int = 1
    block_size: int | None = None
    eta: float = 1.0
    scale: float = 0.0
    exact_chain: bool = True
    x_ref: tuple[float, float] | None = None
    seed: int | None = None

    def __post_init__(self):
        if self.method not in METHODS:
            raise ConfigError(f"unknown method {self.method!r}, expected one of {METHODS}")
        if self.n_streams < 1:
            raise ConfigError("n_streams must be >= 1")
        if not (0.0 < self.eta <= 1.0):
            raise ConfigError("eta must be in (0, 1]")
        if self.eta != 1.0 and self.method != "blockwise_ref":
            raise ConfigError(f"eta applies to blockwise_ref only; {self.method} needs eta = 1")
        if self.scale < 0:
            raise ConfigError("scale must be >= 0")

    def resolved_block(self, T: int) -> int:
        """Concrete block size: stepwise pins 1, best-of-n pins T."""
        if self.method == "stepwise":
            return 1
        if self.method == "best_of_n":
            return T
        if self.method in ("blockwise", "blockwise_ref"):
            if self.block_size is None:
                raise ConfigError(f"{self.method} requires block_size")
            if not (1 <= self.block_size <= T):
                raise ConfigError(f"block_size {self.block_size} outside [1, {T}]")
            return self.block_size
        return T

    def label(self) -> str:
        bits = [self.method, f"n{self.n_streams}"]
        if self.method in ("blockwise", "blockwise_ref") and self.block_size:
            bits.append(f"b{self.block_size}")
        if self.eta != 1.0:
            bits.append(f"eta{self.eta:g}")
        if self.method == "grad":
            bits.append(f"s{self.scale:g}")
        return "-".join(bits)


@dataclass(frozen=True)
class ShiftStudyConfig:
    """Reward-mean displacement study along a fixed ray from the prior centroid."""

    displacements: tuple[float, ...]
    cells: tuple[GuidancePoint, ...]
    runs_per_cell: int = 500

    def __post_init__(self):
        if not self.displacements:
            raise ConfigError("displacement list must be non-empty")
        if list(self.displacements) != sorted(self.displacements):
            raise ConfigError("displacements must be sorted ascending")
        if not self.cells:
            raise ConfigError("shift study needs at least one method cell")
        if self.runs_per_cell < 2:
            raise ConfigError("runs_per_cell must be >= 2")


@dataclass(frozen=True)
class ExperimentConfig:
    prior: GmmSpec
    reward: RewardSpec
    T: int = 1000
    beta_start: float = 1e-4
    beta_end: float = 0.02
    train: TrainConfig = field(default_factory=TrainConfig)
    hidden_width: int = 128
    embed_width: int = 32
    activation: str = "silu"
    freq_base: float = 1000.0
    sweep: tuple[GuidancePoint, ...] = ()
    samples_per_point: int = 1000
    kl_samples: int = 1000
    shift: ShiftStudyConfig | None = None
    seed: int = 0
    out_dir: str = "out"

    def __post_init__(self):
        if self.samples_per_point < 2:
            raise ConfigError("samples_per_point must be >= 2")
        if self.kl_samples < 2:
            raise ConfigError("kl_samples must be >= 2")


def _known(section: dict, keys, where: str) -> dict:
    """The section itself, once it holds no key outside ``keys``."""
    extra = set(section) - set(keys)
    if extra:
        raise ConfigError(f"unknown {where} keys: {sorted(extra)}")
    return section


def _parse_reward(section) -> RewardSpec:
    kind = section.get("kind", "gaussian")
    if kind == "gaussian":
        _known(section, ("kind", "mu", "sigma"), "gaussian reward")
        return GaussianReward(mu=section["mu"], sigma=float(section.get("sigma", 2.0)))
    if kind == "quantized":
        _known(section, ("kind", "mu", "delta"), "quantized reward")
        return QuantizedReward(mu=section["mu"], delta=float(section.get("delta", 1.0)))
    raise ConfigError(f"unknown reward kind {kind!r}")


def _parse_point(entry) -> GuidancePoint:
    _known(entry, [f.name for f in fields(GuidancePoint)], "sweep point")
    if "x_ref" in entry and entry["x_ref"] is not None:
        entry = dict(entry, x_ref=tuple(float(v) for v in entry["x_ref"]))
    return GuidancePoint(**entry)


_TOP_KEYS = (
    "seed", "out_dir", "schedule", "model", "prior", "reward", "train",
    "sweep", "samples_per_point", "kl_samples", "shift_study",
)


def config_from_dict(raw: dict) -> ExperimentConfig:
    try:
        _known(raw, _TOP_KEYS, "top-level")
        prior_sec = _known(raw.get("prior", {}), ("weights", "means", "sigma"), "prior")
        if prior_sec:
            prior = GmmSpec(
                weights=prior_sec["weights"],
                means=prior_sec["means"],
                sigma=float(prior_sec.get("sigma", 2.0)),
            )
        else:
            from .training import paper_prior

            prior = paper_prior()
        reward = _parse_reward(raw.get("reward", {"kind": "gaussian", "mu": [14.0, 3.0]}))
        sched_sec = _known(raw.get("schedule", {}), ("T", "beta_start", "beta_end"), "schedule")
        train_sec = _known(raw.get("train", {}), [f.name for f in fields(TrainConfig)], "train")
        model_sec = _known(
            raw.get("model", {}), ("hidden_width", "embed_width", "activation", "freq_base"), "model"
        )
        shift = None
        if "shift_study" in raw:
            ss = _known(raw["shift_study"], ("displacements", "cells", "runs_per_cell"), "shift_study")
            shift = ShiftStudyConfig(
                displacements=tuple(float(d) for d in ss["displacements"]),
                cells=tuple(_parse_point(c) for c in ss["cells"]),
                runs_per_cell=int(ss.get("runs_per_cell", 500)),
            )
        return ExperimentConfig(
            prior=prior,
            reward=reward,
            T=int(sched_sec.get("T", 1000)),
            beta_start=float(sched_sec.get("beta_start", 1e-4)),
            beta_end=float(sched_sec.get("beta_end", 0.02)),
            train=TrainConfig(**train_sec),
            hidden_width=int(model_sec.get("hidden_width", 128)),
            embed_width=int(model_sec.get("embed_width", 32)),
            activation=model_sec.get("activation", "silu"),
            freq_base=float(model_sec.get("freq_base", 1000.0)),
            sweep=tuple(_parse_point(p) for p in raw.get("sweep", [])),
            samples_per_point=int(raw.get("samples_per_point", 1000)),
            kl_samples=int(raw.get("kl_samples", 1000)),
            shift=shift,
            seed=int(raw.get("seed", 0)),
            out_dir=raw.get("out_dir", "out"),
        )
    except ConfigError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"invalid configuration: {exc}") from exc


def apply_profile(cfg: ExperimentConfig, profile: str) -> ExperimentConfig:
    if profile not in PROFILES:
        raise ConfigError(f"unknown profile {profile!r}, expected one of {sorted(PROFILES)}")
    over = PROFILES[profile]
    if not over:
        return cfg
    train = replace(cfg.train, epochs=over.get("epochs", cfg.train.epochs))
    return replace(
        cfg,
        T=over.get("T", cfg.T),
        beta_start=over.get("beta_start", cfg.beta_start),
        beta_end=over.get("beta_end", cfg.beta_end),
        train=train,
        samples_per_point=over.get("samples_per_point", cfg.samples_per_point),
        kl_samples=over.get("kl_samples", cfg.kl_samples),
    )


def load_config(path, profile: str | None = None, seed: int | None = None, out_dir: str | None = None) -> ExperimentConfig:
    """Read and validate a JSON config, applying CLI overrides."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    cfg = config_from_dict(raw)
    if profile:
        cfg = apply_profile(cfg, profile)
    if seed is not None:
        cfg = replace(cfg, seed=seed)
    if out_dir is not None:
        cfg = replace(cfg, out_dir=out_dir)
    return cfg


def example_config() -> dict:
    """A complete config document; also the schema reference."""
    return {
        "seed": 0,
        "out_dir": "runs/demo",
        "schedule": {"T": 1000, "beta_start": 1e-4, "beta_end": 0.02},
        "model": {"hidden_width": 128, "embed_width": 32, "activation": "silu", "freq_base": 1000.0},
        "prior": {
            "weights": [1 / 3, 1 / 3, 1 / 3],
            "means": [[5, 3], [3, 7], [7, 7]],
            "sigma": 2.0,
        },
        "reward": {"kind": "gaussian", "mu": [14, 3], "sigma": 2.0},
        "train": {"epochs": 200, "dataset_size": 100000, "batch_size": 1024, "lr": 1e-3, "seed": 0},
        "sweep": [
            {"method": "base"},
            {"method": "best_of_n", "n_streams": 30},
            {"method": "blockwise", "n_streams": 4, "block_size": 100},
            {"method": "stepwise", "n_streams": 2},
            {"method": "grad", "scale": 5.0},
        ],
        "samples_per_point": 1000,
        "kl_samples": 1000,
        "shift_study": {
            "displacements": [0, 2, 4, 6, 8, 10, 12],
            "runs_per_cell": 500,
            "cells": [
                {"method": "best_of_n", "n_streams": 50},
                {"method": "stepwise", "n_streams": 50},
                {"method": "blockwise_ref", "n_streams": 50, "block_size": 80, "eta": 0.6},
            ],
        },
    }
