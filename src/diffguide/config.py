"""Experiment configuration: JSON schema and validation.

A config file is a single JSON document with nested sections (the
README's "Configuration" block shows the full shape).  One rule,
``_fields``, checks each section against the dataclass it builds:
``ExperimentConfig`` (the top level, ``schedule`` and ``model``),
``GmmSpec`` (``prior``), the reward its ``kind`` names (``reward``),
``TrainConfig`` (``train``), ``ShiftStudyConfig`` (``shift_study``) or
``GuidancePoint`` (each sweep point and shift cell).  It refuses unknown
keys and values of the wrong type, an absent key keeps the field's
default, and the dataclass then checks the values.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields, replace

from . import streams
from .metrics import BOUNDED_METHODS
from .rewards import GaussianReward, QuantizedReward, RewardSpec, float_array, is_number
from .training import GmmSpec, TrainConfig, paper_prior

METHODS = ("base", "grad") + BOUNDED_METHODS


class ConfigError(ValueError):
    """Invalid or unreadable experiment configuration."""


# (field, the methods that use it, the value every other method needs): a
# point that sets a field its method ignores is refused, so that every column
# of its row describes the run that made it
_METHOD_FIELDS = (
    ("eta", ("blockwise_ref",), 1),
    ("n_streams", ("best_of_n", "blockwise", "stepwise", "blockwise_ref"), 1),
    ("block_size", ("blockwise", "blockwise_ref"), None),
    ("scale", ("grad",), 0),
    ("x_ref", ("blockwise_ref",), None),
)


@dataclass(frozen=True)
class GuidancePoint:
    """One guided-sampling setting; fully determines a run given a seed."""

    method: str
    n_streams: int = 1
    block_size: int | None = None
    eta: float = 1.0
    scale: float = 0.0
    x_ref: tuple[float, float] | None = None
    seed: int | None = None

    def __post_init__(self):
        if self.method not in METHODS:
            raise ConfigError(f"unknown method {self.method!r}, expected one of {METHODS}")
        if self.n_streams < 1:
            raise ConfigError("n_streams must be >= 1")
        if not (0.0 < self.eta <= 1.0):
            raise ConfigError("eta must be in (0, 1]")
        if not (is_number(self.scale) and self.scale >= 0):
            raise ConfigError(f"scale must be a finite number >= 0, got {self.scale}")
        if self.method in ("blockwise", "blockwise_ref") and (self.block_size is None or self.block_size < 1):
            raise ConfigError(f"{self.method} needs block_size >= 1, got {self.block_size}")
        if self.x_ref is not None and len(self.x_ref) != 2:
            raise ConfigError(f"x_ref must be a 2-vector, got {self.x_ref}")
        if self.seed is not None and not streams.is_seed(self.seed):
            raise ConfigError(f"seed must be an integer in [0, 2^64) or null, got {self.seed!r}")
        for name, methods, value in _METHOD_FIELDS:
            if self.method not in methods and getattr(self, name) != value:
                # "grad", "blockwise and blockwise_ref", "a, b, c and d"
                uses = " and ".join(filter(None, (", ".join(methods[:-1]), methods[-1])))
                needs = f"takes no {name}" if value is None else f"needs {name} = {value}"
                raise ConfigError(f"{name} applies to {uses} only; {self.method} {needs}")
        if self.method == "blockwise_ref" and self.eta == 1.0 and self.x_ref is not None:
            # at eta = 1 the run starts from pure noise and never reads x_ref
            raise ConfigError("x_ref applies to blockwise_ref with eta < 1 only; at eta = 1 it takes no x_ref")

    def check_reward(self, reward: RewardSpec, where: str) -> None:
        """Refuse a point that ``reward`` cannot serve, before any sampling:
        gradient guidance needs the reward's gradient, and drawn references
        (``blockwise_ref`` with ``eta < 1`` and no ``x_ref``) need its
        distribution.  Only the Gaussian reward has both."""
        if isinstance(reward, GaussianReward):
            return
        if self.method == "grad":
            need = f"gradient guidance needs a differentiable reward, and {type(reward).__name__} has none"
        elif self.method == "blockwise_ref" and self.eta < 1.0 and self.x_ref is None:
            need = "blockwise_ref needs an explicit x_ref when the reward has no distribution"
        else:
            return
        raise ConfigError(f"{where} ({self.label()}): {need}")

    def resolved_block(self, T: int, where: str) -> int:
        """Concrete block size for a chain of ``T`` steps: stepwise pins 1,
        best-of-n (and the methods without blocks) pin T.  Also refuses an
        ``eta`` that leaves no step of the chain to denoise."""
        if self.method == "stepwise":
            return 1
        if self.method not in ("blockwise", "blockwise_ref"):
            return T
        if self.block_size > T:
            raise ConfigError(f"{where} ({self.label()}): block_size {self.block_size} exceeds the schedule's T = {T}")
        if round(self.eta * T) < 1:
            raise ConfigError(f"{where} ({self.label()}): eta {self.eta:g} leaves no denoising step at the schedule's T = {T}")
        return self.block_size

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
        if any(cell.seed is not None for cell in self.cells):
            raise ConfigError("shift_study cells take no seed; it derives from the config seed and the cell")


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
    shift_study: ShiftStudyConfig | None = None
    seed: int = 0
    out_dir: str = "out"

    def __post_init__(self):
        if self.samples_per_point < 2:
            raise ConfigError("samples_per_point must be >= 2")
        if self.kl_samples < 2:
            raise ConfigError("kl_samples must be >= 2")
        if not streams.is_seed(self.seed):
            raise ConfigError(f"seed must be an integer in [0, 2^64), got {self.seed!r}")
        for i, point in enumerate(self.sweep):
            point.check_reward(self.reward, f"sweep[{i}]")
        for i, cell in enumerate(self.shift_study.cells if self.shift_study else ()):
            cell.check_reward(self.reward, f"shift_study.cells[{i}]")


# JSON sections whose keys are fields of ExperimentConfig itself
_SECTIONS = {
    "schedule": ("T", "beta_start", "beta_end"),
    "model": ("hidden_width", "embed_width", "activation", "freq_base"),
}
_KINDS = {"int": "an integer", "float": "a number", "str": "a string"}
_REWARDS = {"gaussian": GaussianReward, "quantized": QuantizedReward}


def _value(value, kind: str, where: str):
    """``value`` checked against its field's declared type ``kind``, or a
    ``ConfigError`` naming ``where``.  An ``int`` takes an integral number,
    a ``float`` any finite number (``rewards.is_number``), a ``str`` a
    string, a tuple of floats a list of numbers and an ``np.ndarray`` nested
    lists of numbers (``rewards.float_array``); a bool is never a number,
    and ``| None`` also takes null.  A value of any other kind passes as it
    is."""
    base = kind.removesuffix(" | None")
    if value is None and base != kind:
        return None
    if base == "np.ndarray":
        try:
            return float_array(value, where)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
    if base.startswith("tuple[float"):
        return tuple(_value(v, "float", f"an entry of {where}") for v in value)
    if base not in _KINDS:
        return value
    number = is_number(value)
    if base == "int" and number and value % 1 == 0:
        return int(value)
    if base == "float" and number:
        return float(value)
    if base == "str" and isinstance(value, str):
        return value
    null = " or null" if base != kind else ""
    raise ConfigError(f"{where} must be {_KINDS[base]}{null}, got {value!r}")


def _fields(section, cls, where: str, keys=None) -> dict:
    """The JSON object ``section`` as keyword arguments of the dataclass
    ``cls``: it may hold only ``keys`` (by default the fields of ``cls``),
    and each value goes through ``_value`` with its field's type."""
    if not isinstance(section, dict):
        raise ConfigError(f"{where} must be a JSON object, got {section!r}")
    kinds = {f.name: f.type for f in fields(cls)}
    extra = set(section) - set(kinds if keys is None else keys)
    if extra:
        raise ConfigError(f"unknown {where} keys: {sorted(extra)}")
    return {key: _value(value, kinds.get(key, ""), f"{where} key {key!r}") for key, value in section.items()}


def _parse_reward(section) -> RewardSpec:
    """The reward dataclass that the section's ``kind`` names (gaussian by
    default), built from the section's other keys."""
    kind = section.get("kind", "gaussian") if isinstance(section, dict) else "gaussian"
    kind = _value(kind, "str", "reward key 'kind'")
    if kind not in _REWARDS:
        raise ConfigError(f"unknown reward kind {kind!r}, expected one of {tuple(_REWARDS)}")
    cls = _REWARDS[kind]
    kwargs = _fields(section, cls, f"{kind} reward", ["kind", *(f.name for f in fields(cls))])
    kwargs.pop("kind", None)
    return cls(**kwargs)


def _parse_point(entry, where: str) -> GuidancePoint:
    """A sweep point or shift cell; every refusal names it as ``where``."""
    try:
        return GuidancePoint(**_fields(entry, GuidancePoint, "sweep point"))
    except ConfigError as exc:
        raise ConfigError(f"{where}: {exc}") from None


def config_from_dict(raw: dict) -> ExperimentConfig:
    try:
        # the top level holds the fields outside the sections
        inner = {key for keys in _SECTIONS.values() for key in keys}
        top = [f.name for f in fields(ExperimentConfig) if f.name not in inner] + [*_SECTIONS]
        kwargs = _fields(raw, ExperimentConfig, "top-level", top)
        for name, keys in _SECTIONS.items():
            kwargs.update(_fields(kwargs.pop(name, {}), ExperimentConfig, name, keys))
        kwargs["prior"] = (
            GmmSpec(**_fields(kwargs["prior"], GmmSpec, "prior")) if "prior" in kwargs else paper_prior()
        )
        kwargs["reward"] = _parse_reward(kwargs.get("reward", {"kind": "gaussian", "mu": [14.0, 3.0]}))
        kwargs["train"] = TrainConfig(**_fields(kwargs.get("train", {}), TrainConfig, "train"))
        kwargs["sweep"] = tuple(_parse_point(p, f"sweep[{i}]") for i, p in enumerate(kwargs.get("sweep", ())))
        if "shift_study" in kwargs:
            study = _fields(kwargs["shift_study"], ShiftStudyConfig, "shift_study")
            cells = enumerate(study["cells"])
            study["cells"] = tuple(_parse_point(c, f"shift_study.cells[{i}]") for i, c in cells)
            kwargs["shift_study"] = ShiftStudyConfig(**study)
        return ExperimentConfig(**kwargs)
    except ConfigError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"invalid configuration: {exc}") from exc


def load_config(path, seed: int | None = None, out_dir: str | None = None) -> ExperimentConfig:
    """Read and validate a JSON config, applying CLI overrides."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    cfg = config_from_dict(raw)
    if seed is not None:
        cfg = replace(cfg, seed=seed)
    if out_dir is not None:
        cfg = replace(cfg, out_dir=out_dir)
    return cfg

