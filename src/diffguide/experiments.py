"""Sweep and shift-study harnesses plus their CSV/JSON emission.

Row schemas are the fields of ``MetricsRow`` for trade-off sweeps and of
``ShiftRow`` for the displacement study (``SWEEP_COLUMNS`` and
``SHIFT_COLUMNS`` list them); each cell is written and read by its field's
type.  CSV output is deterministic for a given config and checkpoint;
measured wall times therefore go to the JSON summary only and the
``wall_ms`` CSV column is left empty.
"""

from __future__ import annotations

import csv
import io
import math
import time
from dataclasses import asdict, dataclass, fields, replace

import numpy as np

from . import streams
from .config import ExperimentConfig, GuidancePoint, ShiftStudyConfig
from .metrics import (
    GaussianFit,
    batch_variance,
    expected_reward,
    fit_gaussian,
    gaussian_kl,
    kl_upper_bound,
    win_rate,
)
from .rewards import GaussianReward, RewardSpec, UnsupportedRewardError
from .samplers import STATE_BOUND, RunCounters, base_sample, blockwise_batch, grad_guided_batch
from .schedule import NoiseSchedule
from .training import GmmSpec, mixture_mean

# seed-derivation tags so harness streams never collide
_TAG_BASE_BATCH = 101
_TAG_SWEEP_ROW = 102
_TAG_RUN = 103
_TAG_SHIFT = 104


class GuidanceDivergedError(RuntimeError):
    """A guided batch left the bound ``samplers.STATE_BOUND``: it stopped at
    the step where a state diverged, or returned a sample that is not finite
    or has a coordinate beyond the bound."""


def _diverged(point: GuidancePoint, what: str) -> GuidanceDivergedError:
    return GuidanceDivergedError(
        f"{point.method} batch (n={point.n_streams}, scale={point.scale!r}) diverged: {what}"
    )


def _check_batch(point: GuidancePoint, samples: np.ndarray, fit_rows: int | None = None) -> GaussianFit:
    """Refuse a batch with a sample that is not finite or has a coordinate
    beyond ``STATE_BOUND``, the bound gradient guidance applies at every
    step; return the Gaussian fit of the first ``fit_rows`` samples (all by
    default), the rows a sweep's KL column uses.

    Within the bound that fit is finite and positive-definite, because
    ``fit_gaussian``'s ridge scales with the covariance's trace.
    """
    # NaN fails the comparison too
    bad = int(np.sum(~np.all(np.abs(samples) <= STATE_BOUND, axis=1)))
    if bad:
        raise _diverged(point, f"{bad} of {len(samples)} samples left the bound |x| <= {STATE_BOUND:g}")
    return fit_gaussian(samples[:fit_rows])


# CSV cell format and parser by declared field type (annotations are strings
# under ``from __future__ import annotations``)
_FORMAT = {"str": str, "int": str, "float": lambda v: repr(float(v))}
_PARSE = {"str": str, "int": int, "float": float}


class _CsvRow:
    """Base of the harness row dataclasses: their fields, in order, are the
    CSV columns."""

    def csv_values(self) -> list[str]:
        # wall_ms stays out of the CSV so repeated runs are byte-identical
        return [
            "" if f.name == "wall_ms" else _FORMAT[f.type](getattr(self, f.name))
            for f in fields(self)
        ]


@dataclass
class MetricsRow(_CsvRow):
    method: str
    n: int
    b: int
    eta: float
    scale: float
    seed: int
    expected_reward: float
    normalized_reward: float
    win_rate: float
    kl_fit: float
    kl_bound: float
    variance_x: float
    variance_y: float
    model_evals: int
    reward_queries: int
    wall_ms: float


def _run_seeds(row_seed: int, count: int) -> np.ndarray:
    return np.asarray(
        [streams.derive_seed(row_seed, _TAG_RUN, r) for r in range(count)], dtype=np.uint64
    )


def _draw_refs(spec: RewardSpec, run_seeds: np.ndarray) -> np.ndarray:
    """Per-run reference points drawn from the reward distribution."""
    if not isinstance(spec, GaussianReward):
        raise UnsupportedRewardError(f"{type(spec).__name__} has no distribution to draw references from")
    z = streams.normal_pair(run_seeds, streams.ROLE_REF, 0, 0)
    return spec.mu + spec.sigma * z


def guided_batch(
    model,
    sched: NoiseSchedule,
    spec: RewardSpec,
    point: GuidancePoint,
    block: int,
    row_seed: int,
    count: int,
) -> tuple[np.ndarray, RunCounters]:
    """``count`` runs of ``point`` from the row seed ``row_seed`` and their
    compute counters; ``block`` is the point's block resolved for ``sched``
    (``GuidancePoint.resolved_block``)."""
    if point.method == "base":
        counters = RunCounters()
        out = base_sample(model, sched, count, row_seed, counters)
        return out, counters
    if point.method == "grad":
        out, counters = grad_guided_batch(model, sched, spec, point.scale, _run_seeds(row_seed, count))
        if counters.stopped_at is not None:
            raise _diverged(
                point,
                f"a state left the bound |x| <= {STATE_BOUND:g} at step t={counters.stopped_at} "
                f"of the reverse chain t={sched.T}..1",
            )
        return out, counters
    run_seeds = _run_seeds(row_seed, count)
    x_refs = None
    if point.method == "blockwise_ref" and point.eta < 1.0:
        x_refs = (
            np.asarray(point.x_ref, dtype=np.float64)
            if point.x_ref is not None
            else _draw_refs(spec, run_seeds)
        )
    return blockwise_batch(
        model,
        sched,
        spec,
        point.n_streams,
        block,
        run_seeds,
        eta=point.eta,
        x_refs=x_refs,
    )


def run_sweep(
    model,
    sched: NoiseSchedule,
    spec: RewardSpec,
    points,
    samples_per_point: int,
    kl_samples: int,
    seed: int,
) -> list[MetricsRow]:
    """Evaluate each guidance point against a shared base batch.

    Raises ``GuidanceDivergedError`` for a point whose batch left
    ``STATE_BOUND`` (see ``_check_batch``), instead of writing a row of NaN
    metrics.
    """
    blocks = [point.resolved_block(sched.T, f"sweep[{i}]") for i, point in enumerate(points)]
    base_n = max(samples_per_point, kl_samples)
    base = base_sample(model, sched, base_n, streams.derive_seed(seed, _TAG_BASE_BATCH))
    base_pair = base[:samples_per_point]
    base_kl_fit = fit_gaussian(base[:kl_samples])
    base_mean_reward = expected_reward(base, spec)

    rows = []
    for i, (point, block) in enumerate(zip(points, blocks)):
        row_seed = point.seed if point.seed is not None else streams.derive_seed(seed, _TAG_SWEEP_ROW, i)
        t0 = time.perf_counter()
        guided, counters = guided_batch(model, sched, spec, point, block, row_seed, samples_per_point)
        wall = (time.perf_counter() - t0) * 1e3
        kl_n = min(kl_samples, samples_per_point)
        guided_kl_fit = _check_batch(point, guided, kl_n)
        vx, vy = batch_variance(guided)
        reward = expected_reward(guided, spec)
        rows.append(
            MetricsRow(
                method=point.method,
                n=point.n_streams,
                b=block,
                eta=point.eta,
                scale=point.scale,
                seed=row_seed,
                expected_reward=reward,
                normalized_reward=reward / base_mean_reward,
                win_rate=win_rate(guided, base_pair, spec),
                kl_fit=gaussian_kl(guided_kl_fit, base_kl_fit),
                kl_bound=kl_upper_bound(point.method, point.n_streams, block, sched.T, point.eta),
                variance_x=vx,
                variance_y=vy,
                model_evals=counters.model_evals,
                reward_queries=counters.reward_queries,
                wall_ms=wall,
            )
        )
    return rows


@dataclass
class ShiftRow(_CsvRow):
    displacement: float
    method: str
    n: int
    b: int
    eta: float
    runs: int
    mean_reward: float
    variance_x: float
    variance_y: float


SWEEP_COLUMNS = tuple(f.name for f in fields(MetricsRow))
SHIFT_COLUMNS = tuple(f.name for f in fields(ShiftRow))
_COLUMN_TYPES = {f.name: f.type for row in (MetricsRow, ShiftRow) for f in fields(row)}


def shifted_reward(spec: RewardSpec, prior: GmmSpec, displacement: float) -> RewardSpec:
    """Reward recentered ``displacement`` along the centroid-to-reward ray."""
    centroid = mixture_mean(prior)
    direction = spec.mu - centroid
    norm = float(np.linalg.norm(direction))
    if norm == 0.0:
        raise ValueError("reward mean coincides with the prior centroid; no ray defined")
    return replace(spec, mu=centroid + displacement * direction / norm)


def run_shift_study(
    model,
    sched: NoiseSchedule,
    spec: RewardSpec,
    prior: GmmSpec,
    study: ShiftStudyConfig,
    seed: int,
) -> list[ShiftRow]:
    """Mean reward and output variance per (displacement, method cell).

    Raises ``GuidanceDivergedError`` for a cell whose batch left
    ``STATE_BOUND`` (see ``_check_batch``).
    """
    blocks = [cell.resolved_block(sched.T, f"shift_study.cells[{i}]") for i, cell in enumerate(study.cells)]
    rows = []
    for di, d in enumerate(study.displacements):
        local = shifted_reward(spec, prior, d)
        for ci, (cell, block) in enumerate(zip(study.cells, blocks)):
            row_seed = streams.derive_seed(seed, _TAG_SHIFT, di, ci)
            guided, _ = guided_batch(model, sched, local, cell, block, row_seed, study.runs_per_cell)
            _check_batch(cell, guided)
            vx, vy = batch_variance(guided)
            rows.append(
                ShiftRow(
                    displacement=float(d),
                    method=cell.method,
                    n=cell.n_streams,
                    b=block,
                    eta=cell.eta,
                    runs=study.runs_per_cell,
                    mean_reward=expected_reward(guided, local),
                    variance_x=vx,
                    variance_y=vy,
                )
            )
    return rows


def rows_to_csv(columns, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow(row.csv_values())
    return buf.getvalue()


def write_csv(path, columns, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(rows_to_csv(columns, rows))


def read_csv(path) -> tuple[list[str], list[dict]]:
    """Parse a harness CSV back into header plus per-row dicts.

    Each cell is parsed by its column's field type, an empty number
    (``wall_ms``) as NaN; a column of no harness row stays text.  An empty
    file, or a row whose cell count differs from the header's, is refused
    with a ``ValueError`` that names the line.
    """
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ValueError(f"{path} line 1: empty file, expected a header")
        kinds = [_COLUMN_TYPES.get(key, "str") for key in header]
        out = []
        for values in reader:
            if len(values) != len(header):
                raise ValueError(
                    f"{path} line {reader.line_num}: {len(values)} cells, the header has {len(header)}"
                )
            out.append(
                {
                    key: math.nan if val == "" and kind != "str" else _PARSE[kind](val)
                    for key, kind, val in zip(header, kinds, values)
                }
            )
    return header, out


def summary_payload(cfg: ExperimentConfig, rows: list[MetricsRow]) -> dict:
    def clean(value):
        if isinstance(value, np.ndarray):
            return value.tolist()
        if isinstance(value, dict):
            return {k: clean(v) for k, v in value.items()}
        if isinstance(value, (list, tuple)):
            return [clean(v) for v in value]
        return value

    return {
        "config": clean(asdict(cfg)),
        "rows": [clean(asdict(r)) for r in rows],
    }
