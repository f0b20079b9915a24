"""Sweep and shift-study harnesses plus their CSV/JSON emission.

Row schemas are fixed: ``SWEEP_COLUMNS`` for trade-off sweeps and
``SHIFT_COLUMNS`` for the displacement study.  CSV output is deterministic
for a given config and checkpoint; measured wall times therefore go to the
JSON summary only and the ``wall_ms`` CSV column is left empty.
"""

from __future__ import annotations

import csv
import io
import math
import time
from dataclasses import dataclass

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
from .rewards import GaussianReward, QuantizedReward, RewardSpec
from .samplers import STATE_BOUND, RunCounters, base_sample, blockwise_batch, grad_guided_batch
from .schedule import NoiseSchedule
from .training import GmmSpec, mixture_mean

SWEEP_COLUMNS = (
    "method",
    "n",
    "b",
    "eta",
    "scale",
    "seed",
    "expected_reward",
    "normalized_reward",
    "win_rate",
    "kl_fit",
    "kl_bound",
    "variance_x",
    "variance_y",
    "model_evals",
    "reward_queries",
    "wall_ms",
)

SHIFT_COLUMNS = (
    "displacement",
    "method",
    "n",
    "b",
    "eta",
    "runs",
    "mean_reward",
    "variance_x",
    "variance_y",
)

# seed-derivation tags so harness streams never collide
_TAG_BASE_BATCH = 101
_TAG_SWEEP_ROW = 102
_TAG_RUN = 103
_TAG_SHIFT = 104


class GuidanceDivergedError(RuntimeError):
    """A guided batch stopped at a diverged state, or produced non-finite
    samples or an unusable Gaussian fit."""


def _diverged(point: GuidancePoint, what: str) -> GuidanceDivergedError:
    return GuidanceDivergedError(
        f"{point.method} batch (n={point.n_streams}, scale={point.scale!r}) diverged: {what}"
    )


def _check_batch(point: GuidancePoint, samples: np.ndarray, fit_rows: int | None = None) -> GaussianFit:
    """Refuse a batch whose samples are not finite, or whose Gaussian fit
    is not a finite, positive-definite Gaussian; return that fit.

    The fit is of the first ``fit_rows`` samples (all by default), the
    rows a sweep's KL column uses.  A blown-up chain can stay finite yet
    spread so far (1e127 and beyond) that the fit's ridge is lost to
    rounding and its covariance is no longer positive-definite.
    """
    bad = int(np.sum(~np.all(np.isfinite(samples), axis=1)))
    if bad:
        raise _diverged(point, f"{bad} of {len(samples)} samples are not finite")
    with np.errstate(over="ignore", invalid="ignore"):
        fit = fit_gaussian(samples[:fit_rows])
    if not (np.all(np.isfinite(fit.mean)) and np.all(np.isfinite(fit.cov))):
        raise _diverged(point, "the Gaussian fit of its samples is not finite")
    try:
        np.linalg.cholesky(fit.cov)
    except np.linalg.LinAlgError:
        raise _diverged(point, "the Gaussian fit of its samples is not positive-definite") from None
    return fit


@dataclass
class MetricsRow:
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

    def csv_values(self) -> list[str]:
        # wall_ms stays out of the CSV so repeated runs are byte-identical
        return [
            self.method,
            str(self.n),
            str(self.b),
            repr(float(self.eta)),
            repr(float(self.scale)),
            str(self.seed),
            repr(float(self.expected_reward)),
            repr(float(self.normalized_reward)),
            repr(float(self.win_rate)),
            repr(float(self.kl_fit)),
            repr(float(self.kl_bound)),
            repr(float(self.variance_x)),
            repr(float(self.variance_y)),
            str(self.model_evals),
            str(self.reward_queries),
            "",
        ]


def _run_seeds(row_seed: int, count: int) -> np.ndarray:
    return np.asarray(
        [streams.derive_seed(row_seed, _TAG_RUN, r) for r in range(count)], dtype=np.uint64
    )


def _draw_refs(spec: RewardSpec, run_seeds: np.ndarray) -> np.ndarray:
    """Per-run reference points drawn from the reward distribution."""
    if not isinstance(spec, GaussianReward):
        raise ValueError(
            "blockwise_ref needs an explicit x_ref when the reward has no distribution"
        )
    z = streams.normal_pair(run_seeds, streams.ROLE_REF, 0, 0)
    return spec._mu + spec.sigma * z


def _guided_batch(
    model,
    sched: NoiseSchedule,
    spec: RewardSpec,
    point: GuidancePoint,
    row_seed: int,
    count: int,
) -> tuple[np.ndarray, RunCounters]:
    if point.method == "base":
        counters = RunCounters()
        out = base_sample(model, sched, count, row_seed, counters)
        return out, counters
    if point.method == "grad":
        out, counters = grad_guided_batch(
            model, sched, spec, point.scale, _run_seeds(row_seed, count), exact_chain=point.exact_chain
        )
        if counters.stopped_at is not None:
            raise _diverged(
                point,
                f"a state left the bound |x| <= {STATE_BOUND:g} at step t={counters.stopped_at} "
                f"of the reverse chain t={sched.T}..1",
            )
        return out, counters
    run_seeds = _run_seeds(row_seed, count)
    block = point.resolved_block(sched.T)
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

    Raises ``GuidanceDivergedError`` for a point whose batch stopped at a
    diverged state, or whose samples are not finite or whose Gaussian fit is
    unusable, instead of writing a row of NaN metrics.
    """
    base_n = max(samples_per_point, kl_samples)
    base = base_sample(model, sched, base_n, streams.derive_seed(seed, _TAG_BASE_BATCH))
    base_pair = base[:samples_per_point]
    base_kl_fit = fit_gaussian(base[:kl_samples])
    base_mean_reward = expected_reward(base, spec)

    rows = []
    for i, point in enumerate(points):
        row_seed = point.seed if point.seed is not None else streams.derive_seed(seed, _TAG_SWEEP_ROW, i)
        t0 = time.perf_counter()
        guided, counters = _guided_batch(model, sched, spec, point, row_seed, samples_per_point)
        wall = (time.perf_counter() - t0) * 1e3
        kl_n = min(kl_samples, samples_per_point)
        guided_kl_fit = _check_batch(point, guided, kl_n)
        vx, vy = batch_variance(guided)
        block = point.resolved_block(sched.T)
        rows.append(
            MetricsRow(
                method=point.method,
                n=point.n_streams,
                b=block,
                eta=point.eta,
                scale=point.scale,
                seed=row_seed,
                expected_reward=expected_reward(guided, spec),
                normalized_reward=expected_reward(guided, spec) / base_mean_reward,
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
class ShiftRow:
    displacement: float
    method: str
    n: int
    b: int
    eta: float
    runs: int
    mean_reward: float
    variance_x: float
    variance_y: float

    def csv_values(self) -> list[str]:
        return [
            repr(float(self.displacement)),
            self.method,
            str(self.n),
            str(self.b),
            repr(float(self.eta)),
            str(self.runs),
            repr(float(self.mean_reward)),
            repr(float(self.variance_x)),
            repr(float(self.variance_y)),
        ]


def shifted_reward(spec: RewardSpec, prior: GmmSpec, displacement: float) -> RewardSpec:
    """Reward recentered ``displacement`` along the centroid-to-reward ray."""
    centroid = mixture_mean(prior)
    direction = np.asarray(spec._mu, dtype=np.float64) - centroid
    norm = float(np.linalg.norm(direction))
    if norm == 0.0:
        raise ValueError("reward mean coincides with the prior centroid; no ray defined")
    mu = centroid + displacement * direction / norm
    if isinstance(spec, GaussianReward):
        return GaussianReward(mu=mu, sigma=spec.sigma)
    return QuantizedReward(mu=mu, delta=spec.delta)


def run_shift_study(
    model,
    sched: NoiseSchedule,
    spec: RewardSpec,
    prior: GmmSpec,
    study: ShiftStudyConfig,
    seed: int,
) -> list[ShiftRow]:
    """Mean reward and output variance per (displacement, method cell).

    Raises ``GuidanceDivergedError`` for a cell whose batch stopped at a
    diverged state, or whose samples are not finite or whose Gaussian fit
    is unusable.
    """
    rows = []
    for di, d in enumerate(study.displacements):
        local = shifted_reward(spec, prior, d)
        for ci, cell in enumerate(study.cells):
            row_seed = streams.derive_seed(seed, _TAG_SHIFT, di, ci)
            guided, _ = _guided_batch(model, sched, local, cell, row_seed, study.runs_per_cell)
            _check_batch(cell, guided)
            vx, vy = batch_variance(guided)
            rows.append(
                ShiftRow(
                    displacement=float(d),
                    method=cell.method,
                    n=cell.n_streams,
                    b=cell.resolved_block(sched.T),
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
    """Parse a harness CSV back into header plus per-row dicts."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        out = []
        for values in reader:
            row = {}
            for key, val in zip(header, values):
                if key in ("method",):
                    row[key] = val
                elif val == "":
                    row[key] = math.nan
                elif key in ("n", "b", "seed", "model_evals", "reward_queries", "runs"):
                    row[key] = int(val)
                else:
                    row[key] = float(val)
            out.append(row)
    return header, out


def summary_payload(cfg: ExperimentConfig, rows: list[MetricsRow]) -> dict:
    from dataclasses import asdict

    def clean(value):
        if isinstance(value, np.ndarray):
            return value.tolist()
        if isinstance(value, dict):
            return {k: clean(v) for k, v in value.items() if not k.startswith("_")}
        if isinstance(value, (list, tuple)):
            return [clean(v) for v in value]
        return value

    return {
        "config": clean(asdict(cfg)),
        "rows": [clean(asdict(r)) for r in rows],
    }
