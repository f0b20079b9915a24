"""Command-line front end.

Subcommands: ``train``, ``sample``, ``guide``, ``sweep``, ``shift-study``,
``plot``.  Exit codes: 0 success, 2 usage or configuration error, 3 runtime
failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from . import streams
from .config import ConfigError, GuidancePoint, load_config
from .experiments import (
    SHIFT_COLUMNS,
    SWEEP_COLUMNS,
    GuidanceDivergedError,
    run_shift_study,
    run_sweep,
    summary_payload,
    write_csv,
)
from .model import CheckpointError, init_model, load_checkpoint, save_checkpoint
from .plots import plot_csv
from .samplers import base_sample
from .schedule import build_linear_schedule
from .training import TrainingDivergedError, pooled_input_stats, train

_TAG_MODEL_INIT = 11

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3


def _add_common(p: argparse.ArgumentParser, config_required: bool = True):
    p.add_argument("--config", required=config_required, help="JSON experiment config")
    p.add_argument("--profile", choices=("full", "ci"), default=None, help="preset overrides")
    p.add_argument("--seed", type=int, default=None, help="override the config seed")
    p.add_argument("--out", default=None, help="output directory (overrides config)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="diffguide",
        description="2D diffusion guidance laboratory",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train the noise predictor and write a checkpoint")
    _add_common(p)

    p = sub.add_parser("sample", help="draw base samples from a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--n", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="CSV file for the samples")

    p = sub.add_parser("guide", help="run one guided sampler and print the result")
    _add_common(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--method", required=True)
    p.add_argument("--n-streams", type=int, default=1)
    p.add_argument("--block-size", type=int, default=None)
    p.add_argument("--eta", type=float, default=1.0)
    p.add_argument("--scale", type=float, default=0.0)

    p = sub.add_parser("sweep", help="evaluate the config's sweep points")
    _add_common(p)
    p.add_argument("--checkpoint", required=True)

    p = sub.add_parser("shift-study", help="reward-displacement robustness study")
    _add_common(p)
    p.add_argument("--checkpoint", required=True)

    p = sub.add_parser("plot", help="render SVG figures from a metrics CSV")
    p.add_argument("csv", help="metrics CSV produced by sweep or shift-study")
    p.add_argument("--out", default=".", help="directory for the SVG files")
    return parser


def _ensure_out(path: str) -> str:
    os.makedirs(path, exist_ok=True)
    return path


def _load_checkpoint(path):
    if not os.path.exists(path):
        raise ConfigError(f"checkpoint not found: {path}")
    return load_checkpoint(path)


def cmd_train(args) -> int:
    cfg = load_config(args.config, profile=args.profile, seed=args.seed, out_dir=args.out)
    out = _ensure_out(cfg.out_dir)
    sched = build_linear_schedule(cfg.T, cfg.beta_start, cfg.beta_end)
    in_shift, in_scale = pooled_input_stats(cfg.prior, sched)
    model = init_model(
        cfg.hidden_width,
        cfg.embed_width,
        streams.derive_seed(cfg.seed, _TAG_MODEL_INIT),
        activation=cfg.activation,
        freq_base=cfg.freq_base,
        in_shift=in_shift,
        in_scale=in_scale,
    )
    trained, losses = train(model, cfg.prior, sched, cfg.train)
    ckpt = os.path.join(out, "checkpoint.json")
    save_checkpoint(trained, sched, ckpt)
    trace = os.path.join(out, "loss_trace.csv")
    with open(trace, "w", encoding="utf-8") as fh:
        fh.write("epoch,mean_loss\n")
        for i, loss in enumerate(losses):
            fh.write(f"{i},{float(loss)!r}\n")
    print(f"checkpoint: {ckpt}")
    print(f"loss trace: {trace} (first {losses[0]:.4f}, last {losses[-1]:.4f})")
    return EXIT_OK


def cmd_sample(args) -> int:
    model, sched = _load_checkpoint(args.checkpoint)
    xs = base_sample(model, sched, args.n, args.seed)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write("x,y\n")
        for row in xs:
            fh.write(f"{float(row[0])!r},{float(row[1])!r}\n")
    print(f"wrote {args.n} samples to {args.out}")
    return EXIT_OK


def cmd_guide(args) -> int:
    cfg = load_config(args.config, profile=args.profile, seed=args.seed)
    model, sched = _load_checkpoint(args.checkpoint)
    point = GuidancePoint(
        method=args.method,
        n_streams=args.n_streams,
        block_size=args.block_size,
        eta=args.eta,
        scale=args.scale,
    )
    from .experiments import _guided_batch

    start = time.perf_counter()
    out, counters = _guided_batch(model, sched, cfg.reward, point, cfg.seed, 1)
    wall_ms = (time.perf_counter() - start) * 1e3
    payload = {
        "sample": out[0].tolist(),
        "method": point.method,
        "model_evals": counters.model_evals,
        "reward_queries": counters.reward_queries,
        "wall_ms": wall_ms,
    }
    print(json.dumps(payload))
    return EXIT_OK


def cmd_sweep(args) -> int:
    cfg = load_config(args.config, profile=args.profile, seed=args.seed, out_dir=args.out)
    if not cfg.sweep:
        raise ConfigError("config has an empty sweep list")
    model, sched = _load_checkpoint(args.checkpoint)
    out = _ensure_out(cfg.out_dir)
    rows = run_sweep(
        model, sched, cfg.reward, cfg.sweep, cfg.samples_per_point, cfg.kl_samples, cfg.seed
    )
    csv_path = os.path.join(out, "metrics.csv")
    write_csv(csv_path, SWEEP_COLUMNS, rows)
    with open(os.path.join(out, "summary.json"), "w", encoding="utf-8") as fh:
        json.dump(summary_payload(cfg, rows), fh, indent=1)
        fh.write("\n")
    print(f"wrote {len(rows)} rows to {csv_path}")
    return EXIT_OK


def cmd_shift_study(args) -> int:
    cfg = load_config(args.config, profile=args.profile, seed=args.seed, out_dir=args.out)
    if cfg.shift is None:
        raise ConfigError("config has no shift_study section")
    model, sched = _load_checkpoint(args.checkpoint)
    out = _ensure_out(cfg.out_dir)
    rows = run_shift_study(model, sched, cfg.reward, cfg.prior, cfg.shift, cfg.seed)
    csv_path = os.path.join(out, "shift.csv")
    write_csv(csv_path, SHIFT_COLUMNS, rows)
    figures = plot_csv(csv_path, out)
    print(f"wrote {len(rows)} rows to {csv_path} and {len(figures)} figures")
    return EXIT_OK


def cmd_plot(args) -> int:
    if not os.path.exists(args.csv):
        raise ConfigError(f"metrics CSV not found: {args.csv}")
    out = _ensure_out(args.out)
    try:
        figures = plot_csv(args.csv, out)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    for fig in figures:
        print(fig)
    return EXIT_OK


_COMMANDS = {
    "train": cmd_train,
    "sample": cmd_sample,
    "guide": cmd_guide,
    "sweep": cmd_sweep,
    "shift-study": cmd_shift_study,
    "plot": cmd_plot,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors, matching our config exit code
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except (ConfigError, CheckpointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except TrainingDivergedError as exc:
        print(f"training failed: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except GuidanceDivergedError as exc:
        print(f"guidance failed: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except OSError as exc:
        print(f"io failure: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
