#!/usr/bin/env python3
"""Benchmark of diffguide's selection samplers and training.

    python3 bench/run.py --workload select_wide --seed 1 --seconds 20 --trace 0

Runs one workload in this process, checks its outputs against the
computations in ``reference.py``, and prints as the last line of standard
output one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (the end-to-end metrics with ``--trace 0``, the per-layer ones
with ``--trace 1``; names and units are those of ``BENCHMARK.json``).  The
full result, with per-operation times and the environment, is also written
to ``bench/results/``.  See ``bench/README.md``.
"""

import os
import sys
import time

# one BLAS thread: on the two-core reference machine a second BLAS thread
# gained about 2% and made run times spread about twice as wide (a product
# split over both cores waits for whichever core the host holds back); it
# must be set before numpy is imported
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import glob  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
RESULTS = os.path.join(BENCH, "results")
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)
try:
    import numpy as np
    from diffguide import cli, experiments, training
    from diffguide import model as dg_model
    from diffguide.config import GuidancePoint
    from diffguide.experiments import GuidanceDivergedError
    from diffguide.rewards import GaussianReward
except ImportError as exc:
    sys.exit(f"cannot import the diffguide package from {SRC}: {exc}")
if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
    # an installed copy would be measured in place of this checkout's code
    sys.exit(f"diffguide was imported from {cli.__file__}, not from {SRC}")

import reference as ref  # noqa: E402
from tracing import Tracer  # noqa: E402

# the far Gaussian reward of the study
REWARD_MU, REWARD_SIGMA = (14.0, 3.0), 2.0
# the set-up checkpoint: the study-scale model, trained for 3 epochs (the
# loss is flat at about 0.89 from epoch 2) by `diffguide train`
SETUP_CONFIG = {
    "seed": 0,
    "schedule": {"T": 1000, "beta_start": 1e-4, "beta_end": 0.02},
    "model": {"hidden_width": 128, "embed_width": 32, "activation": "silu", "freq_base": 1000.0},
    "train": {"epochs": 3, "dataset_size": 100_000, "batch_size": 1024, "lr": 1e-3, "seed": 0},
}
# sweep seed of the gradient point at scale 5, which diverges on every
# seed; fixed, so that its failure does not depend on --seed
DIVERGING_SEED = 5
# runs of each selection point whose samples are recomputed by the reference
CHECKED_RUNS = 4


class Selection:
    """Sweep points run through ``experiments.run_sweep``, one point per call.

    ``round_s`` is about the time of one round of the points on the
    two-core reference machine at the commit that added this benchmark; a
    run makes ``round(seconds / round_s)`` rounds, so its work depends on
    ``--seconds`` alone and two commits time the same work.
    """

    def __init__(self, runs, round_s, points):
        self.runs, self.round_s, self.points = runs, round_s, points

    def rounds(self, seconds):
        return max(1, round(seconds / self.round_s))


class Training:
    """The study training recipe from a fresh model; ``epoch_s`` is to an
    epoch what ``Selection.round_s`` is to a round."""

    epoch_s = 0.7

    def epochs(self, seconds):
        return max(1, round(seconds / self.epoch_s))


WORKLOADS = {
    # large model calls: R * n rows per step, block starts in 1 of 1000
    # steps (blockwise) or one (best-of-n), value estimates rare
    "select_wide": Selection(100, 13.3, [
        GuidancePoint("best_of_n", 30),
        GuidancePoint("blockwise", 10, block_size=100),
    ]),
    # small model calls (R or a few R rows), a block start and a value
    # estimate at every step (stepwise) or every 10 steps, and the input VJP
    # of gradient guidance
    "select_narrow": Selection(100, 6.7, [
        GuidancePoint("stepwise", 2),
        GuidancePoint("blockwise_ref", 4, block_size=10, eta=0.6),
        GuidancePoint("grad", scale=1.0),
        GuidancePoint("grad", scale=5.0, seed=DIVERGING_SEED),
    ]),
    "train": Training(),
}


def process_age() -> float:
    """Seconds since this process started (the kernel's start time)."""
    try:
        with open("/proc/self/stat", encoding="ascii") as fh:
            start_ticks = int(fh.read().rsplit(")", 1)[1].split()[19])
        return time.clock_gettime(time.CLOCK_BOOTTIME) - start_ticks / os.sysconf("SC_CLK_TCK")
    except (OSError, ValueError, IndexError):
        return time.perf_counter() - _IMPORTED


_IMPORTED = time.perf_counter()


def cpu_steal_s():
    """CPU time the host has held back from this machine since boot, all
    CPUs together; noise that a run cannot control, recorded to explain it."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            return int(fh.readline().split()[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, ValueError, IndexError):
        return None


class Capture:
    """Keeps what the samplers returned to ``experiments`` in each operation."""

    def __init__(self):
        self.calls = []
        self._patches = []
        for name in ("base_sample", "blockwise_batch", "grad_guided_batch"):
            fn = getattr(experiments, name)
            self._patches.append((name, fn))
            setattr(experiments, name, self._wrap(name, fn))

    def _wrap(self, name, fn):
        def captured(*args, **kwargs):
            out = fn(*args, **kwargs)
            self.calls.append((name, args, kwargs, out))
            return out
        return captured

    def take(self):
        calls, self.calls = self.calls, []
        return calls

    def restore(self):
        for name, fn in self._patches:
            setattr(experiments, name, fn)


def setup(workdir):
    """Train the checkpoint with ``diffguide train`` and read it back."""
    cfg_path = os.path.join(workdir, "config.json")
    with open(cfg_path, "w", encoding="utf-8") as fh:
        json.dump(SETUP_CONFIG, fh)
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["train", "--config", cfg_path, "--out", workdir])
    if code != 0:
        raise RuntimeError(f"diffguide train exited with code {code}")
    path = os.path.join(workdir, "checkpoint.json")
    model, sched = dg_model.load_checkpoint(path)
    return path, model, sched


def warm_up(model, sched, wl):
    """Grow the model's per-thread scratch buffers to the timed batch sizes."""
    if not isinstance(wl, Selection):
        return  # set-up training already evaluated 1024-row batches
    x = np.zeros((wl.runs, 2))
    dg_model.predict_eps(model, x, sched.T, sched)
    # a later model may evaluate block starts without this function
    repeated = getattr(dg_model, "predict_eps_repeated", None)
    for p in wl.points:
        if p.method == "grad":
            dg_model.input_grad(model, x, sched.T, sched, x)
        else:
            if repeated is not None:
                repeated(model, x, p.n_streams, sched.T, sched)
            dg_model.predict_eps(model, np.zeros((wl.runs * p.n_streams, 2)), sched.T, sched)


def run_selection(wl, model, sched, seed, rounds, capture):
    """Whole rounds of the sweep points; returns one record per operation."""
    spec = GaussianReward(mu=REWARD_MU, sigma=REWARD_SIGMA)
    ops = []
    for rnd in range(rounds):
        for point in wl.points:
            sweep_seed = seed if point.seed is None else point.seed
            t0 = time.perf_counter()
            try:
                rows, error = experiments.run_sweep(model, sched, spec, [point], wl.runs, wl.runs, sweep_seed), None
            except GuidanceDivergedError as exc:
                rows, error = None, str(exc)
            seconds = time.perf_counter() - t0
            calls = {name: (args, kwargs, out) for name, args, kwargs, out in capture.take()}
            ops.append({"round": rnd, "point": point, "seconds": seconds, "error": error,
                        "row": rows[0] if rows else None, "calls": calls})
    return ops


def nominal_rows(op, T):
    """Model rows the methods nominally cost: the sampler's counters times
    its runs, plus the base batch ``run_sweep`` draws (T rows per run)."""
    base = op["calls"]["base_sample"][2]
    sampler = next(v for k, v in op["calls"].items() if k != "base_sample")
    samples, counters = sampler[2]
    return (counters.model_evals + counters.reward_queries) * len(samples) + T * len(base)


def check_sweep_ops(ops, model, sched, ckpt_path, seed):
    """Every output check of a selection workload; raises ``CheckError``."""
    net = ref.Net.from_checkpoint(ckpt_path)
    rng = np.random.default_rng([seed, 1])
    ref.check_forward(dg_model.predict_eps, model, sched, net, rng)
    first = {}
    for op in ops:
        point, label = op["point"], op["point"].label()
        if op["error"] is not None:
            continue
        base = op["calls"]["base_sample"][2]
        name = "grad_guided_batch" if point.method == "grad" else "blockwise_batch"
        args, kwargs, (samples, _) = op["calls"][name]
        if label in first:
            earlier = first[label]
            if not (np.array_equal(samples, earlier["samples"])
                    and op["row"].csv_values() == earlier["row"].csv_values()):
                raise ref.CheckError(f"{label}: round {op['round']} differs from round 0")
            continue
        first[label] = {"samples": samples, "row": op["row"]}
        base = base[: len(samples)]
        ref.check_row_values(label, op["row"], samples, base, REWARD_MU, REWARD_SIGMA)
        if point.method == "grad":
            ref.check_guided(label, samples, base, REWARD_MU, REWARD_SIGMA)
            ref.check_input_grad(dg_model.input_grad, dg_model.predict_eps, model, sched,
                                 np.concatenate([samples[:4], base[:4]]), rng)
            continue
        ref.check_counters(label, op["row"], sched.T)
        seeds, eta = args[5], kwargs.get("eta", 1.0)
        refs = kwargs.get("x_refs")
        if refs is not None:
            refs = np.broadcast_to(refs, (len(seeds), 2))[:CHECKED_RUNS]
        ref.check_selection(label, samples[:CHECKED_RUNS], net, REWARD_MU, args[3], args[4], eta,
                            seeds[:CHECKED_RUNS], refs)


def heldout(sched, size, seed):
    prior = training.paper_prior()
    return ref.heldout_batch(prior.weights, prior.means, prior.sigma, sched.T, size, seed)


def blas_threads():
    """OpenBLAS's own thread count, read through ctypes where numpy bundles it."""
    pattern = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*")
    for path in glob.glob(pattern):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return fn()
    return None


def git_revision():
    """The checkout's commit, read from ``.git`` without starting git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="ascii") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref_name = head[5:]
        loose = os.path.join(git, ref_name)
        if os.path.exists(loose):
            with open(loose, encoding="ascii") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="ascii") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref_name):
                    return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed):
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy before 1.26 prints its configuration only
        blas = {}
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "blas_threads_env": BLAS_THREADS,
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "git_revision": git_revision(),
        "seed": seed,
    }


def layer_metrics(tracer, setup_window, timed_window, nominal, hidden_width):
    """Every per-layer metric of ``BENCHMARK.json`` from the recorded spans."""
    setup = tracer.layer_totals(*setup_window)
    timed = tracer.layer_totals(*timed_window)
    pe, rep, ig = timed["model.predict_eps"], timed["model.predict_eps_repeated"], timed["model.input_grad"]
    # multiply-adds of the row-dependent products: 2 -> H -> H -> 2
    flop_per_row = 2 * (2 * hidden_width + hidden_width * hidden_width + 2 * hidden_width)
    hidden_rows = pe["rows"] + rep["rows"] + ig["rows"]
    samplers = [timed[k] for k in ("samplers.base_sample", "samplers.blockwise_batch",
                                   "samplers.grad_guided_batch")]
    out = {
        "model.predict_eps.calls": pe["calls"],
        "model.predict_eps.rows": pe["rows"],
        "model.predict_eps.s": pe["s"],
        "model.predict_eps.gflop_per_s": flop_per_row * pe["rows"] / pe["s"] / 1e9 if pe["s"] else 0.0,
        "model.predict_eps_repeated.calls": rep["calls"],
        "model.predict_eps_repeated.rows": rep["rows"],
        "model.predict_eps_repeated.rows_nominal": rep["nominal"],
        "model.predict_eps_repeated.s": rep["s"],
        "rewards.estimate_value.calls": timed["rewards.estimate_value"]["calls"],
        "rewards.estimate_value.rows": timed["rewards.estimate_value"]["rows"],
        "rewards.estimate_value.self_s": timed["rewards.estimate_value"]["self_s"],
        "samplers.hidden_rows_per_nominal_row": hidden_rows / nominal if hidden_rows else 0.0,
        "samplers.self_s": sum(s["self_s"] for s in samplers),
        "model.input_grad.calls": ig["calls"],
        "model.input_grad.rows": ig["rows"],
        "model.input_grad.s": ig["s"],
        "rewards.reward_grad.s": timed["rewards.reward_grad"]["s"],
        "streams.normal_pair.calls": timed["streams.normal_pair"]["calls"],
        "streams.normal_pair.draws": timed["streams.normal_pair"]["rows"],
        "streams.normal_pair.s": timed["streams.normal_pair"]["s"],
        "schedule.posterior_mean.s": timed["schedule.posterior_mean"]["s"],
        "schedule.tweedie_x0.s": timed["schedule.tweedie_x0"]["s"],
        "model.loss_and_param_grads.calls": timed["model.loss_and_param_grads"]["calls"],
        "model.loss_and_param_grads.rows": timed["model.loss_and_param_grads"]["rows"],
        "model.loss_and_param_grads.s": timed["model.loss_and_param_grads"]["s"],
        "training.train.self_s": timed["training.train"]["self_s"],
        "metrics.s": sum(v["s"] for k, v in timed.items() if k.startswith("metrics.")),
        "experiments.run_sweep.self_s": timed["experiments.run_sweep"]["self_s"],
        "setup.train.s": setup["training.train"]["s"],
        "model.save_checkpoint.s": setup["model.save_checkpoint"]["s"],
        "model.load_checkpoint.s": setup["model.load_checkpoint"]["s"],
        "cli.main.self_s": setup["cli.main"]["self_s"],
        "trace.run_s": timed_window[1] - timed_window[0],
        "trace.spans": len(tracer.spans),
    }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    wl = WORKLOADS[args.workload]

    setup_start = time.perf_counter()
    tracer = Tracer() if args.trace else None
    capture = Capture()
    if tracer:
        tracer.install()
    os.makedirs(RESULTS, exist_ok=True)
    workdir = os.path.join(RESULTS, f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        ckpt_path, model, sched = setup(workdir)
        warm_up(model, sched, wl)
        if isinstance(wl, Selection):
            rounds = wl.rounds(args.seconds)
        else:
            epochs = wl.epochs(args.seconds)
            prior = training.paper_prior()
            in_shift, in_scale = training.pooled_input_stats(prior, sched)
            initial = dg_model.init_model(128, 32, args.seed, in_shift=in_shift, in_scale=in_scale)
            cfg = training.TrainConfig(epochs=epochs, seed=args.seed)

        setup_s = process_age()
        steal_start = cpu_steal_s()
        t_start = time.perf_counter()
        if isinstance(wl, Selection):
            ops = run_selection(wl, model, sched, args.seed, rounds, capture)
        else:
            try:
                trained, losses = training.train(initial, prior, sched, cfg)
                error = None
            except training.TrainingDivergedError as exc:
                error = str(exc)
        t_end = time.perf_counter()
        steal_end = cpu_steal_s()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tracer:
            tracer.restore()
        capture.restore()

        correct = True
        try:
            if isinstance(wl, Selection):
                check_sweep_ops(ops, model, sched, ckpt_path, args.seed)
            elif error is None:
                ref.check_training(losses, ref.Net.from_model(initial, sched.beta[1:]),
                                   ref.Net.from_model(trained, sched.beta[1:]),
                                   heldout(sched, 4096, args.seed))
                ref.check_param_grads(dg_model.loss_and_param_grads, trained, sched,
                                      heldout(sched, 256, args.seed + 1))
        except ref.CheckError as exc:
            print(f"check failed: {exc}", file=sys.stderr)
            correct = False
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    run_s = t_end - t_start
    if isinstance(wl, Selection):
        attempted = len(ops)
        failed = sum(op["error"] is not None for op in ops)
        rows = sum(nominal_rows(op, sched.T) for op in ops)
        for op in ops:
            if op["error"] is not None:
                print(f"operation failed: {op['error']}", file=sys.stderr)
        op_log = [{"round": op["round"], "point": op["point"].label(), "seconds": op["seconds"],
                   "error": op["error"]} for op in ops]
    else:
        attempted, failed = epochs, (epochs if error else 0)
        rows = cfg.dataset_size * epochs
        op_log = [{"epochs": epochs, "seconds": run_s, "error": error,
                   "final_loss": None if error else float(losses[-1])}]
    metrics = {
        "setup_s": setup_s,
        "run_s": run_s,
        "model_rows_per_s": rows / run_s,
        "peak_rss_mb": peak_rss_mb,
    }
    if tracer:
        metrics.update(layer_metrics(tracer, (setup_start, t_start), (t_start, t_end),
                                     rows, model.hidden_width))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    printed = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted}
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": printed}

    stamp = time.time_ns()
    record = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace,
                  started_ns=stamp, all_metrics=metrics,
                  steal_s=None if steal_start is None else steal_end - steal_start, operations=op_log, env=environment(args.seed))
    base = os.path.join(RESULTS, f"{args.workload}-trace{args.trace}-seed{args.seed}-{stamp}")
    with open(base + ".json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    if tracer:
        tracer.save(os.path.join(RESULTS, f"{args.workload}.spans.npz"), t_start)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
