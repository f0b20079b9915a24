"""Spans and counts of diffguide's layers, recorded from outside the program.

``Tracer.wrap`` replaces a public function at the module attribute through
which its caller reaches it (``samplers.predict_eps``, ``rewards.predict_eps``,
``experiments.blockwise_batch``, ...), so nothing in the package changes.
Each call leaves one span ``(layer, start, end, parent, rows, nominal rows)``
in memory; ``restore`` puts the original functions back, ``save`` writes the
spans, and ``layer_totals`` derives calls, busy time, self time (busy time
minus the time of child spans) and row counts per layer over a time window.
"""

from __future__ import annotations

import time

import numpy as np


def _rows(x) -> int:
    return 1 if np.ndim(x) < 2 else int(np.shape(x)[0])


def _count_rows(args):
    # predict_eps(model, x, t, sched), loss_and_param_grads(model, x0, ...)
    return _rows(args[1]), _rows(args[1])


def _count_repeated(args):
    # predict_eps_repeated(model, x, repeats, t, sched)
    rows = _rows(args[1])
    return rows, rows * int(args[2])


def _count_input_grad(args):
    # input_grad(model, x, t, sched, cotangent)
    rows = max(_rows(args[1]), _rows(args[4]))
    return rows, rows


def _count_value(args):
    # estimate_value(model, sched, spec, x_t, t)
    return _rows(args[3]), _rows(args[3])


def _count_draws(args):
    # normal_pair(seed, role, step, stream): one draw per broadcast key
    draws = int(np.broadcast(*(np.asarray(a) for a in args[:4])).size)
    return draws, draws


def call_sites():
    """``(module, attribute, layer, counter)`` for every wrapped call site."""
    from diffguide import cli, experiments, model, rewards, samplers, streams, training

    return [
        (cli, "main", "cli.main", None),
        (cli, "train", "training.train", None),
        (cli, "save_checkpoint", "model.save_checkpoint", None),
        (model, "load_checkpoint", "model.load_checkpoint", None),
        (training, "train", "training.train", None),
        (training, "loss_and_param_grads", "model.loss_and_param_grads", _count_rows),
        (experiments, "run_sweep", "experiments.run_sweep", None),
        (experiments, "base_sample", "samplers.base_sample", None),
        (experiments, "blockwise_batch", "samplers.blockwise_batch", None),
        (experiments, "grad_guided_batch", "samplers.grad_guided_batch", None),
        *((experiments, name, "metrics." + name, None) for name in (
            "fit_gaussian", "gaussian_kl", "expected_reward", "win_rate",
            "batch_variance", "kl_upper_bound")),
        (samplers, "predict_eps", "model.predict_eps", _count_rows),
        (rewards, "predict_eps", "model.predict_eps", _count_rows),
        (samplers, "predict_eps_repeated", "model.predict_eps_repeated", _count_repeated),
        (samplers, "input_grad", "model.input_grad", _count_input_grad),
        (samplers, "estimate_value", "rewards.estimate_value", _count_value),
        (samplers, "reward_grad", "rewards.reward_grad", None),
        (samplers, "posterior_mean", "schedule.posterior_mean", None),
        (samplers, "tweedie_x0", "schedule.tweedie_x0", None),
        (rewards, "tweedie_x0", "schedule.tweedie_x0", None),
        (streams, "normal_pair", "streams.normal_pair", _count_draws),
    ]


class Tracer:
    """Span recorder for one process; not for use from several threads."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list = []
        self._open = [-1]
        self._patches = []

    def wrap(self, owner, attr: str, layer: str, count=None) -> None:
        if layer not in self.names:
            self.names.append(layer)
        layer_id = self.names.index(layer)
        fn = getattr(owner, attr, None)
        if fn is None:
            return  # the program no longer calls it there: the layer reads 0
        spans, stack, clock = self.spans, self._open, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                rows, nominal = count(args) if count else (0, 0)
                spans[idx] = (layer_id, start, end, parent, rows, nominal)

        traced.__wrapped__ = fn
        setattr(owner, attr, traced)
        self._patches.append((owner, attr, fn))

    def install(self) -> None:
        for owner, attr, layer, count in call_sites():
            self.wrap(owner, attr, layer, count)

    def restore(self) -> None:
        while self._patches:
            owner, attr, fn = self._patches.pop()
            setattr(owner, attr, fn)

    def _columns(self):
        cols = list(zip(*self.spans)) or [()] * 6
        ids, start, end, parent, rows, nominal = (np.asarray(c) for c in cols)
        return ids.astype(int), start.astype(float), end.astype(float), parent.astype(int), rows, nominal

    def save(self, path, origin: float) -> None:
        """Write the spans, times in seconds from ``origin``."""
        ids, start, end, parent, rows, nominal = self._columns()
        np.savez_compressed(path, layers=np.asarray(self.names), layer=ids, start=start - origin,
                            end=end - origin, parent=parent, rows=rows, nominal=nominal)

    def layer_totals(self, lo: float, hi: float) -> dict:
        """Per layer over spans inside ``[lo, hi]``: calls, s, self_s, rows, nominal."""
        ids, start, end, parent, rows, nominal = self._columns()
        dur = end - start
        child = np.zeros_like(dur)
        nested = parent >= 0
        np.add.at(child, parent[nested], dur[nested])
        inside = (start >= lo) & (end <= hi)
        out = {}
        for k, layer in enumerate(self.names):
            m = inside & (ids == k)
            out[layer] = {
                "calls": int(m.sum()),
                "s": float(dur[m].sum()),
                "self_s": float((dur[m] - child[m]).sum()),
                "rows": int(rows[m].sum()),
                "nominal": int(nominal[m].sum()),
            }
        return out
