"""Computations made apart from the program, and the output checks built on them.

The benchmark does not trust the program to judge its own outputs.  This
module keeps a plain-numpy copy of the noise predictor's forward pass (built
from the checkpoint file or from a model's arrays), the reverse-step mean,
the blockwise best-of-n selection and the Gaussian reward, and checks the
samples, rows and gradients the timed phase produced against them.  Only
``diffguide.streams`` is shared with the program: the reference draws its
noise through the same keyed streams as the samplers, so a correct sampler
and the reference take the same draws.

Every check raises ``CheckError`` with a message naming what disagreed.
"""

from __future__ import annotations

import json
import math

import numpy as np

from diffguide import streams

# a sample recomputed here may differ from the program's in the last bits
# (other evaluation order) and, after a change of activation formula, by
# about 1e-10; a sample taken from another stream or made by another model
# differs by far more
SAMPLE_TOL = 1e-6
# predict_eps against the reference forward pass, per output
FORWARD_TOL = 1e-9
# relative tolerance of the harness's reward columns against recomputation
ROW_RTOL = 1e-12
# central differences: step and tolerance (relative to 1 + |difference|)
FD_STEP = 1e-5
FD_TOL = 1e-6
PARAM_FD_STEP = 1e-6
PARAM_FD_TOL = 1e-5


class CheckError(AssertionError):
    """An output of the program disagrees with the benchmark's recomputation."""


class Net:
    """The noise predictor ``(2 + E) -> H -> H -> 2`` and its schedule."""

    def __init__(self, arrays: dict, activation: str, embed_width: int, freq_base: float,
                 in_shift, in_scale: float, beta):
        self.w1, self.b1, self.w2, self.b2, self.w3, self.b3 = (
            np.array(arrays[k], dtype=np.float64) for k in ("w1", "b1", "w2", "b2", "w3", "b3")
        )
        self.activation = activation
        self.embed_width = int(embed_width)
        self.freq_base = float(freq_base)
        self.in_shift = np.array(in_shift, dtype=np.float64)
        self.in_scale = float(in_scale)
        self.beta = np.concatenate([[0.0], np.asarray(beta, dtype=np.float64)])
        self.alpha = 1.0 - self.beta
        self.alpha_bar = np.cumprod(self.alpha)
        self.T = len(self.beta) - 1

    @classmethod
    def from_checkpoint(cls, path) -> "Net":
        """Parse a checkpoint file without the program's loader."""
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        m = doc["model"]
        return cls(m, m["activation"], m["embed_width"], m["freq_base"],
                   m["in_shift"], m["in_scale"], doc["schedule"]["beta"])

    @classmethod
    def from_model(cls, model, beta) -> "Net":
        """Copy a model's arrays; ``beta`` holds the steps 1..T."""
        arrays = {k: getattr(model, k) for k in ("w1", "b1", "w2", "b2", "w3", "b3")}
        return cls(arrays, model.activation, model.embed_width, model.freq_base,
                   model.in_shift, model.in_scale, beta)

    def _act(self, z):
        if self.activation == "identity":
            return z
        with np.errstate(over="ignore"):
            return z / (1.0 + np.exp(-z))

    def eps(self, x, t):
        """Predicted noise of rows ``x`` at step ``t`` (scalar or per row)."""
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        half = self.embed_width // 2
        freqs = self.freq_base ** (np.arange(half) / max(half - 1, 1))
        ang = (np.asarray(t, dtype=np.float64) / self.T)[..., None] * freqs
        emb = np.concatenate([np.sin(ang), np.cos(ang)], axis=-1)
        h = (x - self.in_shift) / self.in_scale @ self.w1[:2] + emb @ self.w1[2:] + self.b1
        h = self._act(h)
        h = self._act(h @ self.w2 + self.b2)
        return h @ self.w3 + self.b3

    def reverse_mean(self, x, eps, t):
        a, ab = self.alpha[t], self.alpha_bar[t]
        return (x - (1.0 - a) / math.sqrt(1.0 - ab) * eps) / math.sqrt(a)

    def x0_hat(self, x, eps, t):
        ab = self.alpha_bar[t]
        return (x - math.sqrt(1.0 - ab) * eps) / math.sqrt(ab)

    def loss(self, x0, eps, t):
        """Mean squared noise-prediction error on a fixed batch."""
        ab = self.alpha_bar[t][:, None]
        x_t = np.sqrt(ab) * x0 + np.sqrt(1.0 - ab) * eps
        r = eps - self.eps(x_t, t)
        return float(np.mean(np.sum(r * r, axis=1)))


def gaussian_reward(x, mu, sigma):
    d = np.asarray(x, dtype=np.float64) - np.asarray(mu, dtype=np.float64)
    return np.exp(-np.sum(d * d, axis=-1) / (2.0 * sigma * sigma)) / (2.0 * math.pi * sigma * sigma)


def win_rate(guided, base, mu, sigma):
    rg, rb = gaussian_reward(guided, mu, sigma), gaussian_reward(base, mu, sigma)
    return float(np.mean((rg > rb) + 0.5 * (rg == rb)))


def selection_samples(net: Net, mu, n: int, block: int, eta: float, seeds, refs=None):
    """Blockwise best-of-n, recomputed; returns ``(samples, candidates)``.

    Each run starts from its ``ROLE_INIT`` draw (noised reference when
    ``eta < 1``), unrolls ``n`` streams per block with ``ROLE_STEP`` draws
    keyed by (seed, step, stream), and keeps the stream whose predicted
    endpoint is nearest the reward centre (the highest Gaussian log reward),
    the lowest stream on ties.  ``candidates`` holds the ``(R, n, 2)``
    endpoints of the last block, from which the samples were selected.
    """
    seeds = np.asarray(seeds, dtype=np.uint64)
    R, ids = len(seeds), np.arange(n)
    z = streams.normal_pair(seeds, streams.ROLE_INIT, 0, 0)
    if eta == 1.0:
        top, x = net.T, z
    else:
        top = int(round(eta * net.T))
        ab = net.alpha_bar[top]
        x = math.sqrt(ab) * np.asarray(refs, dtype=np.float64) + math.sqrt(1.0 - ab) * z
    t_hi = top
    while t_hi >= 1:
        t_lo = max(1, t_hi - block + 1)
        y = np.repeat(x, n, axis=0)
        for t in range(t_hi, t_lo - 1, -1):
            y = net.reverse_mean(y, net.eps(y, t), t)
            if t > 1:
                noise = streams.normal_pair(seeds[:, None], streams.ROLE_STEP, t, ids[None, :])
                y = y + math.sqrt(net.beta[t]) * noise.reshape(R * n, 2)
        end = y if t_lo == 1 else net.x0_hat(y, net.eps(y, t_lo - 1), t_lo - 1)
        d = end - np.asarray(mu, dtype=np.float64)
        score = -np.sum(d * d, axis=1)
        candidates = y.reshape(R, n, 2)
        x = candidates[np.arange(R), score.reshape(R, n).argmax(axis=1)]
        t_hi = t_lo - 1
    return x, candidates


def check_forward(predict_eps, model, sched, net: Net, rng) -> None:
    """The program's ``predict_eps`` against the reference forward pass."""
    x = rng.normal(6.0, 4.0, size=(64, 2))
    for t in (1, net.T // 2, net.T):
        got = predict_eps(model, x, t, sched)
        err = float(np.max(np.abs(got - net.eps(x, t))))
        if not err <= FORWARD_TOL:
            raise CheckError(f"predict_eps at t={t} differs from the reference by {err:.3g}")


def check_selection(label: str, got, net: Net, mu, n: int, block: int, eta: float, seeds, refs=None) -> None:
    """Samples a selection sampler returned, against recomputed ones."""
    want, _ = selection_samples(net, mu, n, block, eta, seeds, refs)
    err = float(np.max(np.abs(np.asarray(got) - want)))
    if not err <= SAMPLE_TOL:
        raise CheckError(f"{label}: samples differ from the recomputed selection by {err:.3g}")


def check_counters(label: str, row, T: int) -> None:
    """A selection row costs ``n tau`` model calls and ``n ceil(tau / b)`` reward queries."""
    tau = T if row.eta == 1.0 else int(round(row.eta * T))
    evals, queries = row.n * tau, row.n * math.ceil(tau / row.b)
    if (row.model_evals, row.reward_queries) != (evals, queries):
        raise CheckError(
            f"{label}: counters ({row.model_evals}, {row.reward_queries}), expected ({evals}, {queries})"
        )


def check_row_values(label: str, row, guided, base, mu, sigma) -> None:
    """The row's reward columns, recomputed from the captured samples."""
    er = float(np.mean(gaussian_reward(guided, mu, sigma)))
    wr = win_rate(guided, base, mu, sigma)
    if not abs(row.expected_reward - er) <= ROW_RTOL * abs(er):
        raise CheckError(f"{label}: expected_reward {row.expected_reward!r}, recomputed {er!r}")
    if not abs(row.win_rate - wr) <= ROW_RTOL:
        raise CheckError(f"{label}: win_rate {row.win_rate!r}, recomputed {wr!r}")


def check_guided(label: str, guided, base, mu, sigma) -> None:
    """Properties of a gradient-guided batch that any correct method keeps."""
    if not np.all(np.isfinite(guided)):
        raise CheckError(f"{label}: samples are not finite")
    wr = win_rate(guided, base, mu, sigma)
    if not wr > 0.5:
        raise CheckError(f"{label}: win rate {wr} against the base batch is not above 0.5")


def check_input_grad(input_grad, predict_eps, model, sched, points, rng) -> None:
    """``input_grad`` against central differences of ``predict_eps``."""
    x = np.asarray(points, dtype=np.float64)
    for t in (1, sched.T // 2, sched.T):
        cot = rng.normal(size=x.shape)
        got = input_grad(model, x, t, sched, cot)
        for j in range(2):
            step = np.zeros(2)
            step[j] = FD_STEP
            diff = (predict_eps(model, x + step, t, sched) - predict_eps(model, x - step, t, sched)) / (2 * FD_STEP)
            want = np.sum(diff * cot, axis=1)
            err = np.abs(got[:, j] - want) / (1.0 + np.abs(want))
            if not np.max(err) <= FD_TOL:
                raise CheckError(
                    f"input_grad at t={t}, coordinate {j}: relative error {np.max(err):.3g} "
                    "against central differences"
                )


def heldout_batch(weights, means, sigma, T: int, size: int, seed: int):
    """A fixed (x0, eps, t) batch from the mixture prior, drawn here."""
    rng = np.random.default_rng(seed)
    comp = rng.choice(len(weights), size=size, p=weights)
    x0 = np.asarray(means, dtype=np.float64)[comp] + sigma * rng.standard_normal((size, 2))
    return x0, rng.standard_normal((size, 2)), rng.integers(1, T + 1, size=size)


def check_training(losses, initial: Net, trained: Net, batch) -> tuple[float, float]:
    """The loss trace ends finite and the trained model beats the initial one
    on a held-out batch; returns the two held-out losses."""
    if not np.isfinite(losses[-1]):
        raise CheckError(f"final training loss is {losses[-1]}")
    before, after = initial.loss(*batch), trained.loss(*batch)
    if not after < before:
        raise CheckError(f"held-out loss {after:.6g} after training is not below {before:.6g} before")
    return before, after


def check_param_grads(loss_and_param_grads, model, sched, batch) -> None:
    """``loss_and_param_grads`` against central differences of the
    reference loss, at two coordinates of each parameter array."""
    bundle = loss_and_param_grads(model, *batch, sched)
    beta = sched.beta[1:]
    ref = Net.from_model(model, beta).loss(*batch)
    if not abs(bundle.loss - ref) <= 1e-9 * (1.0 + abs(ref)):
        raise CheckError(f"loss {bundle.loss!r} differs from the reference {ref!r}")
    coords = [(name, tuple(s // k for s in arr.shape)) for name, arr in model.params() for k in (2, 3)]
    for name, idx in coords:
        side = []
        for sign in (1.0, -1.0):
            net = Net.from_model(model, beta)
            getattr(net, name)[idx] += sign * PARAM_FD_STEP
            side.append(net.loss(*batch))
        want = (side[0] - side[1]) / (2 * PARAM_FD_STEP)
        got = float(getattr(bundle, name)[idx])
        if not abs(got - want) <= PARAM_FD_TOL * (1.0 + abs(want)):
            raise CheckError(f"d loss / d {name}{list(idx)} = {got!r}, central differences give {want!r}")
