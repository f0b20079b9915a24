"""Noise-prediction MLP: forward pass, exact gradients, checkpoints.

The predictor is three affine layers, ``(2 + E) -> H -> H -> 2``, with a
smooth activation after the first two.  The step index enters through a
sinusoidal embedding of ``t / T`` (E even, frequencies geometric from 1 up to
``freq_base``).  Gradients are hand-derived reverse mode for this fixed
architecture; they are checked against central finite differences in the
test suite.
"""

from __future__ import annotations

import json
import threading
from dataclasses import dataclass, replace
from functools import lru_cache, singledispatch

import numpy as np

from .schedule import NoiseSchedule, _check_t, forward_noising

CHECKPOINT_FORMAT = "diffguide-checkpoint"
CHECKPOINT_VERSION = 1


class CheckpointError(Exception):
    """Base class for checkpoint load failures."""


class CheckpointFormatError(CheckpointError):
    """File is not a checkpoint of the expected format."""


class CheckpointVersionError(CheckpointError):
    """Checkpoint schema version is not supported."""


class CheckpointShapeError(CheckpointError):
    """A parameter array does not match the declared dimensions."""


ACTIVATIONS = ("silu", "identity")


def _activate(activation: str, z, s, a):
    """``a = act(z)`` in place; for silu also leaves ``sigmoid(z)`` in ``s``.

    The sigmoid is ``0.5 (1 + tanh(z / 2))``, which cannot overflow.
    """
    if activation == "identity":
        np.copyto(a, z)
        return
    np.multiply(z, 0.5, out=s)
    np.tanh(s, out=s)
    s += 1.0
    s *= 0.5
    np.multiply(z, s, out=a)


def _act_grad(activation: str, z, s, upstream, out):
    """``out = act'(z) * upstream``; silu' is ``s (1 + z (1 - s))``."""
    if activation == "identity":
        np.copyto(out, upstream)
        return
    np.subtract(1.0, s, out=out)
    out *= z
    out += 1.0
    out *= s
    out *= upstream


PARAM_NAMES = ("w1", "b1", "w2", "b2", "w3", "b3")


@dataclass
class EpsModel:
    """Parameters of the noise predictor; treat instances as immutable.

    ``in_shift`` and ``in_scale`` whiten the spatial input before the first
    layer; they are fixed constants (not trained), chosen from the pooled
    statistics of the noised training inputs so the coordinates enter at the
    same magnitude as the step embedding.
    """

    w1: np.ndarray  # (2 + E, H)
    b1: np.ndarray  # (H,)
    w2: np.ndarray  # (H, H)
    b2: np.ndarray  # (H,)
    w3: np.ndarray  # (H, 2)
    b3: np.ndarray  # (2,)
    activation: str = "silu"
    embed_width: int = 32
    freq_base: float = 1000.0
    in_shift: np.ndarray = None
    in_scale: float = 1.0

    def __post_init__(self):
        if self.in_shift is None:
            self.in_shift = np.zeros(2)
        self.in_shift = np.asarray(self.in_shift, dtype=np.float64)

    @property
    def hidden_width(self) -> int:
        return self.w1.shape[1]

    def params(self):
        return [(name, getattr(self, name)) for name in PARAM_NAMES]


@dataclass
class GradBundle:
    """Loss value plus per-parameter gradients mirroring EpsModel shapes."""

    loss: float
    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray
    w3: np.ndarray
    b3: np.ndarray

    def params(self):
        return [(name, getattr(self, name)) for name in PARAM_NAMES]


def param_count(model: EpsModel) -> int:
    return sum(arr.size for _, arr in model.params())


def init_model(
    hidden_width: int,
    embed_width: int,
    seed: int,
    activation: str = "silu",
    freq_base: float = 1000.0,
    in_shift=None,
    in_scale: float = 1.0,
) -> EpsModel:
    """Fan-in scaled uniform init, U(-1/sqrt(fan_in), 1/sqrt(fan_in)).

    Weights and biases of each layer share the layer's bound.  Bit-for-bit
    reproducible for a fixed seed.
    """
    if hidden_width < 1:
        raise ValueError(f"hidden_width must be >= 1, got {hidden_width}")
    if embed_width < 2 or embed_width % 2 != 0:
        raise ValueError(f"embed_width must be even and >= 2, got {embed_width}")
    if activation not in ACTIVATIONS:
        raise ValueError(f"unknown activation {activation!r}")
    if in_scale <= 0:
        raise ValueError(f"in_scale must be positive, got {in_scale}")
    rng = np.random.default_rng(seed)
    dims = [(2 + embed_width, hidden_width), (hidden_width, hidden_width), (hidden_width, 2)]
    arrays = []
    for fan_in, fan_out in dims:
        bound = 1.0 / np.sqrt(fan_in)
        arrays.append(rng.uniform(-bound, bound, size=(fan_in, fan_out)))
        arrays.append(rng.uniform(-bound, bound, size=fan_out))
    return EpsModel(
        *arrays,
        activation=activation,
        embed_width=embed_width,
        freq_base=freq_base,
        in_shift=in_shift,
        in_scale=in_scale,
    )


def time_embedding(t, T: int, width: int, freq_base: float) -> np.ndarray:
    """Sinusoidal features of t/T: ``[sin(s f_k), cos(s f_k)]`` per frequency.

    The ``width/2`` frequencies are geometric between 1 and ``freq_base``.
    """
    s = np.asarray(t, dtype=np.float64) / T
    half = width // 2
    freqs = freq_base ** (np.arange(half) / max(half - 1, 1))
    ang = s[..., None] * freqs
    return np.concatenate([np.sin(ang), np.cos(ang)], axis=-1)


@lru_cache(maxsize=None)
def _embedding_table(T: int, width: int, freq_base: float) -> np.ndarray:
    """``time_embedding`` of every step ``0..T``, built once (a training
    batch otherwise spends much of its time in ``sin`` and ``cos``)."""
    table = time_embedding(np.arange(T + 1), T, width, freq_base)
    table.flags.writeable = False
    return table


# rows of every row-dependent product outside training.  Each product runs
# on exactly CHUNK_ROWS rows, the last chunk zero-padded, so BLAS always sees
# the same shapes and a row's bits do not depend on the batch it came in.
# 128 is measured with bench/run.py on a 2-core Xeon: with 256 rows the
# 100-row calls of select_narrow each cost a 256-row chunk (run_s 50 s
# against 35 s), with 64 rows select_wide took 39-42 s against 37 s.
CHUNK_ROWS = 128

_scratch = threading.local()


def _buffer(name: str, rows: int, width: int) -> np.ndarray:
    """A ``(rows, width)`` view of this thread's named scratch buffer.

    The model is evaluated once per reverse step or training minibatch;
    fresh temporaries cost a page fault per page on every call (training
    took 1.8 times as long with buffers made afresh per call).  A buffer is
    grown when too small and kept, so a thread holds buffers as large as the
    largest training batch it has evaluated.  Every evaluation writes the
    rows it reads before reading them, and returns freshly allocated arrays.
    """
    buffers = getattr(_scratch, "buffers", None)
    if buffers is None:
        buffers = _scratch.buffers = {}
    buf = buffers.get(name)
    if buf is None or buf.shape[0] < rows or buf.shape[1] != width:
        buf = buffers[name] = np.empty((rows, width))
    return buf[:rows]


def _padded(name: str, rows) -> np.ndarray:
    """``rows`` copied into the ``CHUNK_ROWS``-row scratch buffer ``name``,
    zeros below them."""
    buf = _buffer(name, CHUNK_ROWS, rows.shape[1])
    buf[: len(rows)] = rows
    buf[len(rows) :] = 0.0
    return buf


def _batch(x, t, sched: NoiseSchedule, cotangent=None):
    """Checked inputs of one evaluation: ``(rows, t, cotangents, single)``.

    ``x`` is one point ``(2,)`` or a batch ``(n, 2)``; ``t`` one step in
    ``1..T`` or one per row; ``cotangent`` one 2-vector or one per row.  A
    single point or cotangent is repeated to the batch length.  ``single``
    is true when every input was single, so the caller returns one row.
    """
    x = np.asarray(x, dtype=np.float64)
    t = _check_t(t, sched.T)
    cot = None if cotangent is None else np.asarray(cotangent, dtype=np.float64)
    lengths = {
        name: arr.shape[0]
        for name, arr, batch_ndim in (("x", x, 2), ("t", t, 1), ("cotangent", cot, 2))
        if arr is not None and arr.ndim == batch_ndim
    }
    if len(set(lengths.values())) > 1:
        sizes = ", ".join(f"{name} has {n}" for name, n in lengths.items())
        raise ValueError(f"batch length mismatch: {sizes}")
    n = next(iter(lengths.values()), 1)
    rows = np.broadcast_to(x, (n, 2))
    cots = None if cot is None else np.broadcast_to(cot, (n, 2))
    return rows, t, cots, not lengths


def _hidden_layers(model: EpsModel, xw, bias1, a2):
    """Both hidden layers on a block of rows, in scratch buffers.

    Leaves the second activation in ``a2`` and returns the pre-activations
    and sigmoids ``(z1, s1, a1, z2, s2)`` that the backward passes need.
    ``bias1`` is the step embedding's contribution to layer 1 plus ``b1``.
    """
    n, width = xw.shape[0], model.hidden_width
    z1, s1, a1, z2, s2 = (_buffer(k, n, width) for k in ("z1", "s1", "a1", "z2", "s2"))
    np.matmul(xw, model.w1[:2], out=z1)
    z1 += bias1
    _activate(model.activation, z1, s1, a1)
    np.matmul(a1, model.w2, out=z2)
    z2 += model.b2
    _activate(model.activation, z2, s2, a2)
    return z1, s1, a1, z2, s2


def _hidden_chunks(model: EpsModel, rows, t, sched: NoiseSchedule):
    """Hidden layers over ``rows`` in padded chunks of ``CHUNK_ROWS`` rows.

    Yields ``(lo, m, z1, s1, z2, s2, a2)`` per chunk holding rows
    ``lo:lo + m``; the buffers have ``CHUNK_ROWS`` rows, of which the first
    ``m`` are real.
    """
    width = model.hidden_width
    table = _embedding_table(sched.T, model.embed_width, model.freq_base)
    if t.ndim == 0:
        # one embedding row serves every row of the batch
        bias1 = table[t] @ model.w1[2:] + model.b1
    else:
        bias1 = _buffer("bias1", CHUNK_ROWS, width)
    a2 = _buffer("a2", CHUNK_ROWS, width)
    for lo in range(0, rows.shape[0], CHUNK_ROWS):
        chunk = rows[lo : lo + CHUNK_ROWS]
        xw = _padded("xw", chunk)
        xw -= model.in_shift
        xw /= model.in_scale
        if t.ndim > 0:
            emb = _padded("emb", table[t[lo : lo + CHUNK_ROWS]])
            np.matmul(emb, model.w1[2:], out=bias1)
            bias1 += model.b1
        z1, s1, _, z2, s2 = _hidden_layers(model, xw, bias1, a2)
        yield lo, len(chunk), z1, s1, z2, s2, a2


def _predict(model: EpsModel, x, t, sched: NoiseSchedule):
    rows, t, _, single = _batch(x, t, sched)
    out = np.empty(rows.shape)
    y = _buffer("y", CHUNK_ROWS, 2)
    for lo, m, _, _, _, _, a2 in _hidden_chunks(model, rows, t, sched):
        np.matmul(a2, model.w3, out=y)
        y += model.b3
        out[lo : lo + m] = y[:m]
    return out[0] if single else out


def _input_grad(model: EpsModel, x, t, cotangent, sched: NoiseSchedule):
    rows, t, cots, single = _batch(x, t, sched, cotangent)
    out = np.empty(rows.shape)
    width = model.hidden_width
    upstream, dz2, dz1 = (_buffer(k, CHUNK_ROWS, width) for k in ("upstream", "dz2", "dz1"))
    g = _buffer("g", CHUNK_ROWS, 2)
    for lo, m, z1, s1, z2, s2, _ in _hidden_chunks(model, rows, t, sched):
        np.matmul(_padded("cot", cots[lo : lo + m]), model.w3.T, out=upstream)
        _act_grad(model.activation, z2, s2, upstream, dz2)
        np.matmul(dz2, model.w2.T, out=upstream)
        _act_grad(model.activation, z1, s1, upstream, dz1)
        np.matmul(dz1, model.w1[:2].T, out=g)
        g /= model.in_scale
        out[lo : lo + m] = g[:m]
    return out[0] if single else out


@singledispatch
def predict_eps(model, x, t, sched: NoiseSchedule):
    """Predicted noise for points ``x`` at step(s) ``t``.

    ``x`` may be a single point ``(2,)`` or a batch ``(n, 2)``; ``t`` a scalar
    step or an array matching the batch.  For an ``EpsModel`` a row's result
    does not depend on the batch it is evaluated in, bit for bit.
    """
    raise TypeError(f"no noise predictor registered for {type(model).__name__}")


@predict_eps.register
def _(model: EpsModel, x, t, sched: NoiseSchedule):
    return _predict(model, x, t, sched)


def loss_and_param_grads(model: EpsModel, x0_batch, eps_batch, t_batch, sched: NoiseSchedule) -> GradBundle:
    """Mean squared noise-prediction error and its exact parameter gradients.

    The loss is ``mean_i || eps_i - model(noised(x0_i, t_i, eps_i), t_i) ||^2``
    with the mean over batch items (each item contributes the squared 2-norm
    of its residual).  The batch is evaluated whole, never chunked, so the
    gradient sums do not depend on ``CHUNK_ROWS``.
    """
    x0 = np.atleast_2d(np.asarray(x0_batch, dtype=np.float64))
    eps = np.atleast_2d(np.asarray(eps_batch, dtype=np.float64))
    t = np.asarray(t_batch)
    if x0.shape[0] == 0:
        raise ValueError("empty batch")
    if not (x0.shape == eps.shape and t.shape == (x0.shape[0],)):
        raise ValueError(
            f"batch shape mismatch: x0 {x0.shape}, eps {eps.shape}, t {t.shape}"
        )
    n, width = x0.shape[0], model.hidden_width
    x_t = forward_noising(x0, t, eps, sched)
    xw = (x_t - model.in_shift) / model.in_scale
    emb = _embedding_table(sched.T, model.embed_width, model.freq_base)[t]
    a2 = _buffer("a2", n, width)
    bias1 = _buffer("bias1", n, width)
    np.matmul(emb, model.w1[2:], out=bias1)
    bias1 += model.b1
    z1, s1, a1, z2, s2 = _hidden_layers(model, xw, bias1, a2)
    out = a2 @ model.w3 + model.b3

    resid = out - eps
    loss = float(np.sum(resid * resid) / n)

    dout = (2.0 / n) * resid
    dw3 = a2.T @ dout
    db3 = dout.sum(axis=0)
    upstream = _buffer("upstream", n, width)
    dz2 = _buffer("dz2", n, width)
    np.matmul(dout, model.w3.T, out=upstream)
    _act_grad(model.activation, z2, s2, upstream, dz2)
    dw2 = a1.T @ dz2
    db2 = dz2.sum(axis=0)
    dz1 = _buffer("dz1", n, width)
    np.matmul(dz2, model.w2.T, out=upstream)
    _act_grad(model.activation, z1, s1, upstream, dz1)
    dw1 = np.empty_like(model.w1)
    dw1[:2] = xw.T @ dz1
    dw1[2:] = emb.T @ dz1
    db1 = dz1.sum(axis=0)
    for g in (dw1, db1, dw2, db2, dw3, db3):
        if not np.all(np.isfinite(g)):
            raise FloatingPointError("non-finite gradient")
    return GradBundle(loss, dw1, db1, dw2, db2, dw3, db3)


@singledispatch
def input_grad(model, x, t, sched: NoiseSchedule, cotangent):
    """Vector-Jacobian product of the predictor w.r.t. its spatial input.

    Returns ``cotangent^T d eps(x, t) / d x`` for each point; the step
    embedding is constant in x and contributes nothing.  ``x`` and
    ``cotangent`` may be single points or matching batches.
    """
    raise TypeError(f"no input gradient registered for {type(model).__name__}")


@input_grad.register
def _(model: EpsModel, x, t, sched: NoiseSchedule, cotangent):
    return _input_grad(model, x, t, cotangent, sched)


def save_checkpoint(model: EpsModel, sched: NoiseSchedule, path) -> None:
    """Write a versioned JSON checkpoint (exact float round trip)."""
    payload = {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "model": {
            "hidden_width": model.hidden_width,
            "embed_width": model.embed_width,
            "activation": model.activation,
            "freq_base": model.freq_base,
            "in_shift": model.in_shift.tolist(),
            "in_scale": model.in_scale,
            **{name: arr.tolist() for name, arr in model.params()},
        },
        "schedule": {"T": sched.T, "beta": sched.beta[1:].tolist()},
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
        fh.write("\n")


def load_checkpoint(path) -> tuple[EpsModel, NoiseSchedule]:
    """Load a checkpoint; raises a distinct error per failure mode."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except json.JSONDecodeError as exc:
        raise CheckpointFormatError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(payload, dict) or payload.get("format") != CHECKPOINT_FORMAT:
        raise CheckpointFormatError(f"{path}: missing {CHECKPOINT_FORMAT!r} format tag")
    if payload.get("version") != CHECKPOINT_VERSION:
        raise CheckpointVersionError(
            f"{path}: version {payload.get('version')!r}, expected {CHECKPOINT_VERSION}"
        )
    try:
        m = payload["model"]
        s = payload["schedule"]
        hidden = int(m["hidden_width"])
        embed = int(m["embed_width"])
        activation = m["activation"]
        freq_base = float(m["freq_base"])
        in_shift = np.asarray(m["in_shift"], dtype=np.float64)
        in_scale = float(m["in_scale"])
        raw = {name: np.asarray(m[name], dtype=np.float64) for name in PARAM_NAMES}
        T = int(s["T"])
        beta_body = np.asarray(s["beta"], dtype=np.float64)
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointFormatError(f"{path}: malformed checkpoint ({exc})") from exc
    if activation not in ACTIVATIONS:
        raise CheckpointFormatError(f"{path}: unknown activation {activation!r}")
    expected = {
        "w1": (2 + embed, hidden),
        "b1": (hidden,),
        "w2": (hidden, hidden),
        "b2": (hidden,),
        "w3": (hidden, 2),
        "b3": (2,),
    }
    for name, shape in expected.items():
        if raw[name].shape != shape:
            raise CheckpointShapeError(
                f"{path}: layer {name!r} has shape {raw[name].shape}, expected {shape}"
            )
    if beta_body.shape != (T,):
        raise CheckpointShapeError(
            f"{path}: schedule beta has shape {beta_body.shape}, expected ({T},)"
        )
    if in_shift.shape != (2,):
        raise CheckpointShapeError(
            f"{path}: in_shift has shape {in_shift.shape}, expected (2,)"
        )
    model = EpsModel(
        **raw,
        activation=activation,
        embed_width=embed,
        freq_base=freq_base,
        in_shift=in_shift,
        in_scale=in_scale,
    )
    beta = np.concatenate([[0.0], beta_body])
    alpha = 1.0 - beta
    alpha_bar = np.cumprod(alpha)
    for arr in (beta, alpha, alpha_bar):
        arr.flags.writeable = False
    return model, NoiseSchedule(beta=beta, alpha=alpha, alpha_bar=alpha_bar)


def with_params(model: EpsModel, new_params: dict[str, np.ndarray]) -> EpsModel:
    """Copy of the model with replaced parameter arrays."""
    return replace(model, **new_params)
