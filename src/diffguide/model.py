"""Noise-prediction MLP: forward pass, exact gradients, checkpoints.

The predictor is three affine layers, ``(2 + E) -> H -> H -> 2``, with a
smooth activation after the first two: SiLU, ``z / (1 + exp(-z))``, or the
identity.  The step index enters through a sinusoidal embedding of ``t / T``
(E even, frequencies geometric from 1 up to ``freq_base``).  Gradients are
hand-derived reverse mode for this fixed architecture; they are checked
against central finite differences in the test suite.

``exp(-z)`` overflows to inf for ``z < -709.78``, which a state near
``samplers.STATE_BOUND`` reaches.  The forward pass runs under
``np.errstate(over="ignore")``: the overflow gives the exact limits of the
activation (``-0``) and of its sigmoid (0), and every result stays finite.
"""

from __future__ import annotations

import json
import threading
from dataclasses import dataclass, replace
from functools import lru_cache, singledispatch

import numpy as np

from .schedule import NoiseSchedule, _check_t, forward_noising, schedule_from_beta

CHECKPOINT_FORMAT = "diffguide-checkpoint"
CHECKPOINT_VERSION = 1


class CheckpointError(Exception):
    """Base class for checkpoint load failures."""


class CheckpointFormatError(CheckpointError):
    """File is not a checkpoint of the expected format."""


class CheckpointVersionError(CheckpointError):
    """Checkpoint schema version is not supported."""


class CheckpointShapeError(CheckpointError):
    """The model or schedule the file describes is refused by its
    constructor: a parameter of the wrong shape (naming the layer), a
    setting out of range, a non-finite parameter or a beta outside (0, 1)."""


ACTIVATIONS = ("silu", "identity")


def _activate(activation: str, na, d):
    """``na = -z`` turned into ``-act(z)`` in place; for silu also leaves
    ``d = 1 + exp(-z)`` in ``d``.

    silu is ``z / (1 + exp(-z))``, so ``-a = (-z) / d``: three passes, and
    the division gives every evaluation path the same bits.  ``exp``
    overflows to inf for ``z < -709.78``; callers run this under
    ``np.errstate(over="ignore")``, and ``d = inf`` then gives the exact
    limit ``a = -0``.
    """
    if activation == "identity":
        return
    np.exp(na, out=d)
    d += 1.0
    na /= d


def _act_grad(activation: str, na, d, upstream, out):
    """``out = act'(z) * upstream`` from the forward pass's ``na = -act(z)``
    and ``d``, both left intact.  silu' is ``s + a (1 - s)`` with
    ``s = 1 / d``, that is ``(1 + (-a)) / d - (-a)``: four passes and one
    division.  ``d = inf`` gives ``-a = 0`` and a zero derivative."""
    if activation == "identity":
        np.copyto(out, upstream)
        return
    np.add(na, 1.0, out=out)
    out /= d
    out -= na
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
        """Refuses (``ValueError``) an unknown activation, an odd or small
        ``embed_width``, a wrong shape, a non-finite parameter, and an
        ``in_scale`` or ``freq_base`` that is not positive and finite."""
        if self.in_shift is None:
            self.in_shift = np.zeros(2)
        self.in_shift = np.asarray(self.in_shift, dtype=np.float64)
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")
        if self.embed_width < 2 or self.embed_width % 2 != 0:
            raise ValueError(f"embed_width must be even and >= 2, got {self.embed_width}")
        width = self.hidden_width if self.w1.ndim == 2 else 0
        if width < 1:
            raise ValueError(f"w1 must be a matrix with hidden_width >= 1 columns, got shape {self.w1.shape}")
        shapes = {"w1": (2 + self.embed_width, width), "b1": (width,), "w2": (width, width),
                  "b2": (width,), "w3": (width, 2), "b3": (2,), "in_shift": (2,)}
        for name, shape in shapes.items():
            arr = getattr(self, name)
            if arr.shape != shape:
                raise ValueError(f"{name} has shape {arr.shape}, expected {shape}")
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} holds a non-finite value")
        for name in ("in_scale", "freq_base"):
            if not 0.0 < getattr(self, name) < np.inf:
                raise ValueError(f"{name} must be positive and finite, got {getattr(self, name)}")

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
        # before drawing: w3's bound is 1 / sqrt(hidden_width)
        raise ValueError(f"hidden_width must be >= 1, got {hidden_width}")
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
def _step_inputs(T: int, width: int, freq_base: float) -> np.ndarray:
    """Layer-1 input rows ``[0, 0, time_embedding(t), 1]`` of every step
    ``0..T``, built once (a training batch otherwise spends much of its time
    in ``sin`` and ``cos``).  A chunk takes its rows whole and writes the
    whitened point over the two zeros; the 1 meets ``b1``."""
    emb = time_embedding(np.arange(T + 1), T, width, freq_base)
    table = np.zeros((T + 1, width + 3))
    table[:, 2:-1] = emb
    table[:, -1] = 1.0
    table.flags.writeable = False
    return table


# rows of every row-dependent product.  Each product runs on exactly
# CHUNK_ROWS rows, the last chunk zero-padded, so BLAS always sees the same
# shapes: a row's bits do not depend on the batch it came in, and training's
# gradient sums do not depend on the BLAS thread count.
# 128 is measured with bench/run.py on a 2-core Xeon: with 256 rows the
# 100-row calls of select_narrow each cost a 256-row chunk (run_s 50 s
# against 35 s), with 64 rows select_wide took 39-42 s against 37 s.
CHUNK_ROWS = 128

_scratch = threading.local()


def _buffer(name: str, width: int) -> np.ndarray:
    """This thread's ``(CHUNK_ROWS, width)`` scratch buffer ``name``.

    The model is evaluated chunk by chunk many times per reverse step or
    training minibatch; fresh temporaries cost a page fault per page on
    every call (training took 1.8 times as long with buffers made afresh per
    call).  A chunk with ``m`` real rows does its elementwise work on those
    rows only.  Every buffer a matrix product reads is written before it is
    read, with zeros below the real rows (``_padded``, ``_real``, or the
    product of such zeros), so what an earlier evaluation left in the
    buffers never reaches a result.  Every evaluation returns freshly
    allocated arrays.
    """
    buffers = getattr(_scratch, "buffers", None)
    if buffers is None:
        buffers = _scratch.buffers = {}
    buf = buffers.get(name)
    if buf is None or buf.shape[1] != width:
        buf = buffers[name] = np.empty((CHUNK_ROWS, width))
    return buf


def _real(buf, m: int) -> np.ndarray:
    """The first ``m`` rows of ``buf``; the rows below them are set to zero."""
    buf[m:] = 0.0
    return buf[:m]


def _padded(name: str, rows) -> np.ndarray:
    """``rows`` copied into the scratch buffer ``name``, zeros below them."""
    buf = _buffer(name, rows.shape[1])
    _real(buf, len(rows))[...] = rows
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
    rows, cots = (
        arr if arr is None or arr.shape == (n, 2) else np.broadcast_to(arr, (n, 2))
        for arr in (x, cot)
    )
    return rows, t, cots, not lengths


def _hidden_chunks(model: EpsModel, rows, t, sched: NoiseSchedule):
    """The model over ``rows`` in padded chunks of ``CHUNK_ROWS`` rows.

    Yields ``(lo, m, inp, na1, d1, na2, d2, y)`` per chunk holding rows
    ``lo:lo + m``.  ``inp`` is the layer-1 input: the whitened point and a
    1, with the step embedding between them for a step per row.  Each hidden
    layer has one buffer ``na``: its product writes the negated
    pre-activation ``-z`` there, and ``_activate`` turns it into the negated
    activation ``-a``, leaving ``1 + exp(-z)`` in ``d``.  The products give
    ``-z`` directly: the layer-1 matrix is ``-[w1; b1]`` with the bias as
    its last row, or for a scalar step ``-[w1[:2]; emb w1[2:] + b1]``, and
    ``-b2`` is added from a tile.  The sign cancels in the layer-2 product
    and in the output layer, whose ``y = b3 - (-a2) w3`` is the predicted
    noise; the caller may overwrite ``y``.  Negation is exact, so the signs
    cost no bits.  The buffers have ``CHUNK_ROWS`` rows, of which the first
    ``m`` are real; ``inp``, ``na1``, ``na2`` and ``y`` are zero below them
    (the products of zero input rows), ``d1`` and ``d2`` hold nothing
    meaningful there.
    """
    n = rows.shape[0]
    width = model.hidden_width
    inputs = _step_inputs(sched.T, model.embed_width, model.freq_base)
    w1 = np.empty((model.embed_width + 3, width))
    np.negative(model.w1, out=w1[:-1])
    np.negative(model.b1, out=w1[-1])
    if t.ndim == 0:
        # one step: its embedding and b1 make one bias row
        w1[2] = inputs[t] @ w1
        w1 = w1[:3]
        inp = _buffer("x1", 3)
    else:
        inp = _buffer("xe", model.embed_width + 3)
    b2 = _buffer("b2", width)
    np.negative(model.b2, out=b2[: min(n, CHUNK_ROWS)])
    whitened = (rows - model.in_shift) / model.in_scale
    na1, d1, na2, d2 = (_buffer(k, width) for k in ("na1", "d1", "na2", "d2"))
    y = _buffer("y", 2)
    for lo in range(0, n, CHUNK_ROWS):
        hi = min(lo + CHUNK_ROWS, n)
        m = hi - lo
        real = _real(inp, m)
        if t.ndim == 0:
            real[:, 2] = 1.0
        else:
            np.take(inputs, t[lo:hi], axis=0, out=real, mode="clip")
        real[:, :2] = whitened[lo:hi]
        with np.errstate(over="ignore"):
            np.matmul(inp, w1, out=na1)
            _activate(model.activation, na1[:m], d1[:m])
            np.matmul(na1, model.w2, out=na2)
            na2[:m] += b2[:m]
            _activate(model.activation, na2[:m], d2[:m])
        np.matmul(na2, model.w3, out=y)
        np.subtract(model.b3, y[:m], out=y[:m])
        yield lo, m, inp, na1, d1, na2, d2, y


def _backward(model: EpsModel, dout, m: int, na1, d1, na2, d2):
    """Gradients ``(dz2, dz1)`` at both hidden pre-activations of a chunk
    with ``m`` real rows, given ``dout``, the gradient at the output, zero
    below them; ``dz2`` and ``dz1`` are zero below them too."""
    width = model.hidden_width
    upstream, dz2, dz1 = (_buffer(k, width) for k in ("upstream", "dz2", "dz1"))
    np.matmul(dout, model.w3.T, out=upstream)
    _act_grad(model.activation, na2[:m], d2[:m], upstream[:m], _real(dz2, m))
    np.matmul(dz2, model.w2.T, out=upstream)
    _act_grad(model.activation, na1[:m], d1[:m], upstream[:m], _real(dz1, m))
    return dz2, dz1


def _predict(model: EpsModel, x, t, sched: NoiseSchedule):
    rows, t, _, single = _batch(x, t, sched)
    out = np.empty(rows.shape)
    for lo, m, *_, y in _hidden_chunks(model, rows, t, sched):
        out[lo : lo + m] = y[:m]
    return out[0] if single else out


def _eps_and_vjp(model: EpsModel, rows, t, sched: NoiseSchedule, cotangent):
    """Predicted noise, cotangents and their input VJP over ``rows``, each
    ``(n, 2)``, with one forward pass.

    Per padded chunk the model runs once: its output gives the chunk's
    noise, ``cotangent(chunk, eps_rows)`` its cotangent rows (``chunk`` is
    the slice of the rows it holds), and the backward pass reuses the
    chunk's activations and exponentials.  ``cotangent`` runs with an empty
    set of scratch buffers, so a model it evaluates leaves the chunk's
    buffers as they were.
    """
    eps, cots, vjp = (np.empty(rows.shape) for _ in range(3))
    g = _buffer("g", 2)
    for lo, m, _, na1, d1, na2, d2, y in _hidden_chunks(model, rows, t, sched):
        chunk = slice(lo, lo + m)
        eps[chunk] = y[:m]
        buffers, _scratch.buffers = _scratch.buffers, {}
        try:
            cots[chunk] = cotangent(chunk, eps[chunk])
        finally:
            _scratch.buffers = buffers
        _, dz1 = _backward(model, _padded("cot", cots[chunk]), m, na1, d1, na2, d2)
        np.matmul(dz1, model.w1[:2].T, out=g)
        np.divide(g[:m], model.in_scale, out=vjp[chunk])
    return eps, cots, vjp


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
    of its residual).  The batch runs on the padded chunks ``predict_eps``
    uses; the loss and gradient sums add up chunk by chunk in order, and a
    padded row's residual is zero, so it contributes nothing.
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
    n = x0.shape[0]
    x_t = forward_noising(x0, t, eps, sched)
    # the layer-1 input ends in a 1, so one product gives [dw1; db1]
    dw1b1 = np.zeros((model.embed_width + 3, model.hidden_width))
    dw2, db2, dw3, db3 = (np.zeros_like(arr) for arr in (model.w2, model.b2, model.w3, model.b3))
    squares = 0.0
    for lo, m, inp, na1, d1, na2, d2, y in _hidden_chunks(model, x_t, t, sched):
        # y becomes the gradient at the output; its padded rows stay zero
        residual = y[:m]
        residual -= eps[lo : lo + m]
        squares += np.sum(y * y)
        residual *= 2.0 / n
        dz2, dz1 = _backward(model, y, m, na1, d1, na2, d2)
        # the buffers hold -a1 and -a2
        dw3 -= na2.T @ y
        db3 += y.sum(axis=0)
        dw2 -= na1.T @ dz2
        db2 += dz2.sum(axis=0)
        dw1b1 += inp.T @ dz1
    dw1, db1 = dw1b1[:-1].copy(), dw1b1[-1].copy()
    for g in (dw1, db1, dw2, db2, dw3, db3):
        if not np.all(np.isfinite(g)):
            raise FloatingPointError("non-finite gradient")
    return GradBundle(float(squares / n), dw1, db1, dw2, db2, dw3, db3)


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
    rows, t, cots, single = _batch(x, t, sched, cotangent)
    _, _, vjp = _eps_and_vjp(model, rows, t, sched, lambda chunk, _: cots[chunk])
    return vjp[0] if single else vjp


@singledispatch
def eps_and_input_grad(model, x, t, sched: NoiseSchedule, cotangent_of):
    """``(eps, cotangent, vjp)`` at points ``x`` and step(s) ``t``.

    ``eps`` is ``predict_eps(model, x, t, sched)``, ``cotangent`` is
    ``cotangent_of(x, eps)`` and ``vjp`` is ``input_grad`` of that
    cotangent, each with the bits the separate calls give.  An ``EpsModel``
    runs its hidden layers once for all three, calling ``cotangent_of`` on
    the rows of one chunk at a time, so row i of its result may depend only
    on row i of ``x`` and of ``eps``.  ``cotangent_of`` may itself evaluate
    a model, this one included.  This default composes ``predict_eps`` and
    ``input_grad``.
    """
    eps = predict_eps(model, x, t, sched)
    cot = cotangent_of(np.asarray(x, dtype=np.float64), eps)
    return eps, cot, input_grad(model, x, t, sched, cot)


@eps_and_input_grad.register
def _(model: EpsModel, x, t, sched: NoiseSchedule, cotangent_of):
    rows, t, _, single = _batch(x, t, sched)
    out = _eps_and_vjp(model, rows, t, sched, lambda chunk, eps: cotangent_of(rows[chunk], eps))
    return tuple(arr[0] for arr in out) if single else out


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
        raw = {name: np.asarray(m[name], dtype=np.float64) for name in (*PARAM_NAMES, "in_shift")}
        settings = dict(activation=m["activation"], embed_width=int(m["embed_width"]),
                        freq_base=float(m["freq_base"]), in_scale=float(m["in_scale"]))
        T = int(s["T"])
        beta = np.asarray(s["beta"], dtype=np.float64)
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointFormatError(f"{path}: malformed checkpoint ({exc})") from exc
    if beta.shape != (T,):
        raise CheckpointShapeError(f"{path}: schedule beta has shape {beta.shape}, expected ({T},)")
    try:
        return EpsModel(**raw, **settings), schedule_from_beta(beta)
    except ValueError as exc:
        raise CheckpointShapeError(f"{path}: {exc}") from exc


def with_params(model: EpsModel, new_params: dict[str, np.ndarray]) -> EpsModel:
    """Copy of the model with replaced parameter arrays."""
    return replace(model, **new_params)
