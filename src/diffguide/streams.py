"""Deterministic, order-independent Gaussian noise streams.

Every noise draw a sampler makes is addressed by a key ``(seed, role, step,
stream)`` rather than pulled from a stateful generator.  The key is hashed
with a splitmix64 chain and the hash drives a Box-Muller transform, so a draw
depends only on its key: rollouts can run one at a time, batched, or across
threads and produce bit-identical results.  This is also what makes the
special-case reductions exact, e.g. a single-stream guided run consumes
exactly the keys of a plain ancestral rollout.

For the same reason the keys can be drawn in any grouping.  A sampler takes
its transition noise from ``step_noise``, which draws the keys of many
reverse steps in one ``normal_pair`` call (about ``SLAB_KEYS`` keys), so a
narrow batch does not pay a call's fixed cost at every step.

Roles:

* ``ROLE_INIT``  - the starting noise for a rollout (x at the top step).
* ``ROLE_STEP``  - the transition noise added after each reverse step.
* ``ROLE_REF``   - auxiliary draws such as reference points for conditioned runs.
"""

from __future__ import annotations

import numpy as np

ROLE_INIT = 0
ROLE_STEP = 1
ROLE_REF = 2

_U64 = np.uint64
_GOLDEN = _U64(0x9E3779B97F4A7C15)
_MULT1 = _U64(0xBF58476D1CE4E5B9)
_MULT2 = _U64(0x94D049BB133111EB)
# distinct odd constants separating the two output words of a key
_WORD1 = _U64(0x2545F4914F6CDD1D)
_WORD2 = _U64(0x9E6C63D0876A9A75)

_TWO53 = float(1 << 53)

# keys per normal_pair call of step_noise.  On a 2-core Xeon (numpy 2.4) a
# 100-key call took 120 us; per key the cost fell to 0.13 us at 1600 keys per
# call, was flat at 0.11 us from 3200 to 6400 keys and rose again beyond.  A
# 100-run batch thus draws 40 steps per call.
SLAB_KEYS = 4096


def is_seed(value) -> bool:
    """Whether ``value`` is a seed: an integer (not a bool) in [0, 2^64),
    the range of a key field."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool) and 0 <= value < 1 << 64


def _mix(z: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer, elementwise over uint64 arrays (wrapping)."""
    z = z + _GOLDEN
    z = (z ^ (z >> _U64(30))) * _MULT1
    z = (z ^ (z >> _U64(27))) * _MULT2
    return z ^ (z >> _U64(31))


def _as_u64(value) -> np.ndarray:
    arr = np.asarray(value)
    if arr.dtype.kind not in "iu":
        raise TypeError("stream key fields must be integers")
    return arr.astype(np.uint64)


def key_hash(seed, role, step, stream) -> np.ndarray:
    """Hash a key tuple to a uint64; broadcasts over array-valued fields."""
    with np.errstate(over="ignore"):
        h = _mix(_as_u64(seed))
        h = _mix(h ^ _as_u64(role))
        h = _mix(h ^ _as_u64(step))
        h = _mix(h ^ _as_u64(stream))
    return h


def normal_pair(seed, role, step, stream) -> np.ndarray:
    """Standard-normal draw of shape ``broadcast(key fields) + (2,)``.

    Two uniform words are derived from the key hash and pushed through
    Box-Muller.  The uniforms live in (0, 1] so the log never sees zero.
    """
    h = key_hash(seed, role, step, stream)
    with np.errstate(over="ignore"):
        w1 = _mix(h ^ _WORD1)
        w2 = _mix(h ^ _WORD2)
    u1 = ((w1 >> _U64(11)).astype(np.float64) + 1.0) / _TWO53
    u2 = (w2 >> _U64(11)).astype(np.float64) / _TWO53
    r = np.sqrt(-2.0 * np.log(u1))
    ang = (2.0 * np.pi) * u2
    return np.stack([r * np.cos(ang), r * np.sin(ang)], axis=-1)


def step_noise(seed, stream, top: int):
    """The ``ROLE_STEP`` draws of key fields ``(seed, stream)`` at the steps
    ``top, top - 1, ..., 2``, yielded in that order as ``(t, draw)``.

    ``draw`` is ``normal_pair(seed, ROLE_STEP, t, stream)``, bit for bit, of
    shape ``broadcast(seed, stream) + (2,)``.  One call draws as many steps
    as fit in ``SLAB_KEYS`` keys (at least one).
    """
    shape = np.broadcast(np.asarray(seed), np.asarray(stream)).shape
    per_call = max(1, SLAB_KEYS // max(1, int(np.prod(shape))))
    for hi in range(top, 1, -per_call):
        steps = np.arange(hi, max(1, hi - per_call), -1)
        draws = normal_pair(seed, ROLE_STEP, steps.reshape(steps.shape + (1,) * len(shape)), stream)
        for t, draw in zip(steps, draws):
            yield int(t), draw


def derive_seed(*fields: int) -> int:
    """Fold integer fields into a child seed (used to key independent runs)."""
    with np.errstate(over="ignore"):
        h = _mix(_as_u64(np.uint64(0)))
        for f in fields:
            h = _mix(h ^ _as_u64(np.uint64(int(f) & 0xFFFFFFFFFFFFFFFF)))
    return int(h)
