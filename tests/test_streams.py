"""Keyed noise streams: the transition-noise slabs of ``step_noise``."""

import numpy as np
import pytest

from diffguide import streams

SEEDS = np.asarray([streams.derive_seed(12, r) for r in range(5)], dtype=np.uint64)

# (seed, stream) key fields of each key shape the samplers use
KEY_FIELDS = {
    "()": (SEEDS[0], 3),  # one key per step
    "(n,)": (SEEDS[1], np.arange(300)),  # base_sample: one stream per rollout
    "(R, N)": (SEEDS[:, None], np.arange(7)[None, :]),  # selection runs
    "(1,)": (SEEDS[:1], 0),  # a one-run gradient batch
}


@pytest.mark.parametrize("shape", KEY_FIELDS)
def test_step_noise_matches_one_call_per_step(shape, monkeypatch):
    """For tops below, at and above one slab, and for T = 1 (no noisy
    step), the steps come out ``top..2`` once each, in order, and each draw
    is ``normal_pair`` of its key, bit for bit.  A budget of 256 keys keeps
    the one-step reference calls few; it gives the 300 keys of ``(n,)``
    one step per call."""
    monkeypatch.setattr(streams, "SLAB_KEYS", 256)
    seed, stream = KEY_FIELDS[shape]
    keys = np.broadcast(np.asarray(seed), np.asarray(stream)).shape
    slab = max(1, 256 // int(np.prod(keys)))
    for top in (1, 2, slab, slab + 1, slab + 2, 2 * slab + 3):
        got = list(streams.step_noise(seed, stream, top))
        assert [t for t, _ in got] == list(range(top, 1, -1)), top
        for t, draw in got:
            want = streams.normal_pair(seed, streams.ROLE_STEP, t, stream)
            assert draw.shape == keys + (2,)
            np.testing.assert_array_equal(draw, want, err_msg=f"top {top}, step {t}")


def test_step_noise_draws_slabs_of_steps(monkeypatch):
    """One ``normal_pair`` call covers ``SLAB_KEYS // keys`` steps."""
    calls = []
    draw = streams.normal_pair

    def counted(*args):
        calls.append(np.broadcast(*(np.asarray(a) for a in args)).shape)
        return draw(*args)

    monkeypatch.setattr(streams, "normal_pair", counted)
    list(streams.step_noise(SEEDS[:, None], np.arange(7)[None, :], 300))
    slab = streams.SLAB_KEYS // 35
    assert [shape[0] for shape in calls] == [slab, slab, 299 - 2 * slab]
