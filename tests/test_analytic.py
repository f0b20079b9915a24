"""Closed-form noise predictors: the mixture predictor's input gradient."""

import numpy as np
import pytest

from diffguide import build_linear_schedule, input_grad, paper_prior, predict_eps
from diffguide.analytic import MixtureEps

SCHED = build_linear_schedule(1000)
PRIOR = paper_prior()
MODEL = MixtureEps(PRIOR)


@pytest.mark.parametrize("t", [1, 300, 1000])
def test_mixture_input_grad_matches_finite_differences(t):
    """The closed-form VJP against central differences of ``predict_eps``,
    at points spread over the prior's modes and the space between them."""
    rng = np.random.default_rng(t)
    x = rng.normal(5.0, 3.0, size=(12, 2))
    cot = rng.normal(size=(12, 2))
    h = 1e-6
    fd = np.empty_like(x)
    for j in range(2):
        step = np.zeros(2)
        step[j] = h
        diff = predict_eps(MODEL, x + step, t, SCHED) - predict_eps(MODEL, x - step, t, SCHED)
        fd[:, j] = np.sum(cot * diff, axis=1) / (2 * h)
    got = input_grad(MODEL, x, t, SCHED, cot)
    np.testing.assert_allclose(got, fd, rtol=1e-6, atol=1e-8)


def test_mixture_input_grad_shapes():
    """One point, a batch, and a step per row agree row by row."""
    rng = np.random.default_rng(4)
    x = rng.normal(5.0, 3.0, size=(5, 2))
    cot = rng.normal(size=(5, 2))
    batch = input_grad(MODEL, x, 300, SCHED, cot)
    np.testing.assert_allclose(input_grad(MODEL, x, np.full(5, 300), SCHED, cot), batch, rtol=1e-13)
    np.testing.assert_allclose(input_grad(MODEL, x[2], 300, SCHED, cot[2]), batch[2], rtol=1e-13)
