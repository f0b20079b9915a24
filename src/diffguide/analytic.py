"""Exact noise predictors for isotropic Gaussian-mixture priors.

When the clean data is ``N(mean, sigma^2 I)``, the noised marginal at step t
is ``N(sqrt(ab) mean, (ab sigma^2 + 1 - ab) I)`` and the ideal predictor has
the closed form

    eps*(x, t) = sqrt(1 - ab) (x - sqrt(ab) mean) / (ab sigma^2 + 1 - ab)

A mixture of such components keeps that form with ``mean`` replaced by the
posterior-responsibility average of the component means (``MixtureEps``); a
single Gaussian is a one-component mixture (``IsotropicGaussianEps``).
These plug into the same sampler and value-estimation code paths as the
trained MLP, which makes exact oracle comparisons possible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import input_grad, predict_eps
from .schedule import NoiseSchedule, _check_t, _coef
from .training import GmmSpec


@dataclass(frozen=True)
class MixtureEps:
    """Exact noise predictor for the isotropic Gaussian-mixture ``prior``.

    The noised marginal stays a mixture, so the ideal prediction is the
    responsibility-weighted version of the single-component formula:

        eps*(x, t) = sqrt(1 - ab) (x - sqrt(ab) m(x, t)) / (ab sigma^2 + 1 - ab)

    with ``m(x, t)`` the posterior-responsibility average of the component
    means.  Useful as a training-free reference sampler.  Its input Jacobian
    is symmetric, ``(c / v) (I - (ab / v) Cov_w(mu))`` with ``c = sqrt(1 -
    ab)``, ``v = ab sigma^2 + 1 - ab`` and ``Cov_w(mu)`` the responsibility-
    weighted covariance of the component means, so the VJP of a cotangent is
    ``(c / v) (cot - (ab / v) Cov_w(mu) cot)``.
    """

    prior: GmmSpec


def _posterior(prior: GmmSpec, x, t, sched: NoiseSchedule):
    """``(ab, v, resp, m)``: the step's ``alpha_bar``, the component
    variance ``v`` at that step, each point's component responsibilities
    ``(..., k)`` and their average of the means ``(..., 2)``."""
    t = _check_t(t, sched.T)
    ab = np.asarray(_coef(sched.alpha_bar, t))
    var = ab * prior.sigma**2 + 1.0 - ab
    centered = x[..., None, :] - np.sqrt(ab)[..., None] * prior.means
    # a zero weight gives log 0 = -inf, the exact zero responsibility
    with np.errstate(divide="ignore"):
        log_w = np.log(prior.weights)
    logits = -np.sum(centered * centered, axis=-1) / (2.0 * var) + log_w
    logits -= logits.max(axis=-1, keepdims=True)
    resp = np.exp(logits)
    resp /= resp.sum(axis=-1, keepdims=True)
    return ab, var, resp, resp @ prior.means


@predict_eps.register
def _(model: MixtureEps, x, t, sched: NoiseSchedule):
    x = np.asarray(x, dtype=np.float64)
    ab, var, _, post_mean = _posterior(model.prior, x, t, sched)
    return np.sqrt(1.0 - ab) * (x - np.sqrt(ab) * post_mean) / var


@input_grad.register
def _(model: MixtureEps, x, t, sched: NoiseSchedule, cotangent):
    x = np.asarray(x, dtype=np.float64)
    cot = np.asarray(cotangent, dtype=np.float64)
    ab, var, resp, post_mean = _posterior(model.prior, x, t, sched)
    spread = model.prior.means - post_mean[..., None, :]  # (..., k, 2)
    along = np.sum(spread * cot[..., None, :], axis=-1)  # (..., k)
    cov_cot = np.sum((resp * along)[..., None] * spread, axis=-2)
    return np.sqrt(1.0 - ab) / var * (cot - ab / var * cov_cot)


def IsotropicGaussianEps(mean, sigma: float) -> MixtureEps:
    """Exact predictor for the prior ``N(mean, sigma^2 I)``: the mixture
    predictor with one component."""
    return MixtureEps(GmmSpec([1.0], [mean], sigma))
