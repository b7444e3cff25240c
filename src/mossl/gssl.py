"""Global self-supervision: a per-window diagonal Gaussian mixture is read
off the augmented representation and scores the original representation by
negative log-likelihood.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError
from .tensor import Tensor, clip, exp, log, logsumexp, reshape, softmax

LOG_TWO_PI = math.log(2.0 * math.pi)
VARIANCE_MIN = 1e-6
VARIANCE_MAX = 1e6


@dataclass
class MixtureHeads:
    """Linear heads mapping a flattened window representation to mixture parameters."""

    membership_weight: Tensor  # [K, T'*N*M*hidden]
    mean_weight: Tensor  # [K, hidden, T'*N*M]
    mean_bias: Tensor  # [K, hidden]
    logvar_weight: Tensor  # [K, hidden, T'*N*M]
    logvar_bias: Tensor  # [K, hidden]


@dataclass
class MixtureState:
    """Per-window mixture quantities produced by one forward pass."""

    gamma: Tensor  # [B, K]
    mu: Tensor  # [B, K, hidden]
    sigma2: Tensor  # [B, K, hidden]


def memberships(h_aug: Tensor, heads: MixtureHeads) -> Tensor:
    """Softmax component memberships per window: [B, T', N, M, C] -> [B, K]."""
    flat_dim = int(np.prod(h_aug.shape[1:]))
    flat = reshape(h_aug, (h_aug.shape[0], flat_dim))
    scores = flat @ heads.membership_weight.swapaxes(0, 1)
    return softmax(scores, axis=-1)


def component_params(h_aug: Tensor, heads: MixtureHeads) -> tuple[Tensor, Tensor]:
    """Mixture means and variances from per-channel grid flattenings.

    mu[k, d] and log-variance[k, d] are linear in the flattened channel-d
    slice of the window representation; the exponential keeps every
    variance strictly positive, then it is clamped to a safe range.
    """
    batch = h_aug.shape[0]
    hidden = h_aug.shape[-1]
    grid = int(np.prod(h_aug.shape[1:-1]))
    cells = reshape(h_aug, (batch, grid, hidden)).transpose((0, 2, 1))  # [B, C, G]
    cells = reshape(cells, (batch, 1, hidden, grid))
    mean_w = reshape(heads.mean_weight, (1,) + heads.mean_weight.shape)
    logvar_w = reshape(heads.logvar_weight, (1,) + heads.logvar_weight.shape)
    mu = (cells * mean_w).sum(axis=-1) + heads.mean_bias  # [B, K, C]
    logvar = (cells * logvar_w).sum(axis=-1) + heads.logvar_bias
    sigma2 = clip(exp(logvar), VARIANCE_MIN, VARIANCE_MAX)
    return mu, sigma2


def mixture_state(h_aug: Tensor, heads: MixtureHeads) -> MixtureState:
    mu, sigma2 = component_params(h_aug, heads)
    return MixtureState(gamma=memberships(h_aug, heads), mu=mu, sigma2=sigma2)


def gssl_loss(h: Tensor, state: MixtureState) -> Tensor:
    """Negative log-likelihood of every original-view cell under the mixture.

    Summed over the window grid, averaged over the batch; the inner mixture
    sum runs in log space via log-sum-exp.
    """
    batch = h.shape[0]
    hidden = h.shape[-1]
    grid = int(np.prod(h.shape[1:-1]))
    cells = reshape(h, (batch, grid, 1, hidden))
    mu = reshape(state.mu, (batch, 1) + state.mu.shape[1:])
    sigma2 = reshape(state.sigma2, (batch, 1) + state.sigma2.shape[1:])
    diff = cells - mu  # [B, G, K, C]
    log_density = (-0.5 * (LOG_TWO_PI + log(sigma2)) - diff * diff / (2.0 * sigma2)).sum(axis=-1)
    # gamma is in (0, 1]; the upper clip bound never binds and the lower one
    # only guards against underflow of extreme softmax scores
    log_gamma = log(clip(state.gamma, 1e-300, 2.0))
    weighted = reshape(log_gamma, (batch, 1) + log_gamma.shape[1:]) + log_density
    per_window = -logsumexp(weighted, axis=-1).sum(axis=-1)  # [B]
    finite = np.isfinite(per_window.data)
    if not finite.all():
        bad = int(np.nonzero(~finite)[0][0])
        where = f" for window {bad} of the batch" if batch > 1 else ""
        raise NumericalError(f"mixture NLL is non-finite{where}")
    return per_window.mean()
