"""Relevance-driven input masking and the additive grid embedding.

The encoder's own output scores how relevant each modality is per cell;
cells with low relevance are masked (zeroed in normalized space) with high
probability, and the masked grid is stacked with a learned
time/node/modality embedding to form the augmented input.  The mask is
computed in one place, ``mask_from_uniforms``, from U(0,1) draws made before
the pass; the keep factor and every caller read that mask.  The mask is a
hard draw, so no gradient reaches the relevance: the forward pass computes
it under ``no_grad``, and the relevance weight is a constant drawn from the
seed, not a parameter.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor import Tensor, broadcast_to, concat, reshape, softmax


@dataclass
class EmbeddingParams:
    time: Tensor  # [T, hidden]
    node: Tensor  # [N, hidden]
    modality: Tensor  # [M, hidden]


def modality_relevance(h: Tensor, relevance_weight: Tensor) -> Tensor:
    """Softmax relevance over the modality axis: [..., T', N, M, C] -> [..., T', N, M].

    ``h`` is the original-view representation.
    """
    w = reshape(relevance_weight, (relevance_weight.shape[0], 1))
    v = h @ w  # [..., T', N, M, 1]
    v = reshape(v, v.shape[:-1])
    return softmax(v, axis=-1)


def input_mask_probability(phi: Tensor, input_steps: int) -> Tensor:
    """Masking probability of the encoder's one output step [..., 1, N, M], broadcast over time.

    A cell with keep relevance phi is masked with probability 1 - phi.
    """
    prob = 1.0 - phi
    target = prob.shape[:-3] + (input_steps,) + prob.shape[-2:]
    return broadcast_to(prob, target)


def mask_from_uniforms(mask_prob: Tensor, uniforms: np.ndarray) -> np.ndarray:
    """The Bernoulli(mask_prob) draw per cell, from pre-drawn U(0,1) ``uniforms``.

    A cell is masked (True) when its uniform falls below its masking
    probability.
    """
    return uniforms < mask_prob.data


def uniforms_for_mask(mask: np.ndarray) -> np.ndarray:
    """The 0/1 uniforms under which ``mask_from_uniforms`` reproduces ``mask``.

    0.0 where it is set and 1.0 elsewhere: a masked cell's probability is
    above 0.0, and none is above 1.0, so this holds at any probability.
    """
    return np.where(mask, 0.0, 1.0)


def keep_factor(mask: np.ndarray) -> Tensor:
    """Multiplicative keep factor 1 - mask for the raw input channel, a constant."""
    return Tensor((~mask).astype(np.float64))


def build_augmented_input(x: Tensor, keep: Tensor, embedding: EmbeddingParams) -> Tensor:
    """Stack the masked values with the grid embedding: [..., T, N, M] -> [..., T, N, M, 1+hidden]."""
    masked = reshape(x * keep, x.shape + (1,))
    t, n, m = x.shape[-3:]
    hidden = embedding.time.shape[-1]
    grid = (
        reshape(embedding.time, (t, 1, 1, hidden))
        + reshape(embedding.node, (1, n, 1, hidden))
        + reshape(embedding.modality, (1, 1, m, hidden))
    )
    grid = broadcast_to(grid, x.shape[:-3] + (t, n, m, hidden))
    return concat([masked, grid], axis=-1)
