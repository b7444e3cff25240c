"""Relevance-driven input masking and the additive grid embedding.

The encoder's own output scores how relevant each modality is per cell;
cells with low relevance are masked (zeroed in normalized space) with high
probability, and the masked grid is stacked with a learned
time/node/modality embedding to form the augmented input.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor import Tensor, broadcast_to, clip, concat, reshape, softmax

__all__ = [
    "EmbeddingParams",
    "modality_relevance",
    "mask_probability",
    "input_mask_probability",
    "sample_mask",
    "keep_factor",
    "build_augmented_input",
]


@dataclass
class EmbeddingParams:
    time: Tensor  # [T, hidden]
    node: Tensor  # [N, hidden]
    modality: Tensor  # [M, hidden]


def modality_relevance(h_detached: Tensor, relevance_weight: Tensor) -> Tensor:
    """Softmax relevance over the modality axis: [..., T', N, M, C] -> [..., T', N, M].

    ``h_detached`` must be the stop-gradient of the original-view
    representation; only ``relevance_weight`` stays learnable, and it only
    receives gradient when the straight-through mask path is enabled.
    """
    w = reshape(relevance_weight, (relevance_weight.shape[0], 1))
    v = h_detached @ w  # [..., T', N, M, 1]
    v = reshape(v, v.shape[:-1])
    return softmax(v, axis=-1)


def mask_probability(phi: Tensor, scale: float = 1.0) -> Tensor:
    """Masking probability of a cell with keep relevance phi: 1 - phi, scaled and clamped."""
    return clip((1.0 - phi) * scale, 0.0, 1.0)


def input_mask_probability(phi: Tensor, input_steps: int, scale: float = 1.0) -> Tensor:
    """Masking probability of the encoder's one output step [..., 1, N, M], broadcast over time."""
    prob = mask_probability(phi, scale)
    target = prob.shape[:-3] + (input_steps,) + prob.shape[-2:]
    return broadcast_to(prob, target)


def sample_mask(phi: np.ndarray, rng: np.random.Generator, scale: float = 1.0) -> np.ndarray:
    """Independent Bernoulli(mask_probability) draw per cell; True means masked."""
    return rng.random(phi.shape) < mask_probability(Tensor(phi), scale).data


def keep_factor(
    mask_prob: Tensor,
    uniforms: np.ndarray,
    straight_through: bool = False,
) -> Tensor:
    """Multiplicative keep factor for the raw input channel.

    ``uniforms`` are pre-drawn U(0,1) values on the input grid; a cell is
    masked when its uniform falls below the masking probability.  The hard
    draw is a constant by default; the straight-through variant routes the
    gradient of the keep probability through it.
    """
    hard = (uniforms >= mask_prob.data).astype(np.float64)
    if not straight_through:
        return Tensor(hard)
    soft = 1.0 - mask_prob
    return soft + Tensor(hard - soft.data)


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
