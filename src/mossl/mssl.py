"""Modality self-supervision: fused representations are scored against
per-modality contexts with a bilinear map, and a binary cross-entropy
objective separates same-modality (positive) from cross-modality (negative)
pairs.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ShapeError
from .tensor import Tensor, log_sigmoid, reshape, sigmoid


@dataclass
class FusionParams:
    original_gate: Tensor  # [hidden]
    augmented_gate: Tensor  # [hidden]
    pair_matrix: Tensor  # [hidden, hidden], shared by positive and negative pairs


def fuse(h: Tensor, h_aug: Tensor, fusion: FusionParams) -> Tensor:
    """Channel-gated sum of the two views."""
    if h.shape != h_aug.shape:
        raise ShapeError(f"views differ in shape: {h.shape} vs {h_aug.shape}")
    return h * fusion.original_gate + h_aug * fusion.augmented_gate


def modality_context(fused: Tensor) -> Tensor:
    """Per-modality context: mean over time and nodes, squashed to (0, 1).

    [B, T', N, M, C] -> [B, M, C].
    """
    return sigmoid(fused.mean(axis=(-4, -3)))


def mssl_loss(fused: Tensor, context: Tensor, pair_matrix: Tensor) -> Tensor:
    """Contrastive BCE over modality pairs, grid-summed and batch-averaged.

    Every grid cell anchors one positive (its own modality context) and one
    negative per other modality: the other modality's representation scored
    against the anchor's context.  Log terms use the stable log-sigmoid.
    """
    batch, modalities = fused.shape[0], fused.shape[-2]
    if modalities == 1:
        warnings.warn("single modality: contrastive loss has no negative pairs")
    projected = fused @ pair_matrix  # [B, T', N, M, C]
    ctx = context.swapaxes(-1, -2)  # [B, C, M]
    ctx = reshape(ctx, (batch, 1, 1) + ctx.shape[1:])
    # scores[..., r, a]: representation of modality r against context of anchor a
    scores = projected @ ctx  # [B, T', N, M, M]
    eye = np.eye(modalities)
    positives = (log_sigmoid(scores) * eye).sum(axis=tuple(range(1, scores.ndim)))
    total = -positives
    if modalities > 1:
        negatives = (log_sigmoid(-scores) * (1.0 - eye)).sum(axis=tuple(range(1, scores.ndim)))
        total = total - negatives
    return total.mean()
