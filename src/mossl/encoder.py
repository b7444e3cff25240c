"""Multi-view grid encoder: modality attention, spatial attention, gated
dilated causal convolution, stacked into layers.

Representations are laid out [..., time, node, modality, channel].  Each
layer attends over the modality and node axes of its input, concatenates
the three views on the channel axis, and pushes them through a gated
temporal convolution that shrinks the time axis by (kernel-1)*dilation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from .errors import ConfigError
from .tensor import Tensor, concat, dilated_causal_conv, linear, sigmoid, softmax, tanh

if TYPE_CHECKING:
    from .model import ModelConfig


@dataclass
class ProjectionParams:
    """Non-linear projection relu(x.w + b)."""

    weight: Tensor  # [C_in, C_out]
    bias: Tensor  # [C_out]


@dataclass
class AttentionParams:
    query: ProjectionParams
    key: ProjectionParams
    value: ProjectionParams


@dataclass
class ConvParams:
    filter_kernel: Tensor  # [k, 3*hidden, hidden]
    filter_bias: Tensor  # [hidden]
    gate_kernel: Tensor  # [k, 3*hidden, hidden]
    gate_bias: Tensor  # [hidden]
    mix_weight: Tensor  # [hidden, hidden], the 1x1 output convolution
    mix_bias: Tensor  # [hidden]


@dataclass
class LayerParams:
    modality_attn: AttentionParams
    spatial_attn: AttentionParams
    conv: ConvParams


@dataclass
class EncoderParams:
    input_proj: ProjectionParams
    layers: list[LayerParams] = field(default_factory=list)


def project(x: Tensor, p: ProjectionParams) -> Tensor:
    return linear(x, p.weight, p.bias, relu=True)


def input_project(x: Tensor, p: ProjectionParams) -> Tensor:
    """Lift raw channels to the hidden width: [..., C_in] -> [..., hidden]."""
    if x.shape[-1] != p.weight.shape[0]:
        raise ConfigError(
            f"input has {x.shape[-1]} channels but projection expects {p.weight.shape[0]}"
        )
    return project(x, p)


def axis_attention(h: Tensor, attn: AttentionParams, axis: int, return_weights: bool = False):
    """Scaled dot-product attention over one axis of [..., A, C].

    Every slot on the attended axis queries all slots of the same axis at
    fixed positions of the remaining axes; rows of the score matrix are
    softmax-normalized.
    """
    axis = axis % h.ndim
    moved = h if axis == h.ndim - 2 else h.swapaxes(axis, -2)
    q = project(moved, attn.query)
    k = project(moved, attn.key)
    v = project(moved, attn.value)
    scores = (q @ k.swapaxes(-1, -2)) * (1.0 / math.sqrt(q.shape[-1]))
    weights = softmax(scores, axis=-1)
    out = weights @ v
    if axis != h.ndim - 2:
        out = out.swapaxes(axis, -2)
    if return_weights:
        return out, weights
    return out


def modality_attention(h: Tensor, attn: AttentionParams) -> Tensor:
    """Attend over the modality axis of [..., T, N, M, C]."""
    return axis_attention(h, attn, axis=-2)


def spatial_attention(h: Tensor, attn: AttentionParams) -> Tensor:
    """Attend over the node axis of [..., T, N, M, C]."""
    return axis_attention(h, attn, axis=-3)


def temporal_conv_layer(h_cat: Tensor, conv: ConvParams, dilation: int) -> Tensor:
    """Gated causal convolution along time of [..., T, N, M, 3C] -> [..., T', N, M, C]."""
    moved = h_cat.swapaxes(-4, -2)  # [..., M, N, T, 3C]
    filtered = dilated_causal_conv(moved, conv.filter_kernel, dilation) + conv.filter_bias
    gated = dilated_causal_conv(moved, conv.gate_kernel, dilation) + conv.gate_bias
    mixed = linear(tanh(filtered) * sigmoid(gated), conv.mix_weight, conv.mix_bias)
    return mixed.swapaxes(-4, -2)


def encode(x: Tensor, proj: ProjectionParams, layers: list[LayerParams], cfg: ModelConfig) -> Tensor:
    """Full encoder pass: [..., T, N, M, C_in] -> [..., T_out, N, M, hidden]."""
    h = input_project(x, proj)
    for layer, dilation in zip(layers, cfg.dilations, strict=True):
        ma = modality_attention(h, layer.modality_attn)
        sa = spatial_attention(h, layer.spatial_attn)
        stacked = concat([h, ma, sa], axis=-1)
        out = temporal_conv_layer(stacked, layer.conv, dilation)
        if cfg.residual:
            shrink = h.shape[-4] - out.shape[-4]
            tail = (Ellipsis, slice(shrink, None), slice(None), slice(None), slice(None))
            out = out + h[tail]
        h = out
    return h
