"""Multi-view grid encoder: modality attention, spatial attention, gated
dilated causal convolution, stacked into layers.

Representations are laid out [..., time, node, modality, channel].  Each
layer attends over the modality and node axes of its input and pushes its
input and the two attention outputs, read side by side on the channel
axis, through a gated temporal convolution along time.  Each layer computes
only the time steps that reach the encoder's output.  ``encode_stream``
runs the same layers over consecutive windows, computing each time step
once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .errors import ConfigError
from .tensor import Tensor, attention, concat, dilated_causal_conv, gated_tanh, linear

if TYPE_CHECKING:
    from .model import ModelConfig


@dataclass
class ProjectionParams:
    """Weight and bias of a projection x.w + b."""

    weight: Tensor  # [C_in, C_out]
    bias: Tensor  # [C_out]


@dataclass
class ConvParams:
    kernel: Tensor  # [k, 3*hidden, 2*hidden], filter|gate on the output axis
    bias: Tensor  # [2*hidden]
    mix: ProjectionParams  # [hidden, hidden], the 1x1 output convolution


@dataclass
class LayerParams:
    modality_attn: ProjectionParams  # [hidden, 3*hidden], q|k|v on the output axis
    spatial_attn: ProjectionParams
    conv: ConvParams


@dataclass
class EncoderParams:
    input_proj: ProjectionParams
    layers: list[LayerParams] = field(default_factory=list)


def input_project(x: Tensor, p: ProjectionParams) -> Tensor:
    """Lift raw channels to the hidden width: [..., C_in] -> [..., hidden]."""
    if x.shape[-1] != p.weight.shape[0]:
        raise ConfigError(
            f"input has {x.shape[-1]} channels but projection expects {p.weight.shape[0]}"
        )
    return linear(x, p.weight, p.bias, relu=True)


def axis_attention(h: Tensor, attn: ProjectionParams, axis: int) -> Tensor:
    """Scaled dot-product attention over one axis of [..., A, ..., C].

    Every slot on the attended axis queries all slots of the same axis at
    fixed positions of the remaining axes; rows of the score matrix are
    softmax-normalized.  The query, key and value projections act on the
    channel axis, so ``attn`` holds them packed as q|k|v and they run as one
    GEMM on ``h`` in its own layout, inside the one ``attention`` node.
    """
    return attention(h, attn.weight, attn.bias, axis)


def modality_attention(h: Tensor, attn: ProjectionParams) -> Tensor:
    """Attend over the modality axis of [..., T, N, M, C]."""
    return axis_attention(h, attn, axis=-2)


def spatial_attention(h: Tensor, attn: ProjectionParams) -> Tensor:
    """Attend over the node axis of [..., T, N, M, C]."""
    return axis_attention(h, attn, axis=-3)


def temporal_conv_layer(views: Tensor | list[Tensor], conv: ConvParams, taps) -> Tensor:
    """Gated causal convolution along time of [..., T, N, M, 3C] -> [..., T', N, M, C].

    ``views`` is that input, or the list of tensors it concatenates on the
    channel axis.  ``taps`` picks the output steps from the input steps; see
    ``dilated_causal_conv``.  Filter and gate run as one convolution, as
    ``conv.kernel`` holds their kernels side by side; the gated product and
    the 1x1 mix run as one ``gated_tanh`` node.
    """
    pre = dilated_causal_conv(views, conv.kernel, taps, axis=-4, bias=conv.bias)
    return gated_tanh(pre, conv.mix.weight, conv.mix.bias)


def _conv_input(h: Tensor, layer: LayerParams) -> list[Tensor]:
    """A layer's three views, the conv input's channel blocks: [h, ma, sa]."""
    ma = modality_attention(h, layer.modality_attn)
    sa = spatial_attention(h, layer.spatial_attn)
    return [h, ma, sa]


def encode(x: Tensor, proj: ProjectionParams, layers: list[LayerParams], cfg: ModelConfig) -> Tensor:
    """Full encoder pass: [..., receptive_field, N, M, C_in] -> [..., 1, N, M, hidden].

    Every layer computes only the time steps that reach the output
    (``ModelConfig.time_plan``): input steps the output does not read are
    never projected, and attention and convolution run on the kept steps alone.
    """
    cfg.check_input_steps(x.shape[-4], "encoder window steps")
    plan = cfg.time_plan()
    if len(plan.steps[0]) < x.shape[-4]:
        x = x[..., plan.steps[0], :, :, :]
    h = input_project(x, proj)
    for layer, taps in zip(layers, plan.taps, strict=True):
        h = temporal_conv_layer(_conv_input(h, layer), layer.conv, taps)
    return h


@dataclass
class EncoderStream:
    """Carried state of ``encode_stream`` over the windows of one series.

    ``last`` is the last window encoded.  ``queues[l]`` holds, as plain data,
    layer l's conv input ``concat([h, ma, sa])`` at its last (k-1)*d_l steps,
    or None before the layer has seen any.
    A stream belongs to one set of parameter values: make a new one when they
    change.
    """

    last: np.ndarray | None = None
    queues: list[np.ndarray | None] = field(default_factory=list)


def consecutive(windows: np.ndarray) -> bool:
    """True when each of ``windows`` [B, T, ...] is the previous one moved on by one step."""
    return np.array_equal(windows[1:, :-1], windows[:-1, 1:])


def encode_stream(
    windows: np.ndarray,
    proj: ProjectionParams,
    layers: list[LayerParams],
    cfg: ModelConfig,
    stream: EncoderStream,
) -> Tensor:
    """``encode`` of consecutive windows [B, T, N, M, C_in] -> [B, 1, N, M, hidden].

    Nothing in the encoder depends on a step's position in its window, so
    for inputs without position terms, such as the original view's values, a
    step's activations are the same in every window that holds it.  A batch
    whose first window continues ``stream`` encodes only its windows' last
    steps, one new step per window; any other batch restarts the stream with
    its first window's T steps.  Each pass encodes at most T new steps.
    """
    steps = windows.shape[1]
    cfg.check_input_steps(steps, "streamed window steps")
    if stream.last is not None and consecutive(np.stack([stream.last, windows[0]])):
        series = windows[:, -1]
    else:
        stream.queues = [None] * len(layers)
        series = np.concatenate([windows[0], windows[1:, -1]])
    stream.last = None  # a pass that raises leaves the stream to restart
    passes = [
        _stream_pass(series[s : s + steps], proj, layers, cfg, stream.queues)
        for s in range(0, len(series), steps)
    ]
    stream.last = windows[-1].copy()
    h = concat(passes, axis=-4)
    return h.reshape(len(windows), 1, *h.shape[1:])


def _stream_pass(x: np.ndarray, proj: ProjectionParams, layers: list[LayerParams], cfg: ModelConfig, queues):
    """The next steps [S, N, M, C_in] of a stream through every layer, updating ``queues``.

    A layer without a queue (a restart) computes every step its taps reach,
    as a valid dilated convolution does; a layer with one prepends it and
    computes the S new steps.
    """
    h = input_project(Tensor(x), proj)
    for i, (layer, dilation) in enumerate(zip(layers, cfg.dilations, strict=True)):
        stacked = concat(_conv_input(h, layer), axis=-1)
        if queues[i] is not None:
            stacked = concat([Tensor(queues[i]), stacked], axis=-4)
        kept = stacked.shape[-4] - (cfg.kernel_size - 1) * dilation
        taps = [np.arange(j * dilation, j * dilation + kept) for j in range(cfg.kernel_size)]
        queues[i] = stacked.data[kept:].copy()
        h = temporal_conv_layer(stacked, layer.conv, taps)
    return h
