"""End-to-end assembly: parameter initialization, the two-view forward pass,
the forecasting head, and the joint objective with ablation switches.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field, fields

import numpy as np

from . import augmentation as aug
from . import encoder as enc
from . import gssl as gssl_mod
from . import mssl as mssl_mod
from .errors import ConfigError, NumericalError, require_at_least_one, require_non_negative
from .parallel import run_shards
from .rng import derive_rng
from .tensor import Tensor, backward, linear, no_grad, parameter, relu, reshape, with_gradients


@dataclass(frozen=True)
class TimePlan:
    """Time steps of an encoder pass, from ``ModelConfig.time_plan``.

    ``steps[l]`` holds the window steps kept at the input of layer l
    (``steps[0]`` feeds the input projection, ``steps[-1]`` holds the one
    output step).  ``taps[l][j]`` indexes, within ``steps[l]``, the step
    kernel tap j of layer l reads for each of the layer's output steps
    ``steps[l + 1]``.
    """

    steps: tuple[np.ndarray, ...]
    taps: tuple[tuple[np.ndarray, ...], ...]


@dataclass
class ModelConfig:
    hidden: int = 48
    layers: int = 4
    kernel_size: int = 2
    dilations: tuple[int, ...] = (1, 2, 4, 8)
    mixture_components: int = 4

    def __post_init__(self):
        require_at_least_one(self, "hidden", "layers", "kernel_size", "mixture_components")
        if len(self.dilations) != self.layers:
            raise ConfigError(
                f"dilation schedule {self.dilations} does not cover {self.layers} layers"
            )
        if min(self.dilations) < 1:
            raise ConfigError(f"dilations must be positive, got {self.dilations}")

    @property
    def receptive_field(self) -> int:
        """Input steps the dilated convolutions collapse to the one step the predictor reads."""
        return 1 + (self.kernel_size - 1) * sum(self.dilations)

    def time_plan(self) -> TimePlan:
        """The time steps each layer computes for a window of ``receptive_field`` steps.

        Works back from the one output step ``receptive_field - 1``: tap j of a
        layer with dilation d reads, for output step s, step ``s - (k-1-j)*d``
        of the layer's input, and a layer's input keeps the union of what its
        taps read.  Steps the output does not reach are never computed.
        """
        k = self.kernel_size
        steps = [np.array([self.receptive_field - 1])]
        taps = []
        for d in reversed(self.dilations):
            reads = [steps[0] - (k - 1 - j) * d for j in range(k)]
            kept = np.unique(np.concatenate(reads))
            taps.insert(0, tuple(np.searchsorted(kept, r) for r in reads))
            steps.insert(0, kept)
        return TimePlan(steps=tuple(steps), taps=tuple(taps))

    def check_input_steps(self, input_steps: int, key: str) -> None:
        """Reject an input window, named ``key``, that does not collapse to exactly one step."""
        if input_steps != self.receptive_field:
            raise ConfigError(
                f"{key} must be {self.receptive_field}, the receptive field of kernel size "
                f"{self.kernel_size} with dilations {self.dilations}; got {input_steps}"
            )


@dataclass
class AblationFlags:
    """Switches mirroring the framework variants; everything on by default."""

    no_av: bool = False  # drop the augmented view entirely
    no_mg: bool = False  # drop masking/embedding/mixture; unshared second encoder
    no_gssl: bool = False
    no_mssl: bool = False

    @property
    def gssl_enabled(self) -> bool:
        return not (self.no_gssl or self.no_av or self.no_mg)

    @property
    def mssl_enabled(self) -> bool:
        return not self.no_mssl

    @property
    def masked_view(self) -> bool:
        """True when the masked+embedded augmented view is computed."""
        return not (self.no_av or self.no_mg) and (self.gssl_enabled or self.mssl_enabled)

    @property
    def unshared_view(self) -> bool:
        """True when a second, unshared encoder produces the companion view."""
        return self.no_mg and not self.no_av and self.mssl_enabled


@dataclass
class ModelDims:
    input_steps: int
    output_steps: int
    nodes: int
    modalities: int


@dataclass
class LossWeights:
    forecast: float = 1.0
    mixture: float = 1.0
    contrast: float = 1.0

    def __post_init__(self):
        require_non_negative(self, *(f.name for f in fields(self)))

    def __getitem__(self, key: str) -> float:
        return getattr(self, key)


@dataclass
class PredictorParams:
    hidden: enc.ProjectionParams  # [hidden, hidden]
    out: enc.ProjectionParams  # [hidden, O]


@dataclass
class ModelParams:
    """``named`` holds every learnable tensor by unique name; ``relevance_weight`` is a constant."""

    encoder: enc.EncoderParams
    predictor: PredictorParams
    aug_input_proj: enc.ProjectionParams | None = None
    embedding: aug.EmbeddingParams | None = None
    relevance_weight: Tensor | None = None
    mixture: gssl_mod.MixtureHeads | None = None
    fusion: mssl_mod.FusionParams | None = None
    aux_encoder: enc.EncoderParams | None = None
    named: dict[str, Tensor] = field(default_factory=dict)


class _Builder:
    """Creates parameters with per-name derived randomness.

    Seeding by name keeps initial values identical across ablation variants
    that share a subset of the parameters.
    """

    def __init__(self, seed: int):
        self.seed = seed
        self.named: dict[str, Tensor] = {}

    def _register(self, name: str, t: Tensor) -> Tensor:
        if name in self.named:
            raise ConfigError(f"duplicate parameter name {name}")
        self.named[name] = t
        return t

    def draw(self, name: str, shape: tuple[int, ...], fan_in: int) -> np.ndarray:
        rng = derive_rng(self.seed, "init", name)
        bound = (1.0 / fan_in) ** 0.5
        return rng.uniform(-bound, bound, size=shape)

    def uniform(self, name: str, shape: tuple[int, ...], fan_in: int) -> Tensor:
        return self._register(name, parameter(self.draw(name, shape, fan_in)))

    def zeros(self, name: str, shape: tuple[int, ...]) -> Tensor:
        return self._register(name, parameter(np.zeros(shape)))

    def projection(self, name: str, c_in: int, c_out: int) -> enc.ProjectionParams:
        return enc.ProjectionParams(
            weight=self.uniform(f"{name}.weight", (c_in, c_out), c_in),
            bias=self.zeros(f"{name}.bias", (c_out,)),
        )

    def packed(self, name: str, parts: list[str], shape: tuple[int, ...], fan_in: int) -> Tensor:
        """One parameter holding ``parts`` side by side on the last axis, each ``shape``.

        Each part draws from the stream of the separate tensor it was before
        the weights were packed, so initial values keep their bits.
        """
        data = np.concatenate([self.draw(part, shape, fan_in) for part in parts], axis=-1)
        return self._register(name, parameter(data))

    def attention(self, name: str, hidden: int) -> enc.ProjectionParams:
        parts = [f"{name}.{role}.weight" for role in ("query", "key", "value")]
        return enc.ProjectionParams(
            weight=self.packed(f"{name}.weight", parts, (hidden, hidden), hidden),
            bias=self.zeros(f"{name}.bias", (3 * hidden,)),
        )

    def conv(self, name: str, kernel_size: int, hidden: int) -> enc.ConvParams:
        shape = (kernel_size, 3 * hidden, hidden)
        parts = [f"{name}.filter", f"{name}.gate"]
        return enc.ConvParams(
            kernel=self.packed(f"{name}.kernel", parts, shape, kernel_size * 3 * hidden),
            bias=self.zeros(f"{name}.bias", (2 * hidden,)),
            mix=self.projection(f"{name}.mix", hidden, hidden),
        )

    def encoder(self, prefix: str, cfg: ModelConfig, c_in: int) -> enc.EncoderParams:
        layers = [
            enc.LayerParams(
                modality_attn=self.attention(f"{prefix}.layers.{i}.modality_attn", cfg.hidden),
                spatial_attn=self.attention(f"{prefix}.layers.{i}.spatial_attn", cfg.hidden),
                conv=self.conv(f"{prefix}.layers.{i}.conv", cfg.kernel_size, cfg.hidden),
            )
            for i in range(cfg.layers)
        ]
        return enc.EncoderParams(
            input_proj=self.projection(f"{prefix}.input_proj", c_in, cfg.hidden),
            layers=layers,
        )


def init_params(
    model_cfg: ModelConfig,
    dims: ModelDims,
    flags: AblationFlags,
    seed: int,
) -> ModelParams:
    model_cfg.check_input_steps(dims.input_steps, "input_steps")
    hidden = model_cfg.hidden
    b = _Builder(seed)

    encoder = b.encoder("encoder", model_cfg, c_in=1)
    predictor = PredictorParams(
        hidden=b.projection("predictor.hidden", hidden, hidden),
        out=b.projection("predictor.out", hidden, dims.output_steps),
    )
    params = ModelParams(encoder=encoder, predictor=predictor)

    if flags.masked_view:
        params.aug_input_proj = b.projection("encoder.aug_input_proj", 1 + hidden, hidden)
        params.embedding = aug.EmbeddingParams(
            time=b.uniform("embedding.time", (dims.input_steps, hidden), hidden),
            node=b.uniform("embedding.node", (dims.nodes, hidden), hidden),
            modality=b.uniform("embedding.modality", (dims.modalities, hidden), hidden),
        )
        params.relevance_weight = Tensor(b.draw("relevance.weight", (hidden,), hidden))
    if flags.unshared_view:
        params.aux_encoder = b.encoder("aux_encoder", model_cfg, c_in=1)
    if flags.gssl_enabled:
        k = model_cfg.mixture_components
        grid = dims.nodes * dims.modalities
        flat = grid * hidden
        params.mixture = gssl_mod.MixtureHeads(
            membership_weight=b.uniform("mixture.membership.weight", (k, flat), flat),
            mean_weight=b.uniform("mixture.mean.weight", (k, hidden, grid), grid),
            mean_bias=b.zeros("mixture.mean.bias", (k, hidden)),
            logvar_weight=b.uniform("mixture.logvar.weight", (k, hidden, grid), grid),
            logvar_bias=b.zeros("mixture.logvar.bias", (k, hidden)),
        )
    if flags.mssl_enabled:
        params.fusion = mssl_mod.FusionParams(
            original_gate=b.uniform("fusion.original_gate", (hidden,), hidden),
            augmented_gate=b.uniform("fusion.augmented_gate", (hidden,), hidden),
            pair_matrix=b.uniform("fusion.pair_matrix", (hidden, hidden), hidden),
        )
    params.named = b.named
    return params


def predict(h: Tensor, predictor: PredictorParams) -> Tensor:
    """Two fully connected layers mapping the encoder's one output step to O horizons.

    [B, 1, N, M, hidden] -> [B, O, N, M].
    """
    squeezed = reshape(h, h.shape[:-4] + h.shape[-3:])
    hidden_act = linear(relu(squeezed), predictor.hidden.weight, predictor.hidden.bias, relu=True)
    out = linear(hidden_act, predictor.out.weight, predictor.out.bias)  # [B, N, M, O]
    return out.transpose((0, 3, 1, 2))


@dataclass
class ForwardResult:
    predictions: Tensor  # [B, O, N, M]
    h: Tensor
    total: Tensor | None = None
    parts: dict[str, Tensor] = field(default_factory=dict)
    h_second: Tensor | None = None
    mixture: gssl_mod.MixtureState | None = None
    mask: np.ndarray | None = None


# Per-window layer-0 activation (T*N*M*hidden float64s) from which a batch
# runs one shard per window in parallel.  Measured train-step crossover
# (hidden 48, T=16, M=4, B=8, two cores; sharded / batched windows per
# second): 0.82x at 0.29 MB (N=12), 1.06x at 0.59 MB (N=24), 1.43x at
# 1.18 MB (N=48), 1.71x at 2.41 MB (N=98, the paper shape).
SHARD_BYTES = 1 << 20


def forward_pass(
    params: ModelParams,
    model_cfg: ModelConfig,
    flags: AblationFlags,
    weights: LossWeights,
    x: np.ndarray,
    y: np.ndarray | None = None,
    mask_uniforms: np.ndarray | None = None,
    training: bool = True,
    stream: enc.EncoderStream | None = None,
) -> ForwardResult:
    """One pass over a batch: original view, optional companion view, all losses.

    ``x`` is [B, T, N, M]; ``y`` is [B, O, N, M] or None for pure inference.
    ``mask_uniforms`` supplies the U(0,1) draws a masked training pass needs;
    ``augmentation.uniforms_for_mask`` turns a drawn mask into draws that pin it.
    At evaluation time only the original view runs.

    A batch of windows whose layer-0 activation reaches ``SHARD_BYTES`` runs
    one shard per window in parallel (``_forward_sharded``), and each shard
    also runs its window's backward; only its ``total`` carries gradients,
    its other tensors are data only.  Smaller windows run as one batch.

    With a ``stream``, an evaluation batch (``training=False``) whose windows
    are consecutive, each one step on from the last, runs the original view
    through ``encoder.encode_stream`` instead, encoding each time step once
    across the batches that share the stream.  Any other batch ignores it.
    """
    x = np.asarray(x, dtype=np.float64)
    args = (params, model_cfg, flags, weights, x, y, mask_uniforms, training)
    if stream is not None and not training and enc.consecutive(x):
        return _forward_batch(*args, stream=stream)
    if len(x) > 1 and x[0].nbytes * model_cfg.hidden >= SHARD_BYTES:
        return _forward_sharded(*args)
    return _forward_batch(*args)


def _forward_batch(
    params: ModelParams,
    model_cfg: ModelConfig,
    flags: AblationFlags,
    weights: LossWeights,
    x: np.ndarray,
    y: np.ndarray | None,
    mask_uniforms: np.ndarray | None,
    training: bool,
    stream: enc.EncoderStream | None = None,
) -> ForwardResult:
    """``forward_pass`` as one batch: every op spans all windows."""
    x_t = Tensor(x)
    x_in = reshape(x_t, x_t.shape + (1,))
    if stream is None:
        h = enc.encode(x_in, params.encoder.input_proj, params.encoder.layers, model_cfg)
    else:
        h = enc.encode_stream(
            x_in.data, params.encoder.input_proj, params.encoder.layers, model_cfg, stream
        )
    result = ForwardResult(predictions=predict(h, params.predictor), h=h)

    parts: dict[str, Tensor] = {}
    if y is not None:
        diff = result.predictions - Tensor(np.asarray(y, dtype=np.float64))
        parts["forecast"] = (diff * diff).sum(axis=(1, 2, 3)).mean()

    if training:
        h_second = None
        if flags.masked_view:
            with no_grad():  # the mask is a hard draw: its relevance and probability record no tape
                phi = aug.modality_relevance(h, params.relevance_weight)
                prob = aug.input_mask_probability(phi, x_t.shape[-3])
            if mask_uniforms is None:
                raise ConfigError("training with masking needs mask_uniforms")
            result.mask = aug.mask_from_uniforms(prob, mask_uniforms)
            keep = aug.keep_factor(result.mask)
            x_aug = aug.build_augmented_input(x_t, keep, params.embedding)
            h_second = enc.encode(x_aug, params.aug_input_proj, params.encoder.layers, model_cfg)
        elif flags.unshared_view:
            h_second = enc.encode(
                x_in, params.aux_encoder.input_proj, params.aux_encoder.layers, model_cfg
            )
        result.h_second = h_second

        if flags.gssl_enabled:
            result.mixture = gssl_mod.mixture_state(h_second, params.mixture)
            parts["mixture"] = gssl_mod.gssl_loss(h, result.mixture)
        if flags.mssl_enabled:
            companion = h_second if h_second is not None else h
            fused = mssl_mod.fuse(h, companion, params.fusion)
            context = mssl_mod.modality_context(fused)
            parts["contrast"] = mssl_mod.mssl_loss(fused, context, params.fusion.pair_matrix)

    for name, part in parts.items():
        if not np.isfinite(part.data):
            raise NumericalError(f"{name} loss is non-finite")
    result.parts = parts
    result.total = _weighted_total(parts, weights)
    return result


def _weighted_total(parts: dict, weights: LossWeights):
    """Σ ``weights[name]`` · part, or None: of tensors in a batch, of float64s across shards."""
    total = None
    for name, part in parts.items():
        term = part * weights[name]
        total = term if total is None else total + term
    return total


def _forward_sharded(
    params: ModelParams,
    model_cfg: ModelConfig,
    flags: AblationFlags,
    weights: LossWeights,
    x: np.ndarray,
    y: np.ndarray | None,
    mask_uniforms: np.ndarray | None,
    training: bool,
) -> ForwardResult:
    """``forward_pass`` as one ``_forward_batch`` shard per window, run on the pool.

    Each shard runs on its own parameter leaves over the same arrays, so
    shards share no gradient buffer.  When the tape records, a shard
    differentiates its own total, seeded with 1 / B as the batched mean
    passes it on, and returns its leaf gradients; its graph is gone when the
    shard ends, so at most one window graph per core is alive.  ``total`` is
    one ``with_gradients`` node over the master parameters carrying those
    gradients summed in window order, with the value the batched path
    computes from the same per-window terms.  ``parts`` and the other fields
    join the shards' data and carry no graph.  Shards are always single
    windows, so the numbers do not depend on how many cores run them.
    """
    count = len(x)
    arrays = (x, y, mask_uniforms)

    def shard(b: int) -> tuple[ForwardResult, dict[str, np.ndarray]]:
        rows = [None if a is None else np.asarray(a)[b : b + 1] for a in arrays]
        bound = _bind(params)
        try:
            res = _forward_batch(bound, model_cfg, flags, weights, *rows, training)
        except NumericalError as exc:
            raise type(exc)(f"window {b} of the batch: {exc}") from exc
        if res.total is not None:
            backward(res.total, seed=1.0 / count)  # does nothing under no_grad
        return res, {name: p.grad for name, p in bound.named.items() if p.grad is not None}

    shards, grads = zip(*run_shards(shard, count))

    def joined(tensors: list[Tensor | None]) -> Tensor | None:
        return None if tensors[0] is None else Tensor(np.concatenate([t.data for t in tensors]))

    first = shards[0]
    result = ForwardResult(
        predictions=joined([s.predictions for s in shards]),
        h=joined([s.h for s in shards]),
        h_second=joined([s.h_second for s in shards]),
    )
    if first.mask is not None:
        result.mask = np.concatenate([s.mask for s in shards])
    if first.mixture is not None:
        result.mixture = gssl_mod.MixtureState(
            *(joined([getattr(s.mixture, f) for s in shards]) for f in ("gamma", "mu", "sigma2"))
        )
    values = {name: np.mean(np.stack([s.parts[name].data for s in shards])) for name in first.parts}
    result.parts = {name: Tensor(value) for name, value in values.items()}
    total = _weighted_total(values, weights)
    summed = grads[0]
    for more in grads[1:]:
        for name, g in more.items():
            summed[name] += g
    if total is not None:
        result.total = with_gradients(total, summed, params.named)
    return result


def _bind(params: ModelParams) -> ModelParams:
    """``params`` with each tensor of ``named`` replaced by a fresh leaf over the same array."""
    fresh = {id(t): Tensor(t.data, requires_grad=t.requires_grad) for t in params.named.values()}
    return copy.deepcopy(params, fresh)
