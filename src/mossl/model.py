"""End-to-end assembly: parameter initialization, the two-view forward pass,
the forecasting head, and the joint objective with ablation switches.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import augmentation as aug
from . import encoder as enc
from . import gssl as gssl_mod
from . import mssl as mssl_mod
from .errors import ConfigError, NumericalError, require_at_least_one
from .rng import derive_rng
from .tensor import Tensor, linear, parameter, relu, reshape, stop_gradient


@dataclass
class ModelConfig:
    hidden: int = 48
    layers: int = 4
    kernel_size: int = 2
    dilations: tuple[int, ...] = (1, 2, 4, 8)
    mixture_components: int = 4
    residual: bool = False
    straight_through_mask: bool = False
    mask_scale: float = 1.0
    average_negatives: bool = False

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

    def __getitem__(self, key: str) -> float:
        return getattr(self, key)


@dataclass
class PredictorParams:
    hidden_weight: Tensor  # [hidden, hidden]
    hidden_bias: Tensor  # [hidden]
    out_weight: Tensor  # [hidden, O]
    out_bias: Tensor  # [O]


@dataclass
class ModelParams:
    """Every learnable tensor, addressable by unique name for serialization."""

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

    def uniform(self, name: str, shape: tuple[int, ...], fan_in: int) -> Tensor:
        rng = derive_rng(self.seed, "init", name)
        bound = (1.0 / fan_in) ** 0.5
        return self._register(name, parameter(rng.uniform(-bound, bound, size=shape)))

    def zeros(self, name: str, shape: tuple[int, ...]) -> Tensor:
        return self._register(name, parameter(np.zeros(shape)))

    def projection(self, name: str, c_in: int, c_out: int) -> enc.ProjectionParams:
        return enc.ProjectionParams(
            weight=self.uniform(f"{name}.weight", (c_in, c_out), c_in),
            bias=self.zeros(f"{name}.bias", (c_out,)),
        )

    def attention(self, name: str, hidden: int) -> enc.AttentionParams:
        return enc.AttentionParams(
            query=self.projection(f"{name}.query", hidden, hidden),
            key=self.projection(f"{name}.key", hidden, hidden),
            value=self.projection(f"{name}.value", hidden, hidden),
        )

    def conv(self, name: str, kernel_size: int, hidden: int) -> enc.ConvParams:
        fan = kernel_size * 3 * hidden
        return enc.ConvParams(
            filter_kernel=self.uniform(f"{name}.filter", (kernel_size, 3 * hidden, hidden), fan),
            filter_bias=self.zeros(f"{name}.filter_bias", (hidden,)),
            gate_kernel=self.uniform(f"{name}.gate", (kernel_size, 3 * hidden, hidden), fan),
            gate_bias=self.zeros(f"{name}.gate_bias", (hidden,)),
            mix_weight=self.uniform(f"{name}.mix.weight", (hidden, hidden), hidden),
            mix_bias=self.zeros(f"{name}.mix.bias", (hidden,)),
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
        hidden_weight=b.uniform("predictor.hidden.weight", (hidden, hidden), hidden),
        hidden_bias=b.zeros("predictor.hidden.bias", (hidden,)),
        out_weight=b.uniform("predictor.out.weight", (hidden, dims.output_steps), hidden),
        out_bias=b.zeros("predictor.out.bias", (dims.output_steps,)),
    )
    params = ModelParams(encoder=encoder, predictor=predictor)

    if flags.masked_view:
        params.aug_input_proj = b.projection("encoder.aug_input_proj", 1 + hidden, hidden)
        params.embedding = aug.EmbeddingParams(
            time=b.uniform("embedding.time", (dims.input_steps, hidden), hidden),
            node=b.uniform("embedding.node", (dims.nodes, hidden), hidden),
            modality=b.uniform("embedding.modality", (dims.modalities, hidden), hidden),
        )
        params.relevance_weight = b.uniform("relevance.weight", (hidden,), hidden)
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
    """Two fully connected layers mapping the last surviving step to O horizons.

    [B, 1, N, M, hidden] -> [B, O, N, M].
    """
    if h.shape[-4] != 1:
        raise ConfigError(
            f"predictor expects the encoder to collapse time to one step, got {h.shape[-4]}"
        )
    squeezed = reshape(h, h.shape[:-4] + h.shape[-3:])
    hidden_act = linear(relu(squeezed), predictor.hidden_weight, predictor.hidden_bias, relu=True)
    out = linear(hidden_act, predictor.out_weight, predictor.out_bias)  # [B, N, M, O]
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
    augmented_input: Tensor | None = None


def forward_pass(
    params: ModelParams,
    model_cfg: ModelConfig,
    flags: AblationFlags,
    weights: LossWeights,
    x: np.ndarray,
    y: np.ndarray | None = None,
    mask_uniforms: np.ndarray | None = None,
    mask_override: np.ndarray | None = None,
    training: bool = True,
) -> ForwardResult:
    """One batched pass: original view, optional companion view, all losses.

    ``x`` is [B, T, N, M]; ``y`` is [B, O, N, M] or None for pure inference.
    ``mask_uniforms`` supplies the U(0,1) draws for masking; alternatively a
    boolean ``mask_override`` pins the mask (used by gradient checking).
    At evaluation time only the original view runs.
    """
    x_t = Tensor(np.asarray(x, dtype=np.float64))
    x_in = reshape(x_t, x_t.shape + (1,))
    h = enc.encode(x_in, params.encoder.input_proj, params.encoder.layers, model_cfg)
    result = ForwardResult(predictions=predict(h, params.predictor), h=h)

    parts: dict[str, Tensor] = {}
    if y is not None:
        diff = result.predictions - Tensor(np.asarray(y, dtype=np.float64))
        parts["forecast"] = (diff * diff).sum(axis=(1, 2, 3)).mean()

    if training:
        h_second = None
        if flags.masked_view:
            phi = aug.modality_relevance(stop_gradient(h), params.relevance_weight)
            prob = aug.input_mask_probability(phi, x_t.shape[-3], model_cfg.mask_scale)
            if mask_override is not None:
                mask = np.asarray(mask_override, dtype=bool)
                keep = Tensor((~mask).astype(np.float64))
            else:
                if mask_uniforms is None:
                    raise ConfigError("training with masking needs mask_uniforms or mask_override")
                mask = mask_uniforms < prob.data
                keep = aug.keep_factor(prob, mask_uniforms, model_cfg.straight_through_mask)
            result.mask = mask
            x_aug = aug.build_augmented_input(x_t, keep, params.embedding)
            result.augmented_input = x_aug
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
            parts["contrast"] = mssl_mod.mssl_loss(
                fused, context, params.fusion.pair_matrix, model_cfg.average_negatives
            )

    for name, part in parts.items():
        if not np.isfinite(part.data):
            raise NumericalError(f"{name} loss is non-finite")
    result.parts = parts
    if parts:
        total = None
        for name, part in parts.items():
            term = part * weights[name]
            total = term if total is None else total + term
        result.total = total
    return result
