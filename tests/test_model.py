"""Predictor, joint objective, and ablation wiring."""

import tracemalloc

import numpy as np
import pytest

from mossl import encoder
from mossl.augmentation import uniforms_for_mask
from mossl.encoder import ProjectionParams
from mossl.errors import ConfigError, NumericalError
from mossl.model import (
    AblationFlags,
    LossWeights,
    ModelConfig,
    ModelDims,
    PredictorParams,
    forward_pass,
    init_params,
    predict,
)
from mossl.rng import derive_rng
from mossl.runs import ABLATION_VARIANTS
from mossl.tensor import Tensor, attention, backward, gradients
from test_tensor import closure_arrays


def rng(seed=0):
    return np.random.default_rng(seed)


TINY = ModelConfig(hidden=4, layers=2, kernel_size=2, dilations=(1, 2), mixture_components=2)
DIMS = ModelDims(input_steps=4, output_steps=1, nodes=3, modalities=2)
PAPER_DIMS = ModelDims(input_steps=16, output_steps=3, nodes=98, modalities=4)


def tiny_batch(seed=0, batch=2, dims=DIMS):
    b = rng(seed)
    x = b.standard_normal((batch, dims.input_steps, dims.nodes, dims.modalities))
    y = b.standard_normal((batch, dims.output_steps, dims.nodes, dims.modalities))
    u = b.random((batch, dims.input_steps, dims.nodes, dims.modalities))
    return x, y, u


def make_predictor(hidden, horizons, seed=1):
    b = rng(seed)

    def projection(c_out):
        return ProjectionParams(
            weight=Tensor(b.standard_normal((hidden, c_out))), bias=Tensor(b.standard_normal(c_out))
        )

    return PredictorParams(hidden=projection(hidden), out=projection(horizons))


class TestPredict:
    def test_all_zero_weights_constant_output(self):
        p = make_predictor(4, 3)
        for t in (p.hidden.weight, p.hidden.bias, p.out.weight):
            t.data[...] = 0.0
        p.out.bias.data[...] = [1.0, 2.0, 3.0]
        h = Tensor(rng(2).standard_normal((2, 1, 3, 2, 4)))
        out = predict(h, p)
        assert out.shape == (2, 3, 3, 2)
        for o, value in enumerate([1.0, 2.0, 3.0]):
            assert np.allclose(out.data[:, o], value)

    def test_selector_reproduces_one_channel(self):
        p = make_predictor(4, 1)
        p.hidden.weight.data[...] = np.eye(4)
        p.hidden.bias.data[...] = 0.0
        p.out.weight.data[...] = np.array([[0.0], [1.0], [0.0], [0.0]])
        p.out.bias.data[...] = 0.0
        h_data = np.abs(rng(3).standard_normal((2, 1, 3, 2, 4)))
        out = predict(Tensor(h_data), p)
        assert np.allclose(out.data[:, 0], h_data[:, 0, :, :, 1], atol=1e-12)

    def test_matches_two_layer_oracle(self):
        p = make_predictor(5, 2)
        h_data = rng(4).standard_normal((2, 1, 2, 3, 5))
        out = predict(Tensor(h_data), p)
        squeezed = h_data[:, 0]
        hidden = np.maximum(
            np.maximum(squeezed, 0.0) @ p.hidden.weight.data + p.hidden.bias.data, 0.0
        )
        expected = hidden @ p.out.weight.data + p.out.bias.data
        assert np.max(np.abs(out.data - np.moveaxis(expected, -1, 1))) < 1e-12


class TestForwardPass:
    def test_perfect_predictions_zero_forecast_loss(self):
        flags = AblationFlags(no_av=True, no_mssl=True)
        params = init_params(TINY, DIMS, flags, seed=0)
        x, _, _ = tiny_batch()
        inference = forward_pass(params, TINY, flags, LossWeights(), x, training=False)
        res = forward_pass(
            params, TINY, flags, LossWeights(), x, inference.predictions.data, training=True
        )
        assert float(res.parts["forecast"].data) == 0.0
        assert float(res.total.data) == 0.0
        assert list(res.parts) == ["forecast"]

    def test_total_is_weighted_sum_of_parts(self):
        flags = AblationFlags()
        params = init_params(TINY, DIMS, flags, seed=1)
        x, y, u = tiny_batch(1)
        weights = LossWeights(forecast=1.0, mixture=0.25, contrast=2.0)
        res = forward_pass(params, TINY, flags, weights, x, y, mask_uniforms=u, training=True)
        expected = (
            float(res.parts["forecast"].data)
            + 0.25 * float(res.parts["mixture"].data)
            + 2.0 * float(res.parts["contrast"].data)
        )
        assert abs(float(res.total.data) - expected) < 1e-12

    def test_evaluation_runs_original_view_only(self):
        flags = AblationFlags()
        params = init_params(TINY, DIMS, flags, seed=2)
        x, y, _ = tiny_batch(2)
        res = forward_pass(params, TINY, flags, LossWeights(), x, y, training=False)
        assert res.h_second is None
        assert res.mask is None
        assert list(res.parts) == ["forecast"]

    def test_training_needs_mask_source(self):
        flags = AblationFlags()
        params = init_params(TINY, DIMS, flags, seed=3)
        x, y, _ = tiny_batch(3)
        with pytest.raises(ConfigError, match="mask"):
            forward_pass(params, TINY, flags, LossWeights(), x, y, training=True)

    def test_non_finite_loss_names_component(self):
        flags = AblationFlags(no_av=True, no_mssl=True)
        params = init_params(TINY, DIMS, flags, seed=4)
        params.named["predictor.out.bias"].data[...] = np.nan
        x, y, _ = tiny_batch(4)
        with pytest.raises(NumericalError, match="forecast"):
            forward_pass(params, TINY, flags, LossWeights(), x, y, training=True)

    def test_loss_reaches_every_parameter_in_every_variant(self):
        x, y, u = tiny_batch(5)
        for variant, flags in ABLATION_VARIANTS.items():
            params = init_params(TINY, DIMS, flags, seed=5)
            assert "relevance.weight" not in params.named
            assert (params.relevance_weight is not None) == flags.masked_view, variant
            res = forward_pass(params, TINY, flags, LossWeights(), x, y, mask_uniforms=u)
            backward(res.total)
            unreached = [name for name, p in params.named.items() if p.grad is None]
            assert unreached == [], variant

    def test_embeddings_receive_gradient_through_augmented_loss(self):
        flags = AblationFlags()
        params = init_params(TINY, DIMS, flags, seed=6)
        x, y, u = tiny_batch(6)
        res = forward_pass(params, TINY, flags, LossWeights(), x, y, mask_uniforms=u, training=True)
        grads = gradients(res.total, params.named)
        for name in ("embedding.time", "embedding.node", "embedding.modality"):
            assert np.abs(grads[name]).max() > 0.0, name

    def test_pinned_uniforms_reproduce_drawn_mask(self):
        flags = AblationFlags()
        params = init_params(TINY, DIMS, flags, seed=7)
        x, y, u = tiny_batch(7)
        first = forward_pass(params, TINY, flags, LossWeights(), x, y, mask_uniforms=u, training=True)
        pinned = uniforms_for_mask(first.mask)
        second = forward_pass(
            params, TINY, flags, LossWeights(), x, y, mask_uniforms=pinned, training=True
        )
        assert first.mask.any() and not first.mask.all()
        assert np.array_equal(second.mask, first.mask)
        assert float(first.total.data) == float(second.total.data)

    def test_paper_shape_window_train_graph_is_at_most_65_mib(self):
        # one window's graph is what each core holds during a sharded train step;
        # it read 105.3 MiB while spatial attention kept its q|k|v projection
        # and 79.8 MiB while modality attention did
        cfg, flags = ModelConfig(), AblationFlags()
        params = init_params(cfg, PAPER_DIMS, flags, seed=5)
        x, y, u = tiny_batch(5, batch=1, dims=PAPER_DIMS)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            res = forward_pass(params, cfg, flags, LossWeights(), x, y, mask_uniforms=u)
            held = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        assert res.total.requires_grad
        assert held <= 65 * 2**20, f"{held / 2**20:.1f} MiB"

    def test_paper_shape_layer_0_attentions_keep_only_their_input(self, monkeypatch):
        # at the defaults both attentions of a paper-shape window span several
        # backward blocks, so each node keeps its input's, weight's and bias's
        # arrays and the [..., A, 1] row max and row sum, and no projection or P
        first = {}

        def recorded(x, weight, bias, axis):
            out = attention(x, weight, bias, axis)
            inputs = (x.data, weight.data, bias.data)
            arrays = closure_arrays(out._node.backward)
            own = [a.shape for a in arrays if not any(np.shares_memory(a, d) for d in inputs)]
            first.setdefault(axis, own)
            return out

        monkeypatch.setattr(encoder, "attention", recorded)
        cfg, flags = ModelConfig(), AblationFlags()
        params = init_params(cfg, PAPER_DIMS, flags, seed=5)
        x, y, u = tiny_batch(5, batch=1, dims=PAPER_DIMS)
        forward_pass(params, cfg, flags, LossWeights(), x, y, mask_uniforms=u)
        assert sorted(first) == [-3, -2]
        for axis, held in first.items():
            assert len(held) == 2 and all(shape[-1] == 1 for shape in held), (axis, held)


class TestInit:
    def test_packed_weights_hold_the_draws_of_their_parts(self):
        seed, hidden, k = 14, TINY.hidden, TINY.kernel_size
        named = init_params(TINY, DIMS, AblationFlags(), seed=seed).named
        layer = "encoder.layers.1"

        def drawn(label, shape, fan_in):
            bound = (1.0 / fan_in) ** 0.5
            return derive_rng(seed, "init", label).uniform(-bound, bound, shape)

        attn = named[f"{layer}.modality_attn.weight"].data
        for part, role in zip(np.split(attn, 3, axis=1), ("query", "key", "value")):
            want = drawn(f"{layer}.modality_attn.{role}.weight", (hidden, hidden), hidden)
            assert np.array_equal(part, want), role
        kernel = named[f"{layer}.conv.kernel"].data
        for part, role in zip(np.split(kernel, 2, axis=-1), ("filter", "gate")):
            want = drawn(f"{layer}.conv.{role}", (k, 3 * hidden, hidden), k * 3 * hidden)
            assert np.array_equal(part, want), role
        for name, width in (("modality_attn", 3), ("spatial_attn", 3), ("conv", 2)):
            bias = named[f"{layer}.{name}.bias"].data
            assert bias.shape == (width * hidden,) and not bias.any(), name


class TestAblations:
    def test_full_model_has_all_parts(self):
        flags = AblationFlags()
        params = init_params(TINY, DIMS, flags, seed=8)
        x, y, u = tiny_batch(8)
        res = forward_pass(params, TINY, flags, LossWeights(), x, y, mask_uniforms=u, training=True)
        assert set(res.parts) == {"forecast", "mixture", "contrast"}

    @pytest.mark.parametrize(
        "flags,expected_parts,absent_params",
        [
            (
                AblationFlags(no_av=True),
                {"forecast", "contrast"},
                ("mixture.", "embedding.", "aux_encoder."),
            ),
            (
                AblationFlags(no_mg=True),
                {"forecast", "contrast"},
                ("mixture.", "embedding."),
            ),
            (
                AblationFlags(no_gssl=True),
                {"forecast", "contrast"},
                ("mixture.", "aux_encoder."),
            ),
            (
                AblationFlags(no_mssl=True),
                {"forecast", "mixture"},
                ("fusion.", "aux_encoder."),
            ),
        ],
    )
    def test_variant_parts_and_parameters(self, flags, expected_parts, absent_params):
        params = init_params(TINY, DIMS, flags, seed=9)
        x, y, u = tiny_batch(9)
        res = forward_pass(params, TINY, flags, LossWeights(), x, y, mask_uniforms=u, training=True)
        assert set(res.parts) == expected_parts
        for prefix in absent_params:
            assert not any(n.startswith(prefix) for n in params.named), prefix

    def test_no_mg_uses_unshared_second_encoder(self):
        flags = AblationFlags(no_mg=True)
        params = init_params(TINY, DIMS, flags, seed=10)
        assert any(n.startswith("aux_encoder.") for n in params.named)
        x, y, u = tiny_batch(10)
        res = forward_pass(params, TINY, flags, LossWeights(), x, y, mask_uniforms=u, training=True)
        grads = gradients(res.total, params.named)
        assert np.abs(grads["aux_encoder.input_proj.weight"]).max() > 0.0

    def test_no_av_fuses_original_view_with_itself(self):
        flags = AblationFlags(no_av=True)
        params = init_params(TINY, DIMS, flags, seed=11)
        x, y, u = tiny_batch(11)
        res = forward_pass(params, TINY, flags, LossWeights(), x, y, mask_uniforms=u, training=True)
        assert res.h_second is None
        assert "contrast" in res.parts

    def test_shared_parameters_identical_across_variants(self):
        full = init_params(TINY, DIMS, AblationFlags(), seed=12)
        ablated = init_params(TINY, DIMS, AblationFlags(no_mssl=True), seed=12)
        shared = set(full.named) & set(ablated.named)
        assert shared
        for name in shared:
            assert np.array_equal(full.named[name].data, ablated.named[name].data), name

    def test_first_batch_losses_bit_identical_without_mssl(self):
        x, y, u = tiny_batch(13)
        full_params = init_params(TINY, DIMS, AblationFlags(), seed=13)
        ab_params = init_params(TINY, DIMS, AblationFlags(no_mssl=True), seed=13)
        full = forward_pass(
            full_params, TINY, AblationFlags(), LossWeights(), x, y, mask_uniforms=u, training=True
        )
        ablated = forward_pass(
            ab_params, TINY, AblationFlags(no_mssl=True), LossWeights(), x, y,
            mask_uniforms=u, training=True,
        )
        assert float(full.parts["forecast"].data) == float(ablated.parts["forecast"].data)
        assert float(full.parts["mixture"].data) == float(ablated.parts["mixture"].data)
