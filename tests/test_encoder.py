"""Encoder contracts: projections, both attentions, gated temporal conv."""

import numpy as np
import pytest
from scipy.special import expit

from mossl import encoder as enc
from mossl.errors import ConfigError
from mossl.gradcheck import grad_check
from mossl.model import AblationFlags, ModelConfig, ModelDims, _Builder, init_params
from mossl.rng import derive_rng
from mossl.tensor import Tensor
from oracles import attention_loop, conv_loop, projection_loop


def rng(seed=0):
    return np.random.default_rng(seed)


def make_attention(seed, hidden):
    b = _Builder(seed)
    return b.attention("attn", hidden), b


def zero_projection(c_in, c_out):
    return enc.ProjectionParams(weight=Tensor(np.zeros((c_in, c_out))), bias=Tensor(np.zeros(c_out)))


class TestInputProject:
    def test_identity_weights_pass_nonnegative_input(self):
        x = np.abs(rng(1).standard_normal((3, 2, 2, 4)))
        p = enc.ProjectionParams(weight=Tensor(np.eye(4)), bias=Tensor(np.zeros(4)))
        out = enc.input_project(Tensor(x), p)
        assert np.allclose(out.data, x, atol=1e-15)

    def test_zero_input_gives_relu_bias(self):
        bias = np.array([0.5, -0.5, 1.0])
        p = enc.ProjectionParams(weight=Tensor(np.zeros((1, 3))), bias=Tensor(bias))
        out = enc.input_project(Tensor(np.zeros((2, 1, 1, 1))), p)
        assert np.allclose(out.data, np.maximum(bias, 0.0))

    def test_matches_numpy_oracle(self):
        x = rng(2).standard_normal((2, 3, 2, 5))
        w = rng(3).standard_normal((5, 4))
        b = rng(4).standard_normal(4)
        p = enc.ProjectionParams(weight=Tensor(w), bias=Tensor(b))
        out = enc.input_project(Tensor(x), p)
        assert np.allclose(out.data, projection_loop(x, w, b), atol=1e-12)

    def test_channel_mismatch(self):
        p = zero_projection(3, 4)
        with pytest.raises(ConfigError, match="channels"):
            enc.input_project(Tensor(np.zeros((2, 1, 1, 2))), p)


class TestModalityAttention:
    def test_single_modality_returns_value_projection(self):
        attn, _ = make_attention(0, 4)
        h = rng(5).standard_normal((2, 3, 1, 4))
        out = enc.modality_attention(Tensor(h), attn)
        expected = projection_loop(
            h, attn.value.weight.data, attn.value.bias.data
        )
        assert np.allclose(out.data, expected, atol=1e-12)

    def test_zero_query_gives_uniform_mixture(self):
        attn, _ = make_attention(1, 4)
        attn.query.weight.data[...] = 0.0
        attn.query.bias.data[...] = 0.0
        h = rng(6).standard_normal((2, 2, 3, 4))
        out = enc.modality_attention(Tensor(h), attn)
        values = projection_loop(h, attn.value.weight.data, attn.value.bias.data)
        assert np.allclose(out.data, values.mean(axis=-2, keepdims=True), atol=1e-12)

    def test_matches_double_loop_oracle(self):
        attn, _ = make_attention(2, 5)
        h = rng(7).standard_normal((2, 2, 3, 5))
        out = enc.modality_attention(Tensor(h), attn)
        expected = attention_loop(
            h,
            attn.query.weight.data, attn.query.bias.data,
            attn.key.weight.data, attn.key.bias.data,
            attn.value.weight.data, attn.value.bias.data,
        )
        assert np.max(np.abs(out.data - expected)) < 1e-10

    def test_weights_are_row_stochastic(self):
        attn, _ = make_attention(3, 4)
        h = rng(8).standard_normal((2, 2, 3, 4))
        _, weights = enc.axis_attention(Tensor(h), attn, axis=-2, return_weights=True)
        sums = weights.data.sum(axis=-1)
        assert np.max(np.abs(sums - 1.0)) < 1e-12

    def test_permutation_equivariance(self):
        attn, _ = make_attention(4, 4)
        h = rng(9).standard_normal((2, 2, 4, 4))
        perm = np.array([2, 0, 3, 1])
        base = enc.modality_attention(Tensor(h), attn).data
        permuted = enc.modality_attention(Tensor(h[:, :, perm]), attn).data
        assert np.allclose(permuted, base[:, :, perm], atol=1e-12)


class TestSpatialAttention:
    def test_matches_double_loop_oracle_on_node_axis(self):
        attn, _ = make_attention(5, 4)
        h = rng(10).standard_normal((2, 3, 2, 4))  # [T, N, M, C]
        out = enc.spatial_attention(Tensor(h), attn)
        moved = np.swapaxes(h, 1, 2)  # attend over N at fixed (t, m)
        expected = attention_loop(
            moved,
            attn.query.weight.data, attn.query.bias.data,
            attn.key.weight.data, attn.key.bias.data,
            attn.value.weight.data, attn.value.bias.data,
        )
        assert np.max(np.abs(out.data - np.swapaxes(expected, 1, 2))) < 1e-10

    def test_node_permutation_equivariance(self):
        attn, _ = make_attention(6, 4)
        h = rng(11).standard_normal((2, 4, 2, 4))
        perm = np.array([3, 1, 0, 2])
        base = enc.spatial_attention(Tensor(h), attn).data
        permuted = enc.spatial_attention(Tensor(h[:, perm]), attn).data
        assert np.allclose(permuted, base[:, perm], atol=1e-12)


def make_conv(seed, k, hidden):
    b = _Builder(seed)
    return b.conv("conv", k, hidden)


class TestTemporalConv:
    def test_saturated_gate_reduces_to_filter_path(self):
        hidden = 3
        conv = make_conv(7, 2, hidden)
        conv.gate_bias.data[...] = 60.0  # sigmoid -> 1 regardless of input
        h = rng(12).standard_normal((1, 5, 2, 2, 3 * hidden))
        out = enc.temporal_conv_layer(Tensor(h), conv, dilation=1)
        moved = np.swapaxes(h, -4, -2)
        filt = conv_loop(moved, conv.filter_kernel.data, 1) + conv.filter_bias.data
        expected = np.tanh(filt) @ conv.mix_weight.data + conv.mix_bias.data
        assert np.max(np.abs(out.data - np.swapaxes(expected, -4, -2))) < 1e-10

    def test_zero_filter_zero_biases_give_zero(self):
        hidden = 2
        conv = make_conv(8, 2, hidden)
        conv.filter_kernel.data[...] = 0.0
        conv.filter_bias.data[...] = 0.0
        conv.mix_bias.data[...] = 0.0
        h = rng(13).standard_normal((4, 2, 2, 3 * hidden))
        out = enc.temporal_conv_layer(Tensor(h), conv, dilation=1)
        assert np.allclose(out.data, 0.0, atol=1e-15)

    def test_matches_loop_oracle(self):
        hidden = 2
        conv = make_conv(9, 2, hidden)
        h = rng(14).standard_normal((6, 2, 2, 3 * hidden))
        out = enc.temporal_conv_layer(Tensor(h), conv, dilation=2)
        moved = np.swapaxes(h, -4, -2)
        filt = conv_loop(moved, conv.filter_kernel.data, 2) + conv.filter_bias.data
        gate = conv_loop(moved, conv.gate_kernel.data, 2) + conv.gate_bias.data
        expected = (np.tanh(filt) * expit(gate)) @ conv.mix_weight.data + conv.mix_bias.data
        assert np.max(np.abs(out.data - np.swapaxes(expected, -4, -2))) < 1e-10


def build_encoder(seed, cfg, c_in=1):
    b = _Builder(seed)
    return b.encoder("encoder", cfg, c_in=c_in), b


class TestEncode:
    def test_shape_preserving_with_kernel_one(self):
        cfg = ModelConfig(hidden=3, layers=1, kernel_size=1, dilations=(1,))
        params, _ = build_encoder(10, cfg)
        x = rng(15).standard_normal((5, 2, 2, 1))
        out = enc.encode(Tensor(x), params.input_proj, params.layers, cfg)
        assert out.shape == (5, 2, 2, 3)

    def test_default_schedule_collapses_sixteen_steps(self):
        cfg = ModelConfig(hidden=3, layers=4, kernel_size=2, dilations=(1, 2, 4, 8))
        assert cfg.receptive_field == 16
        params, _ = build_encoder(11, cfg)
        x = rng(16).standard_normal((16, 2, 2, 1))
        out = enc.encode(Tensor(x), params.input_proj, params.layers, cfg)
        assert out.shape == (1, 2, 2, 3)

    def test_schedule_must_leave_a_step(self):
        cfg = ModelConfig(hidden=3, layers=4, kernel_size=2, dilations=(1, 2, 4, 8))
        dims = ModelDims(input_steps=15, output_steps=1, nodes=2, modalities=2)
        with pytest.raises(ConfigError, match="dilation"):
            init_params(cfg, dims, AblationFlags(), seed=0)

    def test_dilation_count_must_match_layers(self):
        with pytest.raises(ConfigError, match="schedule"):
            ModelConfig(hidden=3, layers=3, kernel_size=2, dilations=(1, 2))

    def test_causality_end_to_end(self):
        cfg = ModelConfig(hidden=3, layers=2, kernel_size=2, dilations=(1, 2))
        params, _ = build_encoder(12, cfg)
        x = rng(17).standard_normal((6, 2, 2, 1))
        base = enc.encode(Tensor(x), params.input_proj, params.layers, cfg).data
        bumped = x.copy()
        bumped[-1] += 5.0
        out = enc.encode(Tensor(bumped), params.input_proj, params.layers, cfg).data
        assert out.shape[0] == 3
        # receptive windows of the first two output steps end before the final input
        assert np.array_equal(out[:-1], base[:-1])
        assert not np.allclose(out[-1], base[-1])

    def test_residual_flag_changes_output_not_shape(self):
        base_cfg = ModelConfig(hidden=3, layers=2, kernel_size=2, dilations=(1, 2))
        res_cfg = ModelConfig(hidden=3, layers=2, kernel_size=2, dilations=(1, 2), residual=True)
        params, _ = build_encoder(13, base_cfg)
        x = np.abs(rng(18).standard_normal((6, 2, 2, 1)))
        plain = enc.encode(Tensor(x), params.input_proj, params.layers, base_cfg)
        skip = enc.encode(Tensor(x), params.input_proj, params.layers, res_cfg)
        assert plain.shape == skip.shape
        assert not np.allclose(plain.data, skip.data)

    def test_gradients_pass_finite_difference_check(self):
        cfg = ModelConfig(hidden=3, layers=2, kernel_size=2, dilations=(1, 2))
        params, builder = build_encoder(14, cfg)
        for name, p in builder.named.items():
            p.data += derive_rng(3, "offset", name).uniform(-0.05, 0.05, p.shape)
        x = rng(19).standard_normal((5, 2, 2, 1))

        def loss_fn():
            return enc.encode(Tensor(x), params.input_proj, params.layers, cfg).sum()

        report = grad_check(loss_fn, builder.named)
        assert report.max_rel_error < 1e-4, report.worst_param
