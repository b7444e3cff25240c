"""Encoder contracts: projections, both attentions, gated temporal conv."""

import hashlib
import weakref

import numpy as np
import pytest
from scipy.special import expit

from mossl import encoder as enc
from mossl import tensor
from mossl.errors import ConfigError
from mossl.gradcheck import grad_check
from mossl.model import (
    AblationFlags,
    LossWeights,
    ModelConfig,
    ModelDims,
    _Builder,
    forward_pass,
    init_params,
)
from mossl.rng import derive_rng
from mossl.tensor import Tensor, gradients
from oracles import (
    attention_loop,
    conv_loop,
    dense_taps,
    encode_every_step,
    encode_unfused,
    filter_gate,
    projection_loop,
    qkv,
    temporal_conv_chain,
)


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
        expected = projection_loop(h, *qkv(attn)[2])
        assert np.allclose(out.data, expected, atol=1e-12)

    def test_zero_query_gives_uniform_mixture(self):
        attn, _ = make_attention(1, 4)
        for query in qkv(attn)[0]:
            query[...] = 0.0
        h = rng(6).standard_normal((2, 2, 3, 4))
        out = enc.modality_attention(Tensor(h), attn)
        values = projection_loop(h, *qkv(attn)[2])
        assert np.allclose(out.data, values.mean(axis=-2, keepdims=True), atol=1e-12)

    def test_matches_double_loop_oracle(self):
        attn, _ = make_attention(2, 5)
        h = rng(7).standard_normal((2, 2, 3, 5))
        out = enc.modality_attention(Tensor(h), attn)
        expected = attention_loop(h, attn)
        assert np.max(np.abs(out.data - expected)) < 1e-10

    def test_weights_are_row_stochastic(self):
        attn, _ = make_attention(3, 4)
        # every value is relu(0 + 1) = 1, so each output entry is a row sum of P
        value_weight, value_bias = qkv(attn)[2]
        value_weight[...] = 0.0
        value_bias[...] = 1.0
        h = rng(8).standard_normal((2, 2, 3, 4))
        sums = enc.axis_attention(Tensor(h), attn, axis=-2).data
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
        expected = attention_loop(moved, attn)
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
        (filter_kernel, filter_bias), (_, gate_bias) = filter_gate(conv)
        gate_bias[...] = 60.0  # sigmoid -> 1 regardless of input
        h = rng(12).standard_normal((1, 5, 2, 2, 3 * hidden))
        out = enc.temporal_conv_layer(Tensor(h), conv, dense_taps(5, 2, 1))
        moved = np.swapaxes(h, -4, -2)
        filt = conv_loop(moved, filter_kernel, 1) + filter_bias
        expected = np.tanh(filt) @ conv.mix.weight.data + conv.mix.bias.data
        assert np.max(np.abs(out.data - np.swapaxes(expected, -4, -2))) < 1e-10

    def test_zero_filter_zero_biases_give_zero(self):
        hidden = 2
        conv = make_conv(8, 2, hidden)
        for filter_part in filter_gate(conv)[0]:
            filter_part[...] = 0.0
        conv.mix.bias.data[...] = 0.0
        h = rng(13).standard_normal((4, 2, 2, 3 * hidden))
        out = enc.temporal_conv_layer(Tensor(h), conv, dense_taps(4, 2, 1))
        assert np.allclose(out.data, 0.0, atol=1e-15)

    def test_matches_loop_oracle(self):
        hidden = 2
        conv = make_conv(9, 2, hidden)
        h = rng(14).standard_normal((6, 2, 2, 3 * hidden))
        out = enc.temporal_conv_layer(Tensor(h), conv, dense_taps(6, 2, 2))
        moved = np.swapaxes(h, -4, -2)
        (filter_kernel, filter_bias), (gate_kernel, gate_bias) = filter_gate(conv)
        filt = conv_loop(moved, filter_kernel, 2) + filter_bias
        gate = conv_loop(moved, gate_kernel, 2) + gate_bias
        expected = (np.tanh(filt) * expit(gate)) @ conv.mix.weight.data + conv.mix.bias.data
        assert np.max(np.abs(out.data - np.swapaxes(expected, -4, -2))) < 1e-10


def build_encoder(seed, cfg, c_in=1):
    b = _Builder(seed)
    return b.encoder("encoder", cfg, c_in=c_in), b


class TestEncode:
    def test_shape_preserving_with_kernel_one(self):
        cfg = ModelConfig(hidden=3, layers=1, kernel_size=1, dilations=(1,))
        params, _ = build_encoder(10, cfg)
        x = rng(15).standard_normal((1, 2, 2, 1))
        out = enc.encode(Tensor(x), params.input_proj, params.layers, cfg)
        assert out.shape == (1, 2, 2, 3)

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

    def test_gradients_pass_finite_difference_check(self):
        cfg = ModelConfig(hidden=3, layers=2, kernel_size=2, dilations=(1, 2))
        params, builder = build_encoder(14, cfg)
        for name, p in builder.named.items():
            p.data += derive_rng(3, "offset", name).uniform(-0.05, 0.05, p.shape)
        x = rng(19).standard_normal((4, 2, 2, 1))

        def loss_fn():
            return enc.encode(Tensor(x), params.input_proj, params.layers, cfg).sum()

        report = grad_check(loss_fn, builder.named)
        assert report.max_rel_error < 1e-4, report.worst_param


def max_rel_diff(got: dict, want: dict) -> float:
    """Largest gradient difference, relative to each parameter's largest reference entry."""
    worst = 0.0
    for name, ref in want.items():
        scale = max(float(np.abs(ref).max()), 1e-300)
        worst = max(worst, float(np.abs(got[name] - ref).max()) / scale)
    return worst


SMALL = ModelConfig(hidden=16, layers=3, kernel_size=2, dilations=(1, 2, 4), mixture_components=3)

# (model config, input steps, nodes, modalities, batch)
PLAN_CASES = {
    "small-train": (SMALL, 8, 6, 3, 16),
    "kernel3": (ModelConfig(hidden=6, layers=2, kernel_size=3, dilations=(1, 3)), 9, 4, 3, 3),
    # T=6 with dilations (1, 4): no output reads input steps 2 and 3
    "skips-inputs": (ModelConfig(hidden=6, layers=2, dilations=(1, 4)), 6, 4, 3, 3),
}


def assert_window_rejected(steps):
    """Assert that ``encode`` rejects a window of ``steps`` steps at the paper schedule."""
    cfg = ModelConfig(hidden=3)
    params, _ = build_encoder(16, cfg)
    x = Tensor(rng(20).standard_normal((steps, 2, 2, 1)))
    with pytest.raises(ConfigError, match=f"must be 16, the receptive field .*; got {steps}"):
        enc.encode(x, params.input_proj, params.layers, cfg)


class TestTimePlan:
    def test_paper_schedule_layer_inputs(self):
        plan = ModelConfig().time_plan()
        assert [len(s) for s in plan.steps] == [16, 8, 4, 2, 1]
        assert plan.steps[-1].tolist() == [15]

    def test_small_schedule_layer_inputs(self):
        plan = SMALL.time_plan()
        assert [len(s) for s in plan.steps] == [8, 4, 2, 1]

    def test_plan_skips_input_steps_no_output_reads(self):
        cfg = ModelConfig(hidden=3, layers=2, kernel_size=2, dilations=(1, 4))
        plan = cfg.time_plan()
        assert plan.steps[0].tolist() == [0, 1, 4, 5]
        assert plan.steps[1].tolist() == [1, 5]
        # layer 2 reads steps 1 and 5 of its input, at positions 0 and 1 of the kept steps
        assert [t.tolist() for t in plan.taps[1]] == [[0], [1]]

    def test_taps_index_the_previous_layer(self):
        cfg = ModelConfig(hidden=3, layers=2, kernel_size=3, dilations=(1, 3))
        plan = cfg.time_plan()
        k = cfg.kernel_size
        for layer, dilation in enumerate(cfg.dilations):
            for j, tap in enumerate(plan.taps[layer]):
                read = plan.steps[layer][tap]
                assert read.tolist() == (plan.steps[layer + 1] - (k - 1 - j) * dilation).tolist()
                assert len(np.unique(tap)) == len(tap)

    def test_window_shorter_than_receptive_field_is_config_error(self):
        assert_window_rejected(15)

    def test_window_longer_than_receptive_field_is_config_error(self):
        assert_window_rejected(17)

    @pytest.mark.parametrize("case", sorted(PLAN_CASES))
    def test_forward_pass_matches_every_step_reference(self, case, monkeypatch):
        cfg, steps, nodes, modalities, batch = PLAN_CASES[case]
        dims = ModelDims(input_steps=steps, output_steps=2, nodes=nodes, modalities=modalities)
        params = init_params(cfg, dims, AblationFlags(), seed=5)
        r = rng(40)
        x = r.standard_normal((batch, steps, nodes, modalities))
        y = r.standard_normal((batch, 2, nodes, modalities))
        u = r.random(x.shape)

        def run():
            res = forward_pass(params, cfg, AblationFlags(), LossWeights(), x, y, mask_uniforms=u)
            return res, gradients(res.total, params.named)

        planned, planned_grads = run()
        monkeypatch.setattr(enc, "encode", encode_every_step)
        dense, dense_grads = run()
        assert np.array_equal(planned.total.data, dense.total.data)
        assert np.array_equal(planned.predictions.data, dense.predictions.data)
        assert max_rel_diff(planned_grads, dense_grads) < 1e-12


# (model config, flags, input steps, nodes, modalities, batch)
FUSED_CASES = {
    "small-train": (SMALL, AblationFlags(), 8, 6, 3, 16),
    "kernel3": (
        ModelConfig(hidden=6, layers=2, kernel_size=3, dilations=(1, 3)), AblationFlags(), 9, 4, 3, 3
    ),
    "skips-inputs": (ModelConfig(hidden=6, layers=2, dilations=(1, 4)), AblationFlags(), 6, 4, 3, 3),
    # the unshared aux encoder runs the fused layers with its own parameters
    "no_mg": (SMALL, AblationFlags(no_mg=True), 8, 6, 3, 4),
}


def small_train_batch(cfg, flags, steps, nodes, modalities, batch):
    dims = ModelDims(input_steps=steps, output_steps=2, nodes=nodes, modalities=modalities)
    params = init_params(cfg, dims, flags, seed=5)
    r = rng(43)
    x = r.standard_normal((batch, steps, nodes, modalities))
    y = r.standard_normal((batch, 2, nodes, modalities))
    return params, x, y, r.random(x.shape)


class TestFusedLayer:
    @pytest.mark.parametrize("case", sorted(FUSED_CASES))
    def test_forward_pass_matches_unfused_blocks(self, case, monkeypatch):
        cfg, flags, *shape = FUSED_CASES[case]
        params, x, y, u = small_train_batch(cfg, flags, *shape)

        def run():
            res = forward_pass(params, cfg, flags, LossWeights(), x, y, mask_uniforms=u)
            return res, gradients(res.total, params.named)

        fused, fused_grads = run()
        monkeypatch.setattr(enc, "encode", encode_unfused)
        unfused, unfused_grads = run()
        want = float(unfused.total.data)
        assert abs(float(fused.total.data) - want) <= 1e-12 * abs(want)
        pred = unfused.predictions.data
        assert np.max(np.abs(fused.predictions.data - pred)) <= 1e-12 * np.max(np.abs(pred))
        assert max_rel_diff(fused_grads, unfused_grads) <= 1e-12

    def test_small_train_step_tape_node_count(self, monkeypatch):
        # a block that falls apart into small ops again shows here first
        params, x, y, u = small_train_batch(SMALL, AblationFlags(), 8, 6, 3, 16)
        taped = []
        make = tensor._make

        def counting_make(data, parents, backward_fn):
            out = make(data, parents, backward_fn)
            taped.append(out.requires_grad)
            return out

        monkeypatch.setattr(tensor, "_make", counting_make)
        forward_pass(params, SMALL, AblationFlags(), LossWeights(), x, y, mask_uniforms=u)
        assert sum(taped) == 108

    @pytest.mark.parametrize("case", ["small-train", "paper-window"])
    def test_gated_conv_matches_five_node_chain_bit_for_bit(self, case, monkeypatch):
        # the conv over [h, ma, sa] with its bias and gated_tanh with the mix
        # against concat, conv, + bias, gated product and linear
        if case == "small-train":
            cfg, shape = SMALL, (8, 6, 3, 16)
        else:
            cfg, shape = ModelConfig(), (16, 98, 4, 1)
        params, x, y, u = small_train_batch(cfg, AblationFlags(), *shape)

        def run():
            res = forward_pass(params, cfg, AblationFlags(), LossWeights(), x, y, mask_uniforms=u)
            grads = gradients(res.total, params.named)
            return [res.total.data, res.predictions.data] + [grads[n] for n in sorted(grads)]

        fused = run()
        monkeypatch.setattr(enc, "temporal_conv_layer", temporal_conv_chain)
        chain = run()
        assert len(fused) == len(chain)
        for got, want in zip(fused, chain):
            assert got.tobytes() == want.tobytes()


def recorded_pass(monkeypatch, keep: bool):
    """A small-shape training pass, its parameters and the arrays no backward formula reads.

    Those arrays are the conv outputs with their bias added, the
    ``gated_tanh`` inputs, of both views; the attention outputs are not
    among them, as the conv's backward reads them for its kernel gradient.
    ``keep`` holds them strongly, as a tape whose edges held parent tensors
    did; otherwise weakly.
    """
    held = []

    def recording(name, pick):
        op = getattr(tensor, name)

        def recorded(*args, **kwargs):
            out = op(*args, **kwargs)
            data = pick(args, out).data
            held.append(data if keep else weakref.ref(data))
            return out

        monkeypatch.setattr(enc, name, recorded)

    recording("gated_tanh", lambda args, out: args[0])
    params, x, y, u = small_train_batch(SMALL, AblationFlags(), 8, 6, 3, 4)
    res = forward_pass(params, SMALL, AblationFlags(), LossWeights(), x, y, mask_uniforms=u)
    return held, res, params


def test_activations_no_backward_reads_are_freed_once_consumed(monkeypatch):
    weak, res, params = recorded_pass(monkeypatch, keep=False)
    # 3 layers of 2 views: a gated_tanh input each
    assert len(weak) == 6
    # the graph, and so every consumer of those arrays, is still alive
    assert all(ref() is None for ref in weak)
    grads = gradients(res.total, params.named)
    kept, res, params = recorded_pass(monkeypatch, keep=True)
    assert len(kept) == 6
    kept_grads = gradients(res.total, params.named)
    assert grads.keys() == kept_grads.keys()
    assert all(np.array_equal(grads[name], kept_grads[name]) for name in grads)
    # the same gradients, bit for bit, as the engine whose graph edges held their parent tensors
    digest = hashlib.sha256(b"".join(grads[name].tobytes() for name in sorted(grads))).hexdigest()
    assert digest == "4320379f9bde412f5d911a7541d6f5d9aa2d1eac3890095a29c6a6520713c8a6"


def test_grid_wider_than_hidden_gradients_are_pinned(monkeypatch):
    # N=6 > hidden 4 on spatial attention, M=3 <= 4 on modality attention.  Both
    # fit one backward block and keep their projection and P; with a 1-byte
    # block both rebuild them one lead cell at a time, to the same bits
    cfg = ModelConfig(hidden=4, layers=2, kernel_size=2, dilations=(1, 2), mixture_components=2)
    params, x, y, u = small_train_batch(cfg, AblationFlags(), cfg.receptive_field, 6, 3, 4)
    for budget in (tensor._BLOCK_BYTES, 1):
        monkeypatch.setattr(tensor, "_BLOCK_BYTES", budget)
        res = forward_pass(params, cfg, AblationFlags(), LossWeights(), x, y, mask_uniforms=u)
        grads = gradients(res.total, params.named)
        arrays = [res.total.data, res.predictions.data] + [grads[name] for name in sorted(grads)]
        digest = hashlib.sha256(b"".join(a.tobytes() for a in arrays)).hexdigest()
        assert digest == "e70517794599e1e97b0999f779360a33d96def636c51fc5e82ebe9e0f4601bd9", budget
