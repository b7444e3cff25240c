"""Streaming evaluation: consecutive windows encode each time step once.

``split_predictions`` shares one ``EncoderStream`` across its batches.  Its
predictions are compared with the per-window path (each window alone, no
stream) and with the batched path without a stream, which is what
``split_predictions`` computed before streaming.
"""

import numpy as np
import pytest

from mossl import encoder as enc
from mossl import training
from mossl.data import SplitSpec, SynthSpec, prepare_windows, synth_generate
from mossl.encoder import EncoderStream
from mossl.errors import ConfigError
from mossl.model import AblationFlags, LossWeights, ModelConfig, forward_pass, init_params
from mossl.tensor import gradients, no_grad
from mossl.training import evaluate, model_dims, split_predictions
from test_model import TINY

CONFIGS = {
    "tiny": TINY,
    "kernel3": ModelConfig(hidden=4, layers=2, kernel_size=3, dilations=(1, 3)),
    # the time plan of a single window skips input steps 2 and 3
    "plan-drops-steps": ModelConfig(hidden=4, layers=2, kernel_size=2, dilations=(1, 4)),
}
NODES, MODALITIES = 3, 2


def case(name, stride=1):
    cfg = CONFIGS[name]
    spec = SynthSpec(nodes=NODES, modalities=MODALITIES, steps=160, coupling=[[0.7, 0.3], [0.3, 0.7]])
    series = synth_generate(spec, seed=21)
    prepared = prepare_windows(
        series, SplitSpec(0.7, 0.1, 0.2), cfg.receptive_field, output_steps=2, stride=stride
    )
    params = init_params(cfg, model_dims(prepared), AblationFlags(), seed=5)
    return cfg, prepared, params


def eval_pass(params, cfg, x, stream=None):
    with no_grad():
        res = forward_pass(
            params, cfg, AblationFlags(), LossWeights(), x, training=False, stream=stream
        )
    return res.predictions.data


def unstreamed(params, cfg, prepared, split, batch_size):
    """``split_predictions`` without a stream: each batch encodes its windows whole."""
    x = prepared.splits[split].x
    chunks = [eval_pass(params, cfg, x[s : s + batch_size]) for s in range(0, len(x), batch_size)]
    return prepared.stats.invert(np.concatenate(chunks))


def relative_gap(got, want) -> float:
    return float(np.abs(got - want).max() / np.abs(want).max())


@pytest.fixture
def projected_rows(monkeypatch):
    """Rows (time steps times grid cells) each ``input_project`` call receives."""
    rows = []
    project = enc.input_project

    def counting(x, p):
        rows.append(int(np.prod(x.shape[:-1])))
        return project(x, p)

    monkeypatch.setattr(enc, "input_project", counting)
    return rows


@pytest.fixture
def stream_calls(monkeypatch):
    """Batch sizes of every ``encode_stream`` call."""
    calls = []
    encode_stream = enc.encode_stream

    def counting(windows, *args):
        calls.append(len(windows))
        return encode_stream(windows, *args)

    monkeypatch.setattr(enc, "encode_stream", counting)
    return calls


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_streamed_predictions_match_the_per_window_path(name, stream_calls):
    cfg, prepared, params = case(name)
    count = prepared.splits["test"].count
    assert count % 3 and count % 8  # ragged last batches below
    per_window = unstreamed(params, cfg, prepared, "test", batch_size=1)
    for batch_size in (1, 3, 8, count + 5):
        stream_calls.clear()
        got = split_predictions(params, cfg, prepared, "test", batch_size=batch_size)
        assert len(stream_calls) == -(-count // batch_size)
        assert relative_gap(got, per_window) <= 1e-12
        assert np.array_equal(got, unstreamed(params, cfg, prepared, "test", batch_size))


def test_repeated_evaluates_are_byte_identical():
    cfg, prepared, params = case("tiny")
    first = split_predictions(params, cfg, prepared, "test", batch_size=3)
    second = split_predictions(params, cfg, prepared, "test", batch_size=3)
    assert first.tobytes() == second.tobytes()
    assert evaluate(params, cfg, prepared, "val", 3) == evaluate(params, cfg, prepared, "val", 3)


def test_a_batch_that_does_not_continue_restarts_the_stream(projected_rows):
    cfg, prepared, params = case("kernel3")
    x = prepared.splits["test"].x
    steps, cells = x.shape[1], NODES * MODALITIES
    stream = EncoderStream()
    batches = [(0, 4, True), (4, 8, False), (10, 14, True), (14, 18, False), (18, 19, False)]
    for start, stop, restarts in batches:
        batch = x[start:stop]
        want = eval_pass(params, cfg, batch)
        projected_rows.clear()
        assert np.array_equal(eval_pass(params, cfg, batch, stream), want)
        new_steps = steps + len(batch) - 1 if restarts else len(batch)
        assert sum(projected_rows) == new_steps * cells
        assert max(projected_rows) <= steps * cells  # one pass takes at most T new steps


def test_continuing_batch_projects_one_step_per_window(projected_rows):
    cfg, prepared, params = case("tiny")
    x = prepared.splits["test"].x
    stream = EncoderStream()
    eval_pass(params, cfg, x[:5], stream)
    projected_rows.clear()
    eval_pass(params, cfg, x[5:12], stream)
    assert projected_rows == [4 * NODES * MODALITIES, 3 * NODES * MODALITIES]  # T = 4 a pass


@pytest.mark.parametrize("order", ["shuffled", "repeated"])
def test_non_consecutive_batch_falls_back(order, stream_calls):
    cfg, prepared, params = case("tiny")
    x = prepared.splits["test"].x[:6]
    batch = x[[0, 2, 1, 3, 4, 5]] if order == "shuffled" else x[[0, 0, 1, 2, 3, 4]]
    stream = EncoderStream()
    eval_pass(params, cfg, x[:1], stream)
    last = stream.last.copy()
    got = eval_pass(params, cfg, batch, stream)
    assert stream_calls == [1]
    assert np.array_equal(stream.last, last)
    assert np.array_equal(got, eval_pass(params, cfg, batch))


@pytest.mark.parametrize("batch_size", [1, 4])
def test_stride_two_windows_fall_back(batch_size, stream_calls):
    cfg, prepared, params = case("tiny", stride=2)
    got = split_predictions(params, cfg, prepared, "test", batch_size=batch_size)
    assert stream_calls == []
    assert np.array_equal(got, unstreamed(params, cfg, prepared, "test", batch_size))


def test_training_pass_ignores_the_stream(stream_calls):
    cfg, prepared, params = case("tiny")
    ws = prepared.splits["train"]
    x, y = ws.x[:4], ws.y[:4]
    uniforms = np.random.default_rng(3).random(x.shape)
    flags, weights = AblationFlags(), LossWeights()
    stream = EncoderStream()
    runs = []
    for s in (stream, None):
        res = forward_pass(params, cfg, flags, weights, x, y, mask_uniforms=uniforms, stream=s)
        runs.append((res, gradients(res.total, params.named)))
    (streamed, streamed_grads), (plain, plain_grads) = runs
    assert stream_calls == [] and stream.last is None
    assert np.array_equal(streamed.total.data, plain.total.data)
    assert np.array_equal(streamed.predictions.data, plain.predictions.data)
    assert all(np.array_equal(streamed_grads[n], plain_grads[n]) for n in plain_grads)


@pytest.mark.parametrize("batch_size", [1, 4, 7, 64])
def test_evaluate_makes_one_forward_pass_per_batch(batch_size, monkeypatch):
    cfg, prepared, params = case("tiny")
    count = prepared.splits["test"].count
    sizes = []
    forward = training.forward_pass

    def counting(*args, **kwargs):
        sizes.append(len(args[4]))
        return forward(*args, **kwargs)

    monkeypatch.setattr(training, "forward_pass", counting)
    evaluate(params, cfg, prepared, "test", batch_size)
    full, ragged = divmod(count, batch_size)
    assert sizes == [batch_size] * full + ([ragged] if ragged else [])


def test_taped_streamed_pass_ends_at_the_queues():
    cfg, prepared, params = case("tiny")
    x = prepared.splits["test"].x
    stream = EncoderStream()
    eval_pass(params, cfg, x[:3], stream)
    flags, weights = AblationFlags(), LossWeights()
    streamed = forward_pass(params, cfg, flags, weights, x[3:5], training=False, stream=stream)
    plain = forward_pass(params, cfg, flags, weights, x[3:5], training=False)
    assert np.array_equal(streamed.predictions.data, plain.predictions.data)
    # the queues are data, so the streamed graph reaches the earlier steps of no window
    name = "encoder.input_proj.weight"
    cut = gradients(streamed.predictions.sum(), params.named)[name]
    full = gradients(plain.predictions.sum(), params.named)[name]
    assert np.isfinite(cut).all() and not np.allclose(cut, full)


def test_window_of_the_wrong_length_is_config_error():
    cfg, prepared, params = case("tiny")
    x = prepared.splits["test"].x
    with pytest.raises(ConfigError, match="receptive field"):
        eval_pass(params, cfg, x[:3, 1:], EncoderStream())
