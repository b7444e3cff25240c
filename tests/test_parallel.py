"""Window-parallel passes: ``forward_pass`` with one shard per window.

Small configurations run batched at the default ``SHARD_BYTES``, so the
sharded path is forced here by setting the threshold to 0 and compared
with the batched path on the same inputs.
"""

import gc
import sys
import warnings

import numpy as np
import pytest

from mossl import model, parallel, tensor
from mossl.augmentation import uniforms_for_mask
from mossl.errors import ConfigError, NumericalError
from mossl.gradcheck import grad_check
from mossl.model import AblationFlags, LossWeights, ModelConfig, ModelDims, forward_pass, init_params
from mossl.rng import derive_rng
from mossl.tensor import gradients, no_grad
from test_encoder import SMALL, max_rel_diff
from test_model import TINY
from test_tensor import held_tensors

# (model config, flags, input steps, nodes, modalities, batch)
CASES = {
    "tiny": (TINY, AblationFlags(), 4, 3, 2, 3),
    "small": (SMALL, AblationFlags(), 8, 6, 3, 4),
    "small-no_mg": (SMALL, AblationFlags(no_mg=True), 8, 6, 3, 4),
}


def case_batch(case, seed=7):
    cfg, flags, steps, nodes, modalities, batch = CASES[case]
    dims = ModelDims(input_steps=steps, output_steps=2, nodes=nodes, modalities=modalities)
    params = init_params(cfg, dims, flags, seed=5)
    r = np.random.default_rng(seed)
    x = r.standard_normal((batch, steps, nodes, modalities))
    y = r.standard_normal((batch, 2, nodes, modalities))
    return cfg, flags, params, x, y, r.random(x.shape)


def paper_batch(batch):
    """``case_batch``'s fields at the paper shape: N=98, M=4, T=16, hidden 48."""
    cfg = ModelConfig()
    dims = ModelDims(input_steps=16, output_steps=3, nodes=98, modalities=4)
    params = init_params(cfg, dims, AblationFlags(), seed=0)
    r = derive_rng(0, "paper-shape")
    x = r.standard_normal((batch, 16, 98, 4))
    return cfg, AblationFlags(), params, x, r.standard_normal((batch, 3, 98, 4)), r.random(x.shape)


def train_step(cfg, flags, params, x, y, u):
    """The pass, its parameter gradients, and whether it ran sharded."""
    res = forward_pass(params, cfg, flags, LossWeights(0.7, 0.3, 0.2), x, y, mask_uniforms=u)
    sharded = is_sharded(res, params)
    return res, gradients(res.total, params.named), sharded


def is_sharded(res, params) -> bool:
    """The sharded path's loss is one node whose parents are the master parameters' nodes."""
    return {id(n) for n in res.total._node.parents} == {id(p._node) for p in params.named.values()}


def shard_all(monkeypatch):
    monkeypatch.setattr(model, "SHARD_BYTES", 0)


@pytest.mark.parametrize("case", sorted(CASES))
def test_sharded_loss_and_gradients_match_batched(case, monkeypatch):
    cfg, flags, params, x, y, u = case_batch(case)
    batched, batched_grads, was_sharded = train_step(cfg, flags, params, x, y, u)
    assert not was_sharded
    shard_all(monkeypatch)
    sharded, sharded_grads, was_sharded = train_step(cfg, flags, params, x, y, u)
    assert was_sharded

    want = float(batched.total.data)
    assert abs(float(sharded.total.data) - want) <= 1e-12 * abs(want)
    assert sharded.parts.keys() == batched.parts.keys()
    for name, part in batched.parts.items():
        assert abs(float(sharded.parts[name].data) - float(part.data)) <= 1e-12 * abs(float(part.data))
    assert max_rel_diff(sharded_grads, batched_grads) <= 1e-12
    if batched.mask is None:
        assert sharded.mask is None
    else:
        assert np.array_equal(sharded.mask, batched.mask)
    # the sharded path joins the mixture state (gamma, mu, sigma2) by hand; no_mg has none
    assert (batched.mixture is None) == (case == "small-no_mg")
    assert (sharded.mixture is None) == (batched.mixture is None)
    pairs = [
        (getattr(sharded.mixture, f), getattr(batched.mixture, f))
        for f in ("gamma", "mu", "sigma2")
        if batched.mixture is not None
    ]
    for field in ("predictions", "h", "h_second"):
        got, ref = getattr(sharded, field), getattr(batched, field)
        if ref is None:
            assert got is None
            continue
        pairs.append((got, ref))
    for got, ref in pairs:
        assert got.shape == ref.shape
        assert np.max(np.abs(got.data - ref.data)) <= 1e-12 * max(np.max(np.abs(ref.data)), 1e-300)


@pytest.mark.parametrize("sharded", [False, True], ids=["batched", "sharded"])
def test_no_graph_edge_or_closure_holds_a_tensor(sharded, monkeypatch):
    # a tensor on the tape would pin its array, and every array it was built from, until backward
    cfg, flags, params, x, y, u = case_batch("small")
    if sharded:
        shard_all(monkeypatch)
    res = forward_pass(params, cfg, flags, LossWeights(0.7, 0.3, 0.2), x, y, mask_uniforms=u)
    assert is_sharded(res, params) == sharded
    assert held_tensors(res.total._node) == []


def test_sharded_total_carries_each_parts_gradient(monkeypatch):
    cfg, flags, params, x, y, u = case_batch("tiny")
    batched = forward_pass(params, cfg, flags, LossWeights(), x, y, mask_uniforms=u)
    want = gradients(batched.parts["mixture"], params.named)
    shard_all(monkeypatch)
    sharded = forward_pass(params, cfg, flags, LossWeights(0, 1, 0), x, y, mask_uniforms=u)
    assert not any(part.requires_grad for part in sharded.parts.values())
    assert max_rel_diff(gradients(sharded.total, params.named), want) <= 1e-12
    # the total's node is released by the first backward, as the batched tape is
    with pytest.raises(ConfigError, match="released graph"):
        gradients(sharded.total, params.named)


def test_no_window_graph_outlives_its_shard(monkeypatch):
    shard_all(monkeypatch)
    cfg, flags, params, x, y, u = case_batch("small")
    res = forward_pass(params, cfg, flags, LossWeights(0.7, 0.3, 0.2), x, y, mask_uniforms=u)
    gc.collect()  # unreachable cycles other tests left behind are not alive
    live = {id(obj) for obj in gc.get_objects() if isinstance(obj, tensor._Node)}
    assert live == {id(p._node) for p in params.named.values()} | {id(res.total._node)}


@pytest.mark.parametrize("case", ["tiny", "small"])
def test_sharded_eval_predictions_match_batched(case, monkeypatch):
    cfg, flags, params, x, _, _ = case_batch(case)
    with no_grad():
        batched = forward_pass(params, cfg, flags, LossWeights(), x, training=False)
        shard_all(monkeypatch)
        sharded = forward_pass(params, cfg, flags, LossWeights(), x, training=False)
    ref = batched.predictions.data
    assert np.max(np.abs(sharded.predictions.data - ref)) <= 1e-12 * np.max(np.abs(ref))
    assert sharded.total is None and not sharded.parts


def test_sharded_full_model_gradient_check(monkeypatch):
    shard_all(monkeypatch)
    cfg, flags, params, x, y, u = case_batch("tiny")
    x, y, u = x[:2], y[:2], u[:2]
    for name, p in params.named.items():
        p.data += derive_rng(0, "gradcheck-offset", name).uniform(-0.05, 0.05, p.shape)
    with no_grad():
        mask = forward_pass(params, cfg, flags, LossWeights(), x, y, mask_uniforms=u).mask
    pinned = uniforms_for_mask(mask)

    calls = []
    forward_sharded = model._forward_sharded

    def spy(*args):
        calls.append(len(args[4]))
        return forward_sharded(*args)

    monkeypatch.setattr(model, "_forward_sharded", spy)

    def loss_fn():
        return forward_pass(params, cfg, flags, LossWeights(), x, y, mask_uniforms=pinned).total

    report = grad_check(loss_fn, params.named)
    assert report.max_rel_error < 1e-4, report.worst_param
    # every evaluation, the base one and each perturbed one, ran sharded
    assert calls == [2] * (1 + 2 * sum(p.size for p in params.named.values()))


def test_one_worker_and_more_workers_than_cores_are_byte_identical(monkeypatch):
    shard_all(monkeypatch)

    def run(cores, cfg, flags, params, x, y, u):
        monkeypatch.setattr(parallel, "usable_cores", lambda: cores)
        res, grads, _ = train_step(cfg, flags, params, x, y, u)
        return [res.total.data.tobytes(), res.predictions.data.tobytes()] + [
            grads[name].tobytes() for name in sorted(grads)
        ]

    # only the paper shape's GEMMs are large enough for OpenBLAS to split over threads
    for batch in (case_batch("small"), paper_batch(2)):
        windows = len(batch[3])
        serial = run(1, *batch)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads as often as the interpreter allows
        try:
            for _ in range(3):
                assert run(windows - 1, *batch) == serial
                assert run(windows, *batch) == serial
        finally:
            sys.setswitchinterval(interval)


def test_sharded_pass_under_no_grad_records_no_tape(monkeypatch):
    shard_all(monkeypatch)
    cfg, flags, params, x, y, u = case_batch("tiny")
    taped = []
    make = tensor._make

    def counting_make(data, parents, backward_fn):
        out = make(data, parents, backward_fn)
        taped.append(out.requires_grad)
        return out

    monkeypatch.setattr(tensor, "_make", counting_make)
    with no_grad():
        res = forward_pass(params, cfg, flags, LossWeights(), x, y, mask_uniforms=u)
    assert taped and not any(taped)
    for t in [res.total, *res.parts.values()]:
        assert not t.requires_grad and t._node is None and t._backward is None


def test_shard_error_names_the_callers_window(monkeypatch):
    cfg, flags, params, x, y, u = case_batch("tiny")
    x[1, 0, 0, 0] = np.inf
    # the shards run under the caller's numpy error state, so they warn of nothing either
    with np.errstate(invalid="ignore"), warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalError, match="window 1 of the batch"):
            forward_pass(params, cfg, flags, LossWeights(), x, y, mask_uniforms=u)
        shard_all(monkeypatch)
        monkeypatch.setattr(parallel, "usable_cores", lambda: 2)
        message = "^window 1 of the batch: mixture NLL is non-finite$"
        with pytest.raises(NumericalError, match=message):
            forward_pass(params, cfg, flags, LossWeights(), x, y, mask_uniforms=u)


def test_blas_thread_count_is_pinned_and_restored(monkeypatch):
    control = parallel.blas_thread_control()
    if control is None:
        pytest.skip("no OpenBLAS thread-count entry point in this numpy")
    get_threads, set_threads = control
    shard_all(monkeypatch)
    monkeypatch.setattr(parallel, "usable_cores", lambda: 2)
    cfg, flags, params, x, y, u = case_batch("tiny")
    seen = []
    forward_batch = model._forward_batch

    def recording(*args):
        seen.append(get_threads())
        return forward_batch(*args)

    monkeypatch.setattr(model, "_forward_batch", recording)
    before = get_threads()
    set_threads(2)
    try:
        train_step(cfg, flags, params, x, y, u)
        assert get_threads() == 2
        x[1, 0, 0, 0] = np.inf
        with np.errstate(invalid="ignore"), pytest.raises(NumericalError):
            forward_pass(params, cfg, flags, LossWeights(), x, y, mask_uniforms=u)
        assert get_threads() == 2
    finally:
        set_threads(before)
    assert seen and set(seen) == {1}


def test_paper_shape_sharded_eval_is_bit_identical(monkeypatch):
    cfg, _, params, x, _, _ = paper_batch(2)
    assert x[0].nbytes * cfg.hidden >= model.SHARD_BYTES  # the paper shape shards by default

    def predictions():
        with no_grad():
            return forward_pass(params, cfg, AblationFlags(), LossWeights(), x, training=False)

    sharded = predictions()
    monkeypatch.setattr(model, "SHARD_BYTES", np.inf)
    batched = predictions()
    assert np.array_equal(sharded.predictions.data, batched.predictions.data)
