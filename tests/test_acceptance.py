"""Acceptance gate: every criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.  The synthetic-learning criterion trains for 50 epochs and
dominates the suite's runtime (a few minutes); it runs last.
"""

import json
import math
import time

import numpy as np
import pytest
from scipy.special import softmax as scipy_softmax

from mossl import augmentation as aug
from mossl import encoder as enc
from mossl import gssl, mssl
from mossl.config import parse_config
from mossl.data import SplitSpec, SynthSpec, prepare_windows, synth_generate
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
from mossl.runs import run_ablation, run_gradcheck, run_training, load_run_params
from mossl.tensor import Tensor, dilated_causal_conv
from mossl.training import TrainConfig, evaluate, persistence_metrics, train
from oracles import attention_loop, conv_loop, contrastive_loop, gmm_nll_prob_domain

TINY_CONFIG_TEXT = json.dumps(
    {
        "name": "tiny",
        "seed": 0,
        "data": {
            "kind": "synthetic",
            "input_steps": 4,
            "output_steps": 1,
            "split": [0.7, 0.1, 0.2],
            "synthetic": {
                "nodes": 3,
                "modalities": 2,
                "steps": 60,
                "coupling": [[0.7, 0.3], [0.3, 0.7]],
                "noise": 0.1,
            },
        },
        "model": {
            "hidden": 4,
            "layers": 2,
            "kernel_size": 2,
            "dilations": [1, 2],
            "mixture_components": 2,
        },
        "train": {"epochs": 2, "batch_size": 8, "early_stop_patience": None},
    }
)


def report(criterion: str, detail: str) -> None:
    print(f"[{criterion}] PASS — {detail}")


def test_criterion_1_full_model_gradient_check():
    """Tiny config: T=4, layers (1,2), N=3, M=2, hidden 4, K=2, O=1."""
    started = time.perf_counter()
    result = run_gradcheck(parse_config(TINY_CONFIG_TEXT), quiet=True)
    elapsed = time.perf_counter() - started
    assert result.max_rel_error < 1e-4, result.worst_param
    assert elapsed < 60.0
    report(
        "criterion 1",
        f"full-model gradient check max rel error {result.max_rel_error:.2e} "
        f"(< 1e-4) in {elapsed:.1f}s",
    )


def test_criterion_2_paper_shape_contract():
    """T=16, 4 layers, k=2, hidden 48, K=4, N=98, M=4, O=3."""
    started = time.perf_counter()
    cfg = ModelConfig(hidden=48, layers=4, kernel_size=2, dilations=(1, 2, 4, 8), mixture_components=4)
    dims = ModelDims(input_steps=16, output_steps=3, nodes=98, modalities=4)
    flags = AblationFlags()
    params = init_params(cfg, dims, flags, seed=0)
    b = derive_rng(0, "paper-shape")
    x = b.standard_normal((1, 16, 98, 4))
    y = b.standard_normal((1, 3, 98, 4))
    uniforms = b.random((1, 16, 98, 4))
    res = forward_pass(params, cfg, flags, LossWeights(), x, y, mask_uniforms=uniforms, training=True)
    elapsed = time.perf_counter() - started

    assert res.h.data.shape == (1, 1, 98, 4, 48)
    assert res.augmented_input.data.shape == (1, 16, 98, 4, 49)
    gamma = res.mixture.gamma.data
    assert gamma.shape == (1, 4)
    assert abs(float(gamma.sum()) - 1.0) < 1e-12
    assert res.predictions.data.shape == (1, 3, 98, 4)
    assert elapsed < 30.0
    report(
        "criterion 2",
        f"H [1,98,4,48], augmented input [16,98,4,49], gamma sums to 1, "
        f"predictions [3,98,4] in {elapsed:.1f}s",
    )


def test_criterion_3_oracle_equivalence():
    """Twenty random tiny instances per operation, 1e-8 agreement."""
    worst = {"modality_attention": 0.0, "spatial_attention": 0.0, "conv": 0.0,
             "mixture_nll": 0.0, "contrastive": 0.0}
    for trial in range(20):
        b = derive_rng(100, "oracle", trial)

        builder = _Builder(trial)
        attn = builder.attention("a", 4)
        wq, bq = attn.query.weight.data, attn.query.bias.data
        wk, bk = attn.key.weight.data, attn.key.bias.data
        wv, bv = attn.value.weight.data, attn.value.bias.data
        for t in (attn.query.bias, attn.key.bias, attn.value.bias):
            t.data += b.standard_normal(t.shape) * 0.3

        h = b.standard_normal((2, 2, 3, 4))  # [T, N, M, C]
        got = enc.modality_attention(Tensor(h), attn).data
        want = attention_loop(h, wq, bq, wk, bk, wv, bv)
        worst["modality_attention"] = max(worst["modality_attention"], np.max(np.abs(got - want)))

        got = enc.spatial_attention(Tensor(h), attn).data
        want = attention_loop(np.swapaxes(h, 1, 2), wq, bq, wk, bk, wv, bv)
        worst["spatial_attention"] = max(
            worst["spatial_attention"], np.max(np.abs(got - np.swapaxes(want, 1, 2)))
        )

        x = b.standard_normal((2, 7, 3))
        kernel = b.standard_normal((2, 3, 2))
        got = dilated_causal_conv(Tensor(x), Tensor(kernel), dilation=2).data
        worst["conv"] = max(worst["conv"], np.max(np.abs(got - conv_loop(x, kernel, 2))))

        cells = b.standard_normal((1, 1, 3, 2, 1))  # K=2, one channel
        gamma = scipy_softmax(b.standard_normal(2))
        mu = b.standard_normal((2, 1))
        sigma2 = np.exp(b.standard_normal((2, 1)) * 0.5)
        state = gssl.MixtureState(
            gamma=Tensor(gamma[None]), mu=Tensor(mu[None]), sigma2=Tensor(sigma2[None])
        )
        got = float(gssl.gssl_loss(Tensor(cells), state).data)
        want = gmm_nll_prob_domain(cells.reshape(-1, 1), gamma, mu, sigma2)
        worst["mixture_nll"] = max(worst["mixture_nll"], abs(got - want))

        fused = b.standard_normal((1, 2, 2, 2, 3))  # M=2
        context = b.random((1, 2, 3))
        w3 = b.standard_normal((3, 3))
        got = float(mssl.mssl_loss(Tensor(fused), Tensor(context), Tensor(w3)).data)
        want = contrastive_loop(fused[0], context[0], w3)
        worst["contrastive"] = max(worst["contrastive"], abs(got - want))

    for name, err in worst.items():
        assert err < 1e-8, (name, err)
    detail = ", ".join(f"{k} {v:.1e}" for k, v in worst.items())
    report("criterion 3", f"20 random instances per op; worst deviations: {detail}")


def test_criterion_4_closed_form_anchors():
    h = Tensor(np.zeros((1, 1, 1, 1, 1)))
    state = gssl.MixtureState(
        gamma=Tensor(np.ones((1, 1))),
        mu=Tensor(np.zeros((1, 1, 1))),
        sigma2=Tensor(np.ones((1, 1, 1))),
    )
    nll = float(gssl.gssl_loss(h, state).data)
    assert abs(nll - 0.5 * math.log(2 * math.pi)) < 1e-9

    t_len, n_len, m_len, hidden = 3, 2, 2, 4
    fused = Tensor(derive_rng(4, "anchors").standard_normal((1, t_len, n_len, m_len, hidden)))
    context = Tensor(derive_rng(4, "context").random((1, m_len, hidden)))
    loss = float(mssl.mssl_loss(fused, context, Tensor(np.zeros((hidden, hidden)))).data)
    anchors = t_len * n_len * m_len
    assert abs(loss - anchors * m_len * math.log(2)) < 1e-9
    report(
        "criterion 4",
        f"mixture NLL at mean = ln(2*pi)/2 and zero-coupling contrastive loss = "
        f"{anchors}*{m_len}*ln2, both within 1e-9",
    )


def test_criterion_5_mask_rate_statistics():
    """Uniform relevance over M=4 masks each cell at rate 0.75 +/- 0.02."""
    grid = (5, 2, 4)
    phi = np.full(grid, 0.25)  # w0 = 0 makes relevance uniform over 4 modalities
    draws = 10_000
    counts = np.zeros(grid)
    for i in range(draws):
        counts += aug.sample_mask(phi, derive_rng(55, "mask-rate", i))
    rates = counts / draws
    assert np.all(np.abs(rates - 0.75) < 0.02)

    again = [aug.sample_mask(phi, derive_rng(55, "mask-rate", i)) for i in (0, 1)]
    assert np.array_equal(again[0], aug.sample_mask(phi, derive_rng(55, "mask-rate", 0)))
    assert not np.array_equal(again[0], again[1])
    report(
        "criterion 5",
        f"per-cell mask frequency in [{rates.min():.3f}, {rates.max():.3f}] "
        f"over 10^4 draws; fixed seed reproduces the draw",
    )


def test_criterion_7_ablation_harness(tmp_path):
    cfg = parse_config(TINY_CONFIG_TEXT)
    root = run_ablation(cfg, tmp_path, quiet=True)
    rows = json.loads((root / "comparison.json").read_text())
    assert [r["variant"] for r in rows] == ["full", "no_av", "no_mg", "no_gssl", "no_mssl"]
    disabled = {
        "full": set(),
        "no_av": {"mixture"},
        "no_mg": {"mixture"},
        "no_gssl": {"mixture"},
        "no_mssl": {"contrast"},
    }
    orderings = []
    for row in rows:
        history = json.loads((root / row["run_dir"] / "history.json").read_text())
        for record in history:
            for term in disabled[row["variant"]]:
                assert term not in record, (row["variant"], term)
        orderings.append((row["variant"], row["test_rmse"]))
    ranked = sorted(orderings, key=lambda pair: pair[1])
    report(
        "criterion 7",
        "five variants ran; disabled terms absent from histories; "
        "accuracy ordering (reported, not asserted): "
        + " < ".join(f"{name} {rmse:.3f}" for name, rmse in ranked),
    )


def test_criterion_8_determinism_and_round_trip(tmp_path):
    cfg = parse_config(TINY_CONFIG_TEXT)
    dir_a, _ = run_training(cfg, tmp_path / "a", quiet=True)
    dir_b, _ = run_training(cfg, tmp_path / "b", quiet=True)
    bytes_a = (dir_a / "checkpoint.mossl").read_bytes()
    bytes_b = (dir_b / "checkpoint.mossl").read_bytes()
    assert bytes_a == bytes_b

    prepared = prepare_windows(
        synth_generate(cfg.data.synthetic, cfg.seed),
        cfg.data.split,
        cfg.data.input_steps,
        cfg.data.output_steps,
    )
    params, manifest, _flags = load_run_params(cfg, dir_a / "checkpoint.mossl", prepared)
    reproduced = evaluate(params, cfg.model, prepared, "val")
    assert reproduced.to_json_dict() == manifest["val_metrics"]
    report(
        "criterion 8",
        f"two runs produced byte-identical checkpoints ({len(bytes_a)} bytes); "
        "eval after load reproduces training-time val metrics exactly",
    )


@pytest.mark.slow
def test_criterion_6_learning_on_synthetic_data():
    """N=6, M=3, 2000 steps, planted coupling, seed 7; 50 epochs, < 10 min."""
    started = time.perf_counter()
    spec = SynthSpec(
        nodes=6,
        modalities=3,
        steps=2000,
        regimes=2,
        coupling=[
            [[0.6, 0.3, 0.1], [0.3, 0.6, 0.1], [0.1, 0.3, 0.6]],
            [[0.8, 0.1, 0.1], [0.1, 0.8, 0.1], [0.4, 0.4, 0.2]],
        ],
        noise=0.1,
    )
    series = synth_generate(spec, seed=7)
    prepared = prepare_windows(series, SplitSpec(), input_steps=8, output_steps=3)
    model_cfg = ModelConfig(hidden=16, layers=3, kernel_size=2, dilations=(1, 2, 4), mixture_components=3)
    train_cfg = TrainConfig(
        epochs=50,
        batch_size=16,
        learning_rate=2e-3,
        loss_weights=LossWeights(forecast=1.0, mixture=0.05, contrast=0.2),
        early_stop_patience=None,
    )
    result = train(prepared, model_cfg, train_cfg, seed=7, quiet=True)
    elapsed = time.perf_counter() - started

    first = result.history[0]["forecast"]
    last = result.history[-1]["forecast"]
    assert last < 0.5 * first, (first, last)

    model_metrics = evaluate(result.params, model_cfg, prepared, "test")
    baseline = persistence_metrics(prepared, "test")
    margins = {}
    for name in prepared.modality_names:
        model_rmse = float(np.mean([r.rmse for r in model_metrics.rows if r.modality == name]))
        base_rmse = float(np.mean([r.rmse for r in baseline.rows if r.modality == name]))
        assert model_rmse < base_rmse, (name, model_rmse, base_rmse)
        margins[name] = (model_rmse, base_rmse)
    assert elapsed < 600.0
    detail = "; ".join(
        f"{name} {m:.3f} vs persistence {b:.3f}" for name, (m, b) in margins.items()
    )
    report(
        "criterion 6",
        f"forecast loss {first:.1f} -> {last:.1f} (<50%); test RMSE {detail}; "
        f"{elapsed:.0f}s total",
    )
