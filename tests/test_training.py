"""Optimizer, metrics, trainer determinism, and checkpointing."""

import numpy as np
import pytest

from mossl.data import SplitSpec, SynthSpec, prepare_windows, synth_generate
from mossl.errors import CheckpointError
from mossl.model import AblationFlags, LossWeights, ModelConfig, ModelDims, init_params
from mossl.tensor import Tensor
from mossl.training import (
    AdamState,
    Metrics,
    TrainConfig,
    adam_step,
    compute_metrics,
    evaluate,
    load_checkpoint,
    persistence_metrics,
    restore_params,
    save_checkpoint,
    split_predictions,
    stats_from_manifest,
    train,
)


def rng(seed=0):
    return np.random.default_rng(seed)


class TestAdam:
    def test_zero_gradient_leaves_params(self):
        p = {"w": Tensor(np.array([1.0, -2.0]), requires_grad=True)}
        state = AdamState(p)
        adam_step(p, {"w": np.zeros(2)}, state, lr=0.1)
        assert np.array_equal(p["w"].data, [1.0, -2.0])

    def test_first_step_magnitude_bounded_by_lr(self):
        p = {"w": Tensor(np.array([0.0]), requires_grad=True)}
        state = AdamState(p)
        adam_step(p, {"w": np.array([3.7])}, state, lr=0.05)
        assert abs(p["w"].data[0]) <= 0.05 * (1 + 1e-6)
        assert p["w"].data[0] < 0  # moves against the gradient

    def test_quadratic_converges_within_hundred_steps(self):
        p = {"theta": Tensor(np.array([1.0]), requires_grad=True)}
        state = AdamState(p)
        for _ in range(100):
            grad = 2.0 * p["theta"].data
            adam_step(p, {"theta": grad}, state, lr=0.1)
        assert abs(p["theta"].data[0]) < 0.05

    def test_bias_correction_matches_reference_simulation(self):
        p = {"w": Tensor(np.array([0.5]), requires_grad=True)}
        state = AdamState(p)
        grads = rng(1).standard_normal(5)
        for g in grads:
            adam_step(p, {"w": np.array([g])}, state, lr=0.01)
        # independent scalar recurrence
        m = v = 0.0
        w = 0.5
        for t, g in enumerate(grads, start=1):
            m = 0.9 * m + 0.1 * g
            v = 0.999 * v + 0.001 * g * g
            w -= 0.01 * (m / (1 - 0.9**t)) / (np.sqrt(v / (1 - 0.999**t)) + 1e-8)
        assert abs(p["w"].data[0] - w) < 1e-12


class TestMetrics:
    def test_perfect_predictions(self):
        truth = rng(2).standard_normal((4, 2, 3, 2))
        m = compute_metrics(truth, truth, ["a", "b"])
        assert all(r.mae == 0.0 and r.rmse == 0.0 for r in m.rows)

    def test_hand_example(self):
        pred = np.array([1.0, 2.0]).reshape(2, 1, 1, 1)
        truth = np.zeros((2, 1, 1, 1))
        m = compute_metrics(pred, truth, ["a"])
        row = m.lookup("a", 1)
        assert row.mae == pytest.approx(1.5)
        assert row.rmse == pytest.approx(np.sqrt(2.5))

    def test_rmse_at_least_mae(self):
        pred = rng(3).standard_normal((10, 3, 4, 2))
        truth = rng(4).standard_normal((10, 3, 4, 2))
        m = compute_metrics(pred, truth, ["a", "b"])
        for row in m.rows:
            assert row.rmse >= row.mae >= 0.0

    def test_rows_cover_modalities_and_horizons(self):
        m = compute_metrics(np.zeros((2, 3, 1, 2)), np.zeros((2, 3, 1, 2)), ["a", "b"])
        assert [(r.modality, r.horizon) for r in m.rows] == [
            ("a", 1), ("a", 2), ("a", 3), ("b", 1), ("b", 2), ("b", 3)
        ]

    def test_csv_and_json_round_trip(self):
        m = compute_metrics(rng(5).standard_normal((3, 2, 1, 1)), np.zeros((3, 2, 1, 1)), ["a"])
        text = m.to_csv_text()
        assert text.splitlines()[0] == "modality,horizon,mae,rmse"
        back = Metrics.from_json_dict(m.to_json_dict())
        assert back == m


def tiny_prepared(seed=21, steps=120):
    spec = SynthSpec(
        nodes=3,
        modalities=2,
        steps=steps,
        coupling=[[0.7, 0.3], [0.3, 0.7]],
        noise=0.05,
    )
    series = synth_generate(spec, seed=seed)
    return prepare_windows(series, SplitSpec(0.7, 0.1, 0.2), input_steps=4, output_steps=1)


TINY_MODEL = ModelConfig(hidden=4, layers=2, kernel_size=2, dilations=(1, 2), mixture_components=2)


def tiny_train_cfg(**kw):
    base = dict(
        epochs=2,
        batch_size=8,
        learning_rate=1e-3,
        loss_weights=LossWeights(1.0, 0.05, 0.2),
        early_stop_patience=None,
    )
    base.update(kw)
    return TrainConfig(**base)


class TestTrainLoop:
    def test_two_runs_same_seed_bit_identical(self):
        prepared = tiny_prepared()
        a = train(prepared, TINY_MODEL, tiny_train_cfg(), seed=3, quiet=True)
        b = train(prepared, TINY_MODEL, tiny_train_cfg(), seed=3, quiet=True)
        strip = lambda history: [
            {k: v for k, v in rec.items() if k != "seconds"} for rec in history
        ]
        assert strip(a.history) == strip(b.history)
        for name in a.params.named:
            assert np.array_equal(a.params.named[name].data, b.params.named[name].data), name

    def test_history_records_all_enabled_parts(self):
        prepared = tiny_prepared()
        result = train(prepared, TINY_MODEL, tiny_train_cfg(), seed=4, quiet=True)
        for record in result.history:
            assert {"epoch", "loss", "forecast", "mixture", "contrast", "val_rmse"} <= set(record)

    def test_disabled_loss_absent_from_history(self):
        prepared = tiny_prepared()
        cfg = tiny_train_cfg(ablation=AblationFlags(no_gssl=True))
        result = train(prepared, TINY_MODEL, cfg, seed=5, quiet=True)
        for record in result.history:
            assert "mixture" not in record
            assert "contrast" in record

    def test_early_stopping_halts(self):
        prepared = tiny_prepared()
        cfg = tiny_train_cfg(epochs=30, learning_rate=0.0, early_stop_patience=2)
        result = train(prepared, TINY_MODEL, cfg, seed=6, quiet=True)
        # with lr=0 validation never improves after the first epoch
        assert len(result.history) == 3

    def test_early_stopping_returns_the_best_val_epoch(self):
        prepared = tiny_prepared()
        cfg = tiny_train_cfg(epochs=30, learning_rate=0.1, early_stop_patience=2)
        result = train(prepared, TINY_MODEL, cfg, seed=6, quiet=True)
        rmses = [record["val_rmse"] for record in result.history]
        best = int(np.argmin(rmses))
        assert best < len(rmses) - 1  # training ran past its best epoch
        assert result.val_metrics.mean_rmse == rmses[best]
        assert evaluate(result.params, TINY_MODEL, prepared, "val") == result.val_metrics

    def test_seeded_masks_differ_across_epochs(self):
        from mossl.training import window_mask_uniforms

        a = window_mask_uniforms(0, 1, 5, (4, 3, 2))
        b = window_mask_uniforms(0, 2, 5, (4, 3, 2))
        c = window_mask_uniforms(0, 1, 5, (4, 3, 2))
        assert not np.array_equal(a, b)
        assert np.array_equal(a, c)


class TestEvaluate:
    def test_zeroed_output_layer_predicts_modality_mean(self):
        prepared = tiny_prepared()
        dims = ModelDims(4, 1, 3, 2)
        flags = AblationFlags()
        params = init_params(TINY_MODEL, dims, flags, seed=7)
        params.named["predictor.out.weight"].data[...] = 0.0
        params.named["predictor.out.bias"].data[...] = 0.0
        predictions = split_predictions(params, TINY_MODEL, prepared, "test")
        expected = np.broadcast_to(
            prepared.stats.mean, predictions.shape
        )
        assert np.max(np.abs(predictions - expected)) < 1e-12
        metrics = evaluate(params, TINY_MODEL, prepared, "test")
        truth = prepared.stats.invert(prepared.splits["test"].y)
        for mi, name in enumerate(prepared.modality_names):
            expected_mae = np.mean(np.abs(truth[:, 0, :, mi] - prepared.stats.mean[mi]))
            assert metrics.lookup(name, 1).mae == pytest.approx(expected_mae, rel=1e-12)

    def test_persistence_baseline_formula(self):
        prepared = tiny_prepared()
        metrics = persistence_metrics(prepared, "test")
        ws = prepared.splits["test"]
        truth = prepared.stats.invert(ws.y)
        last = prepared.stats.invert(ws.x[:, -1])
        for mi, name in enumerate(prepared.modality_names):
            err = last[:, :, mi] - truth[:, 0, :, mi]
            assert metrics.lookup(name, 1).rmse == pytest.approx(
                float(np.sqrt(np.mean(err**2))), rel=1e-12
            )


class TestCheckpoint:
    def test_round_trip_is_bit_exact(self, tmp_path):
        prepared = tiny_prepared()
        result = train(prepared, TINY_MODEL, tiny_train_cfg(epochs=1), seed=8, quiet=True)
        path = tmp_path / "ckpt.mossl"
        save_checkpoint(path, result.params, prepared.stats, {"dims": {"nodes": 3}})
        manifest, arrays = load_checkpoint(path)
        assert manifest["dims"] == {"nodes": 3}
        assert set(arrays) == set(result.params.named)
        for name, arr in arrays.items():
            assert np.array_equal(arr, result.params.named[name].data), name
        stats = stats_from_manifest(manifest)
        assert np.array_equal(stats.mean, prepared.stats.mean)
        assert np.array_equal(stats.std, prepared.stats.std)

    def test_restore_rejects_missing_parameter(self, tmp_path):
        dims = ModelDims(4, 1, 3, 2)
        params = init_params(TINY_MODEL, dims, AblationFlags(), seed=9)
        arrays = {n: p.data for n, p in params.named.items()}
        arrays.pop("fusion.pair_matrix")
        with pytest.raises(CheckpointError, match="fusion.pair_matrix"):
            restore_params(arrays, TINY_MODEL, dims, AblationFlags())

    def test_restore_rejects_shape_mismatch(self):
        dims = ModelDims(4, 1, 3, 2)
        params = init_params(TINY_MODEL, dims, AblationFlags(), seed=10)
        arrays = {n: p.data.copy() for n, p in params.named.items()}
        arrays["predictor.out.bias"] = np.zeros(7)
        with pytest.raises(CheckpointError, match="predictor.out.bias"):
            restore_params(arrays, TINY_MODEL, dims, AblationFlags())

    def test_restored_params_evaluate_identically(self, tmp_path):
        prepared = tiny_prepared()
        result = train(prepared, TINY_MODEL, tiny_train_cfg(epochs=1), seed=11, quiet=True)
        path = tmp_path / "ckpt.mossl"
        save_checkpoint(path, result.params, prepared.stats, {})
        _, arrays = load_checkpoint(path)
        dims = ModelDims(4, 1, 3, 2)
        restored = restore_params(arrays, TINY_MODEL, dims, AblationFlags())
        before = evaluate(result.params, TINY_MODEL, prepared, "val")
        after = evaluate(restored, TINY_MODEL, prepared, "val")
        assert before == after
