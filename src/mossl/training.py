"""Optimizer, training/evaluation loops, metrics, and checkpoint files."""

from __future__ import annotations

import json
import logging
import struct
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .container import read_tensor, write_tensor
from .data import NormStats, PreparedData
from .errors import CheckpointError, DataError, require_at_least_one
from .model import (
    AblationFlags,
    LossWeights,
    ModelConfig,
    ModelDims,
    ModelParams,
    forward_pass,
    init_params,
)
from .rng import derive_rng
from .tensor import Tensor, gradients

logger = logging.getLogger("mossl")

CHECKPOINT_MAGIC = b"MOSSLCKP"
CHECKPOINT_VERSION = 1


@dataclass
class TrainConfig:
    epochs: int = 100
    batch_size: int = 16
    learning_rate: float = 1e-3
    loss_weights: LossWeights = field(default_factory=LossWeights)
    ablation: AblationFlags = field(default_factory=AblationFlags)
    early_stop_patience: int | None = 10

    def __post_init__(self):
        require_at_least_one(self, "epochs", "batch_size")


# -- Adam ---------------------------------------------------------------------


class AdamState:
    def __init__(self, named: dict[str, Tensor]):
        self.m = {name: np.zeros_like(p.data) for name, p in named.items()}
        self.v = {name: np.zeros_like(p.data) for name, p in named.items()}
        self.step = 0


def adam_step(
    named: dict[str, Tensor],
    grads: dict[str, np.ndarray],
    state: AdamState,
    lr: float,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
) -> None:
    """Standard bias-corrected Adam update, in place."""
    state.step += 1
    t = state.step
    correct1 = 1.0 - beta1**t
    correct2 = 1.0 - beta2**t
    for name, p in named.items():
        g = grads[name]
        state.m[name] = beta1 * state.m[name] + (1.0 - beta1) * g
        state.v[name] = beta2 * state.v[name] + (1.0 - beta2) * (g * g)
        m_hat = state.m[name] / correct1
        v_hat = state.v[name] / correct2
        p.data -= lr * m_hat / (np.sqrt(v_hat) + eps)


# -- metrics ------------------------------------------------------------------


@dataclass
class MetricRow:
    modality: str
    horizon: int
    mae: float
    rmse: float


@dataclass
class Metrics:
    rows: list[MetricRow]

    def lookup(self, modality: str, horizon: int) -> MetricRow:
        for row in self.rows:
            if row.modality == modality and row.horizon == horizon:
                return row
        raise KeyError((modality, horizon))

    @property
    def mean_mae(self) -> float:
        return float(np.mean([r.mae for r in self.rows]))

    @property
    def mean_rmse(self) -> float:
        return float(np.mean([r.rmse for r in self.rows]))

    def to_json_dict(self) -> list[dict]:
        return [
            {"modality": r.modality, "horizon": r.horizon, "mae": r.mae, "rmse": r.rmse}
            for r in self.rows
        ]

    def to_csv_text(self) -> str:
        lines = ["modality,horizon,mae,rmse"]
        for r in self.rows:
            lines.append(f"{r.modality},{r.horizon},{r.mae!r},{r.rmse!r}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_json_dict(cls, rows: list[dict]) -> "Metrics":
        return cls([MetricRow(r["modality"], int(r["horizon"]), r["mae"], r["rmse"]) for r in rows])


def compute_metrics(
    predictions: np.ndarray, truth: np.ndarray, modality_names: list[str]
) -> Metrics:
    """Denormalized MAE/RMSE per (modality, horizon); arrays are [W, O, N, M]."""
    rows = []
    horizons = predictions.shape[1]
    for mi, name in enumerate(modality_names):
        for o in range(horizons):
            err = predictions[:, o, :, mi] - truth[:, o, :, mi]
            rows.append(
                MetricRow(
                    modality=name,
                    horizon=o + 1,
                    mae=float(np.mean(np.abs(err))),
                    rmse=float(np.sqrt(np.mean(err * err))),
                )
            )
    return Metrics(rows)


def split_predictions(
    params: ModelParams,
    model_cfg: ModelConfig,
    prepared: PreparedData,
    split: str,
    batch_size: int = 64,
) -> np.ndarray:
    """Original-view predictions for a split, denormalized, [W, O, N, M]."""
    ws = prepared.splits[split]
    if ws.count == 0:
        raise DataError(f"split '{split}' has no windows")
    flags = AblationFlags()
    weights = LossWeights()
    chunks = []
    for start in range(0, ws.count, batch_size):
        x = ws.x[start : start + batch_size]
        res = forward_pass(params, model_cfg, flags, weights, x, y=None, training=False)
        chunks.append(res.predictions.data)
    return prepared.stats.invert(np.concatenate(chunks, axis=0))


def evaluate(
    params: ModelParams,
    model_cfg: ModelConfig,
    prepared: PreparedData,
    split: str,
    batch_size: int = 64,
) -> Metrics:
    predictions = split_predictions(params, model_cfg, prepared, split, batch_size)
    truth = prepared.stats.invert(prepared.splits[split].y)
    return compute_metrics(predictions, truth, prepared.modality_names)


def persistence_metrics(prepared: PreparedData, split: str) -> Metrics:
    """Repeat-last-value baseline on the same denormalized footing."""
    ws = prepared.splits[split]
    if ws.count == 0:
        raise DataError(f"split '{split}' has no windows")
    last = ws.x[:, -1]  # [W, N, M]
    predictions = np.repeat(last[:, None, :, :], ws.y.shape[1], axis=1)
    return compute_metrics(
        prepared.stats.invert(predictions),
        prepared.stats.invert(ws.y),
        prepared.modality_names,
    )


# -- training loop --------------------------------------------------------------


def epoch_order(seed: int, epoch: int, count: int) -> np.ndarray:
    return derive_rng(seed, "shuffle", epoch).permutation(count)


def window_mask_uniforms(seed: int, epoch: int, window_index: int, shape) -> np.ndarray:
    """Fresh U(0,1) grid per (window, epoch); order-independent across batching."""
    return derive_rng(seed, "mask", epoch, window_index).random(shape)


def model_dims(prepared: PreparedData) -> ModelDims:
    """Model extents implied by a prepared dataset."""
    return ModelDims(
        input_steps=prepared.input_steps,
        output_steps=prepared.output_steps,
        nodes=len(prepared.node_ids),
        modalities=len(prepared.modality_names),
    )


@dataclass
class TrainResult:
    params: ModelParams
    history: list[dict]
    dims: ModelDims
    val_metrics: Metrics | None
    seed: int


def train(
    prepared: PreparedData,
    model_cfg: ModelConfig,
    train_cfg: TrainConfig,
    seed: int,
    quiet: bool = False,
) -> TrainResult:
    """Run the full optimization and return the parameters plus history.

    Deterministic for a fixed (config, seed): initialization, shuffling, and
    mask draws all derive from the one seed.  Under early stopping the
    returned parameters and ``val_metrics`` are those of the best-val epoch.
    """
    dims = model_dims(prepared)
    flags = train_cfg.ablation
    params = init_params(model_cfg, dims, flags, seed)
    state = AdamState(params.named)
    train_ws = prepared.splits["train"]
    if train_ws.count == 0:
        raise DataError("training split has no windows")
    has_val = prepared.splits["val"].count > 0
    grid_shape = train_ws.x.shape[1:]  # (T, N, M)

    history: list[dict] = []
    best_rmse = np.inf
    best: tuple[dict[str, np.ndarray], Metrics] | None = None  # of the best-val epoch
    stale_epochs = 0
    val_metrics: Metrics | None = None
    for epoch in range(1, train_cfg.epochs + 1):
        started = time.perf_counter()
        order = epoch_order(seed, epoch, train_ws.count)
        sums: dict[str, float] = {}
        total_sum = 0.0
        batches = 0
        for start in range(0, train_ws.count, train_cfg.batch_size):
            idx = order[start : start + train_cfg.batch_size]
            uniforms = None
            if flags.masked_view:
                uniforms = np.stack(
                    [window_mask_uniforms(seed, epoch, int(i), grid_shape) for i in idx]
                )
            res = forward_pass(
                params,
                model_cfg,
                flags,
                train_cfg.loss_weights,
                train_ws.x[idx],
                train_ws.y[idx],
                mask_uniforms=uniforms,
                training=True,
            )
            grads = gradients(res.total, params.named)
            adam_step(params.named, grads, state, train_cfg.learning_rate)
            for name, part in res.parts.items():
                sums[name] = sums.get(name, 0.0) + float(part.data)
            total_sum += float(res.total.data)
            batches += 1

        record: dict = {"epoch": epoch, "loss": total_sum / batches}
        for name, value in sums.items():
            record[name] = value / batches
        if has_val:
            val_metrics = evaluate(params, model_cfg, prepared, "val")
            record["val_mae"] = val_metrics.mean_mae
            record["val_rmse"] = val_metrics.mean_rmse
        record["seconds"] = round(time.perf_counter() - started, 3)
        history.append(record)
        if not quiet:
            shown = {k: v for k, v in record.items() if k not in ("epoch", "seconds")}
            logger.info("epoch %d: %s", epoch, json.dumps(shown))

        if has_val and train_cfg.early_stop_patience is not None:
            if record["val_rmse"] < best_rmse:
                best_rmse = record["val_rmse"]
                best = ({name: p.data.copy() for name, p in params.named.items()}, val_metrics)
                stale_epochs = 0
            else:
                stale_epochs += 1
                if stale_epochs >= train_cfg.early_stop_patience:
                    if not quiet:
                        logger.info("early stop after %d stale epochs", stale_epochs)
                    break
    if best is not None:
        best_data, val_metrics = best
        for name, p in params.named.items():
            p.data[...] = best_data[name]
    return TrainResult(params=params, history=history, dims=dims, val_metrics=val_metrics, seed=seed)


# -- checkpointing ---------------------------------------------------------------


def save_checkpoint(
    path: str | Path,
    params: ModelParams,
    stats: NormStats,
    manifest_extra: dict | None = None,
) -> None:
    """Single-file checkpoint: JSON manifest followed by tensor payloads."""
    names = list(params.named)
    manifest = {
        "format_version": CHECKPOINT_VERSION,
        "tensors": [{"name": n, "shape": list(params.named[n].shape)} for n in names],
        "norm_mean": [float(v) for v in stats.mean],
        "norm_std": [float(v) for v in stats.std],
    }
    if manifest_extra:
        manifest.update(manifest_extra)
    blob = json.dumps(manifest, sort_keys=True).encode()
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<I", len(blob)))
        fh.write(blob)
        for name in names:
            write_tensor(fh, params.named[name].data)


def load_checkpoint(path: str | Path) -> tuple[dict, dict[str, np.ndarray]]:
    """Read back (manifest, named arrays); strict about magic and version."""
    with open(path, "rb") as fh:
        magic = fh.read(len(CHECKPOINT_MAGIC))
        if magic != CHECKPOINT_MAGIC:
            raise CheckpointError(f"not a checkpoint file: bad magic {magic!r}")
        (length,) = struct.unpack("<I", fh.read(4))
        manifest = json.loads(fh.read(length).decode())
        if manifest.get("format_version") != CHECKPOINT_VERSION:
            raise CheckpointError(
                f"checkpoint format version {manifest.get('format_version')} "
                f"is not supported (expected {CHECKPOINT_VERSION})"
            )
        arrays = {}
        for entry in manifest["tensors"]:
            arr = read_tensor(fh)
            if list(arr.shape) != entry["shape"]:
                raise CheckpointError(
                    f"tensor {entry['name']} has shape {list(arr.shape)}, "
                    f"manifest says {entry['shape']}"
                )
            arrays[entry["name"]] = arr
    return manifest, arrays


def restore_params(
    arrays: dict[str, np.ndarray],
    model_cfg: ModelConfig,
    dims: ModelDims,
    flags: AblationFlags,
) -> ModelParams:
    """Rebuild a parameter set from checkpoint arrays, validating names and shapes."""
    template = init_params(model_cfg, dims, flags, seed=0)
    missing = [n for n in template.named if n not in arrays]
    extra = [n for n in arrays if n not in template.named]
    if missing or extra:
        raise CheckpointError(
            f"checkpoint does not match the configuration: missing {missing}, unexpected {extra}"
        )
    for name, tensor in template.named.items():
        if arrays[name].shape != tensor.data.shape:
            raise CheckpointError(
                f"tensor {name}: checkpoint shape {arrays[name].shape} "
                f"does not match configured shape {tensor.data.shape}"
            )
        tensor.data[...] = arrays[name]
    return template


def stats_from_manifest(manifest: dict) -> NormStats:
    return NormStats(
        mean=np.array(manifest["norm_mean"], dtype=np.float64),
        std=np.array(manifest["norm_std"], dtype=np.float64),
    )
