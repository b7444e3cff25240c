"""Optimizer, training/evaluation loops, and metrics."""

from __future__ import annotations

import json
import logging
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from .data import PreparedData
from .encoder import EncoderStream, consecutive
from .errors import DataError, require_at_least_one, require_non_negative
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
from .tensor import Tensor, gradients, no_grad

logger = logging.getLogger("mossl")


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
        if self.early_stop_patience is not None:
            require_at_least_one(self, "early_stop_patience")
        require_non_negative(self, "learning_rate")


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
    """Standard bias-corrected Adam update of ``m``, ``v`` and every parameter, in place.

    The in-place ops are those of m = b1 m + (1 - b1) g, v = b2 v + (1 - b2) g²
    and p -= lr m̂ / (sqrt(v̂) + eps), in that order, so they give its bits.
    """
    state.step += 1
    t = state.step
    correct1 = 1.0 - beta1**t
    correct2 = 1.0 - beta2**t
    for name, p in named.items():
        g, m, v = grads[name], state.m[name], state.v[name]
        m *= beta1
        m += (1.0 - beta1) * g
        v *= beta2
        v += (1.0 - beta2) * (g * g)
        step = m / correct1
        step *= lr
        denom = v / correct2
        np.sqrt(denom, out=denom)
        denom += eps
        step /= denom
        p.data -= step


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

    @property
    def mean_mae(self) -> float:
        return float(np.mean([r.mae for r in self.rows]))

    @property
    def mean_rmse(self) -> float:
        return float(np.mean([r.rmse for r in self.rows]))

    def to_json_dict(self) -> list[dict]:
        return [asdict(r) for r in self.rows]

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
    """Original-view predictions for a split, denormalized, [W, O, N, M].

    One ``forward_pass`` per batch of ``batch_size`` windows.  When the
    split's windows are consecutive (stride 1), all batches share one
    ``EncoderStream``, so each time step is encoded once per layer across the
    whole split rather than once per window that holds it; the predictions
    are those of the batches encoded whole.  Nothing runs backward here, so
    the passes record no tape.
    """
    ws = prepared.splits[split]
    if ws.count == 0:
        raise DataError(f"split '{split}' has no windows")
    flags = AblationFlags()
    weights = LossWeights()
    # a stream pays off only over windows that continue one another (stride 1)
    stream = EncoderStream() if ws.count > 1 and consecutive(ws.x[:2]) else None
    chunks = []
    for start in range(0, ws.count, batch_size):
        x = ws.x[start : start + batch_size]
        with no_grad():
            res = forward_pass(
                params, model_cfg, flags, weights, x, y=None, training=False, stream=stream
            )
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
    """Model extents implied by a prepared dataset's train windows."""
    train = prepared.splits["train"]
    input_steps, nodes, modalities = train.x.shape[1:]
    return ModelDims(input_steps, train.y.shape[1], nodes, modalities)


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
