"""Run orchestration shared by the CLI commands: dataset resolution,
training runs with persisted artifacts, evaluation, ablation sweeps,
gradient checking, and representation export.
"""

from __future__ import annotations

import dataclasses
import json
import logging
import time
from datetime import datetime
from pathlib import Path

import numpy as np

from .config import RunConfig
from .container import save_tensor
from .data import (
    MoSTSeries,
    PreparedData,
    load_csv,
    load_prepared,
    prepare_windows,
    synth_generate,
)
from .errors import CheckpointError, DataError
from .gradcheck import GradCheckReport, grad_check
from .model import AblationFlags, ModelDims, forward_pass, init_params
from .rng import derive_rng
from .training import (
    Metrics,
    TrainResult,
    evaluate,
    load_checkpoint,
    model_dims,
    restore_params,
    save_checkpoint,
    stats_from_manifest,
    train,
)

logger = logging.getLogger("mossl")

GRADCHECK_THRESHOLD = 1e-4

ABLATION_VARIANTS = {
    "full": {},
    "no_av": {"no_av": True},
    "no_mg": {"no_mg": True},
    "no_gssl": {"no_gssl": True},
    "no_mssl": {"no_mssl": True},
}


def series_from_config(cfg: RunConfig) -> MoSTSeries:
    data = cfg.data
    if data.kind == "synthetic":
        seed = cfg.seed if data.synthetic_seed is None else data.synthetic_seed
        series = synth_generate(data.synthetic, seed)
    elif data.kind == "csv":
        descriptor = None
        if data.descriptor:
            descriptor = json.loads(Path(data.descriptor).read_text())
        series = load_csv(data.path, descriptor)
    else:
        series = load_prepared(data.path)
    if data.expected_nodes is not None and series.num_nodes != data.expected_nodes:
        raise DataError(
            f"dataset has {series.num_nodes} nodes, config expects {data.expected_nodes}"
        )
    if data.expected_modalities is not None and series.num_modalities != data.expected_modalities:
        raise DataError(
            f"dataset has {series.num_modalities} modalities, "
            f"config expects {data.expected_modalities}"
        )
    return series


def prepared_from_config(cfg: RunConfig) -> PreparedData:
    series = series_from_config(cfg)
    return prepare_windows(
        series,
        cfg.data.split,
        cfg.data.input_steps,
        cfg.data.output_steps,
        cfg.data.stride,
    )


def new_run_dir(out_root: str | Path, name: str) -> Path:
    stamp = datetime.now().strftime("%Y%m%d-%H%M%S")
    run_dir = Path(out_root) / f"{name}-{stamp}"
    suffix = 0
    while run_dir.exists():
        suffix += 1
        run_dir = Path(out_root) / f"{name}-{stamp}-{suffix}"
    run_dir.mkdir(parents=True)
    return run_dir


def _checkpoint_manifest(cfg: RunConfig, result: TrainResult) -> dict:
    return {
        "config_hash": cfg.config_hash(),
        "seed": result.seed,
        "dims": dataclasses.asdict(result.dims),
        "ablation": dataclasses.asdict(cfg.train.ablation),
        "val_metrics": None if result.val_metrics is None else result.val_metrics.to_json_dict(),
    }


def run_training(
    cfg: RunConfig,
    out_root: str | Path,
    quiet: bool = False,
    prepared: PreparedData | None = None,
) -> tuple[Path, TrainResult]:
    """Train per config and persist config copy, history, checkpoint, metrics."""
    if prepared is None:
        prepared = prepared_from_config(cfg)
    run_dir = new_run_dir(out_root, cfg.name)
    (run_dir / "config.json").write_text(cfg.raw_text or json.dumps(cfg.effective_dict(), indent=2))
    result = train(prepared, cfg.model, cfg.train, cfg.seed, quiet=quiet)
    (run_dir / "history.json").write_text(json.dumps(result.history, indent=2))
    save_checkpoint(
        run_dir / "checkpoint.mossl",
        result.params,
        prepared.stats,
        _checkpoint_manifest(cfg, result),
    )
    if prepared.splits["test"].count > 0:
        metrics = evaluate(result.params, cfg.model, prepared, "test")
        write_metrics(metrics, run_dir, "metrics-test")
    if result.val_metrics is not None:
        write_metrics(result.val_metrics, run_dir, "metrics-val")
    return run_dir, result


def write_metrics(metrics: Metrics, out_dir: Path, stem: str) -> None:
    (out_dir / f"{stem}.csv").write_text(metrics.to_csv_text())
    (out_dir / f"{stem}.json").write_text(json.dumps(metrics.to_json_dict(), indent=2))


def load_run_params(cfg: RunConfig, checkpoint_path: str | Path, prepared: PreparedData):
    """Restore parameters for evaluation, cross-checking config and data."""
    manifest, arrays = load_checkpoint(checkpoint_path)
    flags = AblationFlags(**manifest.get("ablation", {}))
    dims_doc = manifest["dims"]
    dims = ModelDims(**dims_doc)
    expected = model_dims(prepared)
    if dims != expected:
        raise CheckpointError(
            f"checkpoint dimensions {dims_doc} do not match the configured dataset "
            f"{dataclasses.asdict(expected)}"
        )
    stats = stats_from_manifest(manifest)
    if not (
        np.array_equal(stats.mean, prepared.stats.mean)
        and np.array_equal(stats.std, prepared.stats.std)
    ):
        raise DataError(
            "normalization statistics derived from the configured dataset differ from "
            "the checkpoint; the underlying data has changed since training"
        )
    params = restore_params(arrays, cfg.model, dims, flags)
    return params, manifest, flags


def run_gradcheck(cfg: RunConfig, quiet: bool = False) -> GradCheckReport:
    """Finite-difference check of the full joint objective at config dims.

    The mask draw is frozen up front so the loss is a deterministic function
    of the parameters, and every parameter gets a small random offset so the
    check runs at a generic point: freshly zeroed biases otherwise sit
    exactly on relu kinks, where one-sided subgradients and central
    differences legitimately disagree.
    """
    prepared = prepared_from_config(cfg)
    train_ws = prepared.splits["train"]
    if train_ws.count == 0:
        raise DataError("gradcheck needs at least one training window")
    batch = min(2, train_ws.count)
    x = train_ws.x[:batch]
    y = train_ws.y[:batch]
    flags = cfg.train.ablation
    params = init_params(cfg.model, model_dims(prepared), flags, cfg.seed)
    for name, p in params.named.items():
        p.data += derive_rng(cfg.seed, "gradcheck-offset", name).uniform(-0.05, 0.05, p.shape)
    weights = cfg.train.loss_weights

    mask_override = None
    if flags.masked_view:
        uniforms = derive_rng(cfg.seed, "gradcheck-mask").random(x.shape)
        first = forward_pass(
            params, cfg.model, flags, weights, x, y, mask_uniforms=uniforms, training=True
        )
        mask_override = first.mask

    def loss_fn():
        res = forward_pass(
            params, cfg.model, flags, weights, x, y, mask_override=mask_override, training=True
        )
        return res.total

    started = time.perf_counter()
    report = grad_check(loss_fn, params.named)
    elapsed = time.perf_counter() - started
    if not quiet:
        for name, worst in sorted(report.per_param.items()):
            logger.info("  %-40s %.3e", name, worst)
        logger.info(
            "max relative error %.3e at %s[%d] (%.1fs)",
            report.max_rel_error,
            report.worst_param,
            report.worst_index,
            elapsed,
        )
    return report


def export_representations(
    cfg: RunConfig,
    checkpoint_path: str | Path,
    out_dir: str | Path,
    split: str = "test",
    batch_size: int = 64,
) -> dict:
    """Dump per-window representations and mixture state as tensor containers."""
    prepared = prepared_from_config(cfg)
    params, manifest, flags = load_run_params(cfg, checkpoint_path, prepared)
    ws = prepared.splits[split]
    if ws.count == 0:
        raise DataError(f"split '{split}' has no windows")
    weights = cfg.train.loss_weights
    grid_shape = ws.x.shape[1:]
    h_parts, h2_parts, gamma_parts, mu_parts, sigma_parts = [], [], [], [], []
    for start in range(0, ws.count, batch_size):
        x = ws.x[start : start + batch_size]
        uniforms = None
        if flags.masked_view:
            uniforms = np.stack(
                [
                    derive_rng(cfg.seed, "export", int(i)).random(grid_shape)
                    for i in range(start, start + x.shape[0])
                ]
            )
        res = forward_pass(
            params, cfg.model, flags, weights, x, y=None, mask_uniforms=uniforms, training=True
        )
        h_parts.append(res.h.data)
        if res.h_second is not None:
            h2_parts.append(res.h_second.data)
        if res.mixture is not None:
            gamma_parts.append(res.mixture.gamma.data)
            mu_parts.append(res.mixture.mu.data)
            sigma_parts.append(res.mixture.sigma2.data)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = {"representation": "representation.mostt"}
    save_tensor(out / "representation.mostt", np.concatenate(h_parts))
    if h2_parts:
        save_tensor(out / "representation_augmented.mostt", np.concatenate(h2_parts))
        written["representation_augmented"] = "representation_augmented.mostt"
    if gamma_parts:
        save_tensor(out / "memberships.mostt", np.concatenate(gamma_parts))
        save_tensor(out / "means.mostt", np.concatenate(mu_parts))
        save_tensor(out / "variances.mostt", np.concatenate(sigma_parts))
        written.update(
            memberships="memberships.mostt", means="means.mostt", variances="variances.mostt"
        )
    (out / "export.json").write_text(
        json.dumps({"split": split, "windows": int(ws.count), "files": written}, indent=2)
    )
    return written


def run_ablation(cfg: RunConfig, out_root: str | Path, quiet: bool = False) -> Path:
    """Train the full model and the four variants; write a comparison table.

    Variants never share optimizer state or parameters: each is an
    independent run from the same base seed, in its own directory.
    """
    prepared = prepared_from_config(cfg)
    root = new_run_dir(out_root, f"{cfg.name}-ablate")
    rows = []
    for variant, flag_patch in ABLATION_VARIANTS.items():
        variant_cfg = dataclasses.replace(cfg)
        variant_cfg.train = dataclasses.replace(
            cfg.train, ablation=AblationFlags(**flag_patch)
        )
        variant_cfg.name = variant
        # persist the effective flags, not the base config's verbatim text,
        # so a variant run directory reproduces the variant
        variant_cfg.raw_text = ""
        if not quiet:
            logger.info("ablation variant %s", variant)
        run_dir, result = run_training(variant_cfg, root, quiet=quiet, prepared=prepared)
        test_metrics = None
        if prepared.splits["test"].count > 0:
            test_json = (run_dir / "metrics-test.json").read_text()
            test_metrics = Metrics.from_json_dict(json.loads(test_json))
        rows.append(
            {
                "variant": variant,
                "run_dir": run_dir.name,
                "final_train_loss": result.history[-1]["loss"],
                "test_mae": None if test_metrics is None else test_metrics.mean_mae,
                "test_rmse": None if test_metrics is None else test_metrics.mean_rmse,
            }
        )
    (root / "comparison.json").write_text(json.dumps(rows, indent=2))
    lines = ["variant,final_train_loss,test_mae,test_rmse"]
    for row in rows:
        lines.append(
            f"{row['variant']},{row['final_train_loss']!r},{row['test_mae']!r},{row['test_rmse']!r}"
        )
    (root / "comparison.csv").write_text("\n".join(lines) + "\n")
    return root
