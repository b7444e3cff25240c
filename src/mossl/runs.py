"""Run orchestration shared by the CLI commands: dataset resolution,
training runs with persisted artifacts, evaluation, ablation sweeps,
gradient checking, and representation export.
"""

from __future__ import annotations

import dataclasses
import json
import logging
import math
import struct
import time
from datetime import datetime
from pathlib import Path

import numpy as np

from .augmentation import uniforms_for_mask
from .config import RunConfig
from .container import read_tensor, save_tensor, write_tensor
from .data import (
    MoSTSeries,
    NormStats,
    PreparedData,
    load_csv,
    load_descriptor,
    load_prepared,
    prepare_windows,
    synth_generate,
)
from .errors import CheckpointError, DataError
from .gradcheck import GradCheckReport, grad_check
from .model import AblationFlags, ModelDims, forward_pass, init_params
from .rng import derive_rng
from .tensor import no_grad
from .training import Metrics, TrainResult, evaluate, model_dims, train

logger = logging.getLogger("mossl")

CHECKPOINT_MAGIC = b"MOSSLCKP"
CHECKPOINT_VERSION = 1

# the full model, then one variant per switched-off part (w/o AV, MG, GSSL, MSSL)
ABLATION_VARIANTS = {
    "full": AblationFlags(),
    **{f.name: AblationFlags(**{f.name: True}) for f in dataclasses.fields(AblationFlags)},
}


def series_from_config(cfg: RunConfig) -> MoSTSeries:
    data = cfg.data
    if data.kind == "synthetic":
        seed = cfg.seed if data.synthetic_seed is None else data.synthetic_seed
        series = synth_generate(data.synthetic, seed)
    elif data.kind == "csv":
        descriptor = load_descriptor(data.descriptor) if data.descriptor else None
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


def run_training(
    cfg: RunConfig,
    out_root: str | Path,
    quiet: bool = False,
    prepared: PreparedData | None = None,
) -> tuple[Path, TrainResult]:
    """Train per config and persist the effective config, history, checkpoint, metrics."""
    if prepared is None:
        prepared = prepared_from_config(cfg)
    run_dir = new_run_dir(out_root, cfg.name)
    (run_dir / "config.json").write_text(json.dumps(cfg.effective_dict(), indent=2))
    result = train(prepared, cfg.model, cfg.train, cfg.seed, quiet=quiet)
    (run_dir / "history.json").write_text(json.dumps(result.history, indent=2))
    save_checkpoint(run_dir / "checkpoint.mossl", cfg, result, prepared.stats)
    if prepared.splits["test"].count > 0:
        metrics = evaluate(result.params, cfg.model, prepared, "test")
        write_metrics(metrics, run_dir, "metrics-test")
    if result.val_metrics is not None:
        write_metrics(result.val_metrics, run_dir, "metrics-val")
    return run_dir, result


def write_metrics(metrics: Metrics, out_dir: Path, stem: str) -> None:
    (out_dir / f"{stem}.csv").write_text(metrics.to_csv_text())
    (out_dir / f"{stem}.json").write_text(json.dumps(metrics.to_json_dict(), indent=2))


def save_checkpoint(
    path: str | Path, cfg: RunConfig, result: TrainResult, stats: NormStats
) -> None:
    """Single-file checkpoint: magic, u32 LE manifest length, JSON manifest, tensors.

    The manifest lists each tensor's name and shape in payload order, the
    normalization statistics, and what ties the parameters to their run:
    config hash, seed, model dims, ablation flags and validation metrics.
    """
    named = result.params.named
    manifest = {
        "format_version": CHECKPOINT_VERSION,
        "tensors": [{"name": name, "shape": list(p.shape)} for name, p in named.items()],
        "norm_mean": [float(v) for v in stats.mean],
        "norm_std": [float(v) for v in stats.std],
        "config_hash": cfg.config_hash(),
        "seed": result.seed,
        "dims": dataclasses.asdict(result.dims),
        "ablation": dataclasses.asdict(cfg.train.ablation),
        "val_metrics": None if result.val_metrics is None else result.val_metrics.to_json_dict(),
    }
    blob = json.dumps(manifest, sort_keys=True).encode()
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<I", len(blob)))
        fh.write(blob)
        for p in named.values():
            write_tensor(fh, p.data)


def _manifest_fields(manifest) -> tuple[AblationFlags, ModelDims, NormStats]:
    """The flags, dims and statistics a manifest describes, after checking its JSON types."""
    if not isinstance(manifest, dict):
        raise CheckpointError("manifest is not a JSON object")
    if manifest.get("format_version") != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"format version {manifest.get('format_version')} "
            f"is not supported (expected {CHECKPOINT_VERSION})"
        )
    required = ("tensors", "norm_mean", "norm_std", "seed", "dims", "ablation")
    missing = [key for key in required if key not in manifest]
    if missing:
        raise CheckpointError(f"manifest lacks {missing}")
    if type(manifest["seed"]) is not int:
        raise CheckpointError(f"manifest seed is not an int: {manifest['seed']!r}")
    entries = manifest["tensors"]
    if not isinstance(entries, list) or not all(
        isinstance(e, dict) and {"name", "shape"} <= e.keys() for e in entries
    ):
        raise CheckpointError("manifest tensors are not [{name, shape}]")
    built = []
    for key, cls, kind in (("ablation", AblationFlags, bool), ("dims", ModelDims, int)):
        value = manifest[key]
        names = sorted(f.name for f in dataclasses.fields(cls))
        if not (
            isinstance(value, dict)
            and sorted(value) == names
            and all(type(v) is kind for v in value.values())
        ):
            raise CheckpointError(
                f"manifest {key} is not an object of {kind.__name__} fields {names}: {value!r}"
            )
        built.append(cls(**value))
    flags, dims = built
    for key in ("norm_mean", "norm_std"):
        values = manifest[key]
        if not (
            isinstance(values, list)
            and len(values) == dims.modalities
            and all(type(v) in (int, float) and math.isfinite(v) for v in values)
        ):
            raise CheckpointError(
                f"manifest {key} is not a list of {dims.modalities} finite numbers: {values!r}"
            )
    stats = NormStats(
        mean=np.array(manifest["norm_mean"], dtype=np.float64),
        std=np.array(manifest["norm_std"], dtype=np.float64),
    )
    return flags, dims, stats


def load_run_params(cfg: RunConfig, checkpoint_path: str | Path, prepared: PreparedData):
    """Restore parameters for evaluation, cross-checking config and data.

    A file that is missing, cut short, malformed or made for other dims or
    parameters raises ``CheckpointError`` naming it; statistics that differ
    from the configured dataset's raise ``DataError``.
    """
    try:
        with open(checkpoint_path, "rb") as fh:
            magic = fh.read(len(CHECKPOINT_MAGIC))
            if magic != CHECKPOINT_MAGIC:
                raise CheckpointError(f"not a checkpoint file: bad magic {magic!r}")
            raw = fh.read(4)
            if len(raw) != 4:
                raise CheckpointError("truncated before its manifest")
            (length,) = struct.unpack("<I", raw)
            try:
                manifest = json.loads(fh.read(length).decode())
            except ValueError as exc:  # a cut or corrupt manifest: bad UTF-8 or JSON
                raise CheckpointError(f"manifest is not valid JSON: {exc}") from exc
            flags, dims, stats = _manifest_fields(manifest)
            arrays = {}
            for entry in manifest["tensors"]:
                arr = read_tensor(fh)
                if list(arr.shape) != entry["shape"]:
                    raise CheckpointError(
                        f"tensor {entry['name']} has shape {list(arr.shape)}, "
                        f"manifest says {entry['shape']}"
                    )
                arrays[entry["name"]] = arr
        expected = model_dims(prepared)
        if dims != expected:
            raise CheckpointError(
                f"dimensions {manifest['dims']} do not match the configured dataset "
                f"{dataclasses.asdict(expected)}"
            )
        # the run's seed redraws the constants no checkpoint stores: the relevance weight
        params = init_params(cfg.model, dims, flags, seed=manifest["seed"])
        missing = [n for n in params.named if n not in arrays]
        extra = [n for n in arrays if n not in params.named]
        if missing or extra:
            raise CheckpointError(
                f"does not match the configuration: missing {missing}, unexpected {extra}"
            )
        for name, tensor in params.named.items():
            if arrays[name].shape != tensor.data.shape:
                raise CheckpointError(
                    f"tensor {name}: checkpoint shape {arrays[name].shape} "
                    f"does not match configured shape {tensor.data.shape}"
                )
            tensor.data[...] = arrays[name]
    except OSError as exc:
        raise CheckpointError(
            f"checkpoint {checkpoint_path}: cannot be read: {exc.strerror}"
        ) from exc
    except CheckpointError as exc:
        raise CheckpointError(f"checkpoint {checkpoint_path}: {exc}") from exc
    if not (
        np.array_equal(stats.mean, prepared.stats.mean)
        and np.array_equal(stats.std, prepared.stats.std)
    ):
        raise DataError(
            "normalization statistics derived from the configured dataset differ from "
            "the checkpoint; the underlying data has changed since training"
        )
    return params, manifest, flags


def run_gradcheck(cfg: RunConfig, quiet: bool = False) -> GradCheckReport:
    """Finite-difference check of the full joint objective at config dims.

    One mask is drawn up front and every pass gets its 0/1 ``uniforms_for_mask``,
    so the loss is a deterministic function of the parameters.  Every
    parameter gets a small random offset so the check runs at a generic point:
    freshly zeroed biases otherwise sit exactly on relu kinks, where one-sided
    subgradients and central differences legitimately disagree.
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

    uniforms = derive_rng(cfg.seed, "gradcheck-mask").random(x.shape)
    if flags.masked_view:
        with no_grad():
            first = forward_pass(params, cfg.model, flags, weights, x, y, mask_uniforms=uniforms)
        uniforms = uniforms_for_mask(first.mask)

    def loss_fn():
        return forward_pass(params, cfg.model, flags, weights, x, y, mask_uniforms=uniforms).total

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
    params, _, flags = load_run_params(cfg, checkpoint_path, prepared)
    ws = prepared.splits[split]
    if ws.count == 0:
        raise DataError(f"split '{split}' has no windows")
    weights = cfg.train.loss_weights
    grid_shape = ws.x.shape[1:]
    parts: dict[str, list[np.ndarray]] = {}
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
        with no_grad():
            res = forward_pass(
                params, cfg.model, flags, weights, x, y=None, mask_uniforms=uniforms, training=True
            )
        batch = {"representation": res.h, "representation_augmented": res.h_second}
        if res.mixture is not None:
            mix = res.mixture
            batch.update(memberships=mix.gamma, means=mix.mu, variances=mix.sigma2)
        for stem, t in batch.items():
            if t is not None:
                parts.setdefault(stem, []).append(t.data)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = {stem: f"{stem}.mostt" for stem in parts}
    for stem, arrays in parts.items():
        save_tensor(out / written[stem], np.concatenate(arrays))
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
    for variant, flags in ABLATION_VARIANTS.items():
        variant_cfg = dataclasses.replace(cfg)
        variant_cfg.train = dataclasses.replace(cfg.train, ablation=flags)
        variant_cfg.name = variant
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
