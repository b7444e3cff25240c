"""Command-line interface.

Exit codes: 0 success, 1 usage/config error, 2 data error, 3 numerical
failure (non-finite loss or a failed gradient check).
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from pathlib import Path

from .config import RunConfig, load_config
from .data import save_csv, save_prepared
from .errors import ConfigError, MosslError
from .gradcheck import PASS_THRESHOLD
from .runs import (
    export_representations,
    prepared_from_config,
    run_ablation,
    run_gradcheck,
    run_training,
    load_run_params,
    series_from_config,
    write_metrics,
)
from .training import evaluate, persistence_metrics

logger = logging.getLogger("mossl")


class _Parser(argparse.ArgumentParser):
    """Usage errors are ``ConfigError``s: one ``error:`` line and exit 1, like every failure."""

    def error(self, message):
        raise ConfigError(f"{self.prog}: {message}")


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", required=True, help="path to the JSON run configuration")
    sub.add_argument("--seed", type=int, default=None, help="override the config seed")
    sub.add_argument("--quiet", action="store_true", help="suppress progress output")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="mossl",
        description="Multi-modality spatio-temporal forecasting with self-supervision",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    synth = commands.add_parser("synth", help="materialize a synthetic dataset as CSV")
    train = commands.add_parser("train", help="train a model into a timestamped run directory")
    prepare = commands.add_parser("prepare", help="validate a dataset and write it prepared")
    evaluate_cmd = commands.add_parser("eval", help="evaluate a checkpoint on a split")
    gradcheck = commands.add_parser("gradcheck", help="finite-difference check of the objective")
    export = commands.add_parser("export-repr", help="dump representations and mixture state")
    ablate = commands.add_parser("ablate", help="train the full model and all four variants")
    for sub in (synth, train, prepare, evaluate_cmd, gradcheck, export, ablate):
        _add_common(sub)
    for sub in (synth, train, prepare, export, ablate):
        sub.add_argument("--out", help="output directory (default: $MOSSL_RUN_DIR or ./runs)")
    evaluate_cmd.add_argument(
        "--out", help="directory for the metrics files (default: the checkpoint's directory)"
    )
    for sub in (evaluate_cmd, export):
        sub.add_argument("--checkpoint", required=True, help="path to a checkpoint file")
        sub.add_argument("--split", default="test", choices=["train", "val", "test"])
    return parser


def _load(args) -> RunConfig:
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg.seed = args.seed
    return cfg


def _out_root(args) -> Path:
    return Path(args.out or os.environ.get("MOSSL_RUN_DIR", "runs"))


def cmd_synth(args) -> int:
    cfg = _load(args)
    series = series_from_config(cfg)
    out = _out_root(args)
    out.mkdir(parents=True, exist_ok=True)
    save_csv(series, out / "series.csv")
    descriptor = {"nodes": series.node_ids, "modalities": series.modality_names}
    (out / "descriptor.json").write_text(json.dumps(descriptor, indent=2))
    logger.info("wrote %s and %s", out / "series.csv", out / "descriptor.json")
    return 0


def cmd_prepare(args) -> int:
    cfg = _load(args)
    series = series_from_config(cfg)
    out = _out_root(args)
    save_prepared(series, out)
    logger.info("prepared dataset written to %s", out)
    return 0


def cmd_train(args) -> int:
    cfg = _load(args)
    run_dir, result = run_training(cfg, _out_root(args), quiet=args.quiet)
    logger.info("run directory: %s", run_dir)
    print(run_dir)
    return 0


def cmd_eval(args) -> int:
    cfg = _load(args)
    prepared = prepared_from_config(cfg)
    params, _manifest, _flags = load_run_params(cfg, args.checkpoint, prepared)
    metrics = evaluate(params, cfg.model, prepared, args.split)
    baseline = persistence_metrics(prepared, args.split)
    print(metrics.to_csv_text(), end="")
    print(f"# mean MAE {metrics.mean_mae!r}, mean RMSE {metrics.mean_rmse!r}")
    print(f"# persistence baseline mean RMSE {baseline.mean_rmse!r}")
    out = Path(args.out) if args.out else Path(args.checkpoint).parent
    out.mkdir(parents=True, exist_ok=True)
    write_metrics(metrics, out, f"metrics-{args.split}")
    return 0


def cmd_gradcheck(args) -> int:
    cfg = _load(args)
    report = run_gradcheck(cfg, quiet=args.quiet)
    print(f"max relative error: {report.max_rel_error:.6e}")
    if not report.passed():
        print(
            f"FAIL: {report.worst_param}[{report.worst_index}] exceeds {PASS_THRESHOLD:g}",
            file=sys.stderr,
        )
        return 3
    print("PASS")
    return 0


def cmd_export(args) -> int:
    cfg = _load(args)
    out = _out_root(args)
    written = export_representations(cfg, args.checkpoint, out, split=args.split)
    logger.info("exported %s to %s", ", ".join(written), out)
    return 0


def cmd_ablate(args) -> int:
    cfg = _load(args)
    root = run_ablation(cfg, _out_root(args), quiet=args.quiet)
    print(root)
    print((root / "comparison.csv").read_text(), end="")
    return 0


_HANDLERS = {
    "synth": cmd_synth,
    "prepare": cmd_prepare,
    "train": cmd_train,
    "eval": cmd_eval,
    "gradcheck": cmd_gradcheck,
    "export-repr": cmd_export,
    "ablate": cmd_ablate,
}


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        logging.basicConfig(
            level=logging.WARNING if args.quiet else logging.INFO, format="%(message)s"
        )
        return _HANDLERS[args.command](args)
    except MosslError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
