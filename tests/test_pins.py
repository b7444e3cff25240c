"""Byte pins: a refactor must leave checkpoints and exports bit-identical.

Each digest is the sha256 of a file written by the tiny configs of the
acceptance and CLI tests.  A change that alters them changes the numbers the
model computes; such a change must say so and re-pin.
"""

import hashlib
import json
from pathlib import Path

from mossl.config import parse_config
from mossl.runs import export_representations, run_training
from test_acceptance import TINY_CONFIG_TEXT
from test_cli import run, single_run_dir, tiny_config, write_config

TINY_CHECKPOINT = "82f4b25187d343ef8d8af7a9911665b3f6f2cd365b22dd3787a706d196c841ac"
TINY_STRAIGHT_THROUGH_CHECKPOINT = "3daf0d82d16aad7f7a3258d0dc83d628054f5b2dcb4a02559877f9e7f4b89469"
CLI_TINY_CHECKPOINT = "e6338b247473fca78c96936937b693bce4a0b2558b4c15f48d809ec1d35f63dd"
# export-repr of the tiny checkpoint: the augmented view runs the drawn mask
TINY_EXPORT = {
    "export.json": "0694cbf7688339ee922c37ae5741aaebeb86ed9113b049ec19cd55f36e182113",
    "means.mostt": "22525937b1cd4e54ec34a48f547f2333c733abc868e8c974ff4f46eba804112f",
    "memberships.mostt": "7b56ba016d7331d7789c8a63da0b06baa0d5648a441f4b35feb928d8d0b670e2",
    "representation.mostt": "f2cfa9ad9d85ab8ff5e66c884d86df78575d2e97cef9d2b0ac72e5a7ed5db576",
    "representation_augmented.mostt": "3f344d0892732dbc289f1e3164aa8e046f927c992082f8f66ee698fac5524c19",
    "variances.mostt": "4b78e4281d7091759e9b19f47362149080bf6beae19875e4df7b51be55b4c0c5",
}


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_tiny_checkpoint_and_export_bytes(tmp_path):
    cfg = parse_config(TINY_CONFIG_TEXT)
    run_dir, _ = run_training(cfg, tmp_path / "runs", quiet=True)
    checkpoint = run_dir / "checkpoint.mossl"
    assert sha256(checkpoint) == TINY_CHECKPOINT
    export_representations(cfg, checkpoint, tmp_path / "repr")
    written = {p.name: sha256(p) for p in (tmp_path / "repr").iterdir()}
    assert written == TINY_EXPORT


def test_tiny_straight_through_checkpoint_bytes(tmp_path):
    raw = json.loads(TINY_CONFIG_TEXT)
    raw["model"]["straight_through_mask"] = True
    run_dir, _ = run_training(parse_config(json.dumps(raw)), tmp_path, quiet=True)
    assert sha256(run_dir / "checkpoint.mossl") == TINY_STRAIGHT_THROUGH_CHECKPOINT


def test_cli_tiny_checkpoint_bytes(tmp_path):
    cfg = write_config(tmp_path, tiny_config())
    assert run(["train", "--config", cfg, "--out", tmp_path / "runs", "--quiet"]) == 0
    assert sha256(single_run_dir(tmp_path / "runs") / "checkpoint.mossl") == CLI_TINY_CHECKPOINT
