"""Byte pins: a refactor must leave checkpoints and exports bit-identical.

Each digest is the sha256 of a file written by the tiny configs of the
acceptance and CLI tests.  A change that alters them changes the numbers the
model computes; such a change must say so and re-pin.  A checkpoint's payload,
the tensor bytes after its manifest, is pinned apart from the whole file, so a
change to the config schema, which moves the manifest's ``config_hash``, can
show that the parameters stayed the same.
"""

import hashlib
import struct
from pathlib import Path

from mossl.config import parse_config
from mossl.runs import export_representations, run_training
from test_acceptance import TINY_CONFIG_TEXT
from test_cli import run, single_run_dir, tiny_config, write_config

TINY_CHECKPOINT = "35c1746abf376bec30195fd812359b0aea727cca6934e00c5b5d1e1481011ae5"
TINY_PAYLOAD = "f3ecec1bf10ca0dc62160fa5fd0107d5ea9ec5a28e7f6eee8cbe105d73be1cb9"
CLI_TINY_CHECKPOINT = "b940fa66ef14344a501aa84d54537f51f5d98079080176285676ca77d1bdc8b5"
CLI_TINY_PAYLOAD = "5512da7933d7b6b68037a147221d58d6c1c9db86a0b9c68247601aea248b74b3"
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


def payload_sha256(checkpoint: Path) -> str:
    """sha256 of the bytes after the magic, the u32 manifest length and the manifest."""
    raw = checkpoint.read_bytes()
    (length,) = struct.unpack("<I", raw[8:12])
    return hashlib.sha256(raw[12 + length :]).hexdigest()


def test_tiny_checkpoint_and_export_bytes(tmp_path):
    cfg = parse_config(TINY_CONFIG_TEXT)
    run_dir, _ = run_training(cfg, tmp_path / "runs", quiet=True)
    checkpoint = run_dir / "checkpoint.mossl"
    assert payload_sha256(checkpoint) == TINY_PAYLOAD
    assert sha256(checkpoint) == TINY_CHECKPOINT
    export_representations(cfg, checkpoint, tmp_path / "repr")
    written = {p.name: sha256(p) for p in (tmp_path / "repr").iterdir()}
    assert written == TINY_EXPORT


def test_cli_tiny_checkpoint_bytes(tmp_path):
    cfg = write_config(tmp_path, tiny_config())
    assert run(["train", "--config", cfg, "--out", tmp_path / "runs", "--quiet"]) == 0
    checkpoint = single_run_dir(tmp_path / "runs") / "checkpoint.mossl"
    assert payload_sha256(checkpoint) == CLI_TINY_PAYLOAD
    assert sha256(checkpoint) == CLI_TINY_CHECKPOINT
