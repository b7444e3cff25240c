"""End-to-end command-line behavior, exit codes included."""

import contextlib
import io
import json
import struct
from pathlib import Path

import numpy as np
import pytest

from mossl import runs as runs_module
from mossl.cli import main
from mossl.config import load_config
from mossl.container import load_tensor, write_tensor
from mossl.data import load_csv, save_prepared


def tiny_config(**overrides) -> dict:
    cfg = {
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
                "steps": 120,
                "coupling": [[0.7, 0.3], [0.3, 0.7]],
                "noise": 0.05,
            },
        },
        "model": {
            "hidden": 4,
            "layers": 2,
            "kernel_size": 2,
            "dilations": [1, 2],
            "mixture_components": 2,
        },
        "train": {
            "epochs": 2,
            "batch_size": 8,
            "learning_rate": 0.001,
            "loss_weights": {"forecast": 1.0, "mixture": 0.05, "contrast": 0.2},
            "early_stop_patience": None,
        },
    }
    cfg.update(overrides)
    return cfg


def write_config(tmp_path, cfg, name="config.json") -> Path:
    path = tmp_path / name
    path.write_text(json.dumps(cfg, indent=2))
    return path


def run(args) -> int:
    return main([str(a) for a in args])


def single_run_dir(root: Path) -> Path:
    dirs = [p for p in root.iterdir() if p.is_dir()]
    assert len(dirs) == 1
    return dirs[0]


class TestSynthAndPrepare:
    def test_synth_writes_csv_and_descriptor(self, tmp_path):
        cfg = write_config(tmp_path, tiny_config())
        out = tmp_path / "data"
        assert run(["synth", "--config", cfg, "--out", out, "--quiet"]) == 0
        assert (out / "series.csv").exists()
        descriptor = json.loads((out / "descriptor.json").read_text())
        assert set(descriptor) == {"nodes", "modalities"}
        assert descriptor["nodes"] == ["n0", "n1", "n2"]
        assert descriptor["modalities"] == ["mod0", "mod1"]

    def test_prepare_then_train_from_files(self, tmp_path):
        cfg = write_config(tmp_path, tiny_config())
        data_dir = tmp_path / "data"
        run(["synth", "--config", cfg, "--out", data_dir, "--quiet"])

        csv_cfg = tiny_config()
        csv_cfg["data"] = {
            "kind": "csv",
            "path": str(data_dir / "series.csv"),
            "descriptor": str(data_dir / "descriptor.json"),
            "expected_nodes": 3,
            "expected_modalities": 2,
            "input_steps": 4,
            "output_steps": 1,
            "split": [0.7, 0.1, 0.2],
        }
        prep_out = tmp_path / "prepared"
        cfg2 = write_config(tmp_path, csv_cfg, "csv_config.json")
        assert run(["prepare", "--config", cfg2, "--out", prep_out, "--quiet"]) == 0
        assert (prep_out / "values.mostt").exists()

        prep_cfg = tiny_config()
        prep_cfg["data"] = dict(csv_cfg["data"], kind="prepared", path=str(prep_out))
        prep_cfg["data"].pop("descriptor")
        cfg3 = write_config(tmp_path, prep_cfg, "prep_config.json")
        runs = tmp_path / "runs"
        assert run(["train", "--config", cfg3, "--out", runs, "--quiet"]) == 0

    def test_prepare_writes_the_synthetic_series(self, tmp_path):
        cfg = write_config(tmp_path, tiny_config())
        out = tmp_path / "prepared"
        assert run(["prepare", "--config", cfg, "--out", out, "--quiet"]) == 0
        want = runs_module.series_from_config(load_config(cfg)).values
        assert np.array_equal(load_tensor(out / "values.mostt"), want)

    def test_prepare_checks_the_expected_extents(self, tmp_path, capsys):
        doc = tiny_config()
        doc["data"]["expected_nodes"] = 4
        cfg = write_config(tmp_path, doc)
        assert run(["prepare", "--config", cfg, "--out", tmp_path / "prepared", "--quiet"]) == 2
        assert capsys.readouterr().err == "error: dataset has 3 nodes, config expects 4\n"
        assert not (tmp_path / "prepared").exists()


class TestTrainEval:
    def test_train_writes_run_artifacts(self, tmp_path, capsys):
        cfg = write_config(tmp_path, tiny_config())
        runs = tmp_path / "runs"
        assert run(["train", "--config", cfg, "--out", runs, "--quiet"]) == 0
        run_dir = single_run_dir(runs)
        for name in ("config.json", "history.json", "checkpoint.mossl",
                     "metrics-test.csv", "metrics-test.json",
                     "metrics-val.csv", "metrics-val.json"):
            assert (run_dir / name).exists(), name
        saved = load_config(run_dir / "config.json")
        assert saved.effective_dict() == load_config(cfg).effective_dict()
        history = json.loads((run_dir / "history.json").read_text())
        assert len(history) == 2

    def test_saved_config_hashes_to_the_checkpoint_of_a_seed_override(self, tmp_path):
        cfg = write_config(tmp_path, tiny_config())
        runs = tmp_path / "runs"
        assert run(["train", "--config", cfg, "--out", runs, "--seed", "5", "--quiet"]) == 0
        run_dir = single_run_dir(runs)
        saved = load_config(run_dir / "config.json")
        raw = (run_dir / "checkpoint.mossl").read_bytes()
        (length,) = struct.unpack("<I", raw[8:12])
        manifest = json.loads(raw[12 : 12 + length])
        assert saved.seed == manifest["seed"] == 5
        assert saved.config_hash() == manifest["config_hash"]

    def test_eval_reproduces_training_val_metrics(self, tmp_path, capsys):
        cfg = write_config(tmp_path, tiny_config())
        runs = tmp_path / "runs"
        run(["train", "--config", cfg, "--out", runs, "--quiet"])
        run_dir = single_run_dir(runs)
        capsys.readouterr()
        code = run([
            "eval", "--config", cfg, "--checkpoint", run_dir / "checkpoint.mossl",
            "--split", "val", "--out", tmp_path / "evalout", "--quiet",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "modality,horizon,mae,rmse" in out
        written = json.loads((tmp_path / "evalout" / "metrics-val.json").read_text())
        training_time = json.loads((run_dir / "metrics-val.json").read_text())
        assert written == training_time

    def test_gradcheck_passes(self, tmp_path, capsys):
        cfg = write_config(tmp_path, tiny_config())
        assert run(["gradcheck", "--config", cfg, "--quiet"]) == 0
        out = capsys.readouterr().out
        assert "max relative error" in out
        assert "PASS" in out

    def test_export_repr_writes_containers(self, tmp_path):
        cfg = write_config(tmp_path, tiny_config())
        runs = tmp_path / "runs"
        run(["train", "--config", cfg, "--out", runs, "--quiet"])
        run_dir = single_run_dir(runs)
        out = tmp_path / "repr"
        code = run([
            "export-repr", "--config", cfg, "--checkpoint", run_dir / "checkpoint.mossl",
            "--split", "test", "--out", out, "--quiet",
        ])
        assert code == 0
        rep = load_tensor(out / "representation.mostt")
        aug = load_tensor(out / "representation_augmented.mostt")
        gamma = load_tensor(out / "memberships.mostt")
        windows = json.loads((out / "export.json").read_text())["windows"]
        assert rep.shape == (windows, 1, 3, 2, 4)
        assert aug.shape == rep.shape
        assert gamma.shape == (windows, 2)
        assert np.max(np.abs(gamma.sum(axis=1) - 1.0)) < 1e-12
        assert load_tensor(out / "means.mostt").shape == (windows, 2, 4)
        assert load_tensor(out / "variances.mostt").shape == (windows, 2, 4)

    def test_export_repr_files_equal_the_taped_export(self, tmp_path, monkeypatch):
        cfg = write_config(tmp_path, tiny_config())
        runs = tmp_path / "runs"
        run(["train", "--config", cfg, "--out", runs, "--quiet"])
        checkpoint = single_run_dir(runs) / "checkpoint.mossl"
        export = ["export-repr", "--config", cfg, "--checkpoint", checkpoint, "--quiet"]
        assert run(export + ["--out", tmp_path / "repr"]) == 0
        # recording left on: the forward passes build their two-view tapes
        monkeypatch.setattr(runs_module, "no_grad", contextlib.nullcontext)
        assert run(export + ["--out", tmp_path / "taped"]) == 0
        files = sorted(p.name for p in (tmp_path / "repr").iterdir())
        assert files == sorted(p.name for p in (tmp_path / "taped").iterdir())
        assert len(files) == 6
        for name in files:
            assert (tmp_path / "repr" / name).read_bytes() == (tmp_path / "taped" / name).read_bytes(), name


class TestAblate:
    def test_five_variants_with_clean_histories(self, tmp_path, capsys):
        cfg = write_config(tmp_path, tiny_config())
        root_out = tmp_path / "ab"
        assert run(["ablate", "--config", cfg, "--out", root_out, "--quiet"]) == 0
        ablate_dir = single_run_dir(root_out)
        rows = json.loads((ablate_dir / "comparison.json").read_text())
        assert [r["variant"] for r in rows] == ["full", "no_av", "no_mg", "no_gssl", "no_mssl"]
        disabled = {
            "full": set(),
            "no_av": {"mixture"},
            "no_mg": {"mixture"},
            "no_gssl": {"mixture"},
            "no_mssl": {"contrast"},
        }
        for row in rows:
            history = json.loads((ablate_dir / row["run_dir"] / "history.json").read_text())
            for record in history:
                for term in disabled[row["variant"]]:
                    assert term not in record, (row["variant"], term)
        csv_text = (ablate_dir / "comparison.csv").read_text()
        assert csv_text.splitlines()[0] == "variant,final_train_loss,test_mae,test_rmse"
        assert len(csv_text.strip().splitlines()) == 6

    def test_variant_run_dirs_persist_their_own_flags(self, tmp_path):
        from mossl.config import parse_config

        cfg = write_config(tmp_path, tiny_config())
        root_out = tmp_path / "ab"
        run(["ablate", "--config", cfg, "--out", root_out, "--quiet"])
        ablate_dir = single_run_dir(root_out)
        rows = json.loads((ablate_dir / "comparison.json").read_text())
        for row in rows:
            saved = (ablate_dir / row["run_dir"] / "config.json").read_text()
            reparsed = parse_config(saved)  # must round-trip through the schema
            flags = reparsed.train.ablation
            expected = row["variant"]
            active = [n for n in ("no_av", "no_mg", "no_gssl", "no_mssl") if getattr(flags, n)]
            assert active == ([] if expected == "full" else [expected])


def _manifest_edit(change):
    """A checkpoint edit that applies ``change`` to the manifest and keeps the tensors."""

    def edit(blob):
        (length,) = struct.unpack("<I", blob[8:12])
        manifest = json.loads(blob[12 : 12 + length])
        change(manifest)
        text = json.dumps(manifest).encode()
        return blob[:8] + struct.pack("<I", len(text)) + text + blob[12 + length :]

    return edit


def _manifest_without(key):
    return _manifest_edit(lambda manifest: manifest.pop(key))


def _manifest_with(key, value):
    return _manifest_edit(lambda manifest: manifest.update({key: value}))


def _with_relevance_weight(blob):
    """The checkpoint with a ``relevance.weight`` tensor, which is a constant, not a parameter."""
    entry = {"name": "relevance.weight", "shape": [4]}
    edited = _manifest_edit(lambda manifest: manifest["tensors"].append(entry))(blob)
    tail = io.BytesIO()
    write_tensor(tail, np.zeros(4))
    return edited + tail.getvalue()


# name -> edit of the checkpoint bytes, or None for no file at all
CHECKPOINT_DAMAGE = {
    "cut-at-10-bytes": lambda blob: blob[:10],
    "cut-at-40-bytes": lambda blob: blob[:40],
    "manifest-without-norm_mean": _manifest_without("norm_mean"),
    "manifest-without-dims": _manifest_without("dims"),
    "manifest-ablation-unknown-flag": _manifest_with("ablation", {"no_xyz": True}),
    "manifest-ablation-not-object": _manifest_with("ablation", 5),
    "manifest-tensors-not-list": _manifest_with("tensors", 5),
    "missing-file": None,
    "cut-in-payload": lambda blob: blob[:-5],
    "manifest-norm_mean-not-numbers": _manifest_with("norm_mean", "x"),
    "manifest-ablation-not-bool": _manifest_edit(lambda m: m["ablation"].update(no_mssl="no")),
    "manifest-shape-disagrees": _manifest_edit(lambda m: m["tensors"][0].update(shape=[1])),
    "manifest-dims-not-ints": _manifest_edit(lambda m: m["dims"].update(nodes=3.0)),
    "manifest-without-seed": _manifest_without("seed"),
    "manifest-seed-not-int": _manifest_with("seed", 5.0),
    "carries-relevance-weight": _with_relevance_weight,
}


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """The config file and checkpoint of one tiny training run."""
    root = tmp_path_factory.mktemp("trained")
    cfg = write_config(root, tiny_config())
    assert run(["train", "--config", cfg, "--out", root / "runs", "--quiet"]) == 0
    return cfg, single_run_dir(root / "runs") / "checkpoint.mossl"


def data_case(tmp_path, case) -> tuple[dict, str]:
    """A ``data`` section whose files are missing or malformed, and the path it must name."""
    csv_path = tmp_path / "series.csv"
    csv_path.write_text("time,node,modality,value\n0,a,x,1.0\n")
    data = {"kind": "csv", "path": str(csv_path), "input_steps": 4, "output_steps": 1}
    if case == "missing-csv":
        data["path"] = str(tmp_path / "nope.csv")
    elif case == "missing-descriptor":
        data["descriptor"] = str(tmp_path / "nope.json")
    elif case == "invalid-descriptor":
        data["descriptor"] = str(tmp_path / "descriptor.json")
        (tmp_path / "descriptor.json").write_text("{nodes: 3")
    elif case.startswith("descriptor-nodes-"):  # a count must be an int, an order a list
        data["descriptor"] = str(tmp_path / "descriptor.json")
        nodes = True if case == "descriptor-nodes-true" else 3.5
        (tmp_path / "descriptor.json").write_text(json.dumps({"nodes": nodes, "modalities": ["x"]}))
    elif case == "prepared-without-values":
        (tmp_path / "prepared").mkdir()
        (tmp_path / "prepared" / "meta.json").write_text("{}")
        data.update(kind="prepared", path=str(tmp_path / "prepared"))
    else:  # a prepared directory with its meta.json or values.mostt cut short
        prepared = tmp_path / "prepared"
        save_prepared(load_csv(csv_path), prepared)
        damaged = prepared / ("meta.json" if case == "prepared-cut-meta" else "values.mostt")
        damaged.write_bytes(damaged.read_bytes()[:6])
        data.update(kind="prepared", path=str(prepared))
        return data, str(damaged)
    return data, data.get("descriptor", data["path"])


class TestErrors:
    @pytest.mark.parametrize("case", list(CHECKPOINT_DAMAGE))
    def test_unreadable_checkpoint_is_checkpoint_error(self, tmp_path, capsys, trained, case):
        cfg, checkpoint = trained
        damaged = tmp_path / "checkpoint.mossl"
        if CHECKPOINT_DAMAGE[case] is not None:
            damaged.write_bytes(CHECKPOINT_DAMAGE[case](checkpoint.read_bytes()))
        assert run(["eval", "--config", cfg, "--checkpoint", damaged, "--quiet"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert str(damaged) in err

    @pytest.mark.parametrize("command", ["train", "prepare"])
    @pytest.mark.parametrize(
        "case",
        [
            "missing-csv",
            "missing-descriptor",
            "invalid-descriptor",
            "descriptor-nodes-not-list",
            "descriptor-nodes-true",
            "prepared-without-values",
            "prepared-cut-meta",
            "prepared-cut-values",
        ],
    )
    def test_unreadable_data_file_is_data_error(self, tmp_path, capsys, command, case):
        doc = tiny_config()
        doc["data"], named = data_case(tmp_path, case)
        cfg = write_config(tmp_path, doc)
        assert run([command, "--config", cfg, "--out", tmp_path / "out", "--quiet"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert named in err

    @pytest.mark.parametrize(
        "args",
        [
            ["train"],
            ["bogus", "--config", "c.json"],
            ["train", "--config", "c.json", "--seed", "abc"],
            ["gradcheck", "--config", "c.json", "--out", "o"],
        ],
        ids=["missing-config", "unknown-command", "seed-not-int", "gradcheck-out"],
    )
    def test_usage_error_is_one_error_line(self, capsys, args):
        assert run(args) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: mossl") and captured.err.count("\n") == 1, captured.err
        assert captured.out == ""

    def test_help_still_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["eval", "--help"])
        assert exc.value.code == 0
        assert "default: the checkpoint's directory" in " ".join(capsys.readouterr().out.split())

    def test_non_finite_csv_value_is_data_error(self, tmp_path, capsys):
        csv_path = tmp_path / "nan.csv"
        csv_path.write_text("time,node,modality,value\n0,a,x,1.0\n1,a,x,nan\n")
        doc = tiny_config()
        doc["data"] = {"kind": "csv", "path": str(csv_path), "input_steps": 4, "output_steps": 1}
        cfg = write_config(tmp_path, doc)
        assert run(["train", "--config", cfg, "--out", tmp_path / "r", "--quiet"]) == 2
        err = capsys.readouterr().err
        assert err == "error: non-finite value nan at time '1', node 'a', modality 'x'\n"

    def test_unknown_config_key_is_usage_error(self, tmp_path, capsys):
        # a typo, and each deleted model switch that an older config may still set
        for key in ("hideen", "straight_through_mask", "mask_scale", "average_negatives", "residual"):
            cfg = tiny_config()
            cfg["model"][key] = 12
            path = write_config(tmp_path, cfg, f"{key}.json")
            assert run(["train", "--config", path, "--out", tmp_path / "r", "--quiet"]) == 1, key
            lines = capsys.readouterr().err.splitlines()
            assert len(lines) == 1 and lines[0].startswith("error:") and key in lines[0], lines

    @pytest.mark.parametrize(
        "section,key,value,named",
        [
            ("model", "dilations", 3, "model.dilations"),
            ("model", "hidden", "abc", "model.hidden"),
            (None, "model", [], "model"),
            ("train", "ablation", {"no_av": "false"}, "train.ablation.no_av"),
        ],
    )
    def test_wrong_value_type_is_usage_error(self, tmp_path, capsys, section, key, value, named):
        cfg = tiny_config()
        (cfg if section is None else cfg[section])[key] = value
        path = write_config(tmp_path, cfg)
        assert run(["train", "--config", path, "--out", tmp_path / "r", "--quiet"]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {named} must be")
        assert "Traceback" not in err

    def test_window_the_encoder_does_not_collapse_is_usage_error(self, tmp_path, capsys):
        cfg = tiny_config()
        cfg["data"]["input_steps"] = 5
        path = write_config(tmp_path, cfg)
        assert run(["train", "--config", path, "--out", tmp_path / "r", "--quiet"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: data.input_steps must be 4,")
        assert "Traceback" not in err
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize("case", ["missing", "directory", "not-utf8"])
    def test_missing_config_file(self, tmp_path, capsys, case):
        path = tmp_path / "config.json"
        if case == "directory":
            path.mkdir()
        elif case == "not-utf8":
            path.write_bytes(b'{"name": "\xff"}')
        assert run(["train", "--config", path, "--quiet"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert str(path) in err

    def test_data_gap_is_data_error(self, tmp_path, capsys):
        csv_path = tmp_path / "bad.csv"
        csv_path.write_text("time,node,modality,value\n0,a,x,1.0\n1,a,x,1.0\n0,b,x,1.0\n")
        cfg = tiny_config()
        cfg["data"] = {
            "kind": "csv",
            "path": str(csv_path),
            "input_steps": 4,
            "output_steps": 1,
        }
        path = write_config(tmp_path, cfg)
        assert run(["train", "--config", path, "--out", tmp_path / "r", "--quiet"]) == 2
        assert "gaps" in capsys.readouterr().err

    def test_eval_with_wrong_config_dims_fails(self, tmp_path, capsys):
        cfg = write_config(tmp_path, tiny_config())
        runs = tmp_path / "runs"
        run(["train", "--config", cfg, "--out", runs, "--quiet"])
        run_dir = single_run_dir(runs)
        other = tiny_config()
        other["data"]["synthetic"]["nodes"] = 4
        other_path = write_config(tmp_path, other, "other.json")
        code = run([
            "eval", "--config", other_path, "--checkpoint", run_dir / "checkpoint.mossl",
            "--quiet",
        ])
        assert code == 1
        assert "match" in capsys.readouterr().err
