"""End-to-end command-line behavior, exit codes included."""

import json
from pathlib import Path

import numpy as np
import pytest

from mossl.cli import main
from mossl.container import load_tensor


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
        assert json.loads((run_dir / "config.json").read_text()) == tiny_config()
        history = json.loads((run_dir / "history.json").read_text())
        assert len(history) == 2

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


class TestErrors:
    def test_unknown_config_key_is_usage_error(self, tmp_path, capsys):
        cfg = tiny_config()
        cfg["model"]["hideen"] = 12
        path = write_config(tmp_path, cfg)
        assert run(["train", "--config", path, "--out", tmp_path / "r", "--quiet"]) == 1
        assert "hideen" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "section,key,value,named",
        [
            ("model", "dilations", 3, "model.dilations"),
            ("model", "hidden", "abc", "model.hidden"),
            (None, "model", [], "model"),
            ("model", "residual", "false", "model.residual"),
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

    def test_missing_config_file(self, tmp_path, capsys):
        assert run(["train", "--config", tmp_path / "nope.json", "--quiet"]) == 1

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
