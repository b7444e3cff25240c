"""The config schema derived from the dataclasses: parsing, key checks, hashing."""

import json
import re

import pytest

from mossl.config import parse_config
from mossl.errors import ConfigError
from test_acceptance import TINY_CONFIG_TEXT
from test_cli import tiny_config


def parse(doc: dict):
    return parse_config(json.dumps(doc))


def rich_config() -> dict:
    """A config that sets a field of every kind away from its default."""
    cfg = tiny_config()
    cfg["data"]["synthetic"]["regimes"] = 2
    cfg["data"]["synthetic"]["coupling"] = [[[0.7, 0.3], [0.3, 0.7]], [[1, 0], [0, 1]]]
    cfg["data"]["synthetic_seed"] = 4
    cfg["data"]["stride"] = 2
    cfg["model"]["residual"] = True
    cfg["model"]["mask_scale"] = 0.5
    cfg["train"]["ablation"] = {"no_gssl": True}
    cfg["train"]["early_stop_patience"] = 3
    return cfg


class TestHash:
    def test_acceptance_tiny_config_hash_is_pinned(self):
        assert parse_config(TINY_CONFIG_TEXT).config_hash() == (
            "e63c2f113d6baf1d57d87d7540810e2526755d6dd37cbbccc04c7fd71f32e4e9"
        )

    def test_cli_tiny_config_hash_is_pinned(self):
        assert parse(tiny_config()).config_hash() == (
            "4e9cb714f9b2720b8e020b5f259f16cef5e03512452ebdee0b701e118bdf7552"
        )

    def test_rich_config_hash_is_pinned(self):
        assert parse(rich_config()).config_hash() == (
            "59c32008379e3a9abeb0e585b7ae73e91a7bb8157b1654882e8c427ab6bc4690"
        )

    def test_effective_dict_round_trips(self):
        cfg = parse(rich_config())
        again = parse(cfg.effective_dict())
        assert again.effective_dict() == cfg.effective_dict()
        assert "raw_text" not in cfg.effective_dict()


class TestCoercion:
    def test_defaults_fill_missing_sections(self):
        cfg = parse(tiny_config())
        assert cfg.model.straight_through_mask is False
        assert cfg.train.ablation.no_av is False
        assert cfg.data.synthetic.regimes == 1

    def test_int_is_accepted_for_float(self):
        doc = tiny_config()
        doc["train"]["learning_rate"] = 1
        value = parse(doc).train.learning_rate
        assert value == 1.0 and isinstance(value, float)

    def test_null_for_optional(self):
        doc = tiny_config()
        doc["train"]["early_stop_patience"] = None
        assert parse(doc).train.early_stop_patience is None

    def test_list_becomes_tuple(self):
        assert parse(tiny_config()).model.dilations == (1, 2)

    @pytest.mark.parametrize(
        "section,key,value,named",
        [
            ("model", "dilations", [1, "2"], "model.dilations[1]"),
            ("model", "hidden", 4.0, "model.hidden"),
            ("model", "hidden", None, "model.hidden"),
            ("model", "residual", 1, "model.residual"),
            ("train", "epochs", True, "train.epochs"),
            ("train", "learning_rate", "fast", "train.learning_rate"),
            ("train", "loss_weights", {"forecast": "x"}, "train.loss_weights.forecast"),
            ("train", "ablation", {"no_av": "yes"}, "train.ablation.no_av"),
            ("data", "split", [0.7, 0.3], "data.split"),
            ("data", "stride", "1", "data.stride"),
        ],
    )
    def test_wrong_type_names_the_key(self, section, key, value, named):
        # test_cli.py::TestErrors covers dilations 3, hidden "abc", residual "false", model []
        doc = tiny_config()
        doc[section][key] = value
        with pytest.raises(ConfigError, match="^" + re.escape(named)):
            parse(doc)

    @pytest.mark.parametrize("section", ["data", "train"])
    def test_section_must_be_object(self, section):
        doc = tiny_config()
        doc[section] = []
        with pytest.raises(ConfigError, match=f"^{section} must be a JSON object"):
            parse(doc)

    def test_root_must_be_object(self):
        with pytest.raises(ConfigError, match="config root must be a JSON object"):
            parse_config("[]")

    def test_missing_required_key(self):
        doc = tiny_config()
        del doc["data"]["synthetic"]["nodes"]
        with pytest.raises(ConfigError, match="missing required key 'nodes' in data.synthetic"):
            parse(doc)

    def test_unknown_nested_key(self):
        doc = tiny_config()
        doc["train"]["loss_weights"]["mixtrue"] = 1.0
        with pytest.raises(ConfigError, match=r"unknown keys \['mixtrue'\] in train.loss_weights"):
            parse(doc)

    def test_raw_text_is_not_a_key(self):
        doc = tiny_config()
        doc["raw_text"] = ""
        with pytest.raises(ConfigError, match="unknown keys"):
            parse(doc)

    def test_malformed_coupling_is_config_error(self):
        doc = tiny_config()
        doc["data"]["synthetic"]["coupling"] = [[1, "a"], [0, 1]]
        with pytest.raises(ConfigError, match="^data.synthetic"):
            parse(doc)

    @pytest.mark.parametrize(
        "section,patch,named",
        [
            ("model", {"hidden": 0}, "model: hidden must be at least 1, got 0"),
            ("model", {"layers": 0, "dilations": []}, "model: layers must be at least 1, got 0"),
            ("model", {"kernel_size": 0}, "model: kernel_size must be at least 1, got 0"),
            ("model", {"mixture_components": 0}, "model: mixture_components must be at least 1"),
            ("train", {"batch_size": 0}, "train: batch_size must be at least 1, got 0"),
            ("train", {"epochs": 0}, "train: epochs must be at least 1, got 0"),
            ("data", {"output_steps": 0}, "data: output_steps must be at least 1, got 0"),
            ("data", {"input_steps": 5}, "data.input_steps must be 4,"),
        ],
        ids=["hidden", "layers", "kernel_size", "mixture_components", "batch_size", "epochs",
             "output_steps", "input_steps"],
    )
    def test_out_of_range_names_the_key(self, section, patch, named):
        doc = tiny_config()
        doc[section].update(patch)
        with pytest.raises(ConfigError, match="^" + re.escape(named)):
            parse(doc)

    def test_cross_checks_stay(self):
        doc = tiny_config()
        doc["data"]["kind"] = "csv"
        with pytest.raises(ConfigError, match="requires data.path"):
            parse(doc)
        doc = tiny_config()
        doc["model"]["dilations"] = [1]
        with pytest.raises(ConfigError, match="does not cover"):
            parse(doc)
