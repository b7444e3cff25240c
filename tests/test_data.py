"""Loading, normalization, windowing, splits, and synthetic generation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mossl.data import (
    MoSTSeries,
    SplitSpec,
    SynthSpec,
    load_csv,
    load_descriptor,
    load_prepared,
    make_windows,
    prepare_windows,
    save_csv,
    save_prepared,
    synth_generate,
    zscore_fit,
)
from mossl.errors import ConfigError, DataError


def toy_series(steps=10, nodes=2, modalities=2, seed=0):
    values = np.random.default_rng(seed).standard_normal((steps, nodes, modalities))
    return MoSTSeries(
        values,
        [str(i) for i in range(steps)],
        [f"n{i}" for i in range(nodes)],
        [f"m{i}" for i in range(modalities)],
    )


class TestSeriesInvariants:
    def test_metadata_length_mismatch(self):
        with pytest.raises(DataError, match="metadata"):
            MoSTSeries(np.zeros((3, 2, 1)), ["0", "1"], ["a", "b"], ["x"])

    def test_non_monotone_time(self):
        with pytest.raises(DataError, match="increasing"):
            MoSTSeries(np.zeros((3, 1, 1)), ["0", "2", "1"], ["a"], ["x"])

    def test_irregular_step(self):
        with pytest.raises(DataError, match="constant step"):
            MoSTSeries(np.zeros((3, 1, 1)), ["0", "1", "5"], ["a"], ["x"])

    def test_iso_timestamps_accepted(self):
        s = MoSTSeries(
            np.zeros((2, 1, 1)),
            ["2016-04-01T00:00:00", "2016-04-01T00:30:00"],
            ["a"],
            ["x"],
        )
        assert s.num_steps == 2

    def test_bad_timestamp(self):
        with pytest.raises(DataError, match="unparseable"):
            MoSTSeries(np.zeros((2, 1, 1)), ["yesterday", "today"], ["a"], ["x"])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_value_names_its_cell(self, bad):
        values = np.zeros((3, 2, 2))
        values[1, 1, 0] = bad
        values[2, 0, 1] = np.nan
        with pytest.raises(DataError, match=r"non-finite value .* time '1', node 'b', modality 'x'"):
            MoSTSeries(values, ["0", "1", "2"], ["a", "b"], ["x", "y"])


class TestCsv:
    def test_tiny_grid(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text(
            "time,node,modality,value\n"
            "0,a,x,1.5\n"
            "1,a,x,2.5\n"
        )
        series = load_csv(path)
        assert series.values.shape == (2, 1, 1)
        assert series.values[1, 0, 0] == 2.5

    def test_round_trip(self, tmp_path):
        series = toy_series(steps=6, nodes=3, modalities=2, seed=1)
        path = tmp_path / "rt.csv"
        save_csv(series, path)
        back = load_csv(path)
        assert np.array_equal(back.values, series.values)
        assert back.node_ids == series.node_ids
        assert back.modality_names == series.modality_names

    def test_gap_error_lists_missing_cells(self, tmp_path):
        path = tmp_path / "gap.csv"
        path.write_text(
            "time,node,modality,value\n"
            "0,a,x,1.0\n"
            "0,b,x,1.0\n"
            "1,a,x,1.0\n"
        )
        with pytest.raises(DataError, match=r"gaps.*'1', 'b', 'x'"):
            load_csv(path)

    def test_duplicate_key(self, tmp_path):
        path = tmp_path / "dup.csv"
        path.write_text("time,node,modality,value\n0,a,x,1.0\n0,a,x,2.0\n")
        with pytest.raises(DataError, match="duplicate"):
            load_csv(path)

    def test_missing_column(self, tmp_path):
        path = tmp_path / "col.csv"
        path.write_text("time,node,value\n0,a,1.0\n")
        with pytest.raises(DataError, match="modality"):
            load_csv(path)

    def test_unparseable_value(self, tmp_path):
        path = tmp_path / "val.csv"
        path.write_text("time,node,modality,value\n0,a,x,much\n")
        with pytest.raises(DataError, match="unparseable value"):
            load_csv(path)

    def test_unparseable_time_label(self, tmp_path):
        path = tmp_path / "time.csv"
        path.write_text("time,node,modality,value\n0,a,x,1.0\nnoon,a,x,2.0\n2,a,x,3.0\n")
        with pytest.raises(DataError, match="unparseable timestamp 'noon'"):
            load_csv(path)

    @pytest.mark.parametrize("text", ["{nodes: 3", "[3, 2]"])
    def test_malformed_descriptor_is_data_error(self, tmp_path, text):
        path = tmp_path / "descriptor.json"
        path.write_text(text)
        with pytest.raises(DataError, match=r"descriptor .*descriptor.json (is not valid JSON|must hold)"):
            load_descriptor(path)

    def test_descriptor_count_validation(self, tmp_path):
        path = tmp_path / "d.csv"
        save_csv(toy_series(steps=3, nodes=2, modalities=2), path)
        with pytest.raises(DataError, match="98"):
            load_csv(path, {"nodes": 98, "modalities": 4})

    def test_descriptor_orders_axes(self, tmp_path):
        path = tmp_path / "d.csv"
        series = toy_series(steps=3, nodes=2, modalities=2)
        save_csv(series, path)
        back = load_csv(path, {"nodes": ["n1", "n0"], "modalities": ["m1", "m0"]})
        assert back.node_ids == ["n1", "n0"]
        assert np.array_equal(back.values[:, 0, :], series.values[:, 1, ::-1])

    def test_prepared_round_trip(self, tmp_path):
        series = toy_series(steps=5)
        save_prepared(series, tmp_path / "prep")
        back = load_prepared(tmp_path / "prep")
        assert np.array_equal(back.values, series.values)
        assert back.time_labels == series.time_labels

    @pytest.mark.parametrize("name", ["meta.json", "values.mostt"])
    def test_prepared_directory_missing_a_file_is_data_error(self, tmp_path, name):
        save_prepared(toy_series(steps=5), tmp_path / "prep")
        (tmp_path / "prep" / name).unlink()
        with pytest.raises(DataError, match=f"prep is not a prepared dataset directory .missing {name}"):
            load_prepared(tmp_path / "prep")

    @pytest.mark.parametrize(
        "name,damage,message",
        [
            ("meta.json", lambda raw: raw[:15], "is not valid JSON"),
            ("meta.json", lambda raw: b"\xff\xfe", "is not valid JSON"),
            ("meta.json", lambda raw: b"[]", "must hold a JSON object"),
            ("meta.json", lambda raw: b'{"time_labels": []}', r"lacks \['node_ids', 'modality_names'\]"),
            (
                "meta.json",
                lambda raw: b'{"time_labels": [], "node_ids": 5, "modality_names": []}',
                "node_ids must be a JSON list",
            ),
            ("values.mostt", lambda raw: raw[:6], "truncated tensor container header"),
            ("values.mostt", lambda raw: raw[:-8], "truncated tensor payload"),
            ("values.mostt", lambda raw: b"NOPE" + raw[4:], "bad magic"),
        ],
        ids=["meta-cut", "meta-not-utf8", "meta-not-object", "meta-lacks-keys", "meta-key-not-list",
             "values-cut-header", "values-cut-payload", "values-bad-magic"],
    )
    def test_damaged_prepared_file_is_data_error_naming_it(self, tmp_path, name, damage, message):
        save_prepared(toy_series(steps=5), tmp_path / "prep")
        path = tmp_path / "prep" / name
        path.write_bytes(damage(path.read_bytes()))
        with pytest.raises(DataError, match=message) as info:
            load_prepared(tmp_path / "prep")
        assert str(path) in str(info.value)


class TestZScore:
    def test_two_point_example(self):
        series = MoSTSeries(
            np.array([0.0, 2.0]).reshape(2, 1, 1), ["0", "1"], ["a"], ["x"]
        )
        stats = zscore_fit(series, (0, 2))
        assert stats.mean[0] == 1.0 and stats.std[0] == 1.0
        assert stats.apply(series.values).ravel().tolist() == [-1.0, 1.0]

    def test_constant_series_floors_std(self):
        series = MoSTSeries(np.full((4, 1, 1), 7.0), list("0123"), ["a"], ["x"])
        with pytest.warns(UserWarning, match="zero-variance"):
            stats = zscore_fit(series, (0, 4))
        normalized = stats.apply(series.values)
        assert np.allclose(normalized, 0.0)
        assert np.allclose(stats.invert(normalized), 7.0)

    def test_round_trip_random(self):
        series = toy_series(steps=20, seed=3)
        stats = zscore_fit(series, (0, 14))
        assert np.max(np.abs(stats.invert(stats.apply(series.values)) - series.values)) < 1e-10

    @given(st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=30, deadline=None)
    def test_round_trip_property(self, seed):
        values = np.random.default_rng(seed).normal(50.0, 10.0, size=(8, 2, 2))
        series = MoSTSeries(values, [str(i) for i in range(8)], ["a", "b"], ["x", "y"])
        stats = zscore_fit(series, (0, 6))
        assert np.max(np.abs(stats.invert(stats.apply(values)) - values)) < 1e-10

    def test_stats_depend_only_on_train_range(self):
        series_a = toy_series(steps=20, seed=4)
        series_b = toy_series(steps=20, seed=4)
        series_b.values[15:] += 100.0  # test region only
        stats_a = zscore_fit(series_a, (0, 14))
        stats_b = zscore_fit(series_b, (0, 14))
        assert np.array_equal(stats_a.mean, stats_b.mean)
        assert np.array_equal(stats_a.std, stats_b.std)

    def test_empty_range(self):
        with pytest.raises(DataError, match="empty"):
            zscore_fit(toy_series(), (5, 5))


class TestWindows:
    def test_boundary_count(self):
        values = np.zeros((19, 1, 1))
        assert make_windows(values, 16, 3).count == 1

    def test_count_formula(self):
        values = np.zeros((20, 1, 1))
        windows = make_windows(values, 16, 3)
        assert windows.count == 2

    @pytest.mark.parametrize("total,stride", [(30, 1), (30, 2), (31, 2), (29, 3)])
    def test_stride_matches_enumeration_oracle(self, total, stride):
        values = np.arange(total, dtype=float).reshape(total, 1, 1)
        windows = make_windows(values, 16, 3, stride=stride)
        expected_starts = [s for s in range(0, total - 19 + 1) if (s % stride) == 0]
        assert [a - 16 for a in windows.anchors] == expected_starts
        full = total - 16 - 3 + 1
        assert windows.count == -(-full // stride)  # ceil division

    def test_target_follows_input(self):
        values = np.arange(25, dtype=float).reshape(25, 1, 1)
        windows = make_windows(values, 4, 2)
        for i in range(windows.count):
            assert windows.x[i][-1, 0, 0] + 1 == windows.y[i][0, 0, 0]
            assert windows.y[i].shape[0] == 2

    def test_too_short(self):
        windows = make_windows(np.zeros((5, 2, 3)), 16, 3)
        assert windows.count == 0
        assert windows.x.shape == (0, 16, 2, 3)
        assert windows.y.shape == (0, 3, 2, 3)
        assert windows.anchors.shape == (0,) and windows.anchors.dtype == np.int64


class TestSplits:
    def test_fractions_must_sum_to_one(self):
        with pytest.raises(ConfigError, match="sum to 1"):
            SplitSpec(0.5, 0.2, 0.2)

    def test_segments_cover_series(self):
        seg = SplitSpec(0.7, 0.1, 0.2).segments(100)
        assert seg == {"train": (0, 70), "val": (70, 80), "test": (80, 100)}

    def test_no_window_straddles_boundaries(self):
        series = toy_series(steps=100, seed=5)
        prepared = prepare_windows(series, SplitSpec(0.7, 0.1, 0.2), 8, 2)
        seg = SplitSpec(0.7, 0.1, 0.2).segments(100)
        assert prepared.splits["train"].anchors.max() + 2 <= seg["train"][1]
        assert prepared.splits["val"].anchors.min() >= seg["val"][0] + 8
        assert prepared.splits["test"].anchors.min() >= seg["test"][0] + 8

    def test_train_anchor_below_val_start(self):
        series = toy_series(steps=100, seed=6)
        prepared = prepare_windows(series, SplitSpec(0.7, 0.1, 0.2), 8, 2)
        assert prepared.splits["train"].anchors.max() < 70  # val starts at step 70

    def test_short_split_yields_empty_window_set(self):
        series = toy_series(steps=30, seed=7)
        prepared = prepare_windows(series, SplitSpec(0.7, 0.1, 0.2), 8, 2)
        assert prepared.splits["val"].count == 0


class TestSynth:
    def test_determinism(self):
        spec = SynthSpec(nodes=3, modalities=2, steps=50, noise=0.2)
        a = synth_generate(spec, seed=9)
        b = synth_generate(spec, seed=9)
        assert np.array_equal(a.values, b.values)

    def test_identity_coupling_decorrelates_modalities(self):
        spec = SynthSpec(nodes=2, modalities=3, steps=2000, noise=0.0)
        series = synth_generate(spec, seed=11)
        for n in range(2):
            for m1 in range(3):
                for m2 in range(m1 + 1, 3):
                    corr = np.corrcoef(series.values[:, n, m1], series.values[:, n, m2])[0, 1]
                    assert abs(corr) < 0.2

    def test_identical_coupling_rows_make_identical_modalities(self):
        row = [0.5, 0.3, 0.2]
        spec = SynthSpec(nodes=2, modalities=3, steps=40, regimes=1, coupling=[row] * 3, noise=0.0)
        series = synth_generate(spec, seed=12)
        assert np.allclose(series.values[:, :, 0], series.values[:, :, 1], atol=1e-12)
        assert np.allclose(series.values[:, :, 0], series.values[:, :, 2], atol=1e-12)

    def test_shared_source_couples_modalities(self):
        mix = [[0.5, 0.5, 0.0], [0.5, 0.5, 0.0], [0.0, 0.0, 1.0]]
        spec = SynthSpec(nodes=1, modalities=3, steps=2000, coupling=mix, noise=0.0)
        series = synth_generate(spec, seed=13)
        strong = np.corrcoef(series.values[:, 0, 0], series.values[:, 0, 1])[0, 1]
        weak = np.corrcoef(series.values[:, 0, 0], series.values[:, 0, 2])[0, 1]
        assert strong > 0.95
        assert abs(weak) < 0.2

    def test_rejects_non_row_stochastic_coupling(self):
        with pytest.raises(ConfigError, match="row-stochastic"):
            SynthSpec(nodes=1, modalities=2, steps=10, coupling=[[0.9, 0.9], [0.5, 0.5]])

    def test_rejects_bad_shape(self):
        with pytest.raises(ConfigError):
            SynthSpec(nodes=1, modalities=3, steps=10, coupling=[[1.0]])
