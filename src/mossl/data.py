"""Dataset ingestion, synthesis, normalization, windowing, and splits.

Observations live on a dense (time, node, modality) grid.  Loading is strict:
gaps and duplicates are hard errors, never imputed.
"""

from __future__ import annotations

import csv
import datetime as _dt
import json
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .container import load_tensor, save_tensor
from .errors import CheckpointError, ConfigError, DataError, require_non_negative
from .rng import derive_rng

STD_FLOOR = 1e-8


def _parse_time(label: str) -> float:
    """Numeric key for a time label: plain integer or ISO-8601 timestamp."""
    try:
        return float(int(label))
    except ValueError:
        pass
    try:
        return _dt.datetime.fromisoformat(label).timestamp()
    except ValueError as exc:
        raise DataError(f"unparseable timestamp {label!r}") from exc


@dataclass
class MoSTSeries:
    """Raw observations over (time, node, modality) plus axis metadata."""

    values: np.ndarray
    time_labels: list[str]
    node_ids: list[str]
    modality_names: list[str]

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 3:
            raise DataError(f"series values must be 3-d, got shape {self.values.shape}")
        t, n, m = self.values.shape
        if (t, n, m) != (len(self.time_labels), len(self.node_ids), len(self.modality_names)):
            raise DataError(
                f"axis metadata lengths ({len(self.time_labels)}, {len(self.node_ids)}, "
                f"{len(self.modality_names)}) do not match value shape {self.values.shape}"
            )
        if not np.isfinite(self.values).all():
            ti, ni, mi = np.argwhere(~np.isfinite(self.values))[0]
            raise DataError(
                f"non-finite value {self.values[ti, ni, mi]} at time {self.time_labels[ti]!r}, "
                f"node {self.node_ids[ni]!r}, modality {self.modality_names[mi]!r}"
            )
        keys = np.array([_parse_time(str(lbl)) for lbl in self.time_labels])
        if len(keys) > 1:
            steps = np.diff(keys)
            if np.any(steps <= 0):
                raise DataError("time labels must be strictly increasing")
            if not np.allclose(steps, steps[0], rtol=0.0, atol=1e-9):
                raise DataError("time labels must advance with a constant step")

    @property
    def num_steps(self) -> int:
        return self.values.shape[0]

    @property
    def num_nodes(self) -> int:
        return self.values.shape[1]

    @property
    def num_modalities(self) -> int:
        return self.values.shape[2]


@dataclass
class NormStats:
    """Per-modality z-score statistics fitted on the training range only."""

    mean: np.ndarray  # [M]
    std: np.ndarray  # [M], floored at STD_FLOOR

    def apply(self, values: np.ndarray) -> np.ndarray:
        return (values - self.mean) / self.std

    def invert(self, values: np.ndarray) -> np.ndarray:
        return values * self.std + self.mean


@dataclass
class SplitSpec:
    """Chronological train/val/test fractions; windows never straddle a boundary."""

    train: float = 0.7
    val: float = 0.1
    test: float = 0.2

    def __post_init__(self):
        total = self.train + self.val + self.test
        if abs(total - 1.0) > 1e-9:
            raise ConfigError(f"split fractions must sum to 1, got {total}")
        if min(self.train, self.val, self.test) < 0:
            raise ConfigError("split fractions must be non-negative")

    def segments(self, num_steps: int) -> dict[str, tuple[int, int]]:
        t1 = int(num_steps * self.train)
        t2 = int(num_steps * (self.train + self.val))
        return {"train": (0, t1), "val": (t1, t2), "test": (t2, num_steps)}


def zscore_fit(series: MoSTSeries, train_range: tuple[int, int]) -> NormStats:
    start, stop = train_range
    if stop <= start:
        raise DataError(f"empty training range ({start}, {stop})")
    block = series.values[start:stop]
    mean = block.mean(axis=(0, 1))
    std = block.std(axis=(0, 1))
    flat = std < STD_FLOOR
    if np.any(flat):
        names = [series.modality_names[i] for i in np.nonzero(flat)[0]]
        warnings.warn(f"zero-variance modalities {names}; std floored at {STD_FLOOR}")
        std = np.where(flat, STD_FLOOR, std)
    return NormStats(mean=mean, std=std)


@dataclass
class WindowSet:
    """Stacked window arrays: each input block and the target block right after it."""

    x: np.ndarray  # [count, T, N, M]
    y: np.ndarray  # [count, O, N, M]
    anchors: np.ndarray  # [count], index of the first target step in the source series

    @property
    def count(self) -> int:
        return self.x.shape[0]


def make_windows(
    values: np.ndarray,
    input_steps: int,
    output_steps: int,
    stride: int = 1,
    start: int = 0,
    stop: int | None = None,
) -> WindowSet:
    """Gather every window whose input and target both fit inside [start, stop), if any."""
    if stop is None:
        stop = values.shape[0]
    if stride < 1:
        raise ConfigError(f"stride must be positive, got {stride}")
    span = input_steps + output_steps
    starts = np.arange(start, stop - span + 1, stride, dtype=np.int64)
    steps = starts[:, None] + np.arange(span)  # [count, span]
    return WindowSet(
        x=values[steps[:, :input_steps]],
        y=values[steps[:, input_steps:]],
        anchors=starts + input_steps,
    )


@dataclass
class PreparedData:
    """Normalized, windowed splits plus everything needed to undo the scaling."""

    stats: NormStats
    splits: dict[str, WindowSet]
    node_ids: list[str]
    modality_names: list[str]


def prepare_windows(
    series: MoSTSeries,
    split: SplitSpec,
    input_steps: int,
    output_steps: int,
    stride: int = 1,
) -> PreparedData:
    segments = split.segments(series.num_steps)
    stats = zscore_fit(series, segments["train"])
    normalized = stats.apply(series.values)
    splits = {
        name: make_windows(normalized, input_steps, output_steps, stride, start, stop)
        for name, (start, stop) in segments.items()
    }
    return PreparedData(
        stats=stats,
        splits=splits,
        node_ids=list(series.node_ids),
        modality_names=list(series.modality_names),
    )


# -- CSV ingestion ----------------------------------------------------------

REQUIRED_COLUMNS = ("time", "node", "modality", "value")


def load_csv(path: str | Path, descriptor: dict | None = None) -> MoSTSeries:
    """Load a dense grid from a ``time,node,modality,value`` CSV.

    Axis ordering comes from the descriptor when given, otherwise from first
    appearance in the file.  Any missing (time, node, modality) cell is an
    error listing the first ten gaps.
    """
    path = Path(path)
    cells: dict[tuple[str, str, str], float] = {}
    times: dict[str, None] = {}
    nodes: dict[str, None] = {}
    modalities: dict[str, None] = {}
    with _open_input(path, "CSV") as fh:
        reader = csv.DictReader(fh)
        header = reader.fieldnames or []
        missing_cols = [c for c in REQUIRED_COLUMNS if c not in header]
        if missing_cols:
            raise DataError(f"CSV {path} is missing columns {missing_cols}; header was {header}")
        for line_no, row in enumerate(reader, start=2):
            t, n, m = row["time"], row["node"], row["modality"]
            try:
                value = float(row["value"])
            except (TypeError, ValueError) as exc:
                raise DataError(f"{path}:{line_no}: unparseable value {row['value']!r}") from exc
            key = (t, n, m)
            if key in cells:
                raise DataError(f"{path}:{line_no}: duplicate entry for {key}")
            cells[key] = value
            times.setdefault(t, None)
            nodes.setdefault(n, None)
            modalities.setdefault(m, None)

    time_labels = sorted(times, key=_parse_time)
    node_ids = list(nodes)
    modality_names = list(modalities)
    if descriptor:
        node_ids = _axis_from_descriptor(descriptor, "nodes", node_ids, path)
        modality_names = _axis_from_descriptor(descriptor, "modalities", modality_names, path)

    gaps = []
    values = np.empty((len(time_labels), len(node_ids), len(modality_names)))
    for ti, t in enumerate(time_labels):
        for ni, n in enumerate(node_ids):
            for mi, m in enumerate(modality_names):
                cell = cells.get((t, n, m))
                if cell is None:
                    gaps.append((t, n, m))
                    if len(gaps) >= 10:
                        raise DataError(f"{path}: grid has gaps; first 10: {gaps}")
                else:
                    values[ti, ni, mi] = cell
    if gaps:
        raise DataError(f"{path}: grid has gaps; first {len(gaps)}: {gaps}")
    return MoSTSeries(values, time_labels, node_ids, modality_names)


def load_descriptor(path: str | Path) -> dict:
    """The JSON object of a dataset descriptor: axis order and counts for ``load_csv``.

    ``nodes`` and ``modalities``, when given, are a count (an integer) or the
    axis order (a list of names).
    """
    descriptor = _load_json_object(Path(path), "descriptor")
    for key in ("nodes", "modalities"):
        declared = descriptor.get(key)
        if isinstance(declared, bool) or not isinstance(declared, (int, list, type(None))):
            raise DataError(f"descriptor {path}: {key} must be a count or a list, got {declared!r}")
    return descriptor


def _load_json_object(path: Path, what: str) -> dict:
    with _open_input(path, what) as fh:
        try:
            loaded = json.load(fh)
        except ValueError as exc:  # not JSON, or not UTF-8
            raise DataError(f"{what} {path} is not valid JSON: {exc}") from exc
    if not isinstance(loaded, dict):
        raise DataError(f"{what} {path} must hold a JSON object")
    return loaded


def _open_input(path: Path, what: str):
    try:
        return open(path, newline="")
    except OSError as exc:
        raise DataError(f"cannot read {what} {path}: {exc.strerror}") from exc


def _axis_from_descriptor(descriptor: dict, key: str, observed: list[str], path: Path) -> list[str]:
    declared = descriptor.get(key)
    if declared is None:
        return observed
    if isinstance(declared, int):
        if len(observed) != declared:
            raise DataError(
                f"{path}: descriptor declares {declared} {key}, file has {len(observed)}"
            )
        return observed
    declared = [str(d) for d in declared]
    if sorted(declared) != sorted(observed):
        raise DataError(
            f"{path}: descriptor {key} {declared} do not match file axis {sorted(observed)}"
        )
    return declared


# -- prepared directories -----------------------------------------------------


def save_prepared(series: MoSTSeries, out_dir: str | Path) -> None:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    save_tensor(out / "values.mostt", series.values)
    meta = {
        "time_labels": [str(t) for t in series.time_labels],
        "node_ids": list(series.node_ids),
        "modality_names": list(series.modality_names),
    }
    (out / "meta.json").write_text(json.dumps(meta, indent=2))


def load_prepared(path: str | Path) -> MoSTSeries:
    root = Path(path)
    names = ("meta.json", "values.mostt")
    missing = ", ".join(name for name in names if not (root / name).is_file())
    if missing:
        raise DataError(f"{root} is not a prepared dataset directory (missing {missing})")
    meta = _load_json_object(root / "meta.json", "prepared metadata")
    keys = ("time_labels", "node_ids", "modality_names")
    lacking = [key for key in keys if key not in meta]
    if lacking:
        raise DataError(f"prepared metadata {root / 'meta.json'} lacks {lacking}")
    for key in keys:
        if not isinstance(meta[key], list):
            raise DataError(f"prepared metadata {root / 'meta.json'}: {key} must be a JSON list")
    try:
        values = load_tensor(root / "values.mostt")
    except CheckpointError as exc:  # the container's error for any file it reads
        raise DataError(f"prepared values {root / 'values.mostt'}: {exc}") from exc
    return MoSTSeries(values, *(meta[key] for key in keys))


def save_csv(series: MoSTSeries, path: str | Path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(REQUIRED_COLUMNS)
        for ti, t in enumerate(series.time_labels):
            for ni, n in enumerate(series.node_ids):
                for mi, m in enumerate(series.modality_names):
                    writer.writerow([t, n, m, repr(float(series.values[ti, ni, mi]))])


# -- synthetic generation -----------------------------------------------------


@dataclass
class SynthSpec:
    """Recipe for a synthetic grid with planted cross-modality structure.

    Each node belongs to one latent regime; every regime carries a
    row-stochastic coupling matrix mixing per-node source signals into
    modalities.  Identity coupling yields independent modalities; shared
    rows yield strongly correlated ones.
    """

    nodes: int
    modalities: int
    steps: int
    regimes: int = 1
    coupling: list = field(default_factory=list)  # [regimes][M][M], row-stochastic
    noise: float = 0.1

    def __post_init__(self):
        if min(self.nodes, self.modalities, self.steps, self.regimes) < 1:
            raise ConfigError("synthetic spec extents must be positive")
        require_non_negative(self, "noise")
        if not self.coupling:
            self.coupling = [np.eye(self.modalities).tolist()] * self.regimes
        matrices = np.asarray(self.coupling, dtype=np.float64)
        if matrices.ndim == 2:
            matrices = np.broadcast_to(matrices, (self.regimes,) + matrices.shape).copy()
        if matrices.shape != (self.regimes, self.modalities, self.modalities):
            raise ConfigError(
                f"coupling must be [regimes={self.regimes}][M={self.modalities}][M], "
                f"got shape {matrices.shape}"
            )
        if np.any(matrices < 0) or not np.allclose(matrices.sum(axis=2), 1.0, atol=1e-9):
            raise ConfigError("coupling matrices must be row-stochastic")
        self.coupling = matrices


# distinct prime-ish base periods keep independent sources decorrelated
_PERIOD_BASES = (24.0, 17.0, 31.0, 13.0, 41.0, 53.0, 67.0, 79.0)


def _source_period(j: int, harmonic: int) -> float:
    base = _PERIOD_BASES[j % len(_PERIOD_BASES)] * (1 + j // len(_PERIOD_BASES))
    return base / (1.0 + 0.61 * harmonic)


def synth_generate(spec: SynthSpec, seed: int) -> MoSTSeries:
    """Deterministic synthetic series mixing regime-specific seasonal sources."""
    rng = derive_rng(seed, "synth")
    t = np.arange(spec.steps, dtype=np.float64)
    # one seasonal source per modality slot, phase-jittered per node
    sources = np.zeros((spec.nodes, spec.modalities, spec.steps))
    n_harmonics = 2
    phases = rng.uniform(0.0, 1.0, size=(spec.nodes, spec.modalities, n_harmonics))
    amps = rng.uniform(0.6, 1.4, size=(spec.nodes, spec.modalities, n_harmonics))
    for j in range(spec.modalities):
        for h in range(n_harmonics):
            period = _source_period(j, h)
            angle = 2.0 * np.pi * (t[None, :] / period + phases[:, j, h][:, None])
            sources[:, j, :] += amps[:, j, h][:, None] * np.sin(angle) / (1 + h)
    regime_of_node = np.arange(spec.nodes) % spec.regimes
    values = np.zeros((spec.steps, spec.nodes, spec.modalities))
    for n in range(spec.nodes):
        mix = spec.coupling[regime_of_node[n]]  # [M, M]
        values[:, n, :] = (mix @ sources[n]).T
    if spec.noise > 0:
        values += spec.noise * rng.standard_normal(values.shape)
    time_labels = [str(i) for i in range(spec.steps)]
    node_ids = [f"n{idx}" for idx in range(spec.nodes)]
    modality_names = [f"mod{idx}" for idx in range(spec.modalities)]
    return MoSTSeries(values, time_labels, node_ids, modality_names)
