"""Price history ingestion: CSV loading, jump filtering, windowing, scaling.

The preprocessing pipeline is load -> (optional) jump filter per column ->
slice into overlapping windows -> normalize.  Raw prices are business-daily
close levels; the time step is fixed at 1/252 years throughout.
"""

from __future__ import annotations

import datetime as dt
import importlib.resources
from dataclasses import dataclass, field

import numpy as np

from . import store
from .store import DataError

TRADING_DT = 1.0 / 252.0
DATASET_FORMAT = "commodgen-dataset"
DATASET_VERSION = 1


def bundled_dataset_path():
    """Filesystem path of the synthetic 4-commodity dataset shipped with the package."""
    return importlib.resources.files("commodgen") / "data" / "commodities.csv"


@dataclass
class PriceTable:
    """Aligned daily price history: one strictly increasing date per row."""

    dates: list
    columns: dict[str, np.ndarray]

    def __post_init__(self):
        if not self.columns:
            raise DataError("price table needs at least one column")
        n = len(self.dates)
        if n == 0:
            raise DataError("price table is empty")
        for i in range(1, n):
            if self.dates[i] <= self.dates[i - 1]:
                raise DataError(f"dates not strictly increasing at row {i}: "
                                f"{self.dates[i - 1]} then {self.dates[i]}")
        for name, col in self.columns.items():
            col = np.asarray(col, dtype=np.float64)
            if col.shape != (n,):
                raise DataError(f"column '{name}' has {col.shape[0]} rows, expected {n}")
            if not np.all(np.isfinite(col)):
                raise DataError(f"column '{name}' contains non-finite values")
            if np.any(col <= 0):
                raise DataError(f"column '{name}' contains non-positive prices")
            self.columns[name] = col

    @property
    def names(self) -> list[str]:
        return list(self.columns)

    @property
    def n_rows(self) -> int:
        return len(self.dates)

    @property
    def values(self) -> np.ndarray:
        """(n_rows, n_columns) price block in column order."""
        return np.column_stack([self.columns[k] for k in self.columns])


@dataclass
class PathBatch:
    """A block of price paths, shape (n_samples, seq_len, dim)."""

    values: np.ndarray
    labels: list[str]
    dt: float = TRADING_DT

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 3:
            raise DataError(f"path batch must be 3-dimensional, got shape {self.values.shape}")
        n, seq_len, dim = self.values.shape
        if n < 1 or seq_len < 2 or dim < 1:
            raise DataError(f"degenerate path batch shape {self.values.shape}")
        if len(self.labels) != dim:
            raise DataError(f"{len(self.labels)} labels for {dim} dimensions")
        if not np.all(np.isfinite(self.values)):
            raise DataError("path batch contains non-finite values")
        self.dt = float(self.dt)
        if self.dt <= 0:
            raise DataError("dt must be positive")

    @property
    def n_samples(self) -> int:
        return self.values.shape[0]

    @property
    def seq_len(self) -> int:
        return self.values.shape[1]

    @property
    def dim(self) -> int:
        return self.values.shape[2]


def load_csv(path) -> PriceTable:
    """Read a date-indexed price CSV.

    First column must be 'date' (ISO format); remaining columns are price
    series, in file order.  Rows are sorted by date.
    """
    header, rows = store.read_csv(path)
    header = [h.strip() for h in header]
    if header[0].lower() != "date":
        raise DataError(f"{path}: first column must be 'date', got {header[:1]}")
    names = header[1:]
    if not names:
        raise DataError(f"{path}: no price columns")
    if len(set(names)) != len(names):
        raise DataError(f"{path}: duplicate column names in header")

    parsed: list[tuple] = []
    for n, row in enumerate(rows, start=1):
        try:
            date = dt.date.fromisoformat(row[0].strip())
        except ValueError as exc:
            raise DataError(f"{path}: data row {n}: unparsable date '{row[0]}'") from exc
        prices = []
        for name, cell in zip(names, row[1:]):
            cell = cell.strip()
            if not cell:
                raise DataError(f"{path}: data row {n}: missing value in column '{name}'")
            try:
                prices.append(float(cell))
            except ValueError as exc:
                raise DataError(f"{path}: data row {n}: unparsable number '{cell}'") from exc
        parsed.append((date, prices))

    if not parsed:
        raise DataError(f"{path}: no data rows")
    seen = set()
    for date, _ in parsed:
        if date in seen:
            raise DataError(f"{path}: duplicate date {date}")
        seen.add(date)
    parsed.sort(key=lambda r: r[0])
    block = np.array([p for _, p in parsed], dtype=np.float64)
    return PriceTable(dates=[d for d, _ in parsed],
                      columns={name: block[:, i] for i, name in enumerate(names)})


def jump_filter(series, quantile_level: float = 0.95, threshold: float | None = None) -> np.ndarray:
    """Cap one-step moves at a threshold, carrying the excess forward.

    Walking left to right, any increment beyond the threshold (by default the
    `quantile_level` quantile of absolute increments) is clipped to the
    threshold and the clipped-off excess is added to the next increment.  The
    last increment absorbs whatever carry remains, so the endpoint of the
    series is preserved exactly.
    """
    x = np.asarray(series, dtype=np.float64)
    if x.ndim != 1:
        raise DataError(f"jump_filter expects a 1-d series, got shape {x.shape}")
    if x.size < 2:
        raise DataError("jump_filter needs at least two points")
    if not np.all(np.isfinite(x)):
        raise DataError("jump_filter input contains non-finite values")
    diffs = np.diff(x)
    if threshold is not None:
        q = float(threshold)
        if q < 0:
            raise DataError("threshold must be non-negative")
    else:
        if not 0.0 < quantile_level <= 1.0:
            raise DataError(f"quantile_level must lie in (0, 1], got {quantile_level}")
        q = float(np.quantile(np.abs(diffs), quantile_level))
    for i in range(diffs.size - 1):
        if diffs[i] > q:
            excess = diffs[i] - q
            diffs[i] = q
            diffs[i + 1] += excess
        elif diffs[i] < -q:
            excess = -diffs[i] - q
            diffs[i] = -q
            diffs[i + 1] -= excess
    out = np.empty_like(x)
    out[0] = x[0]
    out[1:] = x[0] + np.cumsum(diffs)
    return out


def filter_table(table: PriceTable, quantile_level: float = 0.95) -> PriceTable:
    """Apply the jump filter independently to every column."""
    cols = {}
    for name, col in table.columns.items():
        filtered = jump_filter(col, quantile_level=quantile_level)
        if np.any(filtered <= 0):
            raise DataError(f"jump filter drove column '{name}' non-positive; "
                            f"lower the quantile level or clean the input")
        cols[name] = filtered
    return PriceTable(dates=list(table.dates), columns=cols)


def windowize(table: PriceTable, length: int = 30, stride: int = 1) -> PathBatch:
    """Slice the history into overlapping windows of `length` rows."""
    if length < 2:
        raise DataError("window length must be at least 2")
    if stride < 1:
        raise DataError("stride must be at least 1")
    if length > table.n_rows:
        raise DataError(f"window length {length} exceeds table length {table.n_rows}")
    block = table.values
    n = (table.n_rows - length) // stride + 1
    windows = np.stack([block[i * stride : i * stride + length] for i in range(n)])
    return PathBatch(values=windows, labels=table.names, dt=TRADING_DT)


@dataclass
class Normalizer:
    """Initial-value-ratio scaling of path batches.

    Every path is divided by its own first value, so paths start at exactly
    1; inversion multiplies by the fitted per-dimension mean initial level.
    """

    scale: np.ndarray
    labels: list[str] = field(default_factory=list)

    MODE = "initial-value-ratio"

    def __post_init__(self):
        self.scale = np.asarray(self.scale, dtype=np.float64)
        if self.scale.ndim != 1:
            raise DataError("normalizer scale must be a 1-d vector")
        if np.any(self.scale <= 0) or not np.all(np.isfinite(self.scale)):
            raise DataError("normalizer scale must be positive and finite")

    def apply(self, batch: PathBatch) -> PathBatch:
        self._check_dim(batch)
        starts = batch.values[:, :1, :]
        if np.any(starts == 0):
            raise DataError("initial-value-ratio normalization hit a zero start value")
        return PathBatch(values=batch.values / starts, labels=batch.labels, dt=batch.dt)

    def invert(self, batch: PathBatch) -> PathBatch:
        self._check_dim(batch)
        return PathBatch(values=batch.values * self.scale, labels=batch.labels, dt=batch.dt)

    def _check_dim(self, batch: PathBatch) -> None:
        if batch.dim != self.scale.shape[0]:
            raise DataError(f"normalizer fitted on {self.scale.shape[0]} dimensions, "
                            f"batch has {batch.dim}")

    def to_dict(self) -> dict:
        # "mode" and the all-zero "shift" keep the checkpoint layout of the
        # retired min-max mode
        return {"mode": self.MODE, "shift": [0.0] * self.scale.shape[0],
                "scale": self.scale.tolist(), "labels": list(self.labels)}

    @classmethod
    def from_dict(cls, d: dict) -> "Normalizer":
        if d["mode"] != cls.MODE:
            raise DataError(f"unknown normalizer mode '{d['mode']}', expected '{cls.MODE}'")
        return cls(scale=np.asarray(d["scale"], dtype=np.float64), labels=list(d["labels"]))


def fit_normalizer(batch: PathBatch) -> Normalizer:
    """Fit the per-dimension mean start level on a training batch."""
    ref = batch.values[:, 0, :].mean(axis=0)
    if np.any(ref <= 0):
        raise DataError("initial-value-ratio needs positive mean start levels")
    return Normalizer(scale=ref, labels=list(batch.labels))


def write_dataset(batch: PathBatch, path) -> None:
    """Persist a window batch as a deterministic JSON container."""
    store.write_container(path, DATASET_FORMAT, DATASET_VERSION, {
        "labels": list(batch.labels),
        "dt": float(batch.dt),
        "values": store.array_block(batch.values),
    })


def read_dataset(path) -> PathBatch:
    return store.read_container(
        path, DATASET_FORMAT, DATASET_VERSION, "dataset container",
        lambda raw: PathBatch(values=store.block_array(raw["values"]),
                              labels=list(raw["labels"]), dt=float(raw["dt"])))
