"""Dataset ingestion, synthesis, and node partitioning.

Supports the household power-consumption CSV format (semicolon separated,
"?" for missing values) and a synthetic regression generator. Cleaned
datasets can be cached on disk keyed by the source file's content hash.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from itertools import count
from pathlib import Path
from typing import Iterator

import numpy as np

from .rng import substream

EXPECTED_HEADER = [
    "Date",
    "Time",
    "Global_active_power",
    "Global_reactive_power",
    "Voltage",
    "Global_intensity",
    "Sub_metering_1",
    "Sub_metering_2",
    "Sub_metering_3",
]
TARGET_COLUMN = "Global_active_power"
N_FEATURES = 6
VALIDATION_FRACTION = 0.20
MALFORMED_LIMIT = 0.05

CACHE_VERSION = 1

# Ground truth for the synthetic generator: target is linear in the six
# uniform features plus Gaussian noise, clipped back into [0, 1].
SYNTH_WEIGHTS = np.array([0.25, 0.15, 0.20, 0.10, 0.05, 0.15])
SYNTH_INTERCEPT = 0.05


class IngestionError(ValueError):
    """Raised when a source file cannot be turned into a dataset."""


@dataclass(frozen=True)
class Dataset:
    """N normalized observations: an N x 6 feature matrix and N targets.

    Construction checks the shape and that every value is finite, so
    data read from a CSV or cache file is validated once, up front.
    """

    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        x = np.ascontiguousarray(self.x, dtype=np.float64)
        y = np.ascontiguousarray(self.y, dtype=np.float64)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)
        if x.ndim != 2 or x.shape[1] != N_FEATURES or y.shape != (len(x),):
            raise ValueError(f"expected N x {N_FEATURES} features and N targets, got {x.shape} and {y.shape}")
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
            raise ValueError("dataset contains non-finite values")

    def __len__(self) -> int:
        return len(self.y)

    def take(self, idx) -> "Dataset":
        """The rows at ``idx`` (indices or a slice), in that order."""
        return Dataset(self.x[idx], self.y[idx])


@dataclass(frozen=True)
class NodeShard:
    """A node's local data: a training split plus a held-out validation split."""

    node_id: int
    train: Dataset
    validation: Dataset


def batches(train: Dataset, batch_size: int, seed: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Endless deterministic mini-batches over a training split.

    Epoch e follows a permutation from the substream (seed, "batch", e),
    drawn at its first batch, so batch order depends only on (seed,
    epoch), never on scheduling. Every batch has exactly ``batch_size``
    samples except possibly the last of an epoch. An empty split raises
    ValueError rather than looping forever.
    """
    if len(train) == 0:
        raise ValueError("cannot draw batches from an empty training split")
    for epoch in count():
        order = substream(seed, "batch", epoch).permutation(len(train))
        for start in range(0, len(order), batch_size):
            idx = order[start:start + batch_size]
            yield train.x[idx], train.y[idx]


def _normalize_columns(values: np.ndarray) -> np.ndarray:
    lo = values.min(axis=0)
    hi = values.max(axis=0)
    span = hi - lo
    out = np.zeros_like(values)
    ok = span > 0
    out[:, ok] = (values[:, ok] - lo[ok]) / span[ok]
    # degenerate columns (min == max) map to 0
    return out


def _dataset_from_matrix(matrix: np.ndarray) -> Dataset:
    normalized = _normalize_columns(matrix)
    target_idx = EXPECTED_HEADER.index(TARGET_COLUMN) - 2  # numeric columns start after Date;Time
    feature_idx = [i for i in range(matrix.shape[1]) if i != target_idx]
    return Dataset(normalized[:, feature_idx], normalized[:, target_idx])


def ingest_csv(path, cache_dir=None) -> Dataset:
    """Parse the semicolon-separated power-consumption CSV into a dataset.

    Rows containing any "?" are treated as missing and dropped. Retained
    rows are min-max normalized per column. If ``cache_dir`` is given, a
    cleaned copy keyed by the file's content hash is reused or written
    (see ``cache_path``).
    """
    raw = Path(path).read_bytes()
    if cache_dir is not None:
        cached = cache_path(cache_dir, raw)
        if cached.exists():
            return load_cache(cached)

    text = raw.decode("utf-8-sig")
    lines = text.splitlines()
    if not lines or not any(line.strip() for line in lines):
        raise IngestionError(f"{path}: empty file")

    header = [h.strip() for h in lines[0].split(";")]
    if header != EXPECTED_HEADER:
        raise IngestionError(f"{path}: unexpected header {header}")

    rows: list[list[float]] = []
    malformed: list[int] = []
    n_data_lines = 0
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        n_data_lines += 1
        fields = line.split(";")
        if len(fields) != len(EXPECTED_HEADER):
            malformed.append(lineno)
            continue
        numeric = fields[2:]
        if any(f.strip() == "?" for f in numeric):
            continue
        try:
            rows.append([float(f) for f in numeric])
        except ValueError:
            malformed.append(lineno)

    if n_data_lines == 0:
        raise IngestionError(f"{path}: no data rows")
    if len(malformed) > MALFORMED_LIMIT * n_data_lines:
        shown = ", ".join(str(n) for n in malformed[:20])
        raise IngestionError(
            f"{path}: {len(malformed)} malformed rows (> {MALFORMED_LIMIT:.0%}), e.g. lines {shown}"
        )
    if not rows:
        raise IngestionError(f"{path}: all rows missing or malformed")

    data = _dataset_from_matrix(np.array(rows, dtype=np.float64))
    if cache_dir is not None:
        save_cache(cache_path(cache_dir, raw), data)
    return data


def cache_path(cache_dir, raw_bytes: bytes):
    """Cache file location for a source file's content."""
    digest = hashlib.sha256(raw_bytes).hexdigest()
    return Path(cache_dir) / f"{digest}.npz"


def save_cache(path, data: Dataset) -> None:
    """Write a cleaned dataset as an .npz cache (see README for the format)."""
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    np.savez(path, version=CACHE_VERSION, features=data.x, target=data.y)


def load_cache(path) -> Dataset:
    with np.load(path) as archive:
        if int(archive["version"]) != CACHE_VERSION:
            raise IngestionError(f"{path}: unsupported cache version {archive['version']}")
        return Dataset(archive["features"], archive["target"])


def synthesize(n_samples: int, seed: int, noise_scale: float = 0.05) -> Dataset:
    """Generate samples from a fixed linear ground truth plus Gaussian noise.

    Features are uniform on [0, 1]; the target is clipped back into [0, 1]
    after the noise is added so the dataset invariants hold. Deterministic
    given the seed.
    """
    if n_samples <= 0:
        raise ValueError("n_samples must be positive")
    if noise_scale < 0:
        raise ValueError("noise_scale must be >= 0")
    rng = substream(seed, "synthesize")
    x = rng.uniform(0.0, 1.0, size=(n_samples, N_FEATURES))
    y = x @ SYNTH_WEIGHTS + SYNTH_INTERCEPT
    if noise_scale > 0:
        y = y + rng.normal(0.0, noise_scale, size=n_samples)
    return Dataset(x, np.clip(y, 0.0, 1.0))


def shard_sizes(n_samples: int, k: int) -> list[tuple[int, int]]:
    """(train rows, validation rows) of each of the ``k`` shards that
    ``partition`` cuts from ``n_samples`` samples, in node-id order.

    Shard sizes differ by at most one (the first ``n_samples % k`` shards
    take the extra sample). Within each shard, round(20%) of the samples
    are held out as the node's validation split.
    """
    base, extra = divmod(n_samples, k)
    sizes = [base + (node_id < extra) for node_id in range(k)]
    return [(size - round(VALIDATION_FRACTION * size), round(VALIDATION_FRACTION * size)) for size in sizes]


def partition(data: Dataset, k: int, seed: int) -> list[NodeShard]:
    """Split data IID across ``k`` nodes into near-equal shards, sized by
    ``shard_sizes``."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if len(data) < k:
        raise ValueError(f"need at least {k} samples to fill {k} shards, got {len(data)}")

    rng = substream(seed, "partition")
    order = rng.permutation(len(data))

    shards = []
    start = 0
    for node_id, (n_train, n_val) in enumerate(shard_sizes(len(data), k)):
        idx = order[start:start + n_train + n_val]
        start += n_train + n_val
        shards.append(
            NodeShard(node_id=node_id, train=data.take(idx[:n_train]), validation=data.take(idx[n_train:]))
        )
    return shards


def split_holdout(data: Dataset, fraction: float, seed: int) -> tuple[Dataset, Dataset]:
    """Carve a server-side holdout off the front of a shuffled copy.

    Returns (holdout, rest); the rest is what gets partitioned across
    nodes. fraction = 0 yields an empty holdout.
    """
    if not 0.0 <= fraction < 1.0:
        raise ValueError("fraction must be in [0, 1)")
    rng = substream(seed, "holdout")
    order = rng.permutation(len(data))
    n_hold = round(fraction * len(data))
    return data.take(order[:n_hold]), data.take(order[n_hold:])
