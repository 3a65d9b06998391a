"""Regression dataset ingestion, splitting, standardization and sharding."""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core import Array, FedtriError


class DatasetError(FedtriError):
    pass


@dataclass
class RegressionDataset:
    """Feature matrix with train/val/test split, standardized on train stats."""

    X: Array
    y: Array
    train_idx: Array
    val_idx: Array
    test_idx: Array
    noise_sigma: float
    feature_mean: Array
    feature_std: Array

    def __post_init__(self):
        if not (np.all(np.isfinite(self.X)) and np.all(np.isfinite(self.y))):
            raise DatasetError("dataset contains non-finite entries")
        joined = np.concatenate([self.train_idx, self.val_idx, self.test_idx])
        if not np.array_equal(np.sort(joined), np.arange(self.X.shape[0])):
            raise DatasetError("split indices must cover every row exactly once")

    @property
    def n_features(self) -> int:
        return self.X.shape[1]

    def split(self, which: str) -> tuple[Array, Array]:
        idx = {"train": self.train_idx, "val": self.val_idx, "test": self.test_idx}[which]
        return self.X[idx], self.y[idx]


def _parse_csv(path) -> Array:
    rows: list[list[float]] = []
    header_allowed = True  # until the first non-blank row
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        for r, row in enumerate(reader):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            parsed = []
            for c, cell in enumerate(row):
                try:
                    parsed.append(float(cell))
                except ValueError:
                    if header_allowed:
                        parsed = None  # header row
                        break
                    raise DatasetError(
                        f"non-numeric cell at row {r}, column {c}: {cell!r}"
                    ) from None
            header_allowed = False
            if parsed is not None:
                rows.append(parsed)
    if not rows:
        raise DatasetError(f"no data rows in {path}")
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise DatasetError("ragged rows in CSV")
    if width < 2:
        raise DatasetError("need at least one feature column plus the target")
    return np.asarray(rows, dtype=float)


def _split_standardize(X: Array, y: Array, split_ratios, perm_seed: int,
                       noise_sigma: float) -> RegressionDataset:
    """Shuffle rows with ``perm_seed``, split by the ratios, standardize on train stats."""
    if abs(sum(split_ratios) - 1.0) > 1e-9 or any(r < 0 for r in split_ratios):
        raise DatasetError("split ratios must be nonnegative and sum to 1")
    n = X.shape[0]
    n_tr = int(n * split_ratios[0])
    n_val = int(n * split_ratios[1])
    if n_tr < 1 or n_val < 1 or n - n_tr - n_val < 1:
        raise DatasetError(f"too few rows ({n}) for the requested splits")
    perm = np.random.default_rng(perm_seed).permutation(n)
    train_idx = perm[:n_tr]
    val_idx = perm[n_tr:n_tr + n_val]
    test_idx = perm[n_tr + n_val:]
    mean = X[train_idx].mean(axis=0)
    std = X[train_idx].std(axis=0)
    std = np.where(std > 0, std, 1.0)
    return RegressionDataset(
        X=(X - mean) / std, y=y, train_idx=train_idx, val_idx=val_idx, test_idx=test_idx,
        noise_sigma=noise_sigma, feature_mean=mean, feature_std=std,
    )


def load_dataset(
    path,
    split_ratios: tuple[float, float, float] = (0.6, 0.2, 0.2),
    seed: int = 0,
    noise_sigma: float = 0.1,
) -> RegressionDataset:
    """Load a CSV (last column target, optional header) into a standardized dataset.

    Rows are shuffled with the seed, split by the ratios, and features are
    standardized to zero mean and unit variance using train statistics only.
    """
    data = _parse_csv(path)
    return _split_standardize(data[:, :-1].copy(), data[:, -1].copy(), split_ratios, seed,
                              noise_sigma)


def shard_indices(idx: Array, n_workers: int) -> list[Array]:
    """Round-robin disjoint shards over the (already shuffled) index order."""
    if n_workers < 1:
        raise DatasetError("need at least one worker")
    shards = [np.asarray(idx)[j::n_workers] for j in range(n_workers)]
    if any(len(s) == 0 for s in shards):
        raise DatasetError(
            f"empty partition: {len(idx)} rows cannot feed {n_workers} workers"
        )
    return shards


def _synthetic_linear(seed: int, rows: int, features: int, noise: float) -> tuple[Array, Array]:
    """X and ``y = X beta + noise``, drawn in that order (X, beta, noise) from ``seed``."""
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((rows, features))
    return X, X @ rng.standard_normal(features) + noise * rng.standard_normal(rows)


def generate_synthetic_csv(path, seed: int = 0, rows: int = 200, features: int = 5,
                           noise: float = 0.05) -> Path:
    """Write a linear-regression CSV (y = X beta + noise) for offline tests."""
    X, y = _synthetic_linear(seed, rows, features, noise)
    path = Path(path)
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow([f"x{k}" for k in range(features)] + ["y"])
        for r in range(rows):
            w.writerow([repr(float(v)) for v in (*X[r], y[r])])
    return path


def make_synthetic_dataset(seed: int = 0, rows: int = 200, features: int = 5,
                           noise: float = 0.05, noise_sigma: float = 0.1,
                           split_ratios=(0.6, 0.2, 0.2)) -> RegressionDataset:
    """In-memory synthetic linear dataset, standardized like load_dataset."""
    X, y = _synthetic_linear(seed, rows, features, noise)
    return _split_standardize(X, y, split_ratios, seed + 1, noise_sigma)
