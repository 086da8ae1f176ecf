"""The count histogram of project sizes.

It is stored sparsely as parallel (value, count) arrays. Counts are kept as
floats because several consumers work with expected or corrected counts
(mean-field solutions, replica averages, EM-corrected histograms), not only
integer tallies.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

__all__ = ["SizeDistribution"]


def _normalise(values, counts) -> tuple[np.ndarray, np.ndarray]:
    values = np.asarray(values, dtype=np.int64)
    counts = np.asarray(counts, dtype=np.float64)
    if values.shape != counts.shape or values.ndim != 1:
        raise DomainError("values and counts must be 1-d arrays of equal length")
    if values.size and values.min() < 1:
        raise DomainError("histogram values must be positive integers")
    if np.any(counts < 0) or not np.all(np.isfinite(counts)):
        raise DomainError("histogram counts must be finite and nonnegative")
    if np.unique(values).size != values.size:
        raise DomainError("histogram values must be unique")
    keep = counts > 0
    values, counts = values[keep], counts[keep]
    order = np.argsort(values)
    values, counts = values[order], counts[order]
    values.setflags(write=False)
    counts.setflags(write=False)
    return values, counts


@dataclass(frozen=True)
class SizeDistribution:
    """Histogram n(x): number of projects with exactly x distinct developers."""

    values: np.ndarray
    counts: np.ndarray

    def __post_init__(self):
        values, counts = _normalise(self.values, self.counts)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "counts", counts)

    @classmethod
    def from_sizes(cls, sizes: Iterable[int]) -> "SizeDistribution":
        sizes = np.asarray(list(sizes) if not isinstance(sizes, np.ndarray) else sizes)
        if sizes.size == 0:
            return cls(np.empty(0, dtype=np.int64), np.empty(0))
        values, counts = np.unique(sizes, return_counts=True)
        return cls(values, counts.astype(np.float64))

    @classmethod
    def from_mapping(cls, mapping: Mapping[int, float]):
        if not mapping:
            return cls(np.empty(0, dtype=np.int64), np.empty(0))
        values = np.fromiter(mapping.keys(), dtype=np.int64, count=len(mapping))
        counts = np.fromiter(mapping.values(), dtype=np.float64, count=len(mapping))
        return cls(values, counts)

    def as_dict(self) -> dict[int, float]:
        return {int(v): float(c) for v, c in zip(self.values, self.counts)}

    def count(self, value: int) -> float:
        idx = np.searchsorted(self.values, value)
        if idx < self.values.size and self.values[idx] == value:
            return float(self.counts[idx])
        return 0.0

    def frequencies(self) -> np.ndarray:
        total = self.counts.sum()
        if total == 0:
            return np.zeros_like(self.counts)
        return self.counts / total

    @property
    def max_value(self) -> int:
        return int(self.values[-1]) if self.values.size else 0

    def __len__(self) -> int:
        return int(self.values.size)

    @property
    def sizes(self) -> np.ndarray:
        return self.values

    @property
    def total_projects(self) -> float:
        return float(self.counts.sum())

    @property
    def total_developers(self) -> float:
        return float((self.values * self.counts).sum())

    def restrict_min_size(self, min_size: int) -> "SizeDistribution":
        keep = self.values >= min_size
        return SizeDistribution(self.values[keep], self.counts[keep])

