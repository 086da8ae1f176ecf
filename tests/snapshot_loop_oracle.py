"""The per-month snapshot loop, kept as the oracle of snapshots.month_sweep.

It was `analyze`'s month loop before one sweep over the log replaced it: for
each month it took the month's snapshot with a fresh scan of the log, its
summary and its project-size and developer-degree distributions. A masked
month wrote an empty summary row and nothing else. `fit`, `gof` and `em
--month` took their histogram as the size distribution of one snapshot.
"""

from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from forgesim import SizeDistribution, snapshots


class DegreeDistribution(SizeDistribution):
    """Histogram f(k): number of developers active in exactly k projects."""

    @property
    def degrees(self) -> np.ndarray:
        return self.values

    @property
    def n_developers(self) -> float:
        return float(self.counts.sum())

    @property
    def n_links(self) -> float:
        return float((self.values * self.counts).sum())

    @classmethod
    def from_degrees(cls, degrees: Iterable[int]) -> "DegreeDistribution":
        return cls.from_sizes(degrees)


@dataclass(frozen=True)
class SnapshotSummary:
    month: int
    n_developers: int
    n_projects: int
    n_links: int


def degrees(snapshot) -> np.ndarray:
    """Active projects per developer code."""
    log = snapshot.log
    return np.bincount(log.developer[snapshot.rows], minlength=len(log.developer_ids))


def summarize(snapshot) -> SnapshotSummary:
    return SnapshotSummary(
        month=snapshot.month,
        n_developers=int(np.count_nonzero(degrees(snapshot))),
        n_projects=int(np.count_nonzero(snapshot.sizes())),
        n_links=int(snapshot.rows.size),
    )


def project_size_distribution(snapshot) -> SizeDistribution:
    """n(x): number of projects with exactly x distinct active developers."""
    sizes = snapshot.sizes()
    return SizeDistribution.from_sizes(sizes[sizes > 0])


def developer_degree_distribution(snapshot) -> DegreeDistribution:
    """f(k): number of developers active in exactly k projects."""
    counts = degrees(snapshot)
    return DegreeDistribution.from_degrees(counts[counts > 0])


def snapshot_loop(log, lo, hi, mask=frozenset()):
    """(summary rows, size rows, degree rows, summaries) of the months in
    [lo, hi], as `analyze` built them; summaries holds the unmasked months."""
    summaries = []
    summary_rows, size_rows, degree_rows = [], [], []
    for m in range(lo, hi + 1):
        if m in mask:
            summary_rows.append((m, "", "", "", 1))
            continue
        snap = snapshots.snapshot_at(log, m)
        s = summarize(snap)
        summaries.append(s)
        summary_rows.append((m, s.n_developers, s.n_projects, s.n_links, 0))
        sdist = project_size_distribution(snap)
        size_rows.extend((m, int(x), c) for x, c in zip(sdist.sizes, sdist.counts))
        ddist = developer_degree_distribution(snap)
        degree_rows.extend((m, int(k), c) for k, c in zip(ddist.degrees, ddist.counts))
    return summary_rows, size_rows, degree_rows, summaries
