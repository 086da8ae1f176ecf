"""Monthly bipartite snapshots and their derived summaries.

A link (developer, project) is active in month t iff entry_month <= t and
(no exit or exit_month > t), counted once per pair. A snapshot is a view of
the log's merged rows in one month; `fit`, `gof` and `em --month` and
`size_dependent_growth` read snapshots. `month_sweep` gives every month of a
range at once, its link count and its project-size and developer-degree
histograms, from one pass over the rows; `analyze` reads it. Everything here
is a pure function of the immutable event log, so per-month computations are
safe to evaluate concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .distributions import DegreeDistribution, SizeDistribution
from .errors import DomainError, require_integer
from .events import MembershipEventLog

__all__ = [
    "Snapshot",
    "SnapshotSummary",
    "MonthSweep",
    "EntryExitCounts",
    "snapshot_at",
    "month_sweep",
    "summarize",
    "project_size_distribution",
    "developer_degree_distribution",
    "entry_exit_counts",
]


@dataclass(frozen=True, eq=False)
class Snapshot:
    month: int
    log: MembershipEventLog
    rows: np.ndarray  # indices of the log rows active in this month

    def sizes(self) -> np.ndarray:
        """Active developers per project code."""
        return np.bincount(self.log.project[self.rows], minlength=len(self.log.project_ids))

    def degrees(self) -> np.ndarray:
        """Active projects per developer code."""
        return np.bincount(self.log.developer[self.rows], minlength=len(self.log.developer_ids))


@dataclass(frozen=True)
class SnapshotSummary:
    month: int
    n_developers: int
    n_projects: int
    n_links: int


def snapshot_at(log: MembershipEventLog, month: int) -> Snapshot:
    """The rows active in the given month."""
    month = require_integer("month", month)
    lo, hi = log.month_range
    if not lo <= month <= hi:
        raise DomainError(f"month {month} outside observed range [{lo}, {hi}]")
    return Snapshot(month=month, log=log, rows=log.active(month))


def summarize(snapshot: Snapshot) -> SnapshotSummary:
    return SnapshotSummary(
        month=snapshot.month,
        n_developers=int(np.count_nonzero(snapshot.degrees())),
        n_projects=int(np.count_nonzero(snapshot.sizes())),
        n_links=int(snapshot.rows.size),
    )


def project_size_distribution(snapshot: Snapshot) -> SizeDistribution:
    """n(x): number of projects with exactly x distinct active developers."""
    sizes = snapshot.sizes()
    return SizeDistribution.from_sizes(sizes[sizes > 0])


def developer_degree_distribution(snapshot: Snapshot) -> DegreeDistribution:
    """f(k): number of developers active in exactly k projects."""
    degrees = snapshot.degrees()
    return DegreeDistribution.from_degrees(degrees[degrees > 0])


@dataclass(frozen=True, eq=False)
class MonthSweep:
    """Every month's link count and size and degree histograms over a range.

    Row i of size_counts holds, for each project size in sizes, the number of
    projects with that many active developers in months[i]; degree_counts
    holds the same for developer degrees. Each size and degree has a nonzero
    count in some month. The row sums are the month's active projects and
    developers, so a month with no active link has all-zero rows.
    """

    months: np.ndarray
    sizes: np.ndarray
    size_counts: np.ndarray
    degrees: np.ndarray
    degree_counts: np.ndarray

    def __post_init__(self):
        for name in ("months", "sizes", "size_counts", "degrees", "degree_counts"):
            getattr(self, name).setflags(write=False)

    @property
    def n_links(self) -> np.ndarray:
        return self.size_counts @ self.sizes

    @property
    def n_projects(self) -> np.ndarray:
        return self.size_counts.sum(axis=1)

    @property
    def n_developers(self) -> np.ndarray:
        return self.degree_counts.sum(axis=1)


def _level_table(code: np.ndarray, start: np.ndarray, stop: np.ndarray,
                 n_months: int) -> tuple[np.ndarray, np.ndarray]:
    """(levels, table) for rows of code active over months [start, stop), where
    0 <= start < stop <= n_months: levels are the distinct positive numbers of
    active rows that a code holds in some month, and table[t, j] counts the
    codes with levels[j] active rows in month t."""
    # one key per change, (code, month, +1 or -1) packed so that a plain sort
    # orders each code's changes by month, a stop before a start in one month
    shift = n_months.bit_length() + 1
    base = code << shift
    keys = np.sort(np.concatenate([base + (start << 1) + 1, base + (stop << 1)]))
    level = np.cumsum((keys & 1) * 2 - 1)
    month = (keys >> 1) & ((1 << (shift - 1)) - 1)
    # a level holds from a change to the next; it returns to 0 at each code's
    # last change, so a positive level is followed by a change of the same code
    run = np.flatnonzero((level[:-1] > 0) & (month[1:] > month[:-1]))
    level = level[run]
    present = np.bincount(level) > 0
    levels = np.flatnonzero(present)
    col = (np.cumsum(present) - 1)[level]
    width, cells = levels.size, (n_months + 1) * levels.size
    diff = (np.bincount(month[run] * width + col, minlength=cells)
            - np.bincount(month[run + 1] * width + col, minlength=cells))
    return levels, np.cumsum(diff.reshape(n_months + 1, width), axis=0)[:n_months]


def month_sweep(log: MembershipEventLog, lo: int, hi: int) -> MonthSweep:
    """The link count and the size and degree histograms of every month in
    [lo, hi], from one pass over the log's rows. Any range is allowed: a month
    before the log's first has no active link, and one after its last has the
    rows still open at the last."""
    lo, hi = _month_bounds(log, (lo, hi))
    n_months = hi - lo + 1
    # each row clipped to the range, as months from lo; rows left empty are dropped
    start = np.maximum(log.start, lo) - lo
    stop = np.minimum(log.stop, hi + 1) - lo
    kept = start < stop
    start, stop = start[kept], stop[kept]
    sizes, size_counts = _level_table(log.project[kept], start, stop, n_months)
    degrees, degree_counts = _level_table(log.developer[kept], start, stop, n_months)
    return MonthSweep(np.arange(lo, hi + 1), sizes, size_counts, degrees, degree_counts)


@dataclass(frozen=True)
class EntryExitCounts:
    months: np.ndarray
    new_projects: np.ndarray
    removed_projects: np.ndarray
    new_developers: np.ndarray
    removed_developers: np.ndarray

    def __post_init__(self):
        for name in ("months", "new_projects", "removed_projects", "new_developers", "removed_developers"):
            arr = np.asarray(getattr(self, name), dtype=np.int64)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


def _tally(months: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """Per-month counts over [lo, hi] of the given months; others are dropped."""
    inside = months[(months >= lo) & (months <= hi)]
    return np.bincount(inside - lo, minlength=max(hi - lo + 1, 0))


def _month_bounds(log: MembershipEventLog, months: tuple[int, int] | None) -> tuple[int, int]:
    """The (lo, hi) bounds of months as ints, or the log's month range for None;
    an inverted range raises DomainError."""
    if months is None:
        return log.month_range
    lo, hi = months
    lo, hi = require_integer("months[0]", lo), require_integer("months[1]", hi)
    if hi < lo:
        raise DomainError("empty month range")
    return lo, hi


def entry_exit_counts(
    log: MembershipEventLog, months: tuple[int, int] | None = None
) -> EntryExitCounts:
    """Per-month entries and removals for projects and developers.

    An entity is new in the month its first link appears and removed in the
    first month it has no active links after its last activity (the month
    index carried by its final exit). Entities with an open-ended link are
    never removed.
    """
    lo, hi = _month_bounds(log, months)

    # an entity's last stop is OPEN, which no range holds, while a link is open
    last = [np.full(len(ids), np.iinfo(np.int64).min)
            for ids in (log.project_ids, log.developer_ids)]
    np.maximum.at(last[0], log.project, log.stop)
    np.maximum.at(last[1], log.developer, log.stop)
    return EntryExitCounts(
        months=np.arange(lo, hi + 1),
        new_projects=_tally(log.project_first, lo, hi),
        removed_projects=_tally(last[0], lo, hi),
        new_developers=_tally(log.developer_first, lo, hi),
        removed_developers=_tally(last[1], lo, hi),
    )
