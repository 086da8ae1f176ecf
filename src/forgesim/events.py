"""Membership-event logs: parsing, validation, and month arithmetic.

The event file is delimiter-separated text, one membership event per row:

    developer_id,project_id,entry_month,exit_month

exit_month may be empty (the link is still active at the end of the data).
Months are either ASCII integer indices or calendar YYYY-MM tokens with MM
in 01-12; calendar tokens are converted to integer offsets from a
configurable epoch right here at the format boundary, and everything
downstream works on integers. Row 1 is skipped as a header only when its
fields are the column names above (with or without exit_month); any other
row 1 is parsed as data. A gap-mask file lists one masked month index per
line.
"""

from __future__ import annotations

import io
import re
from collections.abc import Iterable
from dataclasses import dataclass
from functools import cached_property, lru_cache, partial
from pathlib import Path

import numpy as np

from .errors import DomainError

__all__ = [
    "MembershipEventLog",
    "LinkTable",
    "OPEN",
    "ParseIssue",
    "ParseResult",
    "parse_events",
    "read_gap_mask",
    "month_index",
    "month_label",
    "DEFAULT_EPOCH",
]

DEFAULT_EPOCH = "1970-01"

OPEN = np.iinfo(np.int64).max  # LinkTable stop month of a link with no exit

_INTEGER_RE = re.compile(r"[+-]?[0-9]+")
_CALENDAR_RE = re.compile(r"([0-9]{4})-(0[1-9]|1[0-2])")


# The documented column names; row 1 is a header only when it carries them.
_HEADER = ("developer_id", "project_id", "entry_month", "exit_month")


@lru_cache(maxsize=16)
def _epoch_months(epoch: str) -> int:
    m = _CALENDAR_RE.fullmatch(epoch)
    if not m:
        raise DomainError(f"epoch must be YYYY-MM, got {epoch!r}")
    return int(m.group(1)) * 12 + (int(m.group(2)) - 1)


def month_index(token: str, epoch: str = DEFAULT_EPOCH) -> int:
    """Parse an integer ([+-]?[0-9]+) or YYYY-MM month token into a month index.

    Raises ValueError for anything else, such as 2020-13, 1_2 or non-ASCII
    digits, and for an integer index whose magnitude reaches 2**62 (months
    are int64 in the LinkTable, where OPEN means no exit).
    """
    token = token.strip()
    m = _CALENDAR_RE.fullmatch(token)
    if m:
        return int(m.group(1)) * 12 + (int(m.group(2)) - 1) - _epoch_months(epoch)
    if not _INTEGER_RE.fullmatch(token) or abs(index := int(token)) >= 2**62:
        raise ValueError(f"month {token!r} unparseable or out of range")
    return index


def month_label(index: int, epoch: str = DEFAULT_EPOCH) -> str:
    """Inverse of month_index for calendar epochs."""
    total = index + _epoch_months(epoch)
    return f"{total // 12:04d}-{total % 12 + 1:02d}"


@dataclass(frozen=True, eq=False)
class LinkTable:
    """The membership log as int-coded, pair-merged intervals.

    Row i links developer_ids[developer[i]] to project_ids[project[i]] in the
    months [start[i], stop[i]); stop is OPEN for a link with no exit. Records
    of one pair that overlap or touch are merged into one row, so a pair is
    active in a month at most once. Zero-length rows (start == stop) are kept:
    they set first months but are never active. Ids are sorted, rows are
    ordered by (project, developer, start), and *_first hold each code's
    first month.
    """

    developer_ids: tuple[str, ...]
    project_ids: tuple[str, ...]
    developer: np.ndarray
    project: np.ndarray
    start: np.ndarray
    stop: np.ndarray
    developer_first: np.ndarray
    project_first: np.ndarray

    @classmethod
    def from_log(cls, log: MembershipEventLog) -> LinkTable:
        """The table of a log; DomainError if two events share (developer, project, entry)."""
        def coded(values: tuple[str, ...]) -> tuple[tuple[str, ...], np.ndarray]:
            ids = tuple(sorted(set(values)))
            code = dict(zip(ids, range(len(ids))))
            return ids, np.fromiter(map(code.__getitem__, values), np.int64, len(values))

        developer_ids, dev = coded(log.developer_id)
        project_ids, proj = coded(log.project_id)
        start, stop = log.entry_month, log.exit_month
        order = np.lexsort((start, dev, proj))
        proj, dev, start, stop = proj[order], dev[order], start[order], stop[order]
        # A row opens a new merged interval unless it starts no later than the
        # reach of its pair so far (the running max of the pair's earlier
        # stops). The running max is taken on dense stop ranks offset by pair,
        # so it never crosses from one pair into the next.
        new_pair = (np.diff(dev, prepend=-1) != 0) | (np.diff(proj, prepend=-1) != 0)
        stops, rank = np.unique(stop, return_inverse=True)
        offset = (np.cumsum(new_pair) - 1) * stops.size
        reach = stops[np.maximum.accumulate(offset + rank) - offset]
        opens = new_pair | (start > np.roll(reach, 1))
        repeats = order[~new_pair & (np.diff(start, prepend=0) == 0)]  # stable: the later events
        if repeats.size:
            i = repeats.min()
            key = (log.developer_id[i], log.project_id[i], int(log.entry_month[i]))
            raise DomainError(f"duplicate event triple {key}")
        firsts = [np.full(len(ids), OPEN) for ids in (developer_ids, project_ids)]
        np.minimum.at(firsts[0], dev, start)
        np.minimum.at(firsts[1], proj, start)
        # an interval stops at the reach of its last row, the row before the next opening
        return cls(developer_ids, project_ids, dev[opens], proj[opens], start[opens],
                   reach[np.roll(opens, -1)], *firsts)

    def __post_init__(self):
        for name in ("developer", "project", "start", "stop", "developer_first", "project_first"):
            getattr(self, name).setflags(write=False)

    def active(self, month: int) -> np.ndarray:
        """Indices of the rows active in the given month."""
        return np.flatnonzero((self.start <= month) & (self.stop > month))


def _is_month(value) -> bool:
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


@dataclass(frozen=True, eq=False)
class MembershipEventLog:
    """A membership-event log as columns, one entry per event; OPEN exit_month is no exit."""

    developer_id: tuple[str, ...]
    project_id: tuple[str, ...]
    entry_month: np.ndarray
    exit_month: np.ndarray

    @classmethod
    def from_rows(cls, rows: Iterable[tuple[str, str, int, int | None]]) -> MembershipEventLog:
        """The log of (developer, project, entry, exit or None) rows; raises DomainError
        for a month that is not an int or numpy integer (a bool is not), an exit before
        its entry, or a repeated (developer, project, entry) triple."""
        dev, proj, entry, exit_m = tuple(zip(*rows)) or ((),) * 4
        if not set(map(type, entry)) <= {int} or not set(map(type, exit_m)) <= {int, type(None)}:
            for i, row in enumerate(zip(dev, proj, entry, exit_m)):
                if not _is_month(row[2]) or not (row[3] is None or _is_month(row[3])):
                    raise DomainError(f"row {i} {row!r}: months must be integers")
        log = cls(dev, proj, np.array(entry, np.int64),
                  np.array([OPEN if m is None else m for m in exit_m], np.int64))
        for column in (log.entry_month, log.exit_month):
            column.setflags(write=False)
        if (early := np.flatnonzero(log.exit_month < log.entry_month)).size:
            i = early[0]
            raise DomainError(f"exit month {exit_m[i]} precedes entry month {entry[i]}")
        log.table  # built now, because LinkTable.from_log rejects a repeated triple
        return log

    def __len__(self) -> int:
        return len(self.developer_id)

    @cached_property
    def month_range(self) -> tuple[int, int]:
        """(first, last) month at which anything is observed to happen."""
        if not len(self):
            raise DomainError("empty event log has no month range")
        last = np.where(self.exit_month == OPEN, self.entry_month, self.exit_month)
        return int(self.entry_month.min()), int(last.max())

    @cached_property
    def table(self) -> LinkTable:
        return LinkTable.from_log(self)


@dataclass(frozen=True)
class ParseIssue:
    line_no: int
    message: str
    raw: str


@dataclass(frozen=True)
class ParseResult:
    log: MembershipEventLog
    errors: tuple[ParseIssue, ...] = ()
    duplicates: tuple[ParseIssue, ...] = ()

    @property
    def n_duplicates(self) -> int:
        return len(self.duplicates)

    @property
    def ok(self) -> bool:
        return not self.errors


def _read_lines(source: str | Path | io.TextIOBase) -> list[str]:
    """Lines of a path or a text stream; bad bytes reach the row checks as surrogates."""
    if isinstance(source, (str, Path)):
        with open(source, encoding="utf-8", errors="surrogateescape") as fh:
            return fh.readlines()
    return source.readlines()


def parse_events(
    source: str | Path | io.TextIOBase,
    delimiter: str = ",",
    epoch: str = DEFAULT_EPOCH,
) -> ParseResult:
    """Parse an event file into a validated log.

    Malformed rows (bad field count, unparseable months, exit before entry)
    are collected with their line numbers; duplicate
    (developer, project, entry_month) triples are dropped and reported
    separately. Blank lines are skipped.
    """
    lines = _read_lines(source)

    rows: list[tuple[str, str, int, int | None]] = []
    errors: list[ParseIssue] = []
    duplicates: list[ParseIssue] = []
    seen: set[tuple[str, str, int]] = set()
    month = lru_cache(maxsize=None)(partial(month_index, epoch=epoch))  # bad tokens are not cached

    for line_no, raw in enumerate(lines, start=1):
        line = raw.rstrip("\n").rstrip("\r")
        if not line.strip():
            continue
        if line_no == 1:
            line = line.removeprefix("\ufeff")  # byte-order mark some editors write
        fields = [f.strip() for f in line.split(delimiter)]
        if line_no == 1 and tuple(fields) in (_HEADER, _HEADER[:3]):
            continue
        if len(fields) not in (3, 4):
            errors.append(ParseIssue(line_no, f"expected 3 or 4 fields, got {len(fields)}", line))
            continue
        dev, proj = fields[0], fields[1]
        if not dev or not proj:
            errors.append(ParseIssue(line_no, "empty developer or project id", line))
            continue
        try:
            entry = month(fields[2])
        except ValueError:
            errors.append(ParseIssue(line_no, f"unparseable entry month {fields[2]!r}", line))
            continue
        exit_m: int | None = None
        if len(fields) == 4 and fields[3] != "":
            try:
                exit_m = month(fields[3])
            except ValueError:
                errors.append(ParseIssue(line_no, f"unparseable exit month {fields[3]!r}", line))
                continue
        if exit_m is not None and exit_m < entry:
            errors.append(
                ParseIssue(line_no, f"exit month {exit_m} precedes entry month {entry}", line)
            )
            continue
        key = (dev, proj, entry)
        if key in seen:
            duplicates.append(ParseIssue(line_no, f"duplicate triple {key}", line))
            continue
        seen.add(key)
        rows.append((dev, proj, entry, exit_m))

    return ParseResult(
        log=MembershipEventLog.from_rows(rows),
        errors=tuple(errors),
        duplicates=tuple(duplicates),
    )


def read_gap_mask(source: str | Path | io.TextIOBase, epoch: str = DEFAULT_EPOCH) -> frozenset[int]:
    """Read a gap-mask file: one masked month index (or YYYY-MM) per line."""
    lines = _read_lines(source)
    months = set()
    for line_no, raw in enumerate(lines, start=1):
        token = raw.strip()
        if not token:
            continue
        try:
            months.add(month_index(token, epoch))
        except ValueError as exc:
            raise DomainError(f"gap mask line {line_no}: unparseable month {token!r}") from exc
    return frozenset(months)
