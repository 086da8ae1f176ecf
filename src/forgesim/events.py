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

# The ASCII bytes that str.strip() removes.
_SPACE = np.array([chr(b).isspace() for b in range(128)])


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

        return cls._from_codes(*coded(log.developer_id), *coded(log.project_id),
                               log.entry_month, log.exit_month)

    @classmethod
    def _from_codes(cls, developer_ids: tuple[str, ...], dev: np.ndarray,
                    project_ids: tuple[str, ...], proj: np.ndarray,
                    start: np.ndarray, stop: np.ndarray) -> LinkTable:
        """The table of events coded into sorted ids: event i links
        developer_ids[dev[i]] to project_ids[proj[i]] from start[i] to stop[i].
        DomainError if two events share (developer, project, entry)."""
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
        # positions of the later events of a repeated triple (the sort is stable)
        repeats = np.flatnonzero(~new_pair & (np.diff(start, prepend=0) == 0))
        if repeats.size:
            j = repeats[np.argmin(order[repeats])]
            key = (developer_ids[dev[j]], project_ids[proj[j]], int(start[j]))
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
        return cls._from_columns(dev, proj, np.array(entry, np.int64),
                                 np.array([OPEN if m is None else m for m in exit_m], np.int64))

    @classmethod
    def _from_columns(cls, developer_id: tuple[str, ...], project_id: tuple[str, ...],
                      entry_month: np.ndarray, exit_month: np.ndarray,
                      codes: tuple | None = None) -> MembershipEventLog:
        """The log of four columns, with its link table built now, because building
        it rejects a repeated triple; DomainError for that or an exit before its
        entry. codes, if given, are the ids already coded for LinkTable._from_codes
        as (developer_ids, developer, project_ids, project)."""
        for column in (entry_month, exit_month):
            column.setflags(write=False)
        if (early := np.flatnonzero(exit_month < entry_month)).size:
            i = early[0]
            raise DomainError(f"exit month {exit_month[i]} precedes entry month {entry_month[i]}")
        log = cls(developer_id, project_id, entry_month, exit_month)
        # fills the cached property, so the table is built once either way
        vars(log)["table"] = (LinkTable.from_log(log) if codes is None
                              else LinkTable._from_codes(*codes, entry_month, exit_month))
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


def _read_text(source: str | Path | io.TextIOBase) -> str:
    """Text of a path or a text stream; bad bytes reach the row checks as surrogates."""
    if isinstance(source, (str, Path)):
        with open(source, encoding="utf-8", errors="surrogateescape") as fh:
            return fh.read()
    return source.read()


def parse_events(
    source: str | Path | io.TextIOBase,
    delimiter: str = ",",
    epoch: str = DEFAULT_EPOCH,
) -> ParseResult:
    """Parse an event file into a validated log.

    Malformed rows (bad field count, unparseable months, exit before entry)
    are collected with their line numbers; duplicate
    (developer, project, entry_month) triples are dropped and reported
    separately. Blank lines are skipped. A line ends at a newline (a path is
    read with universal newlines). A regular file is parsed in bulk and any
    other row by row, with the same result.
    """
    text = _read_text(source)
    result = _parse_regular(text, delimiter, epoch)
    return _parse_rows(text.split("\n"), delimiter, epoch) if result is None else result


def _parse_regular(text: str, delimiter: str, epoch: str) -> ParseResult | None:
    """The parse of a regular file, done on whole columns; None for any other file.

    A file is regular when it is ASCII without CR or NUL, the delimiter is one
    ASCII character other than whitespace, and every line after an optional
    header holds the same number of delimiters, 2 or 3, with ids
    that are neither empty nor padded, month tokens that parse and no exit
    before its entry. The row loop finds no row error in such a file, only
    repeated triples, which are reported here as it reports them. Fields are
    read as fixed-width byte strings, so a file whose widest field times its
    line count exceeds its length is not regular either.
    """
    if not (len(delimiter) == 1 and delimiter.isascii() and not delimiter.isspace()
            and text.isascii() and "\r" not in text and "\0" not in text):
        return None
    head = text[:text.find("\n")] if "\n" in text else text
    is_header = tuple(f.strip() for f in head.split(delimiter)) in (_HEADER, _HEADER[:3])
    skip = len(head) + 1 if is_header else 0
    body = np.frombuffer(text.encode("ascii"), np.uint8)[skip:]
    if not body.size:
        return None
    ends = np.flatnonzero(body == ord("\n"))
    if body[-1] != ord("\n"):
        ends = np.append(ends, body.size)  # the last line has no newline
    delimiters = np.flatnonzero(body == ord(delimiter))
    per_line = np.diff(np.searchsorted(delimiters, ends), prepend=0)
    n, width = ends.size, int(per_line[0]) + 1
    if width not in (3, 4) or (per_line != width - 1).any():
        return None
    # field c of line r is body[bounds[r, c] + 1:bounds[r, c + 1]]
    bounds = np.column_stack([np.r_[-1, ends[:-1]], delimiters.reshape(n, width - 1), ends])
    del delimiters, per_line
    if n * int(np.diff(bounds, axis=1).max()) > body.size:
        return None

    def distinct(c: int) -> tuple[list[str], np.ndarray]:
        """The sorted distinct values of field c and the code of each line's value."""
        lo, hi = bounds[:, c] + 1, bounds[:, c + 1]
        chars = np.zeros((n, max(int((hi - lo).max()), 1)), np.uint8)
        for j in range(chars.shape[1]):  # NUL-padded, and a bytes dtype drops trailing NULs
            chars[:, j] = np.where(lo + j < hi, body[np.minimum(lo + j, body.size - 1)], 0)
        # return_index asks for a stable sort, which is faster on byte strings
        values, _, code = np.unique(chars.view(f"S{chars.shape[1]}")[:, 0],
                                    return_index=True, return_inverse=True)
        return values.astype(str).tolist(), code.astype(np.int64, copy=False)

    lo, hi = bounds[:, :2] + 1, bounds[:, 1:3]  # the two ids of each line
    if ((lo == hi) | _SPACE[body[lo]] | _SPACE[body[hi - 1]]).any():
        return None  # an empty id, or one that strip() would change
    (developer_ids, dev), (project_ids, proj) = distinct(0), distinct(1)
    try:
        tokens, code = distinct(2)
        entry = np.array([month_index(t, epoch) for t in tokens], np.int64)[code]
        tokens, code = distinct(3) if width == 4 else ([""], np.zeros(n, np.int64))
        exit_m = np.array([month_index(t, epoch) if t.strip() else OPEN for t in tokens],
                          np.int64)[code]
    except ValueError:
        return None
    if (exit_m < entry).any():
        return None

    # a stable sort puts the first line of each triple first; the later lines repeat it
    order = np.lexsort((entry, dev, proj))
    same = (np.diff(np.stack([proj, dev, entry])[:, order]) == 0).all(axis=0)
    repeats = np.sort(order[1:][same])
    duplicates = []
    for r in repeats.tolist():
        key = (developer_ids[dev[r]], project_ids[proj[r]], int(entry[r]))
        line = text[skip + bounds[r, 0] + 1:skip + bounds[r, -1]]
        duplicates.append(ParseIssue(r + 1 + bool(skip), f"duplicate triple {key}", line))
    keep = np.ones(n, bool)
    keep[repeats] = False
    dev, proj, entry, exit_m = dev[keep], proj[keep], entry[keep], exit_m[keep]
    developer_ids, project_ids = tuple(developer_ids), tuple(project_ids)
    log = MembershipEventLog._from_columns(
        tuple(map(developer_ids.__getitem__, dev.tolist())),
        tuple(map(project_ids.__getitem__, proj.tolist())),
        entry, exit_m, (developer_ids, dev, project_ids, proj))
    return ParseResult(log=log, duplicates=tuple(duplicates))


def _parse_rows(lines: list[str], delimiter: str, epoch: str) -> ParseResult:
    """The parse of any file, one line at a time."""
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
    months = set()
    for line_no, raw in enumerate(_read_text(source).split("\n"), start=1):
        token = raw.strip()
        if not token:
            continue
        try:
            months.add(month_index(token, epoch))
        except ValueError as exc:
            raise DomainError(f"gap mask line {line_no}: unparseable month {token!r}") from exc
    return frozenset(months)
