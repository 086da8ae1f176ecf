"""Membership-event logs: parsing, validation, and month arithmetic.

The event file is delimiter-separated text, one membership event per row:

    developer_id,project_id,entry_month,exit_month

exit_month may be empty (the link is still active at the end of the data).
Months are either plain integer indices or calendar YYYY-MM tokens with MM
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
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

from .errors import DomainError

__all__ = [
    "MembershipEvent",
    "MembershipEventLog",
    "ParseIssue",
    "ParseResult",
    "parse_events",
    "read_gap_mask",
    "month_index",
    "month_label",
    "DEFAULT_EPOCH",
]

DEFAULT_EPOCH = "1970-01"

_CALENDAR_RE = re.compile(r"^(\d{4})-(0[1-9]|1[0-2])$")


# The documented column names; row 1 is a header only when it carries them.
_HEADER = ("developer_id", "project_id", "entry_month", "exit_month")


def _epoch_months(epoch: str) -> int:
    m = _CALENDAR_RE.match(epoch)
    if not m:
        raise DomainError(f"epoch must be YYYY-MM, got {epoch!r}")
    return int(m.group(1)) * 12 + (int(m.group(2)) - 1)


def month_index(token: str, epoch: str = DEFAULT_EPOCH) -> int:
    """Parse an integer or YYYY-MM month token into a month index.

    Raises ValueError for anything else, including a calendar month outside
    01-12.
    """
    token = token.strip()
    m = _CALENDAR_RE.match(token)
    if m:
        return int(m.group(1)) * 12 + (int(m.group(2)) - 1) - _epoch_months(epoch)
    return int(token)


def month_label(index: int, epoch: str = DEFAULT_EPOCH) -> str:
    """Inverse of month_index for calendar epochs."""
    total = index + _epoch_months(epoch)
    return f"{total // 12:04d}-{total % 12 + 1:02d}"


@dataclass(frozen=True)
class MembershipEvent:
    developer_id: str
    project_id: str
    entry_month: int
    exit_month: int | None = None

    def __post_init__(self):
        if self.exit_month is not None and self.exit_month < self.entry_month:
            raise DomainError(
                f"exit month {self.exit_month} precedes entry month {self.entry_month}"
            )

    def active_at(self, month: int) -> bool:
        return self.entry_month <= month and (self.exit_month is None or self.exit_month > month)


@dataclass(frozen=True)
class MembershipEventLog:
    events: tuple[MembershipEvent, ...]

    def __post_init__(self):
        seen = set()
        for ev in self.events:
            key = (ev.developer_id, ev.project_id, ev.entry_month)
            if key in seen:
                raise DomainError(f"duplicate event triple {key}")
            seen.add(key)

    def __len__(self) -> int:
        return len(self.events)

    @cached_property
    def month_range(self) -> tuple[int, int]:
        """(first, last) month at which anything is observed to happen."""
        if not self.events:
            raise DomainError("empty event log has no month range")
        lo = min(ev.entry_month for ev in self.events)
        hi = max(
            ev.exit_month if ev.exit_month is not None else ev.entry_month for ev in self.events
        )
        return lo, hi

    @cached_property
    def by_project(self) -> dict[str, tuple[MembershipEvent, ...]]:
        out: dict[str, list[MembershipEvent]] = {}
        for ev in self.events:
            out.setdefault(ev.project_id, []).append(ev)
        return {k: tuple(v) for k, v in out.items()}

    @cached_property
    def by_developer(self) -> dict[str, tuple[MembershipEvent, ...]]:
        out: dict[str, list[MembershipEvent]] = {}
        for ev in self.events:
            out.setdefault(ev.developer_id, []).append(ev)
        return {k: tuple(v) for k, v in out.items()}

    @cached_property
    def project_first_month(self) -> dict[str, int]:
        return {p: min(ev.entry_month for ev in evs) for p, evs in self.by_project.items()}

    @cached_property
    def developer_first_month(self) -> dict[str, int]:
        return {d: min(ev.entry_month for ev in evs) for d, evs in self.by_developer.items()}


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
    if isinstance(source, (str, Path)):
        with open(source, encoding="utf-8", errors="surrogateescape") as fh:
            lines = fh.readlines()
    else:
        lines = source.readlines()

    events: list[MembershipEvent] = []
    errors: list[ParseIssue] = []
    duplicates: list[ParseIssue] = []
    seen: set[tuple[str, str, int]] = set()

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
            entry = month_index(fields[2], epoch)
        except ValueError:
            errors.append(ParseIssue(line_no, f"unparseable entry month {fields[2]!r}", line))
            continue
        exit_m: int | None = None
        if len(fields) == 4 and fields[3] != "":
            try:
                exit_m = month_index(fields[3], epoch)
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
        events.append(MembershipEvent(dev, proj, entry, exit_m))

    return ParseResult(
        log=MembershipEventLog(tuple(events)),
        errors=tuple(errors),
        duplicates=tuple(duplicates),
    )


def read_gap_mask(source: str | Path | io.TextIOBase, epoch: str = DEFAULT_EPOCH) -> frozenset[int]:
    """Read a gap-mask file: one masked month index (or YYYY-MM) per line."""
    if isinstance(source, (str, Path)):
        with open(source, encoding="utf-8") as fh:
            lines = fh.readlines()
    else:
        lines = source.readlines()
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
