"""Membership-event logs: parsing, validation, and month arithmetic.

The event file is comma-separated text, one membership event per row:

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
from collections.abc import Callable, Iterable
from dataclasses import dataclass
from functools import lru_cache, partial
from pathlib import Path

import numpy as np

from .errors import DomainError, is_integer

__all__ = [
    "MembershipEventLog",
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

OPEN = np.iinfo(np.int64).max  # stop month of a log row with no exit

_INTEGER_RE = re.compile(r"[+-]?[0-9]+")
_CALENDAR_RE = re.compile(r"([0-9]{4})-(0[1-9]|1[0-2])")


# The documented column names; row 1 is a header only when it carries them.
_HEADER = ("developer_id", "project_id", "entry_month", "exit_month")

# The ASCII bytes that str.strip() removes.
_SPACE = np.array([chr(b).isspace() for b in range(128)])

# _KEEP[L] keeps the first L bytes of a big-endian uint64 word and zeroes the rest.
_KEEP = np.array([2**64 - 2**(64 - 8 * L) for L in range(9)], np.uint64)


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
    are int64 in the log, where OPEN means no exit).
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


def _coded(values: tuple[str, ...]) -> tuple[tuple[str, ...], np.ndarray]:
    """The sorted distinct values and the code of each value among them."""
    ids = tuple(sorted(set(values)))
    code = dict(zip(ids, range(len(ids))))
    return ids, np.fromiter(map(code.__getitem__, values), np.int64, len(values))


def _sort_key(key: np.ndarray) -> np.ndarray:
    """key, in the same order, as uint16 when its range fits: the stable sort of
    np.lexsort is a radix sort on 16-bit keys, several times faster on shuffled
    codes than the comparison sort it runs on wider ones."""
    if key.size and int(key.max()) - int(key.min()) < 2**16:
        return (key - key.min()).astype(np.uint16)
    return key


def _row_order(proj: np.ndarray, dev: np.ndarray, entry: np.ndarray) -> np.ndarray:
    """The stable order of rows by (project, developer, entry).

    np.lexsort runs a radix sort on 16-bit keys and a comparison sort on
    wider ones. When some key passes 2**16 and the three ranges fit 63 bits
    together, they are packed into one int64 key, (project, developer,
    entry - min) from high bits to low, and np.lexsort sorts its 16-bit
    digits instead: one radix sort per digit rather than a comparison sort
    per key.
    """
    keys = [_sort_key(key) for key in (entry, dev, proj)]
    if entry.size and any(key.dtype != np.uint16 for key in keys):
        low, mid, high = (key - key.min() for key in (entry, dev, proj))
        w_low, w_mid = int(low.max()).bit_length(), int(mid.max()).bit_length()
        width = w_low + w_mid + int(high.max()).bit_length()
        if width <= 63:
            packed = low | (mid << w_low) | (high << (w_low + w_mid))
            keys = [((packed >> bit) & 0xFFFF).astype(np.uint16) for bit in range(0, width, 16)]
    return np.lexsort(keys)


def _reach(stop: np.ndarray, new_group: np.ndarray) -> np.ndarray:
    """The running max of stop over each group of consecutive rows, a group
    starting at each True of new_group. The running max is taken on dense stop
    ranks offset by group, so it never crosses from one group into the next."""
    stops, rank = np.unique(stop, return_inverse=True)
    offset = (np.cumsum(new_group) - 1) * stops.size
    return stops[np.maximum.accumulate(offset + rank) - offset]


@dataclass(frozen=True, eq=False)
class MembershipEventLog:
    """A membership-event log as int-coded, pair-merged intervals.

    Row i links developer_ids[developer[i]] to project_ids[project[i]] in the
    months [start[i], stop[i]); stop is OPEN for a link with no exit. Records
    of one pair that overlap or touch are merged into one row, so a pair is
    active in a month at most once. Zero-length rows (start == stop) are kept:
    they set first months but are never active. Ids are sorted, rows are
    ordered by (project, developer, start), and *_first hold each code's
    first month. len() is the number of events, before merging.
    """

    developer_ids: tuple[str, ...]
    project_ids: tuple[str, ...]
    developer: np.ndarray
    project: np.ndarray
    start: np.ndarray
    stop: np.ndarray
    developer_first: np.ndarray
    project_first: np.ndarray
    n_events: int
    span: tuple[int, int] | None  # the month range; None for an empty log

    @classmethod
    def from_rows(cls, rows: Iterable[tuple[str, str, int, int | None]]) -> MembershipEventLog:
        """The log of (developer, project, entry, exit or None) rows; raises DomainError
        for a month that is not an int or numpy integer (a bool is not), an exit before
        its entry, or a repeated (developer, project, entry) triple."""
        dev, proj, entry, exit_m = tuple(zip(*rows)) or ((),) * 4
        if not set(map(type, entry)) <= {int} or not set(map(type, exit_m)) <= {int, type(None)}:
            for i, row in enumerate(zip(dev, proj, entry, exit_m)):
                if not is_integer(row[2]) or not (row[3] is None or is_integer(row[3])):
                    raise DomainError(f"row {i} {row!r}: months must be integers")
        log, repeats = cls._from_columns(
            *_coded(dev), *_coded(proj), np.array(entry, np.int64),
            np.array([OPEN if m is None else m for m in exit_m], np.int64))
        if repeats.size:
            r = repeats[0]
            raise DomainError(f"duplicate event triple {(dev[r], proj[r], int(entry[r]))}")
        return log

    @classmethod
    def _from_columns(cls, developer_ids: tuple[str, ...], dev: np.ndarray,
                      project_ids: tuple[str, ...], proj: np.ndarray, entry: np.ndarray,
                      exit_m: np.ndarray) -> tuple[MembershipEventLog, np.ndarray]:
        """The log of events coded into sorted ids (event i links developer_ids[dev[i]] to
        project_ids[proj[i]] from entry[i] to exit_m[i]) less the later events of each repeated
        triple, and their ascending indices; DomainError for an exit before its entry."""
        if (early := np.flatnonzero(exit_m < entry)).size:
            i = early[0]
            raise DomainError(f"exit month {exit_m[i]} precedes entry month {entry[i]}")
        # a stable sort puts the first event of each triple first; the later events repeat it
        order = _row_order(proj, dev, entry)
        proj, dev, entry, exit_m = proj[order], dev[order], entry[order], exit_m[order]
        repeat = np.zeros(order.size, bool)
        repeat[1:] = (proj[1:] == proj[:-1]) & (dev[1:] == dev[:-1]) & (entry[1:] == entry[:-1])
        first = ~repeat
        dev, proj, start, stop = dev[first], proj[first], entry[first], exit_m[first]
        # the month range is taken before merging, which can hide an exit:
        # [0, 10) and [5, OPEN) merge into [0, OPEN), and the last month is 10
        span = None
        if start.size:
            span = int(start.min()), int(np.where(stop == OPEN, start, stop).max())
        # A row opens a new merged interval unless it starts no later than the
        # reach of its pair so far (the running max of the pair's earlier stops).
        new_pair = (np.diff(dev, prepend=-1) != 0) | (np.diff(proj, prepend=-1) != 0)
        reach = _reach(stop, new_pair)
        opens = new_pair | (start > np.roll(reach, 1))
        firsts = [np.full(len(ids), OPEN) for ids in (developer_ids, project_ids)]
        np.minimum.at(firsts[0], dev, start)
        np.minimum.at(firsts[1], proj, start)
        # an interval stops at the reach of its last row, the row before the next opening
        log = cls(developer_ids, project_ids, dev[opens], proj[opens], start[opens],
                  reach[np.roll(opens, -1)], *firsts, start.size, span)
        return log, np.sort(order[repeat])

    def __post_init__(self):
        for name in ("developer", "project", "start", "stop", "developer_first", "project_first"):
            getattr(self, name).setflags(write=False)

    def __len__(self) -> int:
        return self.n_events

    @property
    def month_range(self) -> tuple[int, int]:
        """(first, last) month at which anything is observed to happen."""
        if self.span is None:
            raise DomainError("empty event log has no month range")
        return self.span

    def active(self, month: int) -> np.ndarray:
        """Indices of the rows active in the given month."""
        return np.flatnonzero((self.start <= month) & (self.stop > month))


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


def parse_events(source: str | Path | io.TextIOBase, epoch: str = DEFAULT_EPOCH) -> ParseResult:
    """Parse an event file into a validated log.

    Malformed rows (bad field count, unparseable months, exit before entry)
    are collected with their line numbers; duplicate
    (developer, project, entry_month) triples are dropped and reported
    separately. Blank lines are skipped. A line ends at a newline (a path is
    read with universal newlines). A regular file is parsed in bulk and any
    other row by row, with the same result.
    """
    text = _read_text(source)
    result = _parse_regular(text, epoch)
    return _parse_rows(text.split("\n"), epoch) if result is None else result


def _parse_regular(text: str, epoch: str) -> ParseResult | None:
    """The parse of a regular file, done on whole columns; None for any other file.

    A file is regular when it is ASCII without NUL, after an optional
    byte-order mark, its line ends are all LF or all CR LF, and every line
    after an optional header that is not blank holds the same number of
    commas, 2 or 3, with ids that are neither empty nor padded, month tokens
    that parse and no exit before its entry: the row loop finds no row error
    in such a file. Each field is read as big-endian uint64 words of 8 bytes,
    NUL-padded, so that word order is byte order; a file whose widest field
    times its line count exceeds its length is not regular either.
    """
    bom = text.startswith("\ufeff")
    text = text.removeprefix("\ufeff")  # line 1's byte-order mark, as the row loop drops it
    if "\r" in text:
        # a file whose every line ends in CR LF: the row loop strips the CR
        if not text.count("\r") == text.count("\r\n") == text.count("\n"):
            return None
        text = text.replace("\r\n", "\n")
    if not (text.isascii() and "\0" not in text):
        return None
    head = text[:text.find("\n")] if "\n" in text else text
    if bom and not head.strip():
        return None  # the row loop reads the mark as line 1's one field
    is_header = tuple(f.strip() for f in head.split(",")) in (_HEADER, _HEADER[:3])
    skip = len(head) + 1 if is_header else 0
    raw = text.encode("ascii") + bytes(8)
    body = np.frombuffer(raw, np.uint8, len(raw) - 8 - skip, skip)
    if not body.size:
        return None
    ends = np.flatnonzero(body == ord("\n"))
    if body[-1] != ord("\n"):
        ends = np.append(ends, body.size)  # the last line has no newline
    starts = np.r_[-1, ends[:-1]]
    commas = np.flatnonzero(body == ord(","))
    per_line = np.diff(np.searchsorted(commas, ends), prepend=0)
    # a line without commas is blank or not regular; the row loop skips blank lines
    blank = [r for r in np.flatnonzero(per_line == 0).tolist()
             if not text[skip + starts[r] + 1:skip + ends[r]].strip()]
    kept = np.delete(np.arange(ends.size), blank)  # the body line of each row
    if blank:
        starts, ends, per_line = starts[kept], ends[kept], per_line[kept]
    n = ends.size
    if not n:
        return None
    width = int(per_line[0]) + 1
    if width not in (3, 4) or (per_line != width - 1).any():
        return None
    # field c of row r is body[bounds[c, r] + 1:bounds[c + 1, r]], sizes[c, r] bytes long
    bounds = np.vstack([starts, commas.reshape(n, width - 1).T, ends])
    del commas, per_line
    sizes = np.diff(bounds, axis=0) - 1
    if n * (int(sizes.max()) + 1) > body.size:
        return None
    # word[i] is the big-endian uint64 of body[i:i + 8], read past the body as NULs
    word = np.ndarray((body.size + 1,), ">u8", raw, skip, (1,))

    def distinct(c: int) -> tuple[tuple[str, ...], np.ndarray]:
        """The sorted distinct values of field c and the code of each line's value."""
        lo, size = bounds[c] + 1, sizes[c]
        words = [word[lo] & _KEEP[np.minimum(size, 8)]]
        words += [word[np.minimum(lo + i, body.size)] & _KEEP[np.clip(size - i, 0, 8)]
                  for i in range(8, int(size.max()), 8)]
        if len(words) == 1:
            values, code = np.unique(words[0], return_inverse=True)
        else:  # the first word is the primary key
            order = np.lexsort(words[::-1])
            ranked = np.stack(words, axis=1)[order]
            new = np.r_[True, (ranked[1:] != ranked[:-1]).any(axis=1)]
            values, code = ranked[new], np.empty(n, np.int64)
            code[order] = np.cumsum(new) - 1
        # each value's bytes less their NUL padding, then a newline
        nbytes = 8 * len(words)
        chars = np.full((len(values), nbytes + 1), ord("\n"), np.uint8)
        chars[:, :nbytes] = values.astype(">u8").view(np.uint8).reshape(-1, nbytes)
        values = chars[chars != 0].tobytes().decode("ascii").split("\n")[:-1]
        return tuple(values), code.astype(np.int64, copy=False)

    if not sizes[:2].all():
        return None  # an empty id
    # the first and the last byte of the two ids of each row; no whitespace byte exceeds a space
    edges = body[np.concatenate([bounds[0] + 1, bounds[1] - 1, bounds[1] + 1, bounds[2] - 1])]
    if _SPACE[edges[edges <= ord(" ")]].any():
        return None  # an id that strip() would change
    try:
        tokens, code = distinct(2)
        entry = np.array([month_index(t, epoch) for t in tokens], np.int64)[code]
        tokens, code = distinct(3) if width == 4 else (("",), np.zeros(n, np.int64))
        exit_m = np.array([month_index(t, epoch) if t.strip() else OPEN for t in tokens],
                          np.int64)[code]
    except ValueError:
        return None
    if (exit_m < entry).any():
        return None
    return _result(*distinct(0), *distinct(1), entry, exit_m, lambda r: (
        int(kept[r]) + 1 + bool(skip), text[skip + bounds[0, r] + 1:skip + bounds[-1, r]]))


def _parse_rows(lines: list[str], epoch: str) -> ParseResult:
    """The parse of any file, one line at a time."""
    rows: list[tuple[str, str, int, int, int, str]] = []  # the fields, line number and line
    errors: list[ParseIssue] = []
    month = lru_cache(maxsize=None)(partial(month_index, epoch=epoch))  # bad tokens are not cached

    for line_no, raw in enumerate(lines, start=1):
        line = raw.rstrip("\n").rstrip("\r")
        if not line.strip():
            continue
        if line_no == 1:
            line = line.removeprefix("\ufeff")  # byte-order mark some editors write
        fields = [f.strip() for f in line.split(",")]
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
        exit_m = OPEN
        if len(fields) == 4 and fields[3] != "":
            try:
                exit_m = month(fields[3])
            except ValueError:
                errors.append(ParseIssue(line_no, f"unparseable exit month {fields[3]!r}", line))
                continue
        if exit_m < entry:
            errors.append(ParseIssue(line_no, f"exit month {exit_m} precedes entry month {entry}",
                                     line))
            continue
        rows.append((dev, proj, entry, exit_m, line_no, line))

    dev, proj, entry, exit_m, line_nos, raws = tuple(zip(*rows)) or ((),) * 6
    return _result(*_coded(dev), *_coded(proj), np.array(entry, np.int64),
                   np.array(exit_m, np.int64), lambda r: (line_nos[r], raws[r]), errors)


def _result(developer_ids: tuple[str, ...], dev: np.ndarray,
            project_ids: tuple[str, ...], proj: np.ndarray,
            entry: np.ndarray, exit_m: np.ndarray, line: Callable[[int], tuple[int, str]],
            errors: Iterable[ParseIssue] = ()) -> ParseResult:
    """The parse of coded columns whose event r was read from line(r), a
    (line_no, raw) pair: the later events of a repeated triple are dropped
    from the log and reported as duplicates in line order."""
    log, repeats = MembershipEventLog._from_columns(developer_ids, dev, project_ids, proj,
                                                    entry, exit_m)
    duplicates = []
    for r in repeats.tolist():
        line_no, raw = line(r)
        key = (developer_ids[dev[r]], project_ids[proj[r]], int(entry[r]))
        duplicates.append(ParseIssue(line_no, f"duplicate triple {key}", raw))
    return ParseResult(log=log, errors=tuple(errors), duplicates=tuple(duplicates))


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
