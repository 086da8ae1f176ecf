"""The columnar event log against the object-building code it replaced.

`parse_events` once built one validated `MembershipEvent` per row and kept
them in the log; the log rescanned them for repeated triples and walked them
again to merge each pair's records into rows. That code is kept below as the
oracle. It shares `month_index` with the column parser, so both apply the
same month token rule; everything after the token is compared: row errors
and duplicates (line number, message and raw line), the event count, the
month range, every array of merged rows, and the errors `from_rows` raises.
`parse_events` reads a regular file on whole columns and any other row by
row; regular files, which the general file strategy seldom yields, get their
own strategy and one-defect variants, so both paths are held to the oracle.
"""

import io
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from event_rows import assert_same_rows
from forgesim import (
    DomainError, MembershipEventLog, ParseIssue, events, month_index, month_label, parse_events,
)
from forgesim.events import DEFAULT_EPOCH, OPEN

HEADER = ("developer_id", "project_id", "entry_month", "exit_month")

# ---------------------------------------------------------------------------
# the object-building oracle


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


def oracle_log(rows):
    """The events of rows, checked as the object log checked them."""
    events = tuple(MembershipEvent(*r) for r in rows)
    seen = set()
    for ev in events:
        key = (ev.developer_id, ev.project_id, ev.entry_month)
        if key in seen:
            raise DomainError(f"duplicate event triple {key}")
        seen.add(key)
    return events


def oracle_parse(text, delimiter=",", epoch=DEFAULT_EPOCH):
    events = []
    errors = []
    duplicates = []
    seen = set()

    for line_no, raw in enumerate(io.StringIO(text).readlines(), start=1):
        line = raw.rstrip("\n").rstrip("\r")
        if not line.strip():
            continue
        if line_no == 1:
            line = line.removeprefix("\ufeff")
        fields = [f.strip() for f in line.split(delimiter)]
        if line_no == 1 and tuple(fields) in (HEADER, HEADER[:3]):
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
        exit_m = None
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

    return tuple(events), errors, duplicates


def oracle_month_range(events):
    if not events:
        raise DomainError("empty event log has no month range")
    lo = min(ev.entry_month for ev in events)
    hi = max(ev.exit_month if ev.exit_month is not None else ev.entry_month for ev in events)
    return lo, hi


def oracle_rows(events):
    """The ids and merged-row arrays of events."""
    def coded(values):
        ids = tuple(sorted(set(values)))
        code = dict(zip(ids, range(len(ids))))
        return ids, np.fromiter(map(code.__getitem__, values), np.int64, len(values))

    developer_ids, dev = coded([ev.developer_id for ev in events])
    project_ids, proj = coded([ev.project_id for ev in events])
    start = np.fromiter((ev.entry_month for ev in events), np.int64, len(events))
    stop = np.fromiter((OPEN if ev.exit_month is None else ev.exit_month for ev in events),
                       np.int64, len(events))
    order = np.lexsort((start, dev, proj))
    proj, dev, start, stop = proj[order], dev[order], start[order], stop[order]
    new_pair = (np.diff(dev, prepend=-1) != 0) | (np.diff(proj, prepend=-1) != 0)
    stops, rank = np.unique(stop, return_inverse=True)
    offset = (np.cumsum(new_pair) - 1) * stops.size
    reach = stops[np.maximum.accumulate(offset + rank) - offset]
    opens = new_pair | (start > np.roll(reach, 1))
    firsts = [np.full(len(ids), OPEN) for ids in (developer_ids, project_ids)]
    np.minimum.at(firsts[0], dev, start)
    np.minimum.at(firsts[1], proj, start)
    return SimpleNamespace(
        developer_ids=developer_ids, project_ids=project_ids, developer=dev[opens],
        project=proj[opens], start=start[opens], stop=reach[np.roll(opens, -1)],
        developer_first=firsts[0], project_first=firsts[1])


# ---------------------------------------------------------------------------
# comparison


def assert_parses_like_the_oracle(text, epoch=DEFAULT_EPOCH, source=None):
    """parse_events of text, or of source holding text, against the oracle's parse of text."""
    result = parse_events(io.StringIO(text) if source is None else source, epoch=epoch)
    events, errors, duplicates = oracle_parse(text, epoch=epoch)
    assert list(result.errors) == errors
    assert list(result.duplicates) == duplicates
    assert len(result.log) == len(events)
    if events:
        assert result.log.month_range == oracle_month_range(events)
    else:
        with pytest.raises(DomainError):
            result.log.month_range
    assert_same_rows(result.log, oracle_rows(events))


developer = st.sampled_from(["d0", "d1", "d2", " d1 ", ""])
project = st.sampled_from(["p0", "p1", "p0 ", ""])
month = st.one_of(
    st.integers(0, 12).map(str),
    st.sampled_from(["1970-03", "1970-11", "1971-01", " 4 ", "+2", "-1", "1_2",
                     "\u0661\u0662", "\uff12\uff10\uff12\uff10-01", "1970-13", "x", ""]),
)
row = st.builds(
    lambda d, p, e, x, n: ",".join([d, p, e, x, "extra"][:n]),
    developer, project, month, month, st.sampled_from([2, 3, 4, 4, 4, 5]),
)
special = st.sampled_from(["", "   ", ",".join(HEADER), "\ufeff" + ",".join(HEADER),
                           ",".join(HEADER[:3]), "dev,proj,entry,exit"])
event_files = st.builds(
    lambda lines, newline: "".join(line + newline for line in lines),
    st.lists(st.one_of(row, row, row, special), max_size=30),
    st.sampled_from(["\n", "\r\n"]),
)


@given(event_files, st.sampled_from([DEFAULT_EPOCH, "1970-02"]))
@settings(max_examples=400, deadline=None)
def test_column_parser_matches_the_object_parser(text, epoch):
    assert_parses_like_the_oracle(text, epoch)


def test_column_parser_matches_the_object_parser_on_a_larger_file():
    rng = np.random.default_rng(11)
    lines = ["developer_id,project_id,entry_month,exit_month"]
    for _ in range(4000):
        entry = int(rng.integers(0, 60))
        exit_m = "" if rng.random() < 0.5 else str(entry + int(rng.integers(-1, 12)))
        token = f"{1970 + entry // 12}-{entry % 12 + 1:02d}" if rng.random() < 0.5 else str(entry)
        lines.append(f"d{rng.integers(300)},p{rng.integers(120)},{token},{exit_m}")
    lines[1000] = "d1,p1"
    lines[2000] = "d1,p1,1_0,"
    assert_parses_like_the_oracle("\n".join(lines) + "\n")


rows = st.lists(
    st.tuples(
        st.sampled_from(["d0", "d1", "d2"]), st.sampled_from(["p0", "p1"]),
        st.integers(0, 4), st.one_of(st.none(), st.integers(0, 6)),
    ),
    max_size=12,
)


@given(rows)
@settings(max_examples=300, deadline=None)
def test_from_rows_checks_like_the_object_log(rows):
    try:
        events = oracle_log(rows)
    except DomainError as exc:
        with pytest.raises(DomainError) as got:
            MembershipEventLog.from_rows(rows)
        assert str(got.value) == str(exc)
        return
    log = MembershipEventLog.from_rows(rows)
    assert len(log) == len(events)
    if events:
        assert log.month_range == oracle_month_range(events)
    assert_same_rows(log, oracle_rows(events))


def test_from_rows_reports_the_first_repeat_in_row_order():
    rows = [("b", "q", 2, None), ("a", "p", 1, None), ("a", "p", 1, 3), ("b", "q", 2, 5)]
    with pytest.raises(DomainError, match=r"\('a', 'p', 1\)"):
        MembershipEventLog.from_rows(rows)


def test_log_arrays_are_read_only():
    log = MembershipEventLog.from_rows([("e", "p", 1, None), ("d", "q", 2, 4)])
    assert log.developer.tolist() == [1, 0] and log.project.tolist() == [0, 1]
    assert log.start.tolist() == [1, 2] and log.stop.tolist() == [OPEN, 4]
    assert log.developer_first.tolist() == [2, 1] and log.project_first.tolist() == [1, 2]
    for name in ("developer", "project", "start", "stop", "developer_first", "project_first"):
        array = getattr(log, name)
        assert array.dtype == np.int64, name
        with pytest.raises(ValueError):
            array[0] = 0


@pytest.mark.parametrize("build", [
    lambda: MembershipEventLog.from_rows([("d", "p", 1, None), ("e", "p", 2, 4)]),
    lambda: parse_events(io.StringIO("d,p,1,\ne,p,2,4\nd,p,1,3\n")),  # in bulk
    lambda: parse_events(io.StringIO("d,p,1,\n\ne,p,2,4\nd,p,1,3\n")),  # row by row
])
def test_a_log_is_built_with_one_sort(build, monkeypatch):
    calls = []

    def lexsort(keys):
        calls.append(len(keys))
        return np_lexsort(keys)

    np_lexsort = np.lexsort
    monkeypatch.setattr(np, "lexsort", lexsort)
    build()
    assert calls == [3]


@pytest.mark.parametrize("low, high", [(0, 2**16 - 1), (-5, 2**16 - 6), (0, 2**16),
                                       (-2**63, 2**63 - 1)])
def test_sort_keys_narrow_only_when_the_order_survives(low, high):
    rng = np.random.default_rng(3)
    key = np.r_[low, high, rng.integers(low, high, 500, endpoint=True), low, high]
    narrow = events._sort_key(key)
    assert (narrow.dtype == np.uint16) == (high - low < 2**16)
    assert np.array_equal(np.argsort(narrow, kind="stable"), np.argsort(key, kind="stable"))


def _full_width_lexsort(proj, dev, entry):
    """The row order as np.lexsort gives it on the three int64 keys."""
    return np.lexsort((entry, dev, proj))


# ranges on either side of 2**16, and wide enough together to pass 63 bits
KEY_RANGES = st.sampled_from([1, 40, 2**16 - 1, 2**16, 2**20, 2**40])


@settings(max_examples=60, deadline=None)
@given(st.tuples(KEY_RANGES, KEY_RANGES, KEY_RANGES), st.integers(1, 400), st.integers(0, 2**32))
def test_row_order_is_the_three_key_lexsort(ranges, n, seed):
    # few distinct values per key, so that whole triples repeat
    rng = np.random.default_rng(seed)
    proj, dev, entry = (rng.choice(rng.integers(0, r, 4, endpoint=True), n) - r // 3
                        for r in ranges)
    want = _full_width_lexsort(proj, dev, entry)
    assert np.array_equal(events._row_order(proj, dev, entry), want)


@pytest.mark.parametrize("last_month", [119, 2**50])
def test_wide_codes_parse_as_with_the_three_key_lexsort(last_month, monkeypatch):
    # 70,000 developers pass 2**16 codes; every tenth row repeats an earlier
    # triple, and a last month of 2**50 makes the packed key too wide for 63 bits
    rng = np.random.default_rng(8)
    n = 70_000
    dev = rng.permutation(n)
    proj = rng.integers(0, 3000, n)
    entry = rng.integers(0, 120, n)
    entry[-1] = last_month
    exit_m = np.where(rng.random(n) < 0.5, entry + rng.integers(0, 30, n), -1)
    rows = [f"d{d},p{p},{e},{'' if x < 0 else x}" for d, p, e, x in zip(dev, proj, entry, exit_m)]
    rows += rows[: n // 10]
    text = "\n".join(rng.permutation(rows)) + "\n"
    got = parse_events(io.StringIO(text))
    monkeypatch.setattr(events, "_row_order", _full_width_lexsort)
    want = parse_events(io.StringIO(text))
    assert got.errors == want.errors == () and got.duplicates == want.duplicates
    assert len(got.duplicates) == n // 10 and len(got.log.developer_ids) > 2**16
    for name in vars(want.log):
        a, b = getattr(got.log, name), getattr(want.log, name)
        assert np.array_equal(a, b) if isinstance(b, np.ndarray) else a == b, name


# ---------------------------------------------------------------------------
# regular files, which parse_events reads in bulk on whole columns


# Id pools of one file. The bulk parser reads a field as 8-byte words, so the
# pools hold ids on either side of 8 and 16 bytes and ids that are prefixes of
# one another across a word boundary. Within a pool no id is longer than the
# shortest line, which keeps every file within the bulk parser's width bound.
ID_POOLS = [
    (["d0", "d1", "d22", "dev-3"], ["p0", "p1", "proj2"]),
    (["dev", "dev0", "dev00000", "dev000000"], ["p0", "p1", "proj2"]),
    (["d000000", "d0000000", "d00000000", "d0000001"], ["proj000", "proj0000", "proj00000"]),
    (["developer-00000", "developer-000001", "developer-0000010", "developer-00001"],
     ["p0", "p1", "project-0000001x"]),
]


@st.composite
def regular_files(draw):
    """Regular event files: one field count throughout, ASCII, well-formed
    ids and months, no exit before its entry; zero-length rows and repeated
    triples (which the parse drops and reports) are common, and a file may
    begin with a byte-order mark or hold blank lines, which the parse skips."""
    epoch = draw(st.sampled_from([DEFAULT_EPOCH, "1970-02"]))
    width = draw(st.sampled_from([3, 4]))
    developers, projects = draw(st.sampled_from(ID_POOLS))
    rows = draw(st.lists(st.tuples(
        st.sampled_from(developers), st.sampled_from(projects),
        st.integers(-2, 30), st.one_of(st.none(), st.integers(0, 6)),
    ), min_size=1, max_size=30))
    rows += draw(st.lists(st.sampled_from(rows), max_size=4))  # repeated triples
    rows = draw(st.permutations(rows))
    # integer tokens of 9 and 10 bytes, such as +000000005, take two words
    formats = draw(st.sampled_from([[str], [lambda i: f"{i:+09d}", lambda i: f"{i:+010d}"]]))

    def token(index):
        return draw(st.sampled_from([month_label(index, epoch)] + [f(index) for f in formats]))

    lines = []
    for dev, proj, entry, stay in rows:
        fields = [dev, proj, token(entry)]
        if width == 4:
            fields.append("" if stay is None else token(entry + stay))
        lines.append(",".join(fields))
    if draw(st.booleans()):
        lines.insert(0, ",".join(HEADER[:width]))
    for _ in range(draw(st.integers(0, 3))):  # not before line 1, which would hide a header
        lines.insert(draw(st.integers(1, len(lines))), draw(st.sampled_from(["", "  ", "\t\x1c"])))
    bom = draw(st.sampled_from(["", "\ufeff"]))
    return bom + "".join(line + "\n" for line in lines), epoch


@given(regular_files())
@settings(max_examples=200, deadline=None)
def test_bulk_parser_matches_the_object_parser(file):
    text, epoch = file
    assert events._parse_regular(text, epoch) is not None
    assert_parses_like_the_oracle(text, epoch)


REGULAR = (
    "developer_id,project_id,entry_month,exit_month\n"
    "d1,p1,1970-03,1970-05\n"
    "d2,p1,4,\n"
    "d1,p2,6,6\n"
    "d1,p1,1970-03,9\n"
    "d3,p2,7,12\n"
)


@pytest.mark.parametrize("text, regular", [
    (REGULAR, True),
    (REGULAR.rstrip("\n"), True),  # no final newline
    (REGULAR.replace("d2,p1,4,", "d2,p1, 4 ,  "), True),  # padded month tokens
    (REGULAR.replace("d2,p1,4,", "d2,p1,4,\r"), False),  # CR line
    ("\ufeff" + REGULAR, True),  # byte-order mark
    (REGULAR.replace("d2,p1,4,\n", "d2,p1,4,\n\n"), True),  # blank line
    (REGULAR.replace("d2,p1,4,\n", "d2,p1,4,\n \t\x1c\n"), True),  # whitespace-only line
    (REGULAR + "  ", True),  # whitespace-only last line without a newline
    ("\ufeff \n" + REGULAR.partition("\n")[2], False),  # byte-order mark alone on line 1,
    # which the row loop reads as a one-field row
    ("\n" + REGULAR, False),  # blank line 1, so the header on line 2 is a row
    (REGULAR.replace("d2,p1,4,", "d2,p1,4"), False),  # 3 fields among 4
    (REGULAR.replace("d2,p1,4,", "d2 ,p1,4,"), False),  # padded id
    (REGULAR.replace("d2,p1,4,", "d2,,4,"), False),  # empty id
    (REGULAR.replace("d2,p1,4,", "d2,p1,4x,"), False),  # bad month
    (REGULAR.replace("d3,p2,7,12", "d3,p2,7,5"), False),  # exit before entry
    (REGULAR.replace("d3,p2", "dé,p2"), False),  # non-ASCII id
    (REGULAR.replace("d3,p2", "d3\0,p2"), False),  # NUL in an id
    (REGULAR.replace("d3,p2", "d" * 200 + ",p2"), False),  # one id wider than the file allows
])
def test_one_defect_variants_parse_like_the_object_parser(text, regular):
    assert (events._parse_regular(text, DEFAULT_EPOCH) is not None) == regular
    assert_parses_like_the_oracle(text)


def row_loop_not_called(*args):
    raise AssertionError("a regular file reached the row loop")


def test_crlf_file_from_a_path_is_read_in_bulk(tmp_path, monkeypatch):
    text = REGULAR.replace("\n", "\r\n")
    path = tmp_path / "events.csv"
    path.write_bytes(text.encode())
    monkeypatch.setattr(events, "_parse_rows", row_loop_not_called)
    assert_parses_like_the_oracle(text, source=path)


def test_crlf_stream_is_read_in_bulk(monkeypatch):
    """A text stream keeps its CR LF line ends; with a repeated row, a blank
    line and no final line end, its duplicates keep the row loop's line numbers
    and raw lines."""
    text = (REGULAR + "\nd2,p1,4,9").replace("\n", "\r\n")
    monkeypatch.setattr(events, "_parse_rows", row_loop_not_called)
    assert_parses_like_the_oracle(text)
    assert [(d.line_no, d.raw) for d in parse_events(io.StringIO(text)).duplicates] == [
        (5, "d1,p1,1970-03,9"), (8, "d2,p1,4,9")]


@pytest.mark.parametrize("text", [
    REGULAR.replace("\n", "\r\n").replace("d2,p1,4,", "d2,p1,4,\r"),  # doubled CR
    REGULAR.replace("\n", "\r\n").replace("d2,p1,4,", "d2\r,p1,4,"),  # bare CR in an id
    REGULAR.replace("\n", "\r\n") + "d2,p1,4,9\r",  # bare CR ending the file
    REGULAR.replace("\n", "\r\n", 3),  # CR LF and LF line ends mixed
], ids=["doubled", "bare-in-id", "bare-at-end", "mixed"])
def test_other_cr_takes_the_row_loop(text):
    assert events._parse_regular(text, DEFAULT_EPOCH) is None
    assert_parses_like_the_oracle(text)


def test_regular_file_never_reaches_the_row_loop(monkeypatch):
    text = REGULAR + "d2,p1,4,9\n"
    monkeypatch.setattr(events, "_parse_rows", row_loop_not_called)
    assert_parses_like_the_oracle(text)
    assert [d.line_no for d in parse_events(io.StringIO(text)).duplicates] == [5, 7]


LONG_IDS = "".join(f"developer-{i % 7:012d},project-{i % 5:020d},{i},{i + 3}\n"
                   for i in range(40))


@pytest.mark.parametrize("text", [
    (Path(__file__).parent / "data" / "events_200.csv").read_text(encoding="utf-8"),
    "\ufeff" + REGULAR,
    REGULAR + "\n",
    REGULAR + "  \n",
    LONG_IDS + LONG_IDS.splitlines(keepends=True)[3],
], ids=["events_200", "byte-order-mark", "trailing-blank-line", "trailing-space-line",
        "long-ids"])
def test_regular_files_take_the_bulk_path(text):
    """The row loop is the slower path, so a regular file must not fall back to it."""
    assert events._parse_regular(text, DEFAULT_EPOCH) is not None
    assert_parses_like_the_oracle(text)
