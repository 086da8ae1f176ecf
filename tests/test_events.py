"""Tests of event-file parsing and month arithmetic."""

import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from event_rows import assert_same_rows, make_log
from forgesim import (
    DomainError,
    MembershipEventLog,
    month_index,
    month_label,
    parse_events,
    read_gap_mask,
)
from forgesim.events import OPEN

ids = st.text(
    alphabet=st.characters(min_codepoint=33, max_codepoint=126, exclude_characters=","),
    min_size=1,
    max_size=8,
)
months = st.integers(min_value=0, max_value=500)


@st.composite
def event_rows(draw):
    dev = draw(ids)
    proj = draw(ids)
    entry = draw(months)
    exit_m = draw(st.one_of(st.none(), st.integers(min_value=entry, max_value=600)))
    return dev, proj, entry, exit_m


@given(st.lists(event_rows(), min_size=1, max_size=40, unique_by=lambda r: (r[0], r[1], r[2])))
@settings(max_examples=60, deadline=None)
def test_write_parse_round_trip(rows):
    text = "\n".join(
        f"{d},{p},{e},{'' if x is None else x}" for d, p, e, x in rows
    ) + "\n"
    result = parse_events(io.StringIO(text))
    assert result.ok
    log = make_log(rows)
    assert len(result.log) == len(log) and result.log.month_range == log.month_range
    assert_same_rows(result.log, log)
# int() reads the first two as 12, and a \d regex took the third for 2020-01

# int() reads the first two as 12, and a \\d regex took the third for 2020-01
NOT_ASCII_MONTHS = ["1_2", "\u0661\u0662", "\uff12\uff10\uff12\uff10-01"]


def parse(text, **kw):
    return parse_events(io.StringIO(text), **kw)


class TestParse:
    def test_minimal_row_without_exit(self):
        result = parse("d1,p1,24,\n")
        assert result.ok
        assert len(result.log) == 1
        log = result.log
        assert (log.developer_ids, log.project_ids) == (("d1",), ("p1",))
        assert (log.start.tolist(), log.stop.tolist()) == ([24], [OPEN])

    def test_three_field_row(self):
        result = parse("d1,p1,24\n")
        assert result.ok and result.log.stop.tolist() == [OPEN]

    def test_exit_before_entry_is_row_error(self):
        result = parse("d1,p1,24,20\n")
        assert not result.ok
        assert result.errors[0].line_no == 1
        assert "precedes" in result.errors[0].message
        assert len(result.log) == 0

    def test_duplicate_triple_dropped_and_reported(self):
        result = parse("d1,p1,3,\nd2,p1,4,\nd1,p1,3,9\n")
        assert result.ok  # duplicates are reports, not errors
        assert len(result.log) == 2
        assert result.n_duplicates == 1
        assert result.duplicates[0].line_no == 3

    def test_unparseable_month_is_row_error_with_line_number(self):
        result = parse("d1,p1,3,\nd2,p2,huh,\n")
        assert [e.line_no for e in result.errors] == [2]
        assert len(result.log) == 1

    def test_header_autodetected(self):
        result = parse("developer_id,project_id,entry_month,exit_month\nd1,p1,3,\n")
        assert result.ok and len(result.log) == 1

    def test_header_after_byte_order_mark(self):
        result = parse("\ufeffdeveloper_id,project_id,entry_month,exit_month\nd1,p1,3,\n")
        assert result.ok and len(result.log) == 1

    def test_three_column_header(self):
        result = parse("developer_id,project_id,entry_month\nd1,p1,3\n")
        assert result.ok and len(result.log) == 1

    def test_malformed_first_row_is_an_error_not_a_header(self):
        result = parse("d1,p1,2020-1x\nd2,p1,2020-02\n")
        assert [e.line_no for e in result.errors] == [1]
        assert len(result.log) == 1

    def test_other_first_row_words_are_not_a_header(self):
        result = parse("dev,proj,entry,exit\nd1,p1,3,\n")
        assert [e.line_no for e in result.errors] == [1]

    @pytest.mark.parametrize("token", ["2020-13", "2020-00"])
    def test_calendar_month_out_of_range_is_row_error(self, token):
        result = parse(f"d1,p1,2020-01,\nd2,p1,{token},\nd3,p1,2020-12,2020-12\n")
        assert [e.line_no for e in result.errors] == [2]
        assert len(result.log) == 2

    @pytest.mark.parametrize("token", NOT_ASCII_MONTHS)
    @pytest.mark.parametrize("column", ["entry", "exit"])
    def test_underscore_and_non_ascii_months_are_row_errors(self, token, column):
        row = f"d2,p1,{token}," if column == "entry" else f"d2,p1,0,{token}"
        result = parse(f"d1,p1,3,\n{row}\nd3,p1,2020-12,\n")
        assert [e.line_no for e in result.errors] == [2]
        assert len(result.log) == 2

    def test_calendar_months_with_epoch(self):
        result = parse("d1,p1,2003-01,2003-04\n", epoch="2003-01")
        assert (result.log.start.tolist(), result.log.stop.tolist()) == ([0], [3])

    def test_bad_field_count(self):
        result = parse("d1,p1\n")
        assert not result.ok

    def test_empty_ids_rejected(self):
        result = parse(",p1,3,\n")
        assert not result.ok

    def test_blank_lines_skipped(self):
        result = parse("\nd1,p1,3,\n\n")
        assert result.ok and len(result.log) == 1


class TestMonthArithmetic:
    def test_index_label_round_trip(self):
        for label in ("2003-01", "1999-12", "2012-06"):
            assert month_label(month_index(label)) == label

    def test_integer_tokens_pass_through(self):
        assert month_index("42") == 42

    def test_epoch_offsets(self):
        assert month_index("2003-02", epoch="2003-01") == 1
        assert month_index("2004-01", epoch="2003-01") == 12

    @pytest.mark.parametrize("token", ["2020-13", "2020-00", "2020-99"])
    def test_calendar_month_out_of_range_rejected(self, token):
        # 2020-13 used to alias 2021-01, and 2020-00 alias 2019-12
        with pytest.raises(ValueError):
            month_index(token)

    @pytest.mark.parametrize("token", [*NOT_ASCII_MONTHS, "2020-1\u0662", "3.0", "0x1f", "", "+"])
    def test_only_ascii_digits_make_a_month(self, token):
        with pytest.raises(ValueError):
            month_index(token)

    def test_signed_integer_tokens(self):
        assert (month_index("-3"), month_index(" +4 ")) == (-3, 4)

    def test_epoch_month_out_of_range_rejected(self):
        with pytest.raises(DomainError):
            month_index("2020-01", epoch="2020-13")

    def test_integer_index_must_fit_the_link_table(self):
        assert month_index(str(2**62 - 1)) == 2**62 - 1
        with pytest.raises(ValueError, match="out of range"):
            month_index(str(2**63 - 1))  # would read as an open link
        result = parse(f"d1,p1,0,{2**63 - 1}\n")
        assert [e.line_no for e in result.errors] == [1]


class TestGapMask:
    def test_reads_month_per_line(self):
        mask = read_gap_mask(io.StringIO("3\n7\n\n12\n"))
        assert mask == frozenset({3, 7, 12})

    def test_calendar_tokens(self):
        mask = read_gap_mask(io.StringIO("2003-02\n"), epoch="2003-01")
        assert mask == frozenset({1})

    def test_bad_token_raises(self):
        with pytest.raises(DomainError):
            read_gap_mask(io.StringIO("nope\n"))

    @pytest.mark.parametrize("token", NOT_ASCII_MONTHS)
    def test_underscore_and_non_ascii_months_raise_with_line_number(self, token):
        with pytest.raises(DomainError, match="line 2"):
            read_gap_mask(io.StringIO(f"3\n{token}\n"))

    def test_non_utf8_line_is_an_unparseable_month(self, tmp_path):
        path = tmp_path / "mask.txt"
        path.write_bytes(b"3\n\xff\n")
        with pytest.raises(DomainError, match="line 2"):
            read_gap_mask(path)


class TestLogModel:
    def test_event_invariant(self):
        with pytest.raises(DomainError):
            make_log([("d", "p", 5, 4)])
        assert make_log([("d", "p", 5, 5)]).stop.tolist() == [5]

    def test_duplicate_triple_rejected_at_construction(self):
        events = (("d", "p", 1), ("d", "p", 1, 4))
        with pytest.raises(DomainError):
            make_log(events)

    def test_month_range_covers_exits(self):
        log = make_log(
            (("d", "p", 2, 9), ("e", "p", 4))
        )
        assert log.month_range == (2, 9)

    def test_rejoin_after_exit_is_allowed(self):
        log = make_log(
            (("d", "p", 1, 3), ("d", "p", 5))
        )
        assert len(log) == 2

    def test_float_and_string_months_rejected_naming_the_row(self):
        with pytest.raises(DomainError, match=r"row 0 \('d', 'p', 3.7, None\)"):
            MembershipEventLog.from_rows([("d", "p", 3.7, None), ("e", "p", "4", 9.9)])
        with pytest.raises(DomainError, match=r"row 1 \('e', 'p', 4, 9.9\)"):
            MembershipEventLog.from_rows([("d", "p", 3, None), ("e", "p", 4, 9.9)])

    @pytest.mark.parametrize("entry, exit_m", [
        ("4", None), (4.0, None), (True, None), (None, None), (np.float64(4), None),
        (4, "9"), (4, 9.0), (4, False), (4, np.float32(9)),
    ])
    def test_non_integer_month_rejected(self, entry, exit_m):
        rows = [("a", "p", 1, None), ("d", "p", entry, exit_m)]
        with pytest.raises(DomainError, match="row 1 .*months must be integers"):
            MembershipEventLog.from_rows(rows)

    def test_numpy_integer_months_accepted(self):
        log = MembershipEventLog.from_rows(
            [("d", "p", np.int64(3), None), ("e", "p", np.int32(4), np.uint8(9))])
        assert log.start.tolist() == [3, 4] and log.stop.tolist() == [OPEN, 9]
        assert log.start.dtype == log.stop.dtype == np.int64
