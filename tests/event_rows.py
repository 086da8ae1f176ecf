"""Event rows for tests: logs built from row tuples, logs compared row by row,
and the active pairs of a snapshot.

`Row` names the fields of one event, so set-based oracles read the rows a
log is built from by name.
"""

from collections import namedtuple

import numpy as np

from forgesim import MembershipEventLog

Row = namedtuple("Row", "developer_id project_id entry_month exit_month", defaults=(None,))


def make_log(rows):
    """The log of (developer, project, entry[, exit]) tuples; a missing exit is None."""
    return MembershipEventLog.from_rows([Row(*r) for r in rows])


def active_pairs(snap):
    """The (developer, project) id pairs of the snapshot's rows, decoded through the log."""
    log = snap.log
    codes = zip(log.developer[snap.rows].tolist(), log.project[snap.rows].tolist())
    return {(log.developer_ids[d], log.project_ids[p]) for d, p in codes}


def assert_same_rows(got, want):
    """got has want's ids and merged-row arrays, value for value and dtype for dtype."""
    assert got.developer_ids == want.developer_ids
    assert got.project_ids == want.project_ids
    for name in ("developer", "project", "start", "stop", "developer_first", "project_first"):
        a, b = getattr(got, name), getattr(want, name)
        assert np.array_equal(a, b) and a.dtype == b.dtype, name
