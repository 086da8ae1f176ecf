"""Event rows for tests: logs built from row tuples, and rows read back out.

`Row` carries the field names of the per-event objects the log once held, so
set-based oracles written against those objects read a columnar log unchanged.
"""

from collections import namedtuple

from forgesim import MembershipEventLog
from forgesim.events import OPEN

Row = namedtuple("Row", "developer_id project_id entry_month exit_month", defaults=(None,))


def make_log(rows):
    """The log of (developer, project, entry[, exit]) tuples; a missing exit is None."""
    return MembershipEventLog.from_rows([Row(*r) for r in rows])


def log_rows(log):
    """The log's events as Rows in log order, with exit_month None for no exit."""
    developer_ids, project_ids = log.table.developer_ids, log.table.project_ids
    return [
        Row(developer_ids[d], project_ids[p], e, None if x == OPEN else x)
        for d, p, e, x in zip(
            log.developer.tolist(), log.project.tolist(),
            log.entry_month.tolist(), log.exit_month.tolist(),
        )
    ]
