"""The log's merged rows against the set-based implementation they replaced.

The oracles below are the former per-event code of `snapshots` and
`estimators`: they regroup the rows a log is built from (as `event_rows.Row`s)
into dicts and frozensets of string pairs, never reading the log. Every
reader of the log must agree with them, including on logs where one
(developer, project) pair has overlapping, touching or zero-length records.
"""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from event_rows import Row, active_pairs, make_log
from forgesim import (
    DegenerateDataError,
    DomainError,
    SizeDistribution,
    classify_collaborative,
    collaborative_entry_counts,
    entry_exit_counts,
    interarrival_fit,
    month_sweep,
    snapshot_at,
)
from forgesim.estimators import DAYS_PER_MONTH, ProjectLabel, fit_interarrival_waits
from forgesim.events import OPEN
from snapshot_loop_oracle import (
    DegreeDistribution,
    SnapshotSummary,
    developer_degree_distribution,
    project_size_distribution,
    summarize,
)

# ---------------------------------------------------------------------------
# set-based oracles


def active_at(ev, month):
    return ev.entry_month <= month and (ev.exit_month is None or ev.exit_month > month)


def group_by(rows, key):
    out = {}
    for ev in rows:
        out.setdefault(key(ev), []).append(ev)
    return out


def by_project(rows):
    return group_by(rows, lambda ev: ev.project_id)


def by_developer(rows):
    return group_by(rows, lambda ev: ev.developer_id)


def first_months(grouped):
    return {k: min(ev.entry_month for ev in evs) for k, evs in grouped.items()}


def oracle_month_range(rows):
    lo = min(ev.entry_month for ev in rows)
    hi = max(ev.entry_month if ev.exit_month is None else ev.exit_month for ev in rows)
    return lo, hi


def oracle_links(rows, month):
    lo, hi = oracle_month_range(rows)
    if not lo <= month <= hi:
        raise DomainError(f"month {month} outside observed range [{lo}, {hi}]")
    return frozenset(
        (ev.developer_id, ev.project_id) for ev in rows if active_at(ev, month)
    )


def oracle_summarize(month, links):
    return SnapshotSummary(
        month=month,
        n_developers=len({d for d, _ in links}),
        n_projects=len({p for _, p in links}),
        n_links=len(links),
    )


def oracle_size_distribution(links):
    return SizeDistribution.from_sizes(list(Counter(p for _, p in links).values()))


def oracle_degree_distribution(links):
    return DegreeDistribution.from_degrees(list(Counter(d for d, _ in links).values()))


def final_exit(events):
    latest = None
    for ev in events:
        if ev.exit_month is None:
            return None
        latest = ev.exit_month if latest is None else max(latest, ev.exit_month)
    return latest


def oracle_entry_exit(rows, months=None):
    lo, hi = months if months is not None else oracle_month_range(rows)
    idx = np.arange(lo, hi + 1)
    out = {}
    for name, grouped in (("projects", by_project(rows)), ("developers", by_developer(rows))):
        new = np.zeros(idx.size, dtype=np.int64)
        removed = np.zeros(idx.size, dtype=np.int64)
        for first in first_months(grouped).values():
            if lo <= first <= hi:
                new[first - lo] += 1
        for events in grouped.values():
            final = final_exit(events)
            if final is not None and lo <= final <= hi:
                removed[final - lo] += 1
        out[f"new_{name}"], out[f"removed_{name}"] = new, removed
    return idx, out


def oracle_classify(rows, observation_end, censor_horizon_months=None):
    labels = {}
    horizon = censor_horizon_months if censor_horizon_months is not None else 0.0
    for project, events in by_project(rows).items():
        first = min(ev.entry_month for ev in events)
        if first > observation_end:
            continue
        collaborative = False
        change_months = sorted(
            {ev.entry_month for ev in events}
            | {ev.exit_month for ev in events if ev.exit_month is not None}
        )
        for m in change_months:
            if m > observation_end:
                break
            if len({ev.developer_id for ev in events if active_at(ev, m)}) >= 2:
                collaborative = True
                break
        labels[project] = ProjectLabel(
            project_id=project,
            collaborative=collaborative,
            first_month=first,
            censored=first > observation_end - horizon,
        )
    return labels


def oracle_collaborative_counts(rows, observation_end, months=None):
    labels = oracle_classify(rows, observation_end)
    lo, hi = months if months is not None else oracle_month_range(rows)
    hi = min(hi, observation_end)
    idx = np.arange(lo, hi + 1)
    new_p = np.zeros(idx.size, dtype=np.int64)
    new_d = np.zeros(idx.size, dtype=np.int64)
    project_first = first_months(by_project(rows))
    developer_first = first_months(by_developer(rows))
    for project, first in project_first.items():
        label = labels.get(project)
        if label is not None and label.collaborative and lo <= first <= hi:
            new_p[first - lo] += 1
    founders_non_collab = set()
    for project, events in by_project(rows).items():
        label = labels.get(project)
        if label is None or label.collaborative:
            continue
        for ev in events:
            first = label.first_month
            if ev.entry_month == first and developer_first[ev.developer_id] == first:
                founders_non_collab.add(ev.developer_id)
    for developer, first in developer_first.items():
        if lo <= first <= hi and developer not in founders_non_collab:
            new_d[first - lo] += 1
    return idx, new_p, new_d


def oracle_interarrival(rows, cohort_months, min_waits=30):
    cohort = set(cohort_months)
    waits = []
    censored = 0
    for events in by_project(rows).values():
        first_join = {}
        for ev in events:
            prev = first_join.get(ev.developer_id)
            if prev is None or ev.entry_month < prev:
                first_join[ev.developer_id] = ev.entry_month
        joins = sorted(first_join.values())
        if joins[0] not in cohort:
            continue
        if len(joins) >= 2:
            waits.append((joins[1] - joins[0]) * DAYS_PER_MONTH)
        else:
            censored += 1
    return fit_interarrival_waits(waits, n_censored=censored, min_waits=min_waits)


# ---------------------------------------------------------------------------
# comparison of every reader against its oracle


def same_histogram(a, b):
    assert np.array_equal(a.values, b.values) and a.values.dtype == b.values.dtype
    assert np.array_equal(a.counts, b.counts) and a.counts.dtype == b.counts.dtype


def assert_matches_oracles(rows):
    """Every reader of the log of rows (Rows) against its oracle on the rows."""
    log = make_log(rows)
    lo, hi = oracle_month_range(rows)
    assert log.month_range == (lo, hi) and len(log) == len(rows)
    for month in range(lo, hi + 1):
        snap = snapshot_at(log, month)
        links = oracle_links(rows, month)
        assert active_pairs(snap) == links
        assert summarize(snap) == oracle_summarize(month, links)
        same_histogram(project_size_distribution(snap), oracle_size_distribution(links))
        same_histogram(developer_degree_distribution(snap), oracle_degree_distribution(links))

    # the sweep takes any range; outside the observed one, links are counted directly
    sweep = month_sweep(log, lo - 2, hi + 3)
    for i, month in enumerate(sweep.months.tolist()):
        links = frozenset((ev.developer_id, ev.project_id) for ev in rows if active_at(ev, month))
        got = SnapshotSummary(month, int(sweep.n_developers[i]), int(sweep.n_projects[i]),
                              int(sweep.n_links[i]))
        assert got == oracle_summarize(month, links)
        same_histogram(SizeDistribution(sweep.sizes, sweep.size_counts[i]),
                       oracle_size_distribution(links))
        same_histogram(DegreeDistribution(sweep.degrees, sweep.degree_counts[i]),
                       oracle_degree_distribution(links))

    for months in (None, (lo, hi), (lo - 2, hi + 3), (lo + 1, lo + 1)):
        counts = entry_exit_counts(log, months)
        idx, expected = oracle_entry_exit(rows, months)
        assert np.array_equal(counts.months, idx)
        for name, values in expected.items():
            assert np.array_equal(getattr(counts, name), values), name

    for end in (lo - 1, lo, (lo + hi) // 2, hi, hi + 5):
        for horizon in (None, 2.5):
            labels = classify_collaborative(log, end, censor_horizon_months=horizon)
            assert labels == oracle_classify(rows, end, horizon)
            assert list(labels) == sorted(labels)
        got = collaborative_entry_counts(log, end)
        want = oracle_collaborative_counts(rows, end)
        for a, b in zip(got, want):
            assert np.array_equal(a, b)

    for cohort in ({lo}, set(range(lo, hi + 1)), set()):
        try:
            want = oracle_interarrival(rows, cohort, min_waits=1)
        except DegenerateDataError as exc:
            with pytest.raises(DegenerateDataError, match=str(exc)):
                interarrival_fit(log, cohort, min_waits=1)
            continue
        got = interarrival_fit(log, cohort, min_waits=1)
        assert (got.n_waits, got.n_censored) == (want.n_waits, want.n_censored)
        assert got.mean_days == pytest.approx(want.mean_days, rel=1e-12)
        assert got.prob_before_mean == want.prob_before_mean


@st.composite
def pair_heavy_rows(draw):
    """Few developers and projects over a short horizon, so one pair often
    has overlapping, touching (exit == next entry) and zero-length records."""
    keys = draw(
        st.lists(
            st.tuples(st.integers(0, 3), st.integers(0, 2), st.integers(0, 8)),
            min_size=1, max_size=25, unique=True,
        )
    )
    rows = []
    for d, p, entry in keys:
        exit_m = draw(st.one_of(st.none(), st.integers(entry, entry + 4)))
        rows.append(Row(f"d{d}", f"p{p}", entry, exit_m))
    return rows


@given(pair_heavy_rows())
@settings(max_examples=300, deadline=None)
def test_every_reader_matches_its_oracle(rows):
    assert_matches_oracles(rows)


def test_every_reader_matches_its_oracle_on_a_larger_log():
    rng = np.random.default_rng(7)
    rows, seen = [], set()
    while len(rows) < 1500:
        d, p, entry = f"d{rng.integers(150)}", f"p{rng.integers(90)}", int(rng.integers(0, 40))
        if (d, p, entry) in seen:
            continue
        seen.add((d, p, entry))
        exit_m = entry + int(rng.integers(0, 10)) if rng.random() < 0.4 else None
        rows.append(Row(d, p, entry, exit_m))
    assert_matches_oracles(rows)


# ---------------------------------------------------------------------------
# the merged rows themselves


def test_touching_records_of_one_pair_count_once_at_the_seam():
    log = make_log([("d1", "p1", 0, 3), ("d1", "p1", 3, 6), ("d2", "p2", 0)])
    assert log.start.size == 2 and len(log) == 3
    assert log.start.tolist() == [0, 0] and log.stop.tolist() == [6, OPEN]
    snap = snapshot_at(log, 3)
    assert active_pairs(snap) == {("d1", "p1"), ("d2", "p2")}
    assert summarize(snap).n_links == 2
    assert project_size_distribution(snap).as_dict() == {1: 2.0}
    counts = entry_exit_counts(log, (0, 6))
    assert counts.removed_projects.tolist() == [0, 0, 0, 0, 0, 0, 1]
    assert counts.new_developers.tolist() == [2, 0, 0, 0, 0, 0, 0]


def test_overlapping_records_merge_into_one_interval():
    log = make_log([("d1", "p1", 0, 4), ("d1", "p1", 2, 9), ("d1", "p1", 5, 7), ("d1", "p1", 10)])
    assert log.start.tolist() == [0, 10] and log.stop.tolist() == [9, OPEN]
    assert [len(snapshot_at(log, m).rows) for m in range(11)] == [1] * 9 + [0, 1]


def test_month_range_counts_an_exit_that_merging_hides():
    # [0, 10) and [5, open) merge into [0, open), whose rows alone would give (0, 0)
    log = make_log([("d1", "p1", 0, 10), ("d1", "p1", 5)])
    assert log.start.tolist() == [0] and log.stop.tolist() == [OPEN]
    assert log.month_range == (0, 10) and len(log) == 2


def test_zero_length_record_sets_first_months_but_is_never_active():
    log = make_log([("d1", "p1", 2, 2), ("d2", "p1", 4, 9), ("d3", "p2", 0, 10)])
    assert all(("d1", "p1") not in active_pairs(snapshot_at(log, m)) for m in range(11))
    assert dict(zip(log.project_ids, log.project_first.tolist())) == {"p1": 2, "p2": 0}
    assert dict(zip(log.developer_ids, log.developer_first.tolist())) == {
        "d1": 2, "d2": 4, "d3": 0,
    }
    counts = entry_exit_counts(log)
    assert counts.new_projects[2] == 1 and counts.new_developers[2] == 1
    assert classify_collaborative(log, 10)["p1"].first_month == 2


def test_ids_are_sorted_and_codes_index_them():
    log = make_log([("zed", "b", 0), ("amy", "a", 1), ("bob", "b", 1)])
    assert log.developer_ids == ("amy", "bob", "zed")
    assert log.project_ids == ("a", "b")
    assert {
        (log.developer_ids[d], log.project_ids[p])
        for d, p in zip(log.developer.tolist(), log.project.tolist())
    } == {("zed", "b"), ("amy", "a"), ("bob", "b")}


def test_empty_log_has_no_rows():
    log = make_log([])
    assert log.start.size == 0 and log.developer_ids == () and log.project_ids == ()
    assert len(log) == 0 and log.active(0).size == 0
    counts = entry_exit_counts(log, (0, 2))
    assert counts.new_projects.tolist() == [0, 0, 0]
    assert classify_collaborative(log, 5) == {}
    with pytest.raises(DegenerateDataError, match="got 0"):
        interarrival_fit(log, {0})


def test_snapshots_are_views_of_their_log():
    log = make_log([("d1", "p1", 0), ("d2", "p1", 1)])
    assert snapshot_at(log, 0).log is snapshot_at(log, 1).log is log
