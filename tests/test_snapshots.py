"""Tests of snapshots: active rows, summaries, size and degree distributions, entry/exit."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from event_rows import Row, active_pairs, make_log
from forgesim import (
    DomainError,
    collaborative_entry_counts,
    developer_degree_distribution,
    entry_exit_counts,
    month_sweep,
    project_size_distribution,
    snapshot_at,
    summarize,
)
from snapshot_loop_oracle import snapshot_loop


def ten_dev_eight_project_log():
    """Bipartite fixture in the shape of the worked example: 10 developers
    on 8 projects, some shared."""
    rows = [
        ("D1", "P1", 0), ("D2", "P1", 0), ("D2", "P2", 0), ("D3", "P2", 0),
        ("D4", "P3", 0), ("D5", "P3", 0), ("D5", "P4", 0), ("D6", "P4", 0),
        ("D7", "P5", 0), ("D8", "P6", 0), ("D8", "P5", 0), ("D9", "P7", 0),
        ("D10", "P8", 0), ("D1", "P8", 0),
    ]
    return make_log(rows)


def random_rows(rng, n_events=1000, n_devs=120, n_projects=80, horizon=40):
    rows = []
    seen = set()
    while len(rows) < n_events:
        d = f"d{rng.integers(n_devs)}"
        p = f"p{rng.integers(n_projects)}"
        entry = int(rng.integers(0, horizon))
        if (d, p, entry) in seen:
            continue
        seen.add((d, p, entry))
        exit_m = None
        if rng.random() < 0.3:
            exit_m = entry + int(rng.integers(1, 10))
        rows.append(Row(d, p, entry, exit_m))
    return rows


class TestSnapshotActivity:
    def test_entry_month_inclusive(self):
        log = make_log([("d1", "p1", 5, 8)])
        assert ("d1", "p1") in active_pairs(snapshot_at(log, 5))

    def test_exit_month_exclusive(self):
        log = make_log([("d1", "p1", 5, 8)])
        assert active_pairs(snapshot_at(log, 7))
        assert not active_pairs(snapshot_at(log, 8))

    def test_entry_not_yet_reached(self):
        log = make_log([("d1", "p1", 5), ("d2", "p1", 7)])
        dist = project_size_distribution(snapshot_at(log, 6))
        assert dist.as_dict() == {1: 1.0}

    def test_month_out_of_range(self):
        log = make_log([("d1", "p1", 5, 8)])
        with pytest.raises(DomainError):
            snapshot_at(log, 4)

    @given(st.integers(min_value=0, max_value=11))
    @settings(max_examples=12, deadline=None)
    def test_adding_events_never_removes_active_pairs(self, month):
        base = [("d1", "p1", 0, 12), ("d2", "p2", 3, 9), ("d3", "p1", 5)]
        extra = base + [("d9", "p9", 2, 7)]
        before = active_pairs(snapshot_at(make_log(base), month))
        after = active_pairs(snapshot_at(make_log(extra), month))
        assert before <= after


class TestSummarize:
    def test_ten_developers_eight_projects(self):
        snap = snapshot_at(ten_dev_eight_project_log(), 0)
        summary = summarize(snap)
        assert summary.n_developers == 10
        assert summary.n_projects == 8
        assert summary.n_links == 14

    def test_empty_snapshot_all_zero(self):
        # a zero-length record puts month 0 in range but is never active
        summary = summarize(snapshot_at(make_log([("d1", "p1", 0, 0)]), 0))
        assert (summary.n_developers, summary.n_projects, summary.n_links) == (0, 0, 0)

    def test_counts_match_independent_recount(self):
        rows = random_rows(np.random.default_rng(0))
        log = make_log(rows)
        for month in (0, 10, 25, 39):
            snap = snapshot_at(log, month)
            # oracle: recount from scratch with plain set comprehensions over
            # the raw event list
            active = {
                (e.developer_id, e.project_id)
                for e in rows
                if e.entry_month <= month and (e.exit_month is None or e.exit_month > month)
            }
            s = summarize(snap)
            assert s.n_links == len(active)
            assert s.n_developers == len({d for d, _ in active})
            assert s.n_projects == len({p for _, p in active})


class TestDistributions:
    def test_small_size_example(self):
        log = make_log(
            [("a", "p1", 0), ("b", "p2", 0), ("c", "p3", 0), ("d", "p3", 0)]
        )
        dist = project_size_distribution(snapshot_at(log, 0))
        assert dist.as_dict() == {1: 2.0, 2: 1.0}
        assert dist.total_developers == 4

    def test_small_degree_example(self):
        log = make_log([("d1", "p1", 0), ("d1", "p2", 0), ("d2", "p1", 0)])
        dist = developer_degree_distribution(snapshot_at(log, 0))
        assert dist.as_dict() == {1: 1.0, 2: 1.0}

    def test_mass_identities_and_recount_on_random_log(self):
        log = make_log(random_rows(np.random.default_rng(1)))
        for month in (5, 20, 35):
            snap = snapshot_at(log, month)
            summary = summarize(snap)
            sdist = project_size_distribution(snap)
            ddist = developer_degree_distribution(snap)
            assert sdist.total_developers == summary.n_links
            assert ddist.n_links == summary.n_links
            assert sdist.total_projects == summary.n_projects
            assert ddist.n_developers == summary.n_developers
            # recount oracle for one project picked from the snapshot
            pairs = active_pairs(snap)
            some_project = next(iter({p for _, p in pairs}))
            exact = len({d for d, p in pairs if p == some_project})
            assert exact >= 1

    def test_fixture_distributions_consistent_with_links(self):
        snap = snapshot_at(ten_dev_eight_project_log(), 0)
        sdist = project_size_distribution(snap)
        assert sdist.as_dict() == {1: 2.0, 2: 6.0}  # P6, P7 singles; rest pairs
        ddist = developer_degree_distribution(snap)
        assert ddist.as_dict() == {1: 6.0, 2: 4.0}

    def test_matches_simulator_internal_tally(self):
        # snapshot built from a simulated run must reproduce the simulator's
        # own size histogram exactly
        from forgesim import SimParams, run

        trace = run(SimParams(p0=2.0 / 3.0, n_steps=10_000, seed=3, full_history=True))
        sizes = trace.final.sizes
        rows = []
        dev = 0
        for project, size in enumerate(sizes):
            for _ in range(size):
                rows.append((f"d{dev}", f"p{project}", 0))
                dev += 1
        dist = project_size_distribution(snapshot_at(make_log(rows), 0))
        assert dist.as_dict() == trace.final.distribution.as_dict()


def sweep_tables(sweep):
    """The sweep's months as the oracle loop's summary, size and degree rows."""

    def cells(values, table):
        return [(int(sweep.months[t]), int(values[j]), int(table[t, j]))
                for t, j in zip(*np.nonzero(table))]

    summary = [(m, d, p, n, 0) for m, d, p, n in zip(
        sweep.months.tolist(), sweep.n_developers.tolist(), sweep.n_projects.tolist(),
        sweep.n_links.tolist())]
    return summary, cells(sweep.sizes, sweep.size_counts), cells(sweep.degrees, sweep.degree_counts)


# records of few pairs over few months, so that a pair's records often
# overlap or touch and merge; a stay of 0 is a zero-length record and None
# a record still open at the end
sweep_records = st.lists(
    st.tuples(st.sampled_from(["d0", "d1", "d2", "d3"]), st.sampled_from(["p0", "p1", "p2"]),
              st.integers(0, 12), st.one_of(st.none(), st.integers(0, 5))),
    min_size=1, max_size=25, unique_by=lambda r: r[:3],
)


# merged overlapping and touching records of one pair, zero-length records,
# records still open at the end, and months 5, 6 and 8 with no active link
GAPPED_RECORDS = [("d0", "p0", 0, 3), ("d0", "p0", 2, 2), ("d0", "p0", 4, 1), ("d0", "p0", 7, 1),
                  ("d1", "p0", 8, 0), ("d1", "p1", 9, None), ("d2", "p1", 4, 0),
                  ("d3", "p2", 12, None)]


def sweep_log(records):
    return make_log([(d, p, e, None if stay is None else e + stay) for d, p, e, stay in records])


class TestMonthSweep:
    @given(sweep_records, st.integers(0, 12), st.integers(0, 12))
    @example(GAPPED_RECORDS, 0, 0)
    @settings(max_examples=300, deadline=None)
    def test_matches_the_snapshot_loop(self, records, skip_first, skip_last):
        """Over the log's month range less skip_first months at its start and
        skip_last at its end, where the range allows."""
        log = sweep_log(records)
        first, last = log.month_range
        lo = min(first + skip_first, last)
        hi = max(last - skip_last, lo)
        sweep = month_sweep(log, lo, hi)
        summary_rows, size_rows, degree_rows, _ = snapshot_loop(log, lo, hi)
        assert sweep.months.tolist() == list(range(lo, hi + 1))
        assert sweep_tables(sweep) == (summary_rows, size_rows, degree_rows)
        for values, table in ((sweep.sizes, sweep.size_counts), (sweep.degrees, sweep.degree_counts)):
            assert (values > 0).all() and (np.diff(values) > 0).all()
            assert table.shape == (hi - lo + 1, values.size) and table.any(axis=0).all()

    def test_the_gapped_records_have_months_without_links(self):
        sweep = month_sweep(sweep_log(GAPPED_RECORDS), 0, 12)
        assert sweep.n_links.tolist() == [1, 1, 1, 1, 1, 0, 0, 1, 0, 1, 1, 1, 2]

    def test_bounds_follow_the_month_rule(self):
        log = make_log([("d1", "p1", 2, 5)])
        with pytest.raises(DomainError, match="^empty month range$"):
            month_sweep(log, 4, 3)
        with pytest.raises(DomainError):
            month_sweep(log, 2.0, 4)

    def test_arrays_are_read_only(self):
        sweep = month_sweep(make_log([("d1", "p1", 2, 5), ("d2", "p1", 3)]), 2, 6)
        for name in ("months", "sizes", "size_counts", "degrees", "degree_counts"):
            with pytest.raises(ValueError):
                getattr(sweep, name)[0] = 0

    def test_an_empty_log_has_no_links(self):
        sweep = month_sweep(make_log([]), 0, 2)
        assert sweep.n_links.tolist() == [0, 0, 0]
        assert sweep.size_counts.shape == sweep.degree_counts.shape == (3, 0)


class TestEntryExit:
    def test_single_event_counts_new_project_and_developer(self):
        counts = entry_exit_counts(make_log([("d1", "p1", 3)]), (3, 3))
        assert counts.new_projects[0] == 1
        assert counts.new_developers[0] == 1
        assert counts.removed_projects[0] == 0

    def test_removal_at_first_inactive_month(self):
        counts = entry_exit_counts(make_log([("d1", "p1", 3, 6)]), (3, 6))
        assert counts.removed_projects.tolist() == [0, 0, 0, 1]
        assert counts.removed_developers.tolist() == [0, 0, 0, 1]

    def test_open_ended_entity_never_removed(self):
        counts = entry_exit_counts(
            make_log([("d1", "p1", 3, 6), ("d1", "p2", 4)]), (3, 10)
        )
        assert counts.removed_projects.sum() == 1  # p1 only
        assert counts.removed_developers.sum() == 0  # d1 still active

    def test_constructed_birth_schedule(self):
        # oracle fixture: births at known months
        schedule = {0: 3, 2: 1, 5: 2}
        rows = []
        k = 0
        for month, births in schedule.items():
            for _ in range(births):
                rows.append((f"dev{k}", f"proj{k}", month))
                k += 1
        counts = entry_exit_counts(make_log(rows), (0, 5))
        for i, month in enumerate(counts.months):
            assert counts.new_projects[i] == schedule.get(int(month), 0)
            assert counts.new_developers[i] == schedule.get(int(month), 0)

    def test_empty_range_rejected(self):
        with pytest.raises(DomainError):
            entry_exit_counts(make_log([("d", "p", 1)]), (5, 4))

    @pytest.mark.parametrize("read", [
        lambda log: entry_exit_counts(log, (4, 2)),
        lambda log: collaborative_entry_counts(log, 5, months=(4, 2)),
    ], ids=["entry_exit_counts", "collaborative_entry_counts"])
    def test_inverted_range_rejected_by_both_readers(self, read):
        log = make_log([("d1", "p1", 0, 6), ("d2", "p1", 2), ("d3", "p2", 4, 30)])
        with pytest.raises(DomainError, match="^empty month range$"):
            read(log)

    def test_range_past_observation_end_is_clamped_not_rejected(self):
        log = make_log([("d1", "p1", 0, 6), ("d2", "p1", 2), ("d3", "p2", 4, 30)])
        months, new_p, new_d = collaborative_entry_counts(log, 3, months=(4, 6))
        assert months.size == new_p.size == new_d.size == 0
