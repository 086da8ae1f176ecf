"""The integer rule at the library's count, month and window inputs.

Each of these inputs takes Python and numpy integers only. A float, a bool,
or an integer below the input's minimum raises a DomainError that names the
input, before any work starts; the minimum's message is always
"{name} must be >= {minimum}".
"""

import numpy as np
import pytest

from event_rows import make_log
from forgesim import (
    DomainError,
    SimParams,
    SizeDistribution,
    bootstrap_pvalue,
    classify_collaborative,
    collaborative_entry_counts,
    entry_exit_counts,
    fit_exponential_growth,
    fit_interarrival_waits,
    interarrival_fit,
    iterate_master,
    p0_series,
    predicted_collaborative_entries,
    relative_entry_rates,
    replicate,
    sample,
    size_dependent_growth,
    snapshot_at,
    summarize,
)
from forgesim.yule import sample_counts

DIST = SizeDistribution.from_sizes(sample(3.0, 200, np.random.default_rng(5)))
PARAMS = SimParams(p0=0.5, n_steps=20, seed=1)
LOG = make_log([("d1", "p1", 0, 6), ("d2", "p1", 2), ("d3", "p2", 4, 30), ("d4", "p3", 1)])
SUMMARIES = [summarize(snapshot_at(LOG, m)) for m in range(6)]
WAITS = np.arange(1.0, 31.0)


def rng():
    return np.random.default_rng(0)


@pytest.mark.parametrize("call, name", [
    (lambda: sample(3.0, 2.5, rng()), "n"),
    (lambda: sample(3.0, 10, rng(), x_cache=10.7), "x_cache"),
    (lambda: sample_counts(3.0, 10, rng(), x_cache=10.7), "x_cache"),
    (lambda: bootstrap_pvalue(DIST, n_bootstrap=100.5), "n_bootstrap"),
    (lambda: bootstrap_pvalue(DIST, n_bootstrap=100, seed=1.5), "seed"),
    (lambda: bootstrap_pvalue(DIST, n_bootstrap=100, seed=True), "seed"),
    (lambda: bootstrap_pvalue(DIST, n_bootstrap=100, jobs=1.5), "jobs"),
    (lambda: replicate(PARAMS, 2.5), "n_replicas"),
    (lambda: replicate(PARAMS, 2, jobs=1.5), "jobs"),
    (lambda: SimParams(p0=0.5, n_steps=20, seed=1, checkpoints=()), "checkpoints"),
    (lambda: fit_interarrival_waits(WAITS, n_censored=2.5), "n_censored"),
    (lambda: fit_interarrival_waits(WAITS, n_censored=True), "n_censored"),
    (lambda: fit_interarrival_waits(WAITS, min_waits=29.5), "min_waits"),
    (lambda: interarrival_fit(LOG, [0], min_waits=1.5), "min_waits"),
    (lambda: size_dependent_growth(LOG, 2, min_bin_count=1.5), "min_bin_count"),
    (lambda: size_dependent_growth(LOG, 2, min_bin_count=True), "min_bin_count"),
], ids=[
    "sample-n=2.5", "sample-x_cache=10.7", "sample_counts-x_cache=10.7", "n_bootstrap=100.5",
    "bootstrap-seed=1.5", "bootstrap-seed=True", "bootstrap-jobs=1.5", "n_replicas=2.5",
    "replicate-jobs=1.5", "checkpoints=()",
    "n_censored=2.5", "n_censored=True", "waits-min_waits=29.5", "interarrival-min_waits=1.5",
    "min_bin_count=1.5", "min_bin_count=True",
])
def test_count_inputs_follow_the_integer_rule(call, name):
    with pytest.raises(DomainError, match=rf"^{name} must"):
        call()


# steady_state's N and x_max are pinned in tests/test_master.py
@pytest.mark.parametrize("call, name, minimum", [
    (lambda: sample(3.0, 0, rng()), "n", 1),
    (lambda: sample(3.0, 10, rng(), x_cache=0), "x_cache", 1),
    (lambda: sample_counts(3.0, 0, rng()), "n", 1),
    (lambda: sample_counts(3.0, 10, rng(), x_cache=0), "x_cache", 1),
    (lambda: bootstrap_pvalue(DIST, n_bootstrap=99), "n_bootstrap", 100),
    (lambda: bootstrap_pvalue(DIST, n_bootstrap=100, jobs=0), "jobs", 1),
    (lambda: SimParams(p0=0.5, n_steps=0, seed=1), "n_steps", 1),
    (lambda: replicate(PARAMS, 0), "n_replicas", 1),
    (lambda: replicate(PARAMS, 2, jobs=0), "jobs", 1),
    (lambda: iterate_master(0.5, 0), "n_max_steps", 1),
    (lambda: iterate_master(0.5, 10, x_trunc=1), "x_trunc", 2),
    (lambda: fit_interarrival_waits(WAITS, n_censored=-4), "n_censored", 0),
    (lambda: fit_interarrival_waits([], min_waits=0), "min_waits", 1),
    (lambda: interarrival_fit(LOG, [0], min_waits=0), "min_waits", 1),
    (lambda: size_dependent_growth(LOG, window_months=0), "window_months", 1),
    (lambda: size_dependent_growth(LOG, 2, min_bin_count=0), "min_bin_count", 1),
], ids=[
    "sample-n=0", "sample-x_cache=0", "sample_counts-n=0", "sample_counts-x_cache=0",
    "n_bootstrap=99", "bootstrap-jobs=0", "n_steps=0", "n_replicas=0", "replicate-jobs=0",
    "n_max_steps=0", "x_trunc=1", "n_censored=-4", "waits-min_waits=0",
    "interarrival-min_waits=0", "window_months=0", "min_bin_count=0",
])
def test_counts_below_their_minimum_name_it(call, name, minimum):
    with pytest.raises(DomainError, match=rf"^{name} must be >= {minimum}$"):
        call()


@pytest.mark.parametrize("call, name", [
    (lambda: snapshot_at(LOG, 2.5), "month"),
    (lambda: snapshot_at(LOG, True), "month"),
    (lambda: classify_collaborative(LOG, 2.5), "observation_end"),
    (lambda: collaborative_entry_counts(LOG, 2.5), "observation_end"),
    (lambda: collaborative_entry_counts(LOG, 5, months=(0.5, 3)), r"months\[0\]"),
    (lambda: entry_exit_counts(LOG, (0.5, 3)), r"months\[0\]"),
    (lambda: entry_exit_counts(LOG, (0, 3.0)), r"months\[1\]"),
    (lambda: size_dependent_growth(LOG, window_months=2.5), "window_months"),
], ids=[
    "snapshot-month=2.5", "snapshot-month=True", "classify-observation_end=2.5",
    "counts-observation_end=2.5", "counts-months=(0.5,3)", "entry_exit-months=(0.5,3)",
    "entry_exit-months=(0,3.0)", "window_months=2.5",
])
def test_months_and_windows_follow_the_integer_rule(call, name):
    with pytest.raises(DomainError, match=rf"^{name} must"):
        call()


@pytest.mark.parametrize("call, name", [
    (lambda: interarrival_fit(LOG, [True]), "cohort_months"),
    (lambda: interarrival_fit(LOG, [1.0]), "cohort_months"),
    (lambda: interarrival_fit(LOG, [1.5]), "cohort_months"),
    (lambda: p0_series([1, 2, 3], [1, 1, 1], [2, 2, 2], mask={True}), "mask"),
    (lambda: p0_series([1, 2, 3], [1, 1, 1], [2, 2, 2], mask={1.5}), "mask"),
    (lambda: fit_exponential_growth([1, 2, 3, 4], [1, 2, 4, 8], mask={True}), "mask"),
    (lambda: relative_entry_rates(SUMMARIES, mask={True}), "mask"),
    (lambda: size_dependent_growth(LOG, window_months=2, mask={1.5}), "mask"),
    (lambda: predicted_collaborative_entries({}, {}, mask={True}), "mask"),
    (lambda: p0_series([1.5, 2.7, True], [1, 1, 1], [2, 2, 2]), "months"),
    (lambda: fit_exponential_growth([0.5, 1.5, 2.5], [1, 2, 4]), "months"),
    (lambda: fit_exponential_growth([True, 2, 3], [1, 2, 4]), "months"),
], ids=[
    "cohort=[True]", "cohort=[1.0]", "cohort=[1.5]", "p0-mask={True}", "p0-mask={1.5}",
    "growth-mask={True}", "entry_rates-mask={True}", "size_growth-mask={1.5}",
    "predicted-mask={True}", "p0-months=[1.5,2.7,True]", "growth-months=[0.5,1.5,2.5]",
    "growth-months=[True,2,3]",
])
def test_month_sets_follow_the_integer_rule(call, name):
    with pytest.raises(DomainError, match=rf"^every month in {name} must be an integer"):
        call()


def test_numpy_integer_months_and_windows_are_accepted():
    snap = snapshot_at(LOG, np.int64(2))
    assert (type(snap.month), snap.month) == (int, 2)
    counts = entry_exit_counts(LOG, (np.int32(0), np.int64(3)))
    assert counts.months.tolist() == [0, 1, 2, 3]
    assert entry_exit_counts(LOG, (0, 3)).new_projects.tolist() == counts.new_projects.tolist()
    got = collaborative_entry_counts(LOG, np.int64(5), months=(np.int64(0), np.int64(5)))
    want = collaborative_entry_counts(LOG, 5, months=(0, 5))
    assert all(np.array_equal(a, b) for a, b in zip(got, want))
    assert classify_collaborative(LOG, np.int64(5)) == classify_collaborative(LOG, 5)
    want = p0_series([1, 2, 3], [1, 1, 1], [2, 2, 4], mask={2})
    for mask in ({np.int64(2)}, np.array([2, 2])):
        got = p0_series([1, 2, 3], [1, 1, 1], [2, 2, 4], mask=mask)
        assert got.months.tolist() == want.months.tolist() == [1, 3]
    for months in (np.array([1, 1, 3], np.int32), [np.int64(1), 1, np.uint8(3)]):
        got = p0_series(months, [1, 2, 1], [2, 2, 4])
        assert got.months.tolist() == [1, 1, 3]
        assert got.values.tolist() == [0.5, 1.0, 0.25]
    want = fit_exponential_growth([1, 2, 3, 4], [1, 2, 4, 8])
    for months in (np.arange(1, 5), np.arange(1, 5, dtype=np.uint16)):
        assert fit_exponential_growth(months, [1, 2, 4, 8]) == want
