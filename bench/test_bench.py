"""Tests of the benchmark's own oracles, generator and span arithmetic.

    python3 -m pytest -q bench/test_bench.py
"""

import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from scipy import special

import inputs
import oracles
import run
import spans

SRC = Path(__file__).resolve().parent.parent / "src"

# (developer, project, entry, exit); exit -1 is open. Covers a rejoin after
# leaving (d1 in p0), two overlapping records of one pair (d3 in p0), a
# developer in two projects at once, a founder of a project nobody joins (d2
# in p2, excluded from the collaborative inflow) and an established
# developer founding a project that grows (d0 in p3).
TINY_LOG = np.array([
    (0, 0, 0, -1),
    (1, 0, 1, 3),
    (1, 0, 5, -1),
    (1, 1, 2, 4),
    (2, 2, 2, 6),
    (3, 0, 3, 6),
    (3, 0, 4, 5),
    (0, 3, 4, 7),
    (4, 3, 5, 7),
    (5, 1, 7, -1),
])


def brute_force_tally(records):
    """Month-by-month scan of the active-pair set: the slow definition."""
    lo = int(records[:, 2].min())
    hi = int(max(records[:, 2].max(), records[:, 3].max()))
    months = list(range(lo, hi + 1))
    active = {t: {(d, p) for d, p, e, x in records.tolist() if e <= t and (x < 0 or t < x)}
              for t in months}
    out = {"months": np.array(months), "sizes": {}, "degrees": {}}
    for key in ("n_developers", "n_projects", "n_links", "new_projects", "removed_projects",
                "new_developers", "removed_developers", "collab_new_projects",
                "collab_new_developers"):
        out[key] = np.zeros(len(months), dtype=np.int64)
    for i, t in enumerate(months):
        links = active[t]
        out["n_developers"][i] = len({d for d, _ in links})
        out["n_projects"][i] = len({p for _, p in links})
        out["n_links"][i] = len(links)
        if links:
            out["sizes"][t] = dict(Counter(Counter(p for _, p in links).values()))
            out["degrees"][t] = dict(Counter(Counter(d for d, _ in links).values()))
    first_p, first_d = {}, {}
    for d, p, e, _ in records.tolist():
        first_p[p] = min(first_p.get(p, e), e)
        first_d[d] = min(first_d.get(d, e), e)
    for col, owner in ((0, "developers"), (1, "projects")):
        for entity in set(records[:, col].tolist()):
            rows = records[records[:, col] == entity]
            out["new_" + owner][rows[:, 2].min() - lo] += 1
            if (rows[:, 3] >= 0).all():
                out["removed_" + owner][rows[:, 3].max() - lo] += 1
    collab = {p for p in first_p if any(len({d for d, q in active[t] if q == p}) >= 2 for t in months)}
    excluded = {d for d, p, e, _ in records.tolist()
                if p not in collab and e == first_p[p] == first_d[d]}
    for p, t in first_p.items():
        out["collab_new_projects"][t - lo] += p in collab
    for d, t in first_d.items():
        out["collab_new_developers"][t - lo] += d not in excluded
    return out


def test_interval_tally_matches_brute_force_scan():
    fast = oracles.interval_tally(TINY_LOG)
    slow = brute_force_tally(TINY_LOG)
    assert fast.keys() == slow.keys()
    for key, want in slow.items():
        got = fast[key]
        if isinstance(want, dict):
            assert got == want, key
        else:
            assert np.array_equal(got, want), key
    # hand-checked points: p0 holds d0, d1 (rejoined) and d3 at month 5
    assert fast["sizes"][5] == {3: 1, 2: 1, 1: 1}
    assert list(fast["collab_new_projects"]) == [1, 0, 0, 0, 1, 0, 0, 0]
    assert list(fast["collab_new_developers"]) == [1, 1, 0, 1, 0, 1, 0, 1]


def test_score_root_is_the_likelihood_maximum_on_a_dense_grid():
    sizes, counts = inputs.yule_histogram(np.random.default_rng(5), 3.0, 2_000)
    root = oracles.score_root(sizes, counts)
    grid = np.linspace(1.0, 8.0, 70_001)
    # log-likelihood sum_x n(x) log(rho B(x, rho+1)) at every grid point
    ll = counts @ (np.log(grid) + special.betaln(sizes[:, None], grid + 1.0))
    assert abs(root - grid[int(np.argmax(ll))]) <= grid[1] - grid[0]
    assert abs(oracles.score(root, sizes, counts)) < 1e-8 * counts.sum()


def test_score_root_rejects_an_all_singleton_histogram():
    with pytest.raises(ValueError):
        oracles.score_root([1], [10])


def test_self_time_of_a_hand_built_span_tree():
    tree = [
        ["a", 0.0, 10.0, -1, 0, None],
        ["b", 1.0, 4.0, 0, 0, None],
        ["c", 2.0, 3.0, 1, 0, None],
        ["d", 5.0, 6.5, 0, 0, None],
        ["e", 20.0, 21.0, -1, 1, None],
    ]
    assert spans.self_times(tree) == [5.5, 2.0, 1.0, 1.5, 1.0]


def test_layer_metrics_take_self_time_and_work_from_the_spans(tmp_path):
    table = tmp_path / "t.csv"
    table.write_text("# meta=1\nsize,count\n1,5\n2,3\n")
    tree = [
        ["gof.bootstrap_pvalue", 0.0, 4.0, -1, 0, {"replicas": 2, "failed": 0}],
        ["yule.sample", 0.5, 1.0, 0, 0, {"draws": 100}],
        ["yule.fit_rho_weighted", 1.0, 2.0, 0, 0, None],
        ["gof.ks_statistic", 2.0, 2.5, 0, 0, None],
        ["yule.cdf", 2.1, 2.3, 3, 0, None],
        ["report.write_table", 5.0, 5.5, -1, 1, {"path": str(table)}],
    ]
    m = spans.layer_metrics(tree, modules_loaded=7, op_samples=["large", None])
    assert m.keys() == spans.LAYER_UNITS.keys()
    assert m["gof.bootstrap_self_s"] == pytest.approx(2.0)
    assert m["gof.replicas_per_s"] == pytest.approx(0.5)
    assert m["yule.sample_draws_per_s"] == pytest.approx(200.0)
    assert m["yule.mle_calls"] == 1.0
    assert m["gof.ks_s_per_call"] == pytest.approx(0.5)
    assert m["report.rows_written"] == 2.0
    assert m["report.write_rows_per_s"] == pytest.approx(4.0)
    assert m["simulate.arrivals_per_s"] == 0.0
    # operation 0 bootstraps the large sample, so only its split metrics move
    assert m["yule.mle_s_per_call.large"] == pytest.approx(1.0)
    assert m["yule.sample_draws_per_s.large"] == pytest.approx(200.0)
    assert m["gof.replicas_per_s.large"] == pytest.approx(0.5)
    assert m["yule.mle_s_per_call.null"] == m["gof.replicas_per_s.month"] == 0.0


def test_a_check_that_raises_is_a_wrong_output(tmp_path):
    op = run.Op("phase3_s", ["fit", "h.csv"], lambda o: oracles.check_fit(o / "missing.csv", [1, 2], [5, 3]))
    problems = run.verify(op, tmp_path)
    assert len(problems) == 1 and "fit h.csv: check raised" in problems[0]


def test_tracer_wraps_every_binding_of_a_public_function(tmp_path):
    sys.path.insert(0, str(SRC))
    try:
        import forgesim.cli
        import forgesim.estimators
        import forgesim.events
        import forgesim.snapshots
    finally:
        sys.path.remove(str(SRC))
    tracer = spans.Tracer()
    names = tracer.install()
    assert "events.parse_events" in names and "simulate.step" not in names
    assert forgesim.cli.parse_events is forgesim.events.parse_events
    assert forgesim.estimators.snapshot_at is forgesim.snapshots.snapshot_at
    log = tmp_path / "events.csv"
    log.write_text("d1,p1,0,\nd2,p1,1,3\n")
    forgesim.cli.parse_events(str(log))
    assert [s[0] for s in tracer.spans] == ["events.parse_events"]
    assert tracer.spans[0][5] == {"rows": 2}


def test_forge_log_is_seeded_and_never_overlaps_a_pair():
    a = inputs.forge_log(inputs.rng_for(3, "forge_log"), months=40, arrivals0=30.0)
    b = inputs.forge_log(inputs.rng_for(3, "forge_log"), months=40, arrivals0=30.0)
    assert np.array_equal(a, b)
    stop = np.where(a[:, 3] < 0, 10**9, a[:, 3])
    assert (stop > a[:, 2]).all()
    order = np.lexsort((a[:, 2], a[:, 1], a[:, 0]))
    same_pair = (np.diff(a[order, 0]) == 0) & (np.diff(a[order, 1]) == 0)
    assert same_pair.any()
    assert (a[order, 2][1:][same_pair] >= stop[order][:-1][same_pair]).all()
