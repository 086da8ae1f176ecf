"""Tests of the founding-and-joining process generator."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chi2

from forgesim import DomainError, SimParams, replicate, run
from forgesim.cli import main
from forgesim.report import read_table
from forgesim.simulate import _BLOCK, _arrival_projects, _copy_links
from stepping import (_draw, _Fenwick, fenwick_sizes, initial_state, step, stepping_run,
                      stream_for)


class TestParams:
    def test_domain_validation(self):
        with pytest.raises(DomainError):
            SimParams(p0=1.5, n_steps=10, seed=1)
        with pytest.raises(DomainError):
            SimParams(p0=0.0, n_steps=10, seed=1)
        with pytest.raises(DomainError):
            SimParams(p0=0.5, n_steps=0, seed=1)
        with pytest.raises(DomainError):
            SimParams(p0=0.5, n_steps=10, seed=1, checkpoints=(11,))
        with pytest.raises(DomainError):
            SimParams(p0=0.5, n_steps=10, seed=-1)

    def test_default_checkpoint_is_final_step(self):
        assert SimParams(p0=0.5, n_steps=10, seed=1).checkpoints == (10,)

    @pytest.mark.parametrize("field, value", [
        ("n_steps", 10.0), ("n_steps", 10.5), ("n_steps", True), ("n_steps", "10"),
        ("seed", 1.0), ("seed", False), ("seed", "1"),
        ("checkpoints", (2.7, 10)), ("checkpoints", (2.0,)), ("checkpoints", (True,)),
        ("checkpoints", ("5",)),
    ])
    def test_rejects_non_integral_input(self, field, value):
        kwargs = {"p0": 0.5, "n_steps": 10, "seed": 1, field: value}
        with pytest.raises(DomainError, match="must be an integer"):
            SimParams(**kwargs)

    def test_accepts_numpy_integers(self):
        params = SimParams(p0=0.5, n_steps=np.int64(10), seed=np.uint64(2**64 - 1),
                           checkpoints=(np.int32(3), np.int64(10)))
        assert (params.n_steps, params.seed, params.checkpoints) == (10, 2**64 - 1, (3, 10))
        assert all(type(v) is int for v in (params.n_steps, params.seed, *params.checkpoints))


class TestRun:
    def test_single_step_is_one_project_of_size_one(self):
        trace = run(SimParams(p0=0.5, n_steps=1, seed=1))
        final = trace.final
        assert final.n_projects == 1
        assert final.distribution.as_dict() == {1: 1.0}

    def test_determinism(self):
        params = SimParams(p0=0.5, n_steps=5000, seed=123, checkpoints=(1000, 5000))
        a, b = run(params), run(params)
        assert a.project_counts == b.project_counts
        for ca, cb in zip(a.checkpoints, b.checkpoints):
            assert ca.distribution.as_dict() == cb.distribution.as_dict()

    def test_founding_dominant_limit(self):
        trace = run(SimParams(p0=0.999999, n_steps=1000, seed=9))
        assert trace.final.n_projects >= 999

    @pytest.mark.parametrize("alpha", [1.0, 0.5, 2.0])
    def test_conservation_every_developer_placed(self, alpha):
        params = SimParams(p0=0.4, n_steps=3000, seed=5, alpha=alpha, checkpoints=(1, 500, 3000))
        trace = run(params)
        for cp in trace.checkpoints:
            assert cp.distribution.total_developers == cp.step
            assert cp.distribution.max_value <= cp.step
            assert cp.n_projects >= 1

    def test_sizes_never_decrease(self):
        params = SimParams(
            p0=0.5, n_steps=500, seed=2, checkpoints=tuple(range(50, 501, 50)), full_history=True
        )
        trace = run(params)
        for earlier, later in zip(trace.checkpoints, trace.checkpoints[1:]):
            for i, size in enumerate(earlier.sizes):
                assert later.sizes[i] >= size

    def test_expected_project_count(self):
        # N_p - 1 is a sum of Bernoulli(p0) draws: mean 1 + p0 (N-1)
        p0, n, reps = 0.3, 2000, 40
        counts = [run(SimParams(p0=p0, n_steps=n, seed=77), replica=r).final.n_projects
                  for r in range(reps)]
        expected = 1 + p0 * (n - 1)
        sd_of_mean = np.sqrt(n * p0 * (1 - p0) / reps)
        assert abs(np.mean(counts) - expected) < 4 * sd_of_mean

    def test_singleton_density_matches_stationary_value(self):
        p0 = 0.5
        trace = run(SimParams(p0=p0, n_steps=100_000, seed=31))
        rho = 1.0 / (1.0 - p0)
        target = p0 * rho / (rho + 1.0)
        n1 = trace.final.distribution.count(1)
        assert abs(n1 / 100_000 - target) / target < 0.05


def _assert_same_checkpoints(trace, expected):
    assert len(trace.checkpoints) == len(expected)
    for got, want in zip(trace.checkpoints, expected):
        assert (got.step, got.n_projects, got.sizes) == (want.step, want.n_projects, want.sizes)
        for a, b in ((got.distribution.sizes, want.distribution.sizes),
                     (got.distribution.counts, want.distribution.counts)):
            assert a.dtype == b.dtype and np.array_equal(a, b)


def _trace_digest(trace) -> str:
    """SHA-256 of every checkpoint of a full-history trace."""
    sha = hashlib.sha256()
    for cp in trace.checkpoints:
        sha.update(np.array([cp.step, cp.n_projects, *cp.sizes], "<i8").tobytes())
        sha.update(np.asarray(cp.distribution.counts, "<f8").tobytes())
    return sha.hexdigest()


# Near these n_steps the 2(n-1) uniforms of an all-join run straddle a block
# boundary, so a join's branch draw can be a block's last uniform.
_STRADDLING = sorted({m * _BLOCK // 2 + 1 + d for m in range(1, 10) for d in (-2, -1, 0, 1, 2)})


class TestVectorisedCore:
    @settings(max_examples=30, deadline=None)
    @given(
        p0=st.floats(1e-3, 0.999),
        n_steps=st.one_of(st.integers(1, 3000), st.sampled_from(_STRADDLING),
                          st.integers(1, 300_000)),
        seed=st.integers(0, 2**64 - 1),
        n_replicas=st.integers(1, 2),
        full_history=st.booleans(),
        data=st.data(),
    )
    def test_run_equals_stepping_loop(self, p0, n_steps, seed, n_replicas, full_history, data):
        checkpoints = data.draw(st.one_of(
            st.none(), st.lists(st.integers(1, n_steps), min_size=1, max_size=6)))
        params = SimParams(p0=p0, n_steps=n_steps, seed=seed, full_history=full_history,
                           checkpoints=None if checkpoints is None else tuple(checkpoints))
        result = replicate(params, n_replicas)
        for r, trace in enumerate(result.traces):
            expected, slots = stepping_run(params, replica=r)
            _assert_same_checkpoints(trace, expected)
            assert np.array_equal(_arrival_projects(params, replica=r), slots)

    # at p0 <= 0.01 copy chains are deep, and the pointer jump takes several
    # passes over a slowly shrinking set of arrivals
    @pytest.mark.parametrize("p0", [1e-3, 0.01, 0.5])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_block_boundaries(self, p0, seed):
        params = SimParams(p0=p0, n_steps=5 * _BLOCK // 2 + 3, seed=seed)
        assert np.array_equal(_arrival_projects(params), stepping_run(params)[1])

    def test_criterion_9_realisation(self):
        params = SimParams(p0=0.3, n_steps=100_000, seed=21)
        assert np.array_equal(_arrival_projects(params), stepping_run(params)[1])

    @pytest.mark.parametrize("n_steps", [2, 3])
    @pytest.mark.parametrize("p0", [1e-3, 0.5, 0.999])
    def test_shortest_runs(self, n_steps, p0):
        # the only block holds at most 2(n-1) uniforms
        for seed in range(20):
            params = SimParams(p0=p0, n_steps=n_steps, seed=seed, full_history=True)
            expected, slots = stepping_run(params)
            _assert_same_checkpoints(run(params), expected)
            assert np.array_equal(_arrival_projects(params), slots)

    @pytest.mark.parametrize("p0, seed, n_steps", [(0.5, 3, 43_660), (0.01, 2, 32_944)])
    def test_last_target_opens_a_one_uniform_block(self, p0, seed, n_steps):
        # the last arrival is a join whose branch draw ends the first block,
        # so the core reads its target as a block of one uniform
        params = SimParams(p0=p0, n_steps=n_steps, seed=seed)
        u, state = stream_for(seed), initial_state(params)
        for _ in range(n_steps - 2):
            step(state, params, u)
        last = u.next()
        assert last >= p0 and u._pos == _BLOCK
        assert np.array_equal(_arrival_projects(params), stepping_run(params)[1])

    @pytest.mark.parametrize("p0", [0.01, 2 / 3, 0.95])
    def test_pointer_jump_reaches_the_full_fixed_point(self, p0):
        params = SimParams(p0=p0, n_steps=150_000, seed=8)
        parent = _copy_links(params, 0)
        founder = parent == np.arange(parent.size)
        while not np.array_equal(root := parent[parent], parent):
            parent = root
        assert np.array_equal(_arrival_projects(params), np.cumsum(founder)[parent] - 1)

    def test_outputs_match_recorded_digest(self):
        # recorded before the core's blocks were sized to the arrivals left;
        # the checkpoints fall in five of the run's six blocks of the stream
        params = SimParams(p0=0.3, n_steps=200_000, seed=2015, full_history=True,
                           checkpoints=(1, 1_000, 40_000, 77_777, 150_001, 200_000))
        assert _trace_digest(run(params, replica=1)) == (
            "e2ad8b9cbf210e4d21d42b6b9a85d654f8c3967d8a7ec06a9972652e717ec251")

    @pytest.mark.parametrize("alpha", [0.5, 1.5])
    def test_fenwick_run_equals_stepping_loop(self, alpha):
        params = SimParams(p0=0.4, n_steps=3000, seed=12, alpha=alpha,
                           checkpoints=(1, 2, 700, 2999), full_history=True)
        _assert_same_checkpoints(run(params, replica=3), stepping_run(params, replica=3)[0])


class TestFenwickCore:
    """The alpha != 1 core, rejection from envelopes of x**alpha, against the
    stepping loop bit for bit."""

    @settings(max_examples=12, deadline=None)
    @given(
        alpha=st.sampled_from([-1.0, 0.0, 0.5, 0.7, 1.5, 2.0]),
        p0=st.floats(0.2, 0.95),
        # the longer runs read more than one block of the stream
        n_steps=st.one_of(st.integers(1, 3000), st.integers(30_000, 40_000)),
        seed=st.integers(0, 2**64 - 1),
        replica=st.integers(0, 2),
        full_history=st.booleans(),
        data=st.data(),
    )
    def test_run_equals_stepping_loop(self, alpha, p0, n_steps, seed, replica, full_history,
                                      data):
        checkpoints = data.draw(st.one_of(
            st.none(), st.lists(st.integers(1, n_steps), min_size=1, max_size=6)))
        params = SimParams(p0=p0, n_steps=n_steps, seed=seed, alpha=alpha,
                           full_history=full_history,
                           checkpoints=None if checkpoints is None else tuple(checkpoints))
        expected, _ = stepping_run(params, replica=replica)
        _assert_same_checkpoints(run(params, replica=replica), expected)

    @pytest.mark.parametrize("alpha", [-1.0, 0.0, 0.5, 1.5, 3.0])
    def test_runs_across_blocks_equal_stepping_loop(self, alpha):
        # 32,000 joins of two or more uniforms each read past the first block
        params = SimParams(p0=0.2, n_steps=40_000, seed=33, alpha=alpha,
                           checkpoints=(5, 20_000, 40_000), full_history=True)
        _assert_same_checkpoints(run(params), stepping_run(params)[0])

    # SHA-256 of every checkpoint of these runs, recorded with the rejection
    # core. The stepping oracle shares the core's generator and stream reads,
    # so a change to those passes the test above; these digests pin the
    # outputs themselves.
    @pytest.mark.parametrize("alpha, digest", [
        (0.7, "36f1f46348716195627ed9e007e28370c341b67d2108109b57ee851b4bc305af"),
        (1.5, "9831ae367c01d30d9dc6a4255c21dcbb85eb5c3b1b74bad5c2d4c9c17e9325f0"),
    ])
    def test_outputs_match_recorded_digests(self, alpha, digest):
        params = SimParams(p0=0.3, n_steps=60_000, seed=2015, alpha=alpha,
                           checkpoints=(1_000, 5_000, 20_000, 60_000), full_history=True)
        assert _trace_digest(run(params, replica=1)) == digest


class TestStep:
    def test_step_increments_and_places(self):
        params = SimParams(p0=0.5, n_steps=100, seed=1)
        state = initial_state(params)
        u = stream_for(params.seed)
        for _ in range(99):
            step(state, params, u)
        assert state.step == 100
        assert state.project_sizes.sum() == 100

    def test_join_branch_never_empty(self):
        # after the forced founding there is always at least one project
        params = SimParams(p0=0.001, n_steps=50, seed=3)
        state = initial_state(params)
        u = stream_for(params.seed)
        for _ in range(49):
            step(state, params, u)
        assert state.n_projects >= 1


def _tally_against_weights(params, state, n_draws, seed, expected_weight_of):
    """Draw on a frozen state and compare size-class frequencies to the
    analytic selection weights; founding draws occupy the remaining mass."""
    u = stream_for(seed, replica=99)
    sizes = state.project_sizes
    founding = 0
    talley = {}
    for _ in range(n_draws):
        target = _draw(state, params, u)
        if target < 0:
            founding += 1
        else:
            x = int(sizes[target])
            talley[x] = talley.get(x, 0) + 1

    values, counts = np.unique(sizes, return_counts=True)
    errors = []
    for x, n_x in zip(values, counts):
        expected = expected_weight_of(int(x), int(n_x))
        if expected * n_draws >= 20_000:  # enough mass for a 2% relative check
            observed = talley.get(int(x), 0) / n_draws
            errors.append(abs(observed / expected - 1.0))
    assert errors, "no size class carried enough mass to test"
    assert max(errors) < 0.02
    assert abs(founding / n_draws - params.p0) < 0.01


class TestSelectionTally:
    def test_alpha_one_matches_analytic_weights(self):
        # frozen state at N=1e5; join weight of class x is (1-p0) x n(x) / N
        params = SimParams(p0=0.5, n_steps=100_000, seed=17)
        state = initial_state(params)
        u = stream_for(params.seed)
        for _ in range(params.n_steps - 1):
            step(state, params, u)
        n = state.step
        _tally_against_weights(
            params, state, 1_000_000, seed=18,
            expected_weight_of=lambda x, n_x: (1 - params.p0) * x * n_x / n,
        )

    @pytest.mark.parametrize("alpha", [0.5, 1.5, -1.0])
    def test_general_alpha_matches_analytic_weights(self, alpha):
        params = SimParams(p0=0.5, n_steps=3000, seed=19, alpha=alpha)
        state = initial_state(params)
        u = stream_for(params.seed)
        for _ in range(params.n_steps - 1):
            step(state, params, u)
        sizes = state.project_sizes
        assert (state.x_min, state.x_max) == (sizes.min(), sizes.max())
        total_w = float((sizes.astype(float) ** alpha).sum())
        _tally_against_weights(
            params, state, 1_000_000, seed=20,
            expected_weight_of=lambda x, n_x: (1 - params.p0) * (x**alpha) * n_x / total_w,
        )


def _exact_multisets(p0, alpha, n_steps):
    """The probability of each sorted tuple of final sizes, by enumerating the
    process's transitions from the forced founding."""
    dist = {(1,): 1.0}
    for _ in range(n_steps - 1):
        after = {}
        for sizes, p in dist.items():
            weights = [x**alpha for x in sizes]
            total = sum(weights)
            moves = [((1, *sizes), p * p0)]
            moves += [((*sizes[:i], x + 1, *sizes[i + 1:]), p * (1 - p0) * w / total)
                      for i, (x, w) in enumerate(zip(sizes, weights))]
            for state, q in moves:
                key = tuple(sorted(state))
                after[key] = after.get(key, 0.0) + q
        dist = after
    return dist


class TestExactDistribution:
    """`run` at alpha != 1 against the law of the process, computed without
    the simulator."""

    @pytest.mark.parametrize("p0", [0.3, 0.7])
    @pytest.mark.parametrize("alpha", [-1.0, 0.0, 0.5, 1.5, 3.0])
    def test_final_sizes_follow_the_enumerated_law(self, alpha, p0):
        n_steps, n_runs = 6, 1000
        params = SimParams(p0=p0, n_steps=n_steps, seed=6060, alpha=alpha, full_history=True)
        seen = {}
        for r in range(n_runs):
            key = tuple(sorted(run(params, replica=r).final.sizes))
            seen[key] = seen.get(key, 0) + 1
        law = _exact_multisets(p0, alpha, n_steps)
        assert set(seen) <= set(law)
        # pool the outcomes expected fewer than 5 times into one cell
        cells = sorted(law, key=law.get, reverse=True)
        big = [c for c in cells if law[c] * n_runs >= 5]
        observed = [seen.get(c, 0) for c in big] + [n_runs - sum(seen.get(c, 0) for c in big)]
        expected = [law[c] * n_runs for c in big] + [n_runs * (1 - sum(law[c] for c in big))]
        if expected[-1] < 5:
            observed[-2:] = [observed[-2] + observed[-1]]
            expected[-2:] = [expected[-2] + expected[-1]]
        stat = sum((o - e) ** 2 / e for o, e in zip(observed, expected))
        assert chi2.sf(stat, len(expected) - 1) > 1e-3

    @pytest.mark.parametrize("alpha", [-1.0, 0.5, 1.5])
    def test_class_counts_match_the_fenwick_process(self, alpha):
        # n(x) for x <= 8 and the largest size, averaged over 30 replicas of
        # each process, agree within 4.5 standard errors of their difference
        n_runs = 30
        params = SimParams(p0=0.3, n_steps=2000, seed=7070, alpha=alpha, full_history=True)

        def statistics(sizes):
            return [*np.bincount(sizes, minlength=9)[1:9], sizes.max()]

        new = np.array([statistics(np.array(run(params, replica=r).final.sizes))
                        for r in range(n_runs)], dtype=float)
        old = np.array([statistics(fenwick_sizes(params, replica=100 + r))
                        for r in range(n_runs)], dtype=float)
        gap = np.abs(new.mean(axis=0) - old.mean(axis=0))
        se = np.sqrt((new.var(axis=0, ddof=1) + old.var(axis=0, ddof=1)) / n_runs)
        assert np.all(gap <= 4.5 * se)


class TestLargeAlpha:
    """Exponents whose weights x**alpha overflow or underflow float64; the
    core forms only ratios of at most 1."""

    @pytest.mark.parametrize("alpha, n_steps", [(150.0, 4000), (-150.0, 600)])
    def test_run_places_everyone(self, alpha, n_steps):
        params = SimParams(p0=0.5, n_steps=n_steps, seed=1, alpha=alpha)
        final = run(params).final
        d = final.distribution
        assert float(np.dot(d.sizes, d.counts)) == n_steps
        assert final.n_projects == d.counts.sum() == stepping_run(params)[0][-1].n_projects

    @pytest.mark.parametrize("alpha, n_steps", [(150.0, 4000), (-150.0, 600)])
    def test_cli_exits_0(self, tmp_path, alpha, n_steps):
        out = tmp_path / "sim"
        assert main(["simulate", "--p0", "0.5", "--steps", str(n_steps), "--seed", "1",
                     "--alpha", str(alpha), "--output-dir", str(out)]) == 0
        _, _, rows = read_table(out / "mean_distribution.csv")
        assert sum(int(size) * float(count) for size, count in rows) == n_steps
        expected = run(SimParams(p0=0.5, n_steps=n_steps, seed=1, alpha=alpha)).final.n_projects
        assert sum(float(count) for _, count in rows) == expected


class TestReplicate:
    def test_single_replica_identical_to_run(self):
        params = SimParams(p0=0.5, n_steps=2000, seed=8)
        rep = replicate(params, 1)
        direct = run(params)
        assert rep.mean_distribution.as_dict() == direct.final.distribution.as_dict()

    def test_determinism(self):
        params = SimParams(p0=0.5, n_steps=1000, seed=4)
        a = replicate(params, 3)
        b = replicate(params, 3)
        assert a.mean_distribution.as_dict() == b.mean_distribution.as_dict()

    def test_replicas_are_independent_streams(self):
        params = SimParams(p0=0.5, n_steps=1000, seed=4)
        rep = replicate(params, 2)
        d0 = rep.traces[0].final.distribution.as_dict()
        d1 = rep.traces[1].final.distribution.as_dict()
        assert d0 != d1

    def test_parallel_equals_serial(self):
        params = SimParams(p0=0.5, n_steps=800, seed=6)
        serial = replicate(params, 4, jobs=1)
        parallel = replicate(params, 4, jobs=2)
        assert serial.mean_distribution.as_dict() == parallel.mean_distribution.as_dict()
        for a, b in zip(serial.traces, parallel.traces):
            assert a.final.distribution.as_dict() == b.final.distribution.as_dict()

    def test_rejects_zero_replicas(self):
        with pytest.raises(DomainError):
            replicate(SimParams(p0=0.5, n_steps=10, seed=1), 0)


class TestFenwick:
    def test_find_matches_cumsum_oracle(self):
        rng = np.random.default_rng(0)
        fw = _Fenwick(4)
        weights = []
        for _ in range(500):
            w = float(rng.uniform(0.1, 5.0))
            fw.append(w)
            weights.append(w)
        for _ in range(200):
            i = int(rng.integers(0, len(weights)))
            delta = float(rng.uniform(0.0, 2.0))
            fw.add(i, delta)
            weights[i] += delta
        prefix = np.cumsum(weights)
        total = prefix[-1]
        for v in rng.uniform(0.0, total, size=2000):
            expected = int(np.searchsorted(prefix, v, side="right"))
            assert fw.find(float(v)) == expected
