"""Tests of the founding-and-joining process generator."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from forgesim import DomainError, SimParams, replicate, run
from forgesim.simulate import _BLOCK, _arrival_projects
from stepping import _draw, _Fenwick, initial_state, step, stepping_run, stream_for


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

    @pytest.mark.parametrize("p0", [1e-3, 0.5])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_block_boundaries(self, p0, seed):
        params = SimParams(p0=p0, n_steps=5 * _BLOCK // 2 + 3, seed=seed)
        assert np.array_equal(_arrival_projects(params), stepping_run(params)[1])

    def test_criterion_9_realisation(self):
        params = SimParams(p0=0.3, n_steps=100_000, seed=21)
        assert np.array_equal(_arrival_projects(params), stepping_run(params)[1])

    @pytest.mark.parametrize("alpha", [0.5, 1.5])
    def test_fenwick_run_equals_stepping_loop(self, alpha):
        params = SimParams(p0=0.4, n_steps=3000, seed=12, alpha=alpha,
                           checkpoints=(1, 2, 700, 2999), full_history=True)
        _assert_same_checkpoints(run(params, replica=3), stepping_run(params, replica=3)[0])


class TestFenwickCore:
    @settings(max_examples=12, deadline=None)
    @given(
        alpha=st.sampled_from([0.5, 0.7, 1.5, 2.0]),
        p0=st.floats(0.2, 0.95),
        doublings=st.integers(0, 2),
        seed=st.integers(0, 2**64 - 1),
        replica=st.integers(0, 2),
        full_history=st.booleans(),
        data=st.data(),
    )
    def test_run_equals_stepping_loop(self, alpha, p0, doublings, seed, replica, full_history,
                                      data):
        # about 1.3 x 1024 * 2**doublings projects: the tree's capacity starts
        # at 1024 and doubles doublings + 1 times
        capacity = 1024 << doublings
        n_steps = int(1.3 * capacity / p0)
        checkpoints = data.draw(st.one_of(
            st.none(), st.lists(st.integers(1, n_steps), min_size=1, max_size=6)))
        params = SimParams(p0=p0, n_steps=n_steps, seed=seed, alpha=alpha,
                           full_history=full_history,
                           checkpoints=None if checkpoints is None else tuple(checkpoints))
        expected, _ = stepping_run(params, replica=replica)
        trace = run(params, replica=replica)
        _assert_same_checkpoints(trace, expected)
        if trace.final.step == n_steps:
            assert trace.final.n_projects > capacity

    # SHA-256 of every checkpoint of these runs, recorded at commit 5b32edd. The
    # stepping oracle shares the core's generator and block reads, so a change
    # to those passes the test above; these digests pin the outputs themselves.
    @pytest.mark.parametrize("alpha, digest", [
        (0.7, "70e27e193e8a34818b61626aed155ebd70e55ef2d75b2792eb351b78ddf14c5b"),
        (1.5, "4c63d2ceb8e53673b11f3c33285c0d66e1687778c151689bff1b2f22f6405a83"),
    ])
    def test_outputs_match_recorded_digests(self, alpha, digest):
        # about 1.8e4 projects: the tree's capacity doubles from 1024 five times
        params = SimParams(p0=0.3, n_steps=60_000, seed=2015, alpha=alpha,
                           checkpoints=(1_000, 5_000, 20_000, 60_000), full_history=True)
        sha = hashlib.sha256()
        for cp in run(params, replica=1).checkpoints:
            sha.update(np.array([cp.step, cp.n_projects, *cp.sizes], "<i8").tobytes())
            sha.update(np.asarray(cp.distribution.counts, "<f8").tobytes())
        assert sha.hexdigest() == digest


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

    def test_general_alpha_matches_analytic_weights(self):
        params = SimParams(p0=0.5, n_steps=3000, seed=19, alpha=0.5)
        state = initial_state(params)
        u = stream_for(params.seed)
        for _ in range(params.n_steps - 1):
            step(state, params, u)
        sizes = state.project_sizes.astype(float)
        total_w = float((sizes**0.5).sum())
        assert total_w == pytest.approx(state.sum_alpha_weights, rel=1e-9)
        _tally_against_weights(
            params, state, 1_000_000, seed=20,
            expected_weight_of=lambda x, n_x: (1 - params.p0) * (x**0.5) * n_x / total_w,
        )


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
