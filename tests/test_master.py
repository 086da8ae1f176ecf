"""Tests of the mean-field rate-equation solver and its closed-form limit."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from forgesim import DomainError, iterate_master, pmf, steady_state, survival
from master_oracle import oracle_iterate_master


def _bits(states):
    return [(s.N, s.counts.tobytes(), repr(s.overflow_count), repr(s.overflow_mass))
            for s in states]


@st.composite
def _master_args(draw):
    steps = draw(st.integers(1, 400))
    return (draw(st.floats(0.05, 0.95, exclude_min=True, exclude_max=True)), steps,
            draw(st.lists(st.integers(1, steps), min_size=1, max_size=6)),
            draw(st.integers(2, 64)))


class TestIteration:
    def test_hand_checked_first_step(self):
        # one step from n(1,1)=1: n(1,2) = 1 + p0 - (1-p0) = 2 p0,
        # n(2,2) = 1 - p0; for p0 = 0.5 that is 1.0 and 0.5
        [state] = iterate_master(0.5, 2, record_at=[2])
        assert state.n(1) == pytest.approx(1.0, abs=1e-15)
        assert state.n(2) == pytest.approx(0.5, abs=1e-15)
        assert state.total_mass == pytest.approx(2.0, rel=1e-12)

    def test_mass_conserved_throughout(self):
        states = iterate_master(0.5, 10_000, record_at=[10, 100, 1000, 10_000])
        for st in states:
            assert abs(st.total_mass - st.N) / st.N < 1e-9

    def test_converges_to_closed_form(self):
        [state] = iterate_master(2.0 / 3.0, 100_000)
        target = steady_state(2.0 / 3.0, 100_000)
        x = np.arange(1, 31)
        rel = np.abs(state.counts[:30] / target.counts[:30] - 1.0)
        assert rel.max() < 0.01

    def test_truncation_does_not_disturb_low_classes(self):
        # the update is triangular in x, so classes below the cut are exact
        [a] = iterate_master(0.5, 5000, x_trunc=50)
        [b] = iterate_master(0.5, 5000, x_trunc=500)
        np.testing.assert_allclose(a.counts[:49], b.counts[:49], rtol=1e-15)

    def test_proportional_growth_ansatz(self):
        # n(x, N+1)/n(x, N) -> (N+1)/N for x << N
        big = 100_000
        s1, s2 = iterate_master(0.5, big + 1, record_at=[big, big + 1])
        ratio = s2.counts[:20] / s1.counts[:20]
        np.testing.assert_allclose(ratio, (big + 1) / big, rtol=1e-3)

    def test_convergence_slower_for_small_p0(self):
        # slow convergence near p0 -> 0 is a shape/tail effect, so compare
        # whole-distribution TV distance; pointwise at fixed small x the
        # ordering actually reverses (the head equilibrates faster when
        # joins dominate)
        def tv_distance(p0):
            [st] = iterate_master(p0, 10_000, x_trunc=2000)
            rho = 1.0 / (1.0 - p0)
            x = np.arange(1, 2001)
            head = 0.5 * np.abs(st.counts / st.total_projects - pmf(x, rho)).sum()
            tail = 0.5 * abs(st.overflow_count / st.total_projects - survival(2000, rho))
            return head + tail

        assert tv_distance(0.05) > 5 * tv_distance(0.5)

    def test_recording_is_sparse_and_ordered(self):
        states = iterate_master(0.5, 100, record_at=[1, 50, 100])
        assert [s.N for s in states] == [1, 50, 100]
        assert states[0].n(1) == 1.0

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            iterate_master(1.2, 10)
        with pytest.raises(DomainError):
            iterate_master(0.5, 0)
        with pytest.raises(DomainError):
            iterate_master(0.5, 10, record_at=[20])

    def test_empty_record_at_is_rejected_before_stepping(self):
        # 2e6 steps would take seconds; the error comes first
        with pytest.raises(DomainError, match="^record_at must not be empty$"):
            iterate_master(0.5, 2_000_000, record_at=[])


class TestAgainstOracle:
    """The loop against the sliced loop it replaced, bit for bit."""

    @pytest.mark.parametrize("p0, steps, record_at, x_trunc", [
        # record at 1, T-1, T, T+1 and the end, unsorted and with duplicates
        (0.16, 3000, [3000, 1001, 1, 1000, 999, 1000, 1], 1000),
        (0.9, 3000, [1, 49, 50, 51, 3000], 50),
        (0.16, 3000, [1, 2, 3, 4, 3000], 3),
        (2.0 / 3.0, 400, None, 2),
        (0.5, 1, None, 2),
        (0.5, 1, [1], 1000),
        (0.3, 100, [100, 1, 50, 2], 1000),
        (0.5, 5, [5, 4, 3, 2, 1], 3),
    ])
    def test_grid_matches_oracle(self, p0, steps, record_at, x_trunc):
        args = (p0, steps, record_at, x_trunc)
        assert _bits(iterate_master(*args)) == _bits(oracle_iterate_master(*args))

    @settings(max_examples=60, deadline=None)
    @given(_master_args())
    def test_random_runs_match_oracle(self, args):
        assert _bits(iterate_master(*args)) == _bits(oracle_iterate_master(*args))

    # pin the float64 operation order without the oracle: counts bytes and
    # both overflow floats at 1, T-1, T, T+1 and the end; the second run's
    # large overflow bin tells c*m/N from m*(c/N), and the third run's
    # support never reaches the cut
    @pytest.mark.parametrize("p0, steps, record_at, x_trunc, digest", [
        (2.0 / 3.0, 100_000, [1, 999, 1000, 1001, 100_000], 1000,
         "a57f101299a895eb83a61823cf7d5dbc2a785b93d395ddeba330e67b5cf9ccea"),
        (0.16, 3000, [1, 2, 3, 4, 3000], 3,
         "9bc48d3c49a907b56d29970f96ac664f5340c299f289899de39468abc9512c1f"),
        (0.3, 100, [1, 2, 50, 99, 100], 1000,
         "b70f93a82dab7e15a27fb3b83809fd7fcf37fad6e3569f8b42ab3a6b708a88a4"),
    ], ids=["x_trunc=1000", "x_trunc=3", "x_trunc>steps"])
    def test_outputs_match_recorded_digests(self, p0, steps, record_at, x_trunc, digest):
        sha = hashlib.sha256()
        for s in iterate_master(p0, steps, record_at=record_at, x_trunc=x_trunc):
            sha.update(repr(s.N).encode())
            sha.update(np.asarray(s.counts, "<f8").tobytes())
            sha.update(repr(s.overflow_count).encode())
            sha.update(repr(s.overflow_mass).encode())
        assert sha.hexdigest() == digest


class TestIntegerInputs:
    @pytest.mark.parametrize("call", [
        lambda: iterate_master(0.5, 10, record_at=[2.5]),
        lambda: iterate_master(0.5, 10, record_at=[True]),
        lambda: iterate_master(0.5, 10, x_trunc=5.5),
        lambda: iterate_master(0.5, 10, x_trunc=True),
        lambda: iterate_master(0.5, 10.0),
        lambda: iterate_master(0.5, True),
        lambda: steady_state(0.5, 10.0),
        lambda: steady_state(0.5, True),
        lambda: steady_state(0.5, 10, x_max=5.5),
    ], ids=["record_at=2.5", "record_at=True", "x_trunc=5.5", "x_trunc=True", "n_max_steps=10.0",
            "n_max_steps=True", "N=10.0", "N=True", "x_max=5.5"])
    def test_rejects_non_integers(self, call):
        with pytest.raises(DomainError, match="must be an integer"):
            call()

    @pytest.mark.parametrize("call, name", [
        (lambda: steady_state(0.5, 0), "N"),
        (lambda: steady_state(0.5, 10, x_max=0), "x_max"),
    ], ids=["N=0", "x_max=0"])
    def test_rejects_integers_below_one_naming_them(self, call, name):
        with pytest.raises(DomainError, match=f"^{name} must be >= 1$"):
            call()

    def test_accepts_numpy_integers(self):
        states = iterate_master(0.5, np.int64(10), record_at=[np.int32(5)], x_trunc=np.int64(4))
        assert _bits(states) == _bits(iterate_master(0.5, 10, record_at=[5], x_trunc=4))
        state = steady_state(0.5, np.int64(10), x_max=np.int32(20))
        assert (type(state.N), state.N, state.counts.size) == (int, 10, 20)


class TestSteadyState:
    def test_singleton_count_formula(self):
        # n*(1,N) = N p0 rho/(rho+1); p0=2/3, N=30000 gives exactly 15000
        state = steady_state(2.0 / 3.0, 30_000)
        assert state.n(1) == pytest.approx(15_000.0, rel=1e-12)

    def test_ratio_recursion(self):
        state = steady_state(0.5, 1000, x_max=200)
        rho = 2.0
        x = np.arange(2, 101)
        lhs = state.counts[1:100] / state.counts[0:99]
        np.testing.assert_allclose(lhs, (x - 1.0) / (rho + x), rtol=1e-12)

    def test_total_projects_is_N_p0(self):
        state = steady_state(2.0 / 3.0, 1_000_000, x_max=2000)
        assert state.total_projects == pytest.approx(1_000_000 * 2.0 / 3.0, rel=1e-6)

    def test_consistent_with_pmf_scaling(self):
        p0, n = 0.4, 5000
        state = steady_state(p0, n, x_max=100)
        rho = 1.0 / (1.0 - p0)
        x = np.arange(1, 101)
        np.testing.assert_allclose(state.counts, n * p0 * pmf(x, rho), rtol=1e-13)

    def test_mass_identity(self):
        state = steady_state(0.25, 77_777)
        assert state.total_mass == pytest.approx(77_777.0, rel=1e-9)
