"""Tests of the empirical estimators."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from event_rows import active_pairs, make_log
from forgesim import (
    DegenerateDataError,
    DomainError,
    SimParams,
    SnapshotSummary,
    classify_collaborative,
    collaborative_entry_counts,
    fit_exponential_growth,
    fit_interarrival_waits,
    interarrival_fit,
    p0_series,
    relative_entry_rates,
    run,
    size_dependent_growth,
    snapshot_at,
    summarize,
)
from forgesim.estimators import DAYS_PER_MONTH, _collaborative, _log2_bins
from collaborative_oracle import oracle_collaborative
from log2_bins_oracle import oracle_log2_bins

class TestExponentialGrowth:
    def test_noiseless_series_recovered_exactly(self):
        t = np.arange(89)
        fit = fit_exponential_growth(t, np.exp(0.013 * t))
        assert fit.omega == pytest.approx(0.013, abs=1e-12)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
        assert fit.n_points == 89

    def test_noisy_series_within_band(self):
        rng = np.random.default_rng(42)
        t = np.arange(89)
        x = np.exp(0.013 * t) * (1.0 + 0.02 * rng.standard_normal(89))
        fit = fit_exponential_growth(t, x)
        assert fit.omega == pytest.approx(0.013, abs=0.001)
        assert fit.r_squared > 0.99
        assert fit.p_value < 1e-50

    def test_mask_contract(self):
        t = np.arange(20)
        x = np.exp(0.02 * t)
        fit = fit_exponential_growth(t, x, mask={3, 4, 5})
        assert fit.n_points == 17
        assert fit.omega == pytest.approx(0.02, abs=1e-12)

    def test_nonpositive_value_names_month(self):
        with pytest.raises(DomainError, match="month 7"):
            fit_exponential_growth([6, 7, 8, 9], [1.0, 0.0, 2.0, 3.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_value_names_month(self, bad):
        with pytest.raises(DomainError, match="non-finite value at month 7$"):
            fit_exponential_growth([6, 7, 8, 9], [1.0, bad, 2.0, bad])

    def test_too_few_points(self):
        with pytest.raises(DegenerateDataError):
            fit_exponential_growth([1, 2], [1.0, 2.0])


def summaries_from_counts(counts):
    return [
        SnapshotSummary(month=m, n_developers=n, n_projects=n, n_links=n)
        for m, n in counts
    ]


class TestEntryRates:
    def test_single_step_value(self):
        rates_p, _ = relative_entry_rates(summaries_from_counts([(0, 100), (1, 102)]))
        assert rates_p.values[0] == pytest.approx(2.0 / 102.0, abs=1e-12)
        assert rates_p.median == pytest.approx(0.0196, abs=1e-4)

    def test_constant_series_is_zero(self):
        rates_p, rates_d = relative_entry_rates(
            summaries_from_counts([(m, 500) for m in range(10)])
        )
        assert np.all(rates_p.values == 0.0)
        assert np.all(rates_d.values == 0.0)

    def test_exponential_series_closed_form(self):
        omega = 0.013
        counts = [(m, int(round(1e6 * np.exp(omega * m)))) for m in range(60)]
        rates_p, _ = relative_entry_rates(summaries_from_counts(counts))
        np.testing.assert_allclose(rates_p.values, 1.0 - np.exp(-omega), rtol=1e-3)

    def test_quantiles_ordered_and_mask_respected(self):
        counts = [(m, 100 + m * m) for m in range(20)]
        rates_p, _ = relative_entry_rates(summaries_from_counts(counts), mask={5})
        assert rates_p.q10 <= rates_p.median <= rates_p.q90
        assert 5 not in rates_p.months
        assert 6 not in rates_p.months  # needs month 5 as its base

    @pytest.mark.parametrize("field", ["n_projects", "n_developers"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_count_names_month(self, field, bad):
        # the first unmasked month with a non-finite count is named; a masked
        # month is not read
        counts = {"n_projects": [5, 6, 7, 8, 9], "n_developers": [5, 6, 7, 8, 9]}
        counts[field][0] = counts[field][2] = counts[field][4] = bad
        summaries = [SnapshotSummary(month=m, n_developers=d, n_projects=p, n_links=1)
                     for m, p, d in zip(range(5, 10), counts["n_projects"],
                                        counts["n_developers"])]
        with pytest.raises(DomainError, match=f"^non-finite {field} at month 7$"):
            relative_entry_rates(summaries, mask={5})

    @settings(max_examples=60, deadline=None)
    @given(
        rows=st.lists(
            st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(0, 8),
                      st.none() | st.integers(1, 6)),
            min_size=1, max_size=25, unique_by=lambda r: r[:3],
        ),
        mask=st.frozensets(st.integers(0, 14), max_size=4),
    )
    def test_project_and_developer_series_share_months(self, rows, mask):
        log = make_log([(f"d{d}", f"p{p}", entry, None if stay is None else entry + stay)
                        for d, p, entry, stay in rows])
        lo, hi = log.month_range
        summaries = [summarize(snapshot_at(log, m)) for m in range(lo, hi + 1) if m not in mask]
        try:
            rates_p, rates_d = relative_entry_rates(summaries, mask)
        except DegenerateDataError:
            return
        assert np.array_equal(rates_p.months, rates_d.months)


def growth_fixture(increment_of, sizes=(1, 2, 4, 8, 16), per_size=25):
    """Projects of the given starting sizes; over 12 months each project of
    size x gains exactly increment_of(x) developers."""
    rows = []
    dev = 0
    for x in sizes:
        for k in range(per_size):
            project = f"p{x}_{k}"
            for _ in range(x):
                rows.append((f"d{dev}", project, 0))
                dev += 1
            for j in range(increment_of(x)):
                rows.append((f"d{dev}", project, 1 + (j % 12)))
                dev += 1
    # pad the range so the window [0, 12] exists
    rows.append(("pad", "padproj", 12))
    return make_log(rows)


class TestSizeDependentGrowth:
    def test_linear_gain_gives_gamma_one_exactly(self):
        fits = size_dependent_growth(growth_fixture(lambda x: x))
        fit = fits[0]
        assert fit.gamma == pytest.approx(1.0, abs=1e-12)

    def test_quadratic_gain_gives_gamma_two_exactly(self):
        fits = size_dependent_growth(growth_fixture(lambda x: x * x))
        assert fits[0].gamma == pytest.approx(2.0, abs=1e-12)

    def test_scale_equivariance(self):
        a = size_dependent_growth(growth_fixture(lambda x: 3 * x))[0]
        b = size_dependent_growth(growth_fixture(lambda x: x))[0]
        assert a.gamma == pytest.approx(b.gamma, abs=1e-12)
        assert a.intercept == pytest.approx(b.intercept + np.log(3.0), abs=1e-12)

    def test_alpha_one_simulation_is_proportional_growth(self):
        # map a simulated run to pseudo-months: arrival k lands in month
        # k//5000 on the project the simulator placed it on
        params = SimParams(p0=0.3, n_steps=100_000, seed=21)
        from forgesim.simulate import _arrival_projects

        proj_of_dev = _arrival_projects(params).tolist()
        rows = [
            (f"d{k}", f"p{proj}", k // 5000) for k, proj in enumerate(proj_of_dev)
        ]
        log = make_log(rows)
        fits = size_dependent_growth(log, window_months=12)
        fit = fits[min(fits)]
        assert abs(fit.gamma - 1.0) <= 2 * fit.stderr

    def test_log_too_short(self):
        with pytest.raises(DomainError):
            size_dependent_growth(make_log([("d", "p", 0), ("e", "p", 5)]))


def assert_bins_match_oracle(sizes, increments, min_bin_count):
    """_log2_bins has the oracle's bins and counts, and its means to rounding."""
    sizes = np.asarray(sizes, dtype=np.float64)
    increments = np.asarray(increments, dtype=np.float64)
    got = _log2_bins(sizes, increments, min_bin_count)
    want = oracle_log2_bins(sizes, increments, min_bin_count)
    assert [b[2] for b in got] == [b[2] for b in want]
    for k, values in ((0, sizes), (1, increments)):
        atol = 1e-14 * np.abs(values).max()
        assert np.allclose([b[k] for b in got], [b[k] for b in want], rtol=1e-12, atol=atol)


EDGE_SIZES = [1, 2, 3, 4, 7, 8, 2**20 - 1, 2**20]


@st.composite
def binned_samples(draw):
    """Sizes >= 1, often at or one below a power of two, with signed
    real or twelfth-integer increments."""
    size = st.one_of(
        st.integers(1, 2**21),
        st.integers(0, 21).map(lambda k: 2**k),
        st.integers(1, 21).map(lambda k: 2**k - 1),
    )
    sizes = draw(st.lists(size, min_size=1, max_size=200))
    increment = draw(st.sampled_from([
        st.floats(-1e3, 1e3, allow_nan=False),
        st.integers(-120, 120).map(lambda k: k / 12),
    ]))
    increments = draw(st.lists(increment, min_size=len(sizes), max_size=len(sizes)))
    return sizes, increments


class TestLog2Bins:
    @given(binned_samples(), st.sampled_from([0, 1, 2, 5, 20, 50]))
    @settings(max_examples=300, deadline=None)
    def test_matches_list_oracle(self, sample, min_bin_count):
        assert_bins_match_oracle(*sample, min_bin_count)

    @pytest.mark.parametrize("min_bin_count", [0, 1, 20])
    def test_matches_list_oracle_on_pareto_sizes(self, min_bin_count):
        rng = np.random.default_rng(4)
        for _ in range(100):
            sizes = np.floor(rng.pareto(1.2, rng.integers(1, 400)) + 1)
            assert_bins_match_oracle(sizes, rng.normal(0, 3, sizes.size), min_bin_count)

    @pytest.mark.parametrize("min_bin_count", [0, 1, 20])
    @pytest.mark.parametrize("sizes", [
        EDGE_SIZES,
        EDGE_SIZES * 20,
        [1] * 20 + [2, 3] * 10 + [4, 7] * 5 + [8] * 25,
        [5],
        [2**20] * 30,
        [2**k for k in range(21)],
        [3, 5, 9, 17, 33, 2**20 - 1],
    ], ids=["edges", "edges-dense", "mixed", "single", "single-bin", "all-sparse",
            "all-sparse-above-one"])
    def test_matches_list_oracle_on_directed_cases(self, sizes, min_bin_count):
        increments = np.linspace(-2.0, 3.0, len(sizes))
        assert_bins_match_oracle(sizes, increments, min_bin_count)


class TestP0Series:
    def test_plain_ratio(self):
        series = p0_series([3], [61], [100])
        assert series.values[0] == pytest.approx(0.61)
        assert series.median == pytest.approx(0.61)

    def test_above_one_flagged(self):
        series = p0_series([1, 2], [120, 50], [100, 100])
        assert series.values[0] == pytest.approx(1.2)
        assert series.above_one.tolist() == [1]

    def test_zero_denominator_masked(self):
        series = p0_series([1, 2, 3], [10, 10, 10], [0, 20, 20])
        assert series.months.tolist() == [2, 3]

    def test_explicit_mask(self):
        series = p0_series([1, 2, 3], [10, 10, 10], [20, 20, 20], mask={2})
        assert series.months.tolist() == [1, 3]

    def test_simulator_round_trip_median(self):
        p0 = 2.0 / 3.0
        checkpoints = tuple(range(5000, 100_001, 5000))
        trace = run(SimParams(p0=p0, n_steps=100_000, seed=33, checkpoints=checkpoints))
        steps = np.array([c.step for c in trace.checkpoints])
        projects = np.array([c.n_projects for c in trace.checkpoints])
        series = p0_series(
            np.arange(1, steps.size), np.diff(projects), np.diff(steps)
        )
        assert abs(series.median - p0) < 0.03

    def test_established_founders_push_ratio_above_one(self):
        # corpus where month 1's three new projects are founded by ONE new
        # developer plus two established ones: delta N_p > delta N_d
        from forgesim import entry_exit_counts

        rows = [
            ("a", "p1", 0), ("b", "p2", 0),
            ("c", "q1", 1),            # new developer founds q1
            ("a", "q2", 1), ("b", "q3", 1),  # established developers found more
            ("pad", "z", 2),
        ]
        log = make_log(rows)
        counts = entry_exit_counts(log)
        series = p0_series(counts.months, counts.new_projects, counts.new_developers)
        assert series.above_one.tolist() == [1]
        assert series.values[1] == pytest.approx(3.0, rel=1e-12)

    def test_bad_variant(self):
        with pytest.raises(DomainError):
            p0_series([1], [1], [1], variant="none")

    @pytest.mark.parametrize("g1, gtot", [
        ([1, np.nan, 1, 1], [2, 2, 2, 2]),
        ([1, 1, 1, 1], [2, np.nan, 2, 2]),
        ([1, np.inf, 1, 1], [2, 2, 2, 2]),
        ([1, 1, 1, 1], [2, -np.inf, 2, 2]),
        ([np.nan, 1, 1, 1], [2, np.inf, 2, 2]),
    ], ids=["g1-nan", "gtot-nan", "g1-inf", "gtot--inf", "masked-first"])
    def test_non_finite_delta_names_month(self, g1, gtot):
        # the first unmasked month with a non-finite delta is named; a masked
        # month is not read
        with pytest.raises(DomainError, match="non-finite delta at month 7$"):
            p0_series([6, 7, 8, 9], g1, gtot, mask={6})


class TestClassification:
    def test_forever_single_is_non_collaborative(self):
        log = make_log([("d1", "p1", 0), ("pad", "q", 10)])
        labels = classify_collaborative(log, observation_end=10)
        assert not labels["p1"].collaborative

    def test_second_developer_flips_collaborative(self):
        log = make_log([("d1", "p1", 0), ("d2", "p1", 3), ("pad", "q", 10)])
        labels = classify_collaborative(log, observation_end=10)
        assert labels["p1"].collaborative

    def test_monotone_in_observation_end(self):
        log = make_log([("d1", "p1", 0), ("d2", "p1", 8), ("pad", "q", 10)])
        early = classify_collaborative(log, observation_end=5)
        late = classify_collaborative(log, observation_end=10)
        assert not early["p1"].collaborative
        assert late["p1"].collaborative

    def test_censor_flag_from_interarrival_horizon(self):
        # mean wait of ~450 days -> horizon ~14.8 months; a project born 3
        # months (about 100 days) before the end is flagged
        waits = np.random.default_rng(0).exponential(450.0, 3000)
        fit = fit_interarrival_waits(waits)
        horizon_months = fit.mean_days / DAYS_PER_MONTH
        log = make_log([("d1", "p1", 17), ("d0", "p0", 0), ("pad", "q", 20)])
        labels = classify_collaborative(log, observation_end=20,
                                        censor_horizon_months=horizon_months)
        assert labels["p1"].censored and not labels["p1"].collaborative
        assert not labels["p0"].censored

    def test_overlapping_records_of_one_developer_count_once(self):
        # d1 holds two overlapping records of p1; snapshot_at gives p1 size 1
        # in every month, so p1 is not collaborative
        log = make_log([("d1", "p1", 0), ("d1", "p1", 2, 6)])
        assert max(len(active_pairs(snapshot_at(log, m))) for m in range(7)) == 1
        labels = classify_collaborative(log, observation_end=6)
        assert not labels["p1"].collaborative

    def test_simultaneous_active_pair_required(self):
        # second developer joins only after the first left: size never >= 2
        log = make_log([("d1", "p1", 0, 2), ("d2", "p1", 4), ("pad", "q", 9)])
        labels = classify_collaborative(log, observation_end=9)
        assert not labels["p1"].collaborative


@st.composite
def membership_chains(draw):
    """Rows of a few pairs, each pair a chain of up to three records: a
    record may be zero-length or open, and the next one may overlap it,
    touch it (start at its exit) or rejoin after a gap."""
    rows, triples = [], set()
    for _ in range(draw(st.integers(1, 8))):
        dev, proj = draw(st.sampled_from("abcd")), draw(st.sampled_from("pqr"))
        entry = draw(st.integers(0, 8))
        for _ in range(draw(st.integers(1, 3))):
            length = draw(st.one_of(st.none(), st.integers(0, 4)))
            if (dev, proj, entry) not in triples:
                triples.add((dev, proj, entry))
                rows.append((dev, proj, entry, None if length is None else entry + length))
            if length is None:
                break
            entry = max(0, entry + length + draw(st.integers(-2, 3)))
    return rows


class TestCollaborativeReach:
    @given(membership_chains())
    @settings(max_examples=200, deadline=None)
    def test_matches_month_loop(self, rows):
        log = make_log(rows)
        lo, hi = log.month_range
        # observation_end below, inside and above the log's months
        for end in range(lo - 2, hi + 3):
            assert np.array_equal(_collaborative(log, end), oracle_collaborative(log, end)), end

    @pytest.mark.parametrize("rows, end, want", [
        ([("a", "p", 0, 3), ("b", "p", 3, 5)], 9, False),
        ([("a", "p", 0, 3), ("b", "p", 2, 5)], 1, False),
        ([("a", "p", 0, 3), ("b", "p", 2, 5)], 2, True),
        ([("a", "p", 0, 3), ("b", "p", 2, 2)], 9, False),
        ([("a", "p", 0, 0), ("b", "p", 0, 4)], 9, False),
        ([("a", "p", 0, 3), ("a", "p", 3, 6), ("b", "p", 5)], 5, True),
        ([("a", "p", 0, 3), ("a", "p", 3, 6), ("b", "p", 6)], 9, False),
        ([("a", "p", 0, 2), ("a", "p", 4), ("b", "p", 2, 4)], 9, False),
    ], ids=["touching", "before-overlap", "at-overlap", "zero-length-inside",
            "zero-length-first", "rejoined-pair-overlap", "rejoined-pair-touching",
            "alternating"])
    def test_directed_cases(self, rows, end, want):
        log = make_log(rows)
        assert _collaborative(log, end).tolist() == [want]
        assert oracle_collaborative(log, end).tolist() == [want]


class TestCollaborativeCounts:
    def test_founder_of_non_collaborative_excluded(self):
        rows = [
            ("f1", "solo1", 0),           # founds a never-growing project
            ("c1", "team", 0), ("c2", "team", 1),  # collaborative pair
            ("pad", "q", 6),
        ]
        months, new_p, new_d = collaborative_entry_counts(make_log(rows), observation_end=6)
        # month 0: 'team' is collaborative, 'solo1' is not
        assert new_p[0] == 1
        # f1 is excluded; c1 counts; month 1: c2 counts
        assert new_d[0] == 1
        assert new_d[1] == 1

    def test_established_developer_founding_solo_not_excluded(self):
        rows = [
            ("d1", "team", 0), ("d2", "team", 0),
            ("d1", "solo", 3),   # established developer founds a solo project
            ("pad", "q", 6),
        ]
        months, new_p, new_d = collaborative_entry_counts(make_log(rows), observation_end=6)
        # d1 entered at month 0 (collaborative context): still counted there
        assert new_d[0] == 2


class TestInterArrival:
    def test_synthetic_exponential_cohort(self):
        waits = np.random.default_rng(5).exponential(450.0, 3000)
        fit = fit_interarrival_waits(waits)
        assert fit.mean_days == pytest.approx(450.0, abs=15.0)
        assert fit.prob_before_mean == pytest.approx(1.0 - np.exp(-1.0), abs=0.02)
        assert 1.5 <= fit.censor_factor <= 1.7
        assert fit.lam == pytest.approx(1.0 / fit.mean_days, rel=1e-12)
        assert fit.exponential_plausible

    def test_degenerate_equal_waits(self):
        fit = fit_interarrival_waits([100.0] * 50)
        assert fit.prob_before_mean == 0.0
        assert not fit.exponential_plausible
        assert fit.censor_factor == np.inf

    def test_too_small_cohort(self):
        with pytest.raises(DegenerateDataError):
            fit_interarrival_waits([10.0] * 5)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -1.0])
    def test_negative_or_non_finite_wait_names_index(self, bad):
        waits = [10.0] * 40
        waits[3] = waits[9] = bad
        message = f"^wait 3 must be nonnegative and finite, got {bad}$"
        with pytest.raises(DomainError, match=message):
            fit_interarrival_waits(waits)

    def test_rejoining_founder_is_not_a_second_developer(self):
        rows = []
        for k in range(35):
            # founder leaves and rejoins: still a single-developer project
            rows.append((f"f{k}", f"solo{k}", 0, 1))
            rows.append((f"f{k}", f"solo{k}", 3))
        for k in range(35):
            rows.append((f"a{k}", f"duo{k}", 0))
            rows.append((f"b{k}", f"duo{k}", 5))
        rows.append(("pad", "q", 30))
        fit = interarrival_fit(make_log(rows), cohort_months={0})
        assert fit.n_waits == 35  # only the duo projects
        assert fit.n_censored == 35

    def test_log_level_censoring_bookkeeping(self):
        rows = []
        for k in range(40):  # gain second developer after 2 months
            rows.append((f"a{k}", f"grew{k}", 0))
            rows.append((f"b{k}", f"grew{k}", 2))
        for k in range(40):  # never grow: censored
            rows.append((f"c{k}", f"solo{k}", 0))
        rows.append(("pad", "q", 30))
        fit = interarrival_fit(make_log(rows), cohort_months={0})
        assert fit.n_waits == 40
        assert fit.n_censored == 40
        assert fit.mean_days == pytest.approx(2 * DAYS_PER_MONTH, rel=1e-12)
