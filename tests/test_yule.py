"""Tests of the Yule-Simon distribution machinery.

Expected values are either analytic (pmf(1) = rho/(rho+1), the size
recurrence), computed by independent summation oracles inside the test, or
cross-checked against mpmath at high precision.
"""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize_scalar
from scipy.special import digamma, polygamma
from scipy.stats import chi2, chi2_contingency

from forgesim import (
    ConvergenceError,
    DegenerateDataError,
    DomainError,
    SizeDistribution,
    cdf,
    log_pmf,
    mle_rho,
    p0_from_rho,
    pmf,
    rho_from_p0,
    sample,
    survival,
)
from forgesim import yule
from forgesim.simulate import _generator
from forgesim.yule import (
    DEFAULT_CDF_CACHE,
    _cdf_table,
    _hazard_cells,
    _invert_tail,
    _log_beta,
    _rows,
    _sample_counts_batch,
    _score_sums,
    fit_rho_batch,
    fit_rho_weighted,
    sample_counts,
)
import yule_scipy_oracle as oracle
from yule_chain_oracle import chain_sample_counts
from yule_sort_oracle import sort_sample_counts


def rng(seed=0):
    return np.random.default_rng(seed)


class TestPmf:
    def test_pmf_at_one_is_rho_over_rho_plus_one(self):
        assert pmf(1, 3.0) == pytest.approx(0.75, abs=1e-14)
        for rho in (0.5, 1.2, 2.0, 7.5):
            assert pmf(1, rho) == pytest.approx(rho / (rho + 1.0), rel=1e-14)

    def test_normalisation_with_analytic_tail(self):
        # direct summation oracle: head sum plus closed-form tail must be 1
        x = np.arange(1, 1_000_001)
        for rho in (1.2, 2.0, 3.0, 5.0):
            total = pmf(x, rho).sum() + survival(1_000_000, rho)
            assert total == pytest.approx(1.0, abs=1e-8)

    def test_power_law_tail(self):
        # the tail is a power law with exponent rho+1 and constant
        # rho*Gamma(rho+1); note the Gamma factor, which informal statements
        # of the asymptotic tend to drop
        rho = 3.0
        local_slope = (np.log(pmf(400, rho)) - np.log(pmf(200, rho))) / np.log(2.0)
        assert local_slope == pytest.approx(-(rho + 1.0), rel=0.02)
        constant = rho * 6.0  # Gamma(4) = 6
        ratio = pmf(1000, rho) / (constant * 1000.0**-4)
        assert abs(ratio - 1.0) < 0.02

    def test_recurrence_to_machine_precision(self):
        # each pmf evaluation carries ~1e-13 relative error (composed
        # special functions), so the ratio is pinned at 1e-12
        x = np.arange(2, 10_001)
        for rho in (1.2, 3.0, 10.0):
            lhs = pmf(x, rho) / pmf(x - 1, rho)
            rhs = (x - 1.0) / (x + rho)
            np.testing.assert_allclose(lhs, rhs, rtol=1e-12)

    def test_tail_ratio_monotone_to_one(self):
        rho = 3.0
        x = np.array([10, 100, 1000, 10_000, 100_000])
        ratios = x ** (rho + 1) * pmf(x, rho) / (rho * 6.0)  # Gamma(rho+1) = 6
        assert np.all(np.diff(ratios) > 0)  # increasing toward 1 from below
        assert np.all(ratios < 1.0)
        assert ratios[-1] == pytest.approx(1.0, rel=1e-4)

    def test_twelve_digit_accuracy_against_mpmath(self):
        mpmath.mp.dps = 40
        for rho in (1.2, 3.0, 50.0):
            for x in (1, 63, 64, 1000, 10**6):
                ours = mpmath.mpf(float(pmf(x, rho)))
                exact = mpmath.mpf(rho) * mpmath.beta(x, rho + 1)
                assert abs((ours - exact) / exact) < 1e-12

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            pmf(0, 3.0)
        with pytest.raises(DomainError):
            pmf(2.5, 3.0)
        with pytest.raises(DomainError):
            pmf(1, 0.0)
        with pytest.raises(DomainError):
            pmf(1, -1.0)

    def test_log_pmf_matches_pmf(self):
        x = np.arange(1, 100)
        np.testing.assert_allclose(np.exp(log_pmf(x, 2.5)), pmf(x, 2.5), rtol=1e-14)


class TestCumulatives:
    def test_cdf_at_one(self):
        assert cdf(1, 3.0) == pytest.approx(0.75, abs=1e-14)

    def test_cdf_approaches_one(self):
        assert cdf(10**9, 3.0) == pytest.approx(1.0, abs=1e-8)

    def test_survival_against_brute_force_tail_sum(self):
        # oracle: chunked direct summation of the pmf beyond x, truncated where
        # the remainder is provably below the tolerance
        rho, x = 1.2, 50
        top = 30_000_000
        acc = 0.0
        for lo in range(x + 1, top, 3_000_000):
            ys = np.arange(lo, min(lo + 3_000_000, top))
            acc += pmf(ys, rho).sum()
        remainder_bound = survival(top - 1, rho)
        ours = survival(x, rho)
        assert abs(ours - acc) <= abs(acc) * 1e-6 + remainder_bound

    def test_cdf_is_prefix_sum_of_pmf(self):
        x = np.arange(1, 2001)
        for rho in (1.2, 3.0):
            prefix = np.cumsum(pmf(x, rho))
            np.testing.assert_allclose(cdf(x, rho), prefix, rtol=1e-11)

    def test_cached_table_matches_closed_form(self):
        table = _cdf_table(3.0, 10_000)
        x = np.arange(1, 10_001)
        np.testing.assert_allclose(table, cdf(x, 3.0), rtol=1e-10, atol=1e-15)


class TestSampling:
    def test_determinism(self):
        a = sample(3.0, 1000, rng(42))
        b = sample(3.0, 1000, rng(42))
        np.testing.assert_array_equal(a, b)

    def test_empirical_singleton_fraction(self):
        draws = sample(3.0, 100_000, rng(7))
        assert (draws == 1).mean() == pytest.approx(0.75, abs=0.01)

    def test_mle_round_trip(self):
        draws = sample(3.0, 10_000, rng(11))
        fit = mle_rho(SizeDistribution.from_sizes(draws))
        assert 2.85 <= fit.rho_hat <= 3.15

    def test_tail_fallback_agrees_with_big_table(self):
        # tiny cache forces the closed-form tail inversion; the draws must be
        # identical to what a table covering the whole range produces
        small = sample(1.2, 50_000, rng(3), x_cache=64)
        big = sample(1.2, 50_000, rng(3), x_cache=DEFAULT_CDF_CACHE)
        np.testing.assert_array_equal(small, big)

    def test_rejects_bad_n(self):
        with pytest.raises(DomainError):
            sample(3.0, 0, rng())
        with pytest.raises(DomainError):
            sample_counts(3.0, 0, rng())

    @pytest.mark.parametrize("sampler", [sample, sample_counts])
    def test_draw_above_int64_is_a_domain_error(self, sampler):
        # at rho = 0.05, S(2**63 - 1) = 0.11: of 1000 draws, about 110 lie
        # beyond the int64 sizes
        with pytest.raises(DomainError, match=r"rho=0\.05 .* int64 bound 9223372036854775807"):
            sampler(0.05, 1000, rng(2))

    @pytest.mark.parametrize("sampler", [sample, sample_counts])
    def test_small_rho_still_samples(self, sampler):
        # at rho = 0.2, S(1e5) = 0.09 and S(2**63 - 1) = 1.5e-4: the tail
        # inversion places sizes far beyond the cache, all of them in int64
        draws = sampler(0.2, 300, rng(4))
        sizes = np.unique(draws) if sampler is sample else draws[0]
        assert sizes.dtype == np.int64 and sizes[-1] > DEFAULT_CDF_CACHE

    @pytest.mark.parametrize(
        "rho, n, x_cache",
        [(3.0, 5000, DEFAULT_CDF_CACHE), (1.2, 50_000, 64), (0.5, 2000, 10), (3.0, 1, 64),
         (1.05, 100_000, DEFAULT_CDF_CACHE)],
    )
    def test_sort_oracle_is_unique_of_sample(self, rho, n, x_cache):
        # same stream, same histogram, bit for bit; the small caches force
        # tail inversion for part of the draws
        sizes, counts = np.unique(sample(rho, n, rng(17), x_cache=x_cache), return_counts=True)
        got_sizes, got_counts = sort_sample_counts(rho, n, rng(17), x_cache=x_cache)
        np.testing.assert_array_equal(got_sizes, sizes)
        np.testing.assert_array_equal(got_counts, counts)
        assert got_sizes.dtype == got_counts.dtype == np.int64
        if x_cache < 100 and n > 1:
            assert got_sizes[-1] > x_cache


def _bisect_on_survival(target_survival, rho, lo):
    """_invert_tail as it was before it hoisted its log B row: the same
    bisection, on the public survival function."""
    guess = int(np.exp((math.lgamma(rho + 1.0) - np.log(target_survival)) / rho))
    hi = max(lo + 1, guess)
    while survival(hi, rho) > target_survival:
        hi *= 2
    lo_b, hi_b = lo, hi
    while lo_b < hi_b:
        mid = (lo_b + hi_b) // 2
        if survival(mid, rho) > target_survival:
            lo_b = mid + 1
        else:
            hi_b = mid
    return lo_b


# Pearson chi-square cells: sizes 1..80 and one cell above, with neighbours
# merged until each cell expects at least 5 draws. A p-value below the floor
# fails the test.
_TOP_CELL = 80
_MIN_EXPECTED = 5.0
_P_FLOOR = 1e-3


def _cells(rho, n):
    """Expected counts of n draws in the merged cells, and each size's cell
    (index size-1, with sizes above 80 in the last entry)."""
    x = np.arange(1, _TOP_CELL + 1)
    expected = n * np.append(pmf(x, rho), survival(_TOP_CELL, rho))
    cell = np.empty(expected.size, dtype=np.intp)
    group, acc = 0, 0.0
    for i, e in enumerate(expected):
        cell[i] = group
        acc += e
        if acc >= _MIN_EXPECTED:
            group, acc = group + 1, 0.0
    if acc < _MIN_EXPECTED:  # a short last cell joins the one below it
        cell[cell == group] = group - 1
    return np.bincount(cell, expected), cell


def _observed(sizes, counts, cell):
    return np.bincount(cell[np.minimum(sizes, _TOP_CELL + 1) - 1], counts, minlength=cell.max() + 1)


def _pooled(sampler, rho, n, replicas, x_cache, seed):
    """One histogram of `replicas` histograms of n draws, each on its own stream."""
    hists = [sampler(rho, n, rng(seed + b), x_cache=x_cache) for b in range(replicas)]
    return np.concatenate([h[0] for h in hists]), np.concatenate([h[1] for h in hists])


# rho below 1, near 1 and at the model's 3; a sample of 1e5; caches of 1, 10
# and 64 sizes, which send every draw above 32 (or 64) to _invert_tail; and
# n = 1 and 3, whose chains mostly stop with no draws left well before 32.
# At rho = 3 and n = 1000 most chains stop early too.
POOLS = [  # rho, n, replicas, x_cache
    (0.7, 1000, 100, DEFAULT_CDF_CACHE),
    (1.2, 1000, 100, DEFAULT_CDF_CACHE),
    (3.0, 1000, 100, DEFAULT_CDF_CACHE),
    (3.0, 100_000, 5, DEFAULT_CDF_CACHE),
    (1.2, 500, 40, 1),
    (3.0, 1000, 100, 10),
    (0.7, 500, 40, 64),
    (1.2, 1, 20_000, DEFAULT_CDF_CACHE),
    (0.7, 3, 5000, 10),
]


class TestHazardChainSampler:
    @pytest.mark.parametrize("rho, n, replicas, x_cache", POOLS)
    def test_pooled_histogram_follows_the_pmf(self, rho, n, replicas, x_cache):
        sizes, counts = _pooled(sample_counts, rho, n, replicas, x_cache, seed=1600)
        expected, cell = _cells(rho, n * replicas)
        observed = _observed(sizes, counts, cell)
        stat = np.sum((observed - expected) ** 2 / expected)
        assert chi2.sf(stat, expected.size - 1) > _P_FLOOR

    @pytest.mark.parametrize("rho, n, replicas, x_cache", [
        (0.7, 1000, 100, DEFAULT_CDF_CACHE),
        (1.2, 500, 40, 64),
        (3.0, 1000, 100, DEFAULT_CDF_CACHE),
    ])
    def test_same_distribution_as_the_sort_oracle(self, rho, n, replicas, x_cache):
        # two-sample chi-square on the merged cells, the oracle on other streams
        _, cell = _cells(rho, 2 * n * replicas)
        chain = _observed(*_pooled(sample_counts, rho, n, replicas, x_cache, seed=1700), cell)
        sort = _observed(*_pooled(sort_sample_counts, rho, n, replicas, x_cache, seed=1800), cell)
        assert chi2_contingency(np.stack([chain, sort]))[1] > _P_FLOOR

    @pytest.mark.parametrize("rho, n, replicas, x_cache", [
        (0.7, 1000, 100, DEFAULT_CDF_CACHE),
        (1.2, 500, 40, 64),
        (2.0, 3000, 50, DEFAULT_CDF_CACHE),
        (3.0, 1000, 100, DEFAULT_CDF_CACHE),
    ])
    def test_same_distribution_as_the_chain_oracle(self, rho, n, replicas, x_cache):
        # two-sample chi-square on the merged cells, the oracle on other streams
        _, cell = _cells(rho, 2 * n * replicas)
        batch = _observed(*_pooled(sample_counts, rho, n, replicas, x_cache, seed=1900), cell)
        chain = _observed(*_pooled(chain_sample_counts, rho, n, replicas, x_cache, seed=2000), cell)
        assert chi2_contingency(np.stack([batch, chain]))[1] > _P_FLOOR

    @pytest.mark.parametrize("rho", [0.05, 0.6, 1.0, 1.62, 2.0, 3.0, 3.03, 7.0, 17.5, 32.0, 1e3])
    def test_binomial_probabilities_are_the_hazard_to_one_ulp(self, rho):
        # Generator.multinomial draws cell k-1 on cells[k-1] / (mass not yet
        # assigned), subtracting each cell from 1.0 in turn; at integer rho
        # the hazard of size rho is exactly 1/2, and so is the probability
        cells = _hazard_cells(rho)[0]
        remaining = 1.0
        for k, cell in enumerate(cells[:-1].tolist(), start=1):
            hazard = rho / (k + rho)
            ratio = cell / remaining
            assert abs(ratio - hazard) <= np.spacing(hazard), k
            assert (ratio == 0.5) == (hazard == 0.5) == (k == rho), k
            remaining -= cell
        assert cells[-1] == remaining > 0.0

    def test_mostly_the_chain_oracles_draws(self):
        # one multinomial call reads the stream as the chain's 32 binomial
        # calls did; a histogram differs only where a probability 1 ulp off
        # the hazard changes a binomial draw (99% of 1800 histograms agreed
        # over rho 0.7-30 and n 10-1e5)
        same = 0
        grid = [(rho, n, b) for rho in (0.7, 1.62, 3.0, 30.0) for n in (10, 1000, 20_000)
                for b in range(25)]
        for rho, n, b in grid:
            got = sample_counts(rho, n, _generator(5, b))
            want = chain_sample_counts(rho, n, _generator(5, b))
            same += all(np.array_equal(g, w) for g, w in zip(got, want))
        assert same >= 0.95 * len(grid)

    @pytest.mark.parametrize("rho, n, x_cache", [
        (3.0, 1, DEFAULT_CDF_CACHE), (0.7, 1, 1), (3.0, 5000, 10), (0.7, 5000, 64),
        (1.2, 100_000, DEFAULT_CDF_CACHE), (50.0, 1000, DEFAULT_CDF_CACHE),
    ])
    def test_histogram_shape_and_determinism(self, rho, n, x_cache):
        sizes, counts = sample_counts(rho, n, rng(31), x_cache=x_cache)
        assert sizes.dtype == counts.dtype == np.int64
        assert sizes[0] >= 1 and np.all(np.diff(sizes) > 0) and np.all(counts > 0)
        assert counts.sum() == n
        again = sample_counts(rho, n, rng(31), x_cache=x_cache)
        np.testing.assert_array_equal(again[0], sizes)
        np.testing.assert_array_equal(again[1], counts)

    def test_tail_inversion_matches_bisection_on_survival(self):
        # the hoisted log B row leaves every survival value, and so every
        # bisection step, as survival() computes it
        gen = rng(41)
        for rho in (0.3, 0.7, 1.2, 3.0, 9.0):
            for lo in (1, 10, 32, 64, 100_000):
                for t in survival(lo, rho) * (1.0 - gen.random(4)):
                    assert _invert_tail(t, rho, lo) == _bisect_on_survival(t, rho, lo)


class TestBatchSampler:
    @settings(max_examples=30, deadline=None)
    @given(rho=st.sampled_from([0.6, 1.0, 2.44, 3.0, 17.5]), n=st.integers(1, 400),
           x_cache=st.sampled_from([1, 40, DEFAULT_CDF_CACHE]),
           cuts=st.lists(st.integers(0, 8), max_size=3), budget=st.integers(1, 2000),
           seed=st.integers(0, 2**32))
    @example(rho=0.6, n=400, x_cache=1, cuts=[3], budget=50, seed=3)
    @example(rho=1.0, n=300, x_cache=DEFAULT_CDF_CACHE, cuts=[], budget=1, seed=4)
    def test_any_split_and_flush_point_gives_each_replicas_histogram(
            self, rho, n, x_cache, cuts, budget, seed):
        # each replica's histogram is sample_counts on its own generator, bit
        # for bit, wherever the replicas are split and the tail draws flushed;
        # rho = 0.6 and a cache of 1 or 40 sizes send draws past the table
        replicas = 8
        want = [sample_counts(rho, n, _generator(seed, b), x_cache) for b in range(replicas)]
        bounds = sorted({0, replicas, *cuts})
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(yule, "_TAIL_BUDGET", budget)
            for lo, hi in zip(bounds, bounds[1:]):
                sizes, counts, replica = _sample_counts_batch(
                    rho, n, (_generator(seed, b) for b in range(lo, hi)), x_cache)
                assert sizes.dtype == counts.dtype == np.int64
                assert np.array_equal(np.unique(replica), np.arange(hi - lo))
                assert np.all(np.diff(replica) >= 0)
                for b in range(lo, hi):
                    np.testing.assert_array_equal(sizes[replica == b - lo], want[b][0])
                    np.testing.assert_array_equal(counts[replica == b - lo], want[b][1])

    def test_each_generator_makes_at_most_two_calls(self):
        class Recorder:
            def __init__(self, generator):
                self.generator, self.calls = generator, []

            def multinomial(self, n, cells):
                self.calls.append("multinomial")
                return self.generator.multinomial(n, cells)

            def random(self, size):
                self.calls.append(f"random({size})")
                return self.generator.random(size)

        gens = [Recorder(_generator(2, b)) for b in range(40)]
        sizes, counts, replica = _sample_counts_batch(3.0, 2000, iter(gens))
        above = np.bincount(replica, counts * (sizes > 32), minlength=40).astype(np.int64)
        for gen, left in zip(gens, above):
            assert gen.calls == ["multinomial"] + ([f"random({left})"] if left else [])
        assert 0 < np.count_nonzero(above) < 40

    def test_no_generators_give_no_histograms(self):
        sizes, counts, replica = _sample_counts_batch(3.0, 10, iter([]))
        assert sizes.size == counts.size == replica.size == 0

    def test_draw_above_int64_is_the_chain_oracles_domain_error(self):
        # at rho = 0.1, S(2**63 - 1) = 0.012: of 1000 draws, about 12 lie
        # beyond the int64 sizes
        with pytest.raises(DomainError) as got:
            _sample_counts_batch(0.1, 1000, (_generator(2, b) for b in range(10)))
        with pytest.raises(DomainError) as want:
            chain_sample_counts(0.1, 1000, _generator(2, 0))
        assert str(got.value) == str(want.value) == (
            "rho=0.1 is too small to sample: a draw fell above the int64 bound "
            "9223372036854775807")


class TestMle:
    def test_recovers_rho_from_exact_expected_counts(self):
        x = np.arange(1, 5001)
        dist = SizeDistribution(x, pmf(x, 3.0) * 10_000)
        fit = mle_rho(dist)
        assert fit.rho_hat == pytest.approx(3.0, abs=0.01)
        assert fit.domain_flag
        assert fit.derived_p0 == pytest.approx(1.0 - 1.0 / fit.rho_hat, abs=1e-12)
        assert np.isfinite(fit.log_likelihood)

    def test_recovers_firm_size_regime(self):
        draws = sample(1.2, 10_000, rng(5))
        fit = mle_rho(SizeDistribution.from_sizes(draws))
        # sampling sd of rho_hat here is about 0.015
        assert fit.rho_hat == pytest.approx(1.2, abs=0.06)

    def test_all_singletons_degenerate(self):
        with pytest.raises(DegenerateDataError):
            mle_rho(SizeDistribution.from_mapping({1: 100}))

    def test_too_few_observations(self):
        with pytest.raises(DegenerateDataError):
            mle_rho(SizeDistribution.from_mapping({2: 1}))

    def test_domain_flag_false_below_one(self):
        # steep histogram pushes the estimate below 1; reported, not rejected
        dist = SizeDistribution.from_mapping({1: 10_000, 2: 100})
        fit = mle_rho(dist)
        assert fit.rho_hat > 0
        assert fit.domain_flag == (fit.rho_hat > 1.0)


def _brent_fit_rho_weighted(sizes, weights):
    """The bounded-Brent MLE that the Newton iteration replaced, kept as an oracle."""
    sizes = np.asarray(sizes, dtype=np.float64)
    weights = np.asarray(weights, dtype=np.float64)

    def nll(t):
        r = np.exp(t)
        ll = np.log(r) + oracle.log_beta(sizes, r + 1.0)
        return -float(np.dot(weights, ll))

    # Brent stops short of a bracket end by up to ~sqrt(eps) relative (999.998
    # against the bound 1e3 for {1: 999, 2: 1}), so an estimate within 0.1% of
    # an end counts as pinned there; widening the bracket is always safe.
    lo, hi = 1e-3, 1e3
    for _ in range(6):
        res = minimize_scalar(nll, bounds=(np.log(lo), np.log(hi)), method="bounded",
                              options={"xatol": 1e-9, "maxiter": 500})
        t_hat = float(res.x)
        at_lo = t_hat - np.log(lo) < 1e-3
        at_hi = np.log(hi) - t_hat < 1e-3
        if not (at_lo or at_hi):
            assert res.success
            return float(np.exp(t_hat)), -float(res.fun)
        if at_lo:
            lo /= 10.0
        if at_hi:
            hi *= 10.0
    raise AssertionError("oracle pinned to its bracket")


def _score_terms(sizes, weights, rho):
    """Per-size terms of d loglik / d log rho, and of its derivative, by scipy."""
    d1 = digamma(sizes + rho + 1.0) - digamma(rho + 1.0)
    d2 = polygamma(1, rho + 1.0) - polygamma(1, sizes + rho + 1.0)
    return weights * (1.0 - rho * d1), weights * rho * (rho * d2 - d1)


@st.composite
def histograms(draw):
    """Integer-count size histograms with at least one size >= 2."""
    top = draw(st.sampled_from([5, 50, 1000, 10**6]))
    sizes = draw(st.lists(st.integers(1, top), min_size=1, max_size=30, unique=True))
    sizes = np.array(sorted(set(sizes) | {draw(st.integers(2, max(2, top)))}), dtype=np.float64)
    counts = np.array(draw(st.lists(st.integers(1, 1000), min_size=sizes.size, max_size=sizes.size)),
                      dtype=np.float64)
    return sizes, counts


class TestNewtonMle:
    @given(histograms())
    @example((np.array([1.0, 2.0]), np.array([999.0, 1.0])))  # the root 1000.998 lies past 1e3
    @settings(max_examples=200, deadline=None)
    def test_matches_brent_oracle_and_zeroes_the_score(self, hist):
        sizes, counts = hist
        rho, _ = fit_rho_weighted(sizes, counts)
        rho_old, _ = _brent_fit_rho_weighted(sizes, counts)
        # The oracle compares float64 likelihood values and stops on a
        # sqrt(eps)-relative bracket, so on flat likelihoods (few
        # observations, large rho) it misses the exact root by up to ~1e-6 at
        # rho ~ 36 ({1: 34, 2: 1}, see the closed-form test) and ~2e-5 at
        # rho ~ 1e3. It is matched at 1e-4; exactness is checked on the score
        # here and against closed-form and high-precision roots below.
        assert rho == pytest.approx(rho_old, rel=1e-4)
        g, _ = _score_terms(sizes, counts, rho)
        assert abs(g.sum()) <= 1e-10 * np.sum(counts * sizes)

    @given(st.integers(0, 10_000), st.integers(1, 10_000))
    @settings(max_examples=200, deadline=None)
    def test_closed_form_root_for_sizes_one_and_two(self, n1, n2):
        # the score of n1 singletons and n2 pairs vanishes where
        # n2 rho^2 - n1 rho - 2 (n1 + n2) = 0
        exact = (n1 + np.sqrt(n1 * n1 + 8.0 * n2 * (n1 + n2))) / (2.0 * n2)
        rho, _ = fit_rho_weighted([1, 2], [n1, n2])
        assert rho == pytest.approx(exact, rel=1e-11)

    @pytest.mark.parametrize("sizes, counts, rel", [
        ([1, 2, 3, 7, 40], [700, 150, 60, 9, 1], 1e-12),
        ([2, 3, 1_000_000], [1, 1, 5], 1e-12),
        # at rho ~ 1e6 the singleton term 1 - rho/(rho+1) of the score is a
        # difference of numbers near 1, good to ~eps absolute, which leaves
        # rho good to ~eps * rho relative
        ([1, 2], [1e6, 1.0], 1e-9),
    ])
    def test_against_high_precision_score_root(self, sizes, counts, rel):
        mpmath.mp.dps = 40
        rho, _ = fit_rho_weighted(np.array(sizes), np.array(counts))

        def score(r):
            return sum(mpmath.mpf(c) * (1 / r + mpmath.digamma(r + 1) - mpmath.digamma(x + r + 1))
                       for x, c in zip(sizes, counts))

        exact = float(mpmath.findroot(score, mpmath.mpf(rho)))
        assert rho == pytest.approx(exact, rel=rel)

    def test_replica_bitwise_alone_in_block_and_in_batch(self):
        hists = [sample_counts(rho, 3000, rng(b)) for b, rho in enumerate([3.0, 1.2, 0.6, 8.0] * 5)]

        def fit(group):
            sizes = np.concatenate([hists[i][0] for i in group])
            counts = np.concatenate([hists[i][1] for i in group])
            replica = np.repeat(np.arange(len(group)), [len(hists[i][0]) for i in group])
            return fit_rho_batch(sizes, counts, replica, len(group))[:2]

        rho_all, ll_all = fit(range(20))
        rho_block, ll_block = fit(range(5, 12))
        np.testing.assert_array_equal(rho_block, rho_all[5:12])
        np.testing.assert_array_equal(ll_block, ll_all[5:12])
        for i, (sizes, counts) in enumerate(hists):
            alone = fit_rho_weighted(sizes, counts)
            assert alone == (rho_all[i], ll_all[i])

    def test_interleaved_triples(self):
        # the triples of one replica need not be contiguous
        sizes = np.array([1, 1, 2, 2, 5, 9])
        counts = np.array([70, 40, 20, 10, 3, 1])
        replica = np.array([0, 1, 0, 1, 1, 0])
        rho, _, steps = fit_rho_batch(sizes, counts, replica, 2)
        assert steps.dtype == np.int64 and np.all((1 <= steps) & (steps <= yule._MAX_ITERATIONS))
        assert rho[0] == pytest.approx(fit_rho_weighted([1, 2, 9], [70, 20, 1])[0], rel=1e-14)
        assert rho[1] == pytest.approx(fit_rho_weighted([1, 2, 5], [40, 10, 3])[0], rel=1e-14)

    @pytest.mark.parametrize("sizes, counts", [
        ([1, 2, 3, 7, 40], [700, 150, 60, 9, 1]),
        ([2, 3, 1_000_000], [1, 1, 5]),
        ([1, 2, 3], [10**6, 40, 1]),
    ])
    def test_truncated_against_high_precision_score_root(self, sizes, counts):
        mpmath.mp.dps = 40
        rho, ll, _ = fit_rho_batch(np.array(sizes), np.array(counts), np.zeros(len(sizes), np.intp),
                                   1, truncated=True)

        # d/d rho of sum_{x>=2} n(x) [log f(x) + log(rho+1)]
        def score(r):
            return sum(mpmath.mpf(c) * (1 / r + 1 / (r + 1) + mpmath.digamma(r + 1)
                                        - mpmath.digamma(x + r + 1))
                       for x, c in zip(sizes, counts) if x >= 2)

        exact = mpmath.findroot(score, mpmath.mpf(rho[0]))
        assert rho[0] == pytest.approx(float(exact), rel=1e-12)
        loglik = sum(c * (mpmath.log(exact) + mpmath.log(mpmath.beta(x, exact + 1))
                          + mpmath.log(exact + 1))
                     for x, c in zip(sizes, counts) if x >= 2)
        assert ll[0] == pytest.approx(float(loglik), rel=1e-12)

    def test_truncated_ignores_size_one_and_keeps_batches_bitwise(self):
        hists = [sample_counts(rho, 3000, rng(b)) for b, rho in enumerate([3.0, 1.2, 0.6, 8.0])]
        sizes = np.concatenate([h[0] for h in hists])
        counts = np.concatenate([h[1] for h in hists]).astype(np.float64)
        replica = np.repeat(np.arange(4), [len(h[0]) for h in hists])
        rho, ll, steps = fit_rho_batch(sizes, counts, replica, 4, truncated=True)
        inflated = counts + 1e4 * (sizes == 1)
        np.testing.assert_array_equal(fit_rho_batch(sizes, inflated, replica, 4, truncated=True)[0],
                                      rho)
        for i, (s, c) in enumerate(hists):
            alone = fit_rho_batch(s, c, np.zeros(len(s), np.intp), 1, truncated=True)
            assert (alone[0][0], alone[1][0], alone[2][0]) == (rho[i], ll[i], steps[i])

    def test_all_singleton_replica_is_degenerate(self):
        with pytest.raises(DegenerateDataError):
            fit_rho_batch(np.array([1, 2, 1]), np.array([5.0, 1.0, 7.0]), np.array([0, 0, 1]), 2)

    def test_iteration_cap_raises_with_best_point(self, monkeypatch):
        monkeypatch.setattr(yule, "_MAX_ITERATIONS", 1)
        with pytest.raises(ConvergenceError) as info:
            fit_rho_weighted([1, 2, 3], [50.0, 10.0, 4.0])
        assert info.value.best.shape == (1,) and info.value.best[0] > 0

    def test_digamma_difference_against_mpmath(self):
        mpmath.mp.dps = 40
        for a in (1.5, 63.0, 64.0, 1e3, 1e6, 1e9):
            for x in (0.0, 1.0, 2.0, 17.0, 1e4, 1e8):
                ours = float(_score_sums(np.array([a]), np.array([x]), np.zeros(1, np.intp))[0][0])
                exact = mpmath.digamma(a + x) - mpmath.digamma(a)
                assert abs(ours - exact) <= 1e-14 * abs(exact) + 1e-300

    def test_trigamma_difference_against_mpmath(self):
        mpmath.mp.dps = 40
        for a in (1.05, 1.5, 63.0, 64.0, 1e3, 1e6):
            for x in (0.0, 1.0, 2.0, 17.0, 64.0, 65.0, 1e4, 1e8):
                ours = float(_score_sums(np.array([a]), np.array([x]), np.zeros(1, np.intp))[1][0])
                exact = mpmath.psi(1, a) - mpmath.psi(1, a + x)
                assert abs(ours - exact) <= 1e-14 * abs(exact) + 1e-300

    def test_array_rho_is_a_domain_error(self):
        # one rho per call: an array rho, even a one-element one, is rejected
        x = np.array([1, 5, 100, 10**5])
        for call in (cdf, log_pmf, yule.log_survival):
            for rho in (np.array([0.7, 3.0, 1.2, 9.0]), np.array([3.0]), [3.0]):
                with pytest.raises(DomainError, match="single value"):
                    call(x, rho)
        assert cdf(x, np.float64(3.0)).tolist() == cdf(x, 3.0).tolist()


class TestNumpySumsAgainstScipy:
    """The numpy log B and score sums against the scipy evaluation they replaced."""

    @given(st.floats(0.05, 100.0),
           st.lists(st.integers(1, 130) | st.integers(1, 10**6), min_size=1, max_size=40))
    @settings(max_examples=200, deadline=None)
    def test_log_beta_and_score_sums(self, rho, sizes):
        x = np.array(sizes, dtype=np.float64)
        a, row = _rows(rho, x.shape)
        np.testing.assert_allclose(_log_beta(x, a, row), oracle.log_beta(x, rho + 1.0), rtol=1e-13)
        d1, d2 = _score_sums(a, x, row)
        np.testing.assert_allclose(d1, oracle.digamma_diff(rho + 1.0, x), rtol=1e-13)
        np.testing.assert_allclose(d2, oracle.trigamma_diff(rho + 1.0, x), rtol=1e-13)

    @given(st.floats(0.5, 5.0), st.integers(0, 2**32 - 1), st.sampled_from([50, 1000, 20_000]))
    @settings(max_examples=100, deadline=None)
    def test_fit_matches_scipy_newton(self, rho, seed, n):
        sizes, counts = sample_counts(rho, n, rng(seed))
        assume(sizes[-1] >= 2)
        rho_hat, loglik = fit_rho_weighted(sizes, counts)
        rho_oracle, loglik_oracle = oracle.newton_fit(sizes, counts)
        assert rho_hat == pytest.approx(rho_oracle, rel=1e-12)
        assert loglik == pytest.approx(loglik_oracle, rel=1e-12)


class TestRhoP0Mapping:
    def test_paper_anchor_values(self):
        assert rho_from_p0(2.0 / 3.0) == pytest.approx(3.0, rel=1e-14)
        assert rho_from_p0(0.16) == pytest.approx(1.1905, abs=1e-4)
        assert p0_from_rho(3.0) == pytest.approx(2.0 / 3.0, rel=1e-14)

    @given(st.floats(min_value=0.01, max_value=0.99))
    @settings(max_examples=50, deadline=None)
    def test_round_trip(self, p0):
        assert p0_from_rho(rho_from_p0(p0)) == pytest.approx(p0, rel=1e-12)

    def test_domain_errors(self):
        for bad in (0.0, 1.0, -0.1, 1.5):
            with pytest.raises(DomainError):
                rho_from_p0(bad)
        with pytest.raises(DomainError):
            p0_from_rho(1.0)
