"""Tests of the EM singleton correction and its monthly prediction layer."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from em_loop_oracle import em_loop
from forgesim import (
    AlignmentError,
    DegenerateDataError,
    EMResult,
    SizeDistribution,
    em_fit,
    pmf,
    predicted_collaborative_entries,
    sample,
)
from forgesim.yule import fit_rho_batch, sample_counts


def expected_counts(rho, total, x_max=2000):
    x = np.arange(1, x_max + 1)
    return SizeDistribution(x, pmf(x, rho) * total)


class TestEmFit:
    def test_model_consistent_input_is_fixed_point(self):
        dist = expected_counts(3.0, 10_000)
        res = em_fit(dist)
        assert res.converged
        assert res.rho_col == pytest.approx(3.0, abs=0.01)
        assert res.latent_singletons == pytest.approx(res.observed_singletons, rel=0.01)

    def test_recovers_truth_from_inflated_mixture(self):
        draws = sample(3.0, 10_000, np.random.default_rng(123))
        vals, cnts = np.unique(draws, return_counts=True)
        true_collaborative = float(cnts[vals == 1][0])
        cnts = cnts.astype(float)
        cnts[vals == 1] += 3 * true_collaborative  # extra pure singletons
        res = em_fit(SizeDistribution(vals, cnts))
        assert res.converged
        assert 2.8 <= res.rho_col <= 3.2
        assert res.latent_singletons == pytest.approx(true_collaborative, rel=0.10)
        assert res.non_collaborative_singletons == pytest.approx(
            res.observed_singletons - res.latent_singletons, abs=1e-9
        )

    def test_tail_block_drives_the_fit(self):
        # adding pure singletons changes nothing the EM looks at: the x>=2
        # block is carried over bit-identically, so the corrected fit and
        # latent count are exactly unchanged
        dist = expected_counts(3.0, 5000)
        inflated = SizeDistribution.from_mapping(
            {**dist.as_dict(), 1: dist.count(1) + 12_345.0}
        )
        a, b = em_fit(dist), em_fit(inflated)
        assert a.rho_col == b.rho_col
        assert a.latent_singletons == b.latent_singletons

    def test_idempotence_on_corrected_histogram(self):
        draws = sample(3.0, 5000, np.random.default_rng(7))
        vals, cnts = np.unique(draws, return_counts=True)
        cnts = cnts.astype(float)
        cnts[vals == 1] += 5000
        first = em_fit(SizeDistribution(vals, cnts))
        corrected = {int(v): float(c) for v, c in zip(vals, cnts) if v >= 2}
        corrected[1] = first.latent_singletons
        second = em_fit(SizeDistribution.from_mapping(corrected))
        # the solve is a function of the x>=2 block alone, so this is exact
        assert second.rho_col == first.rho_col
        assert second.latent_singletons == first.latent_singletons

    def test_degenerate_input(self):
        with pytest.raises(DegenerateDataError):
            em_fit(SizeDistribution.from_mapping({1: 100, 2: 50}))

    def test_empty_tail_is_degenerate(self):
        # no size >= 2 at all: the solve gets empty arrays
        with pytest.raises(DegenerateDataError):
            em_fit(SizeDistribution.from_mapping({1: 100}))

    @pytest.mark.parametrize("sizes, counts", [
        ([1, 2], [100.0, 50.0]),
        ([2], [50.0]),
        ([1], [7.0]),
    ])
    def test_truncated_fit_needs_weight_above_two(self, sizes, counts):
        # with weight only at x <= 2 the truncated score 2/(rho+2) > 0 never
        # vanishes: the likelihood rises without bound in rho
        with pytest.raises(DegenerateDataError, match="no weight above size 2"):
            fit_rho_batch(np.array(sizes), np.array(counts), np.zeros(len(sizes), np.intp), 1,
                          truncated=True)

    def test_one_size_above_two_is_enough(self):
        # the truncated score of n(3) alone, n(3) [1 - rho/(rho+2) - rho/(rho+3)],
        # vanishes where rho^2 = 6
        res = em_fit(SizeDistribution.from_mapping({1: 40, 3: 10}))
        assert res.rho_col == pytest.approx(np.sqrt(6.0), rel=1e-12)
        assert res.latent_singletons == res.rho_col * 10


@st.composite
def inflated_histograms(draw):
    """Yule draws with extra pure singletons and at least one size >= 3."""
    rho = draw(st.floats(0.8, 6.0))
    n = draw(st.sampled_from([30, 300, 5000, 50_000]))
    sizes, counts = sample_counts(rho, n, np.random.default_rng(draw(st.integers(0, 2**32 - 1))))
    counts = counts.astype(np.float64)
    if sizes[-1] < 3:
        sizes, counts = np.append(sizes, draw(st.integers(3, 1000))), np.append(counts, 1.0)
    extra = draw(st.floats(0.0, 5.0)) * n
    if sizes[0] == 1:
        counts[0] += extra
    else:
        sizes, counts = np.insert(sizes, 0, 1), np.insert(counts, 0, extra)
    return SizeDistribution(sizes, counts)


class TestAgainstTheLoop:
    @given(inflated_histograms())
    @example(SizeDistribution.from_mapping({1: 30, 3: 1}))  # one project above size 2
    @settings(max_examples=60, deadline=None)
    def test_matches_the_em_loop_at_its_fixed_point(self, dist):
        res = em_fit(dist)
        rho, latent, _ = em_loop(dist, epsilon=1e-12)
        assert res.rho_col == pytest.approx(rho, rel=1e-9)
        assert res.latent_singletons == pytest.approx(latent, rel=1e-9)
        tail = dist.restrict_min_size(2).total_projects
        assert res.latent_singletons == res.rho_col * tail
        assert res.observed_singletons == dist.count(1)
        assert res.converged and 1 <= res.iterations <= 100


def _em_result(rho_col):
    return EMResult(
        rho_col=rho_col,
        latent_singletons=0.0,
        observed_singletons=0.0,
        iterations=1,
    )


class TestPredictedEntries:
    def test_identity_case(self):
        # model-consistent month: 61 of 100 arrivals found projects, and the
        # corrected rho encodes exactly p0 = 0.61
        rho = 1.0 / (1.0 - 0.61)
        out = predicted_collaborative_entries({5: _em_result(rho)}, {5: 100.0})
        assert out[5] == pytest.approx(61.0, rel=1e-12)

    def test_masked_month_absent(self):
        out = predicted_collaborative_entries(
            {1: _em_result(2.0), 2: _em_result(2.0)},
            {1: 100.0, 2: 200.0},
            mask={2},
        )
        assert sorted(out) == [1]

    def test_misaligned_months_error(self):
        with pytest.raises(AlignmentError):
            predicted_collaborative_entries({1: _em_result(2.0)}, {2: 100.0})

    def test_flat_founding_rate_recovered_on_synthetic_corpus(self):
        # 24 months, 400 arrivals each, founding probability 0.6: the
        # predicted founding count should sit near 240 every month
        p0, arrivals, months = 0.6, 400, 24
        rng = np.random.default_rng(99)
        sizes = [1]
        em_by_month, nd_by_month = {}, {}
        for month in range(months):
            for _ in range(arrivals):
                if rng.random() < p0:
                    sizes.append(1)
                else:
                    # size-proportional join via developer-slot equivalence
                    total = sum(sizes)
                    u = rng.integers(0, total)
                    acc = 0
                    for i, s in enumerate(sizes):
                        acc += s
                        if u < acc:
                            sizes[i] += 1
                            break
            em_by_month[month] = em_fit(SizeDistribution.from_sizes(sizes))
            nd_by_month[month] = float(arrivals)
        predicted = predicted_collaborative_entries(em_by_month, nd_by_month)
        target = p0 * arrivals
        for month, value in predicted.items():
            assert abs(value - target) / target < 0.15, (month, value)
