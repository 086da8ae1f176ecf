"""Tests of the EM singleton correction and its monthly prediction layer."""

import numpy as np
import pytest

from forgesim import (
    AlignmentError,
    DegenerateDataError,
    DomainError,
    EMConfig,
    EMResult,
    SizeDistribution,
    em_fit,
    pmf,
    predicted_collaborative_entries,
    sample,
)


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

    def test_iteration_cap_reports_unconverged(self):
        dist = expected_counts(3.0, 10_000)
        res = em_fit(dist, EMConfig(max_iterations=1))
        assert not res.converged
        assert res.iterations == 1
        assert len(res.rho_sequence) == 2  # init plus the single M-step

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
        # the iteration is a function of the x>=2 block alone, so this is
        # exact; the documented contract only promises epsilon
        assert abs(second.rho_col - first.rho_col) < 1e-4

    def test_converged_sequence_ends_within_epsilon(self):
        cfg = EMConfig(epsilon=1e-4)
        res = em_fit(expected_counts(3.0, 10_000), cfg)
        assert res.converged
        assert abs(res.rho_sequence[-1] - res.rho_sequence[-2]) < cfg.epsilon

    def test_degenerate_input(self):
        with pytest.raises(DegenerateDataError):
            em_fit(SizeDistribution.from_mapping({1: 100, 2: 50}))

    def test_config_validation(self):
        for epsilon in (0.0, float("nan"), float("inf")):
            with pytest.raises(DomainError):
                EMConfig(epsilon=epsilon)
        with pytest.raises(Exception):
            EMConfig(max_iterations=0)

    def test_explicit_rho_init_honoured(self):
        dist = expected_counts(3.0, 10_000)
        res = em_fit(dist, EMConfig(rho_init=3.0))
        assert res.rho_sequence[0] == 3.0
        assert res.rho_col == pytest.approx(3.0, abs=0.01)


def _em_result(rho_col):
    return EMResult(
        rho_col=rho_col,
        latent_singletons=0.0,
        observed_singletons=0.0,
        iterations=1,
        converged=True,
        rho_sequence=(rho_col,),
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
