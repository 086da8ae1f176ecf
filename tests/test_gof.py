"""Tests of the KS statistic and the semi-parametric bootstrap."""

import numpy as np
import pytest

from forgesim import (
    DegenerateDataError,
    DomainError,
    SizeDistribution,
    bootstrap_pvalue,
    cdf,
    ks_statistic,
    pmf,
    sample,
)
from forgesim.cli import main
from forgesim.gof import _replica_block
from forgesim.simulate import _generator
from forgesim.yule import fit_rho_weighted, mle_rho, sample_counts
from yule_chain_oracle import chain_sample_counts


def rng(seed=0):
    return np.random.default_rng(seed)


def chain_bootstrap(dist, n_bootstrap, seed):
    """(failed replicas, p-value) of the bootstrap with every replica drawn
    by the binomial-chain oracle, refitted and scored one at a time."""
    rho_hat = mle_rho(dist).rho_hat
    n = int(dist.total_projects)
    stats = []
    for b in range(n_bootstrap):
        replica = SizeDistribution(*chain_sample_counts(rho_hat, n, _generator(seed, b)))
        stats.append(np.nan if replica.max_value < 2 else
                     ks_statistic(replica, fit_rho_weighted(replica.sizes, replica.counts)[0]))
    stats = np.array(stats)
    ok = stats[~np.isnan(stats)]
    return int(np.isnan(stats).sum()), float((ok >= ks_statistic(dist, rho_hat)).sum() / ok.size)


class TestKsStatistic:
    def test_self_distance_on_exact_expected_counts(self):
        x = np.arange(1, 100_001)
        dist = SizeDistribution(x, pmf(x, 3.0) * 1e6)
        assert ks_statistic(dist, 3.0) < 1e-6

    def test_single_singleton_against_rho_three(self):
        dist = SizeDistribution.from_mapping({1: 1})
        assert ks_statistic(dist, 3.0) == pytest.approx(0.25, abs=1e-12)

    def test_matches_exhaustive_integer_scan(self):
        # oracle: evaluate |ECDF - cdf| at every integer in [1, max size];
        # the ECDF is flat between atoms
        draws = sample(3.0, 2000, rng(1))
        dist = SizeDistribution.from_sizes(draws)
        ecdf_at = {}
        acc = 0.0
        for size, count in zip(dist.sizes, dist.counts):
            acc += count
            ecdf_at[int(size)] = acc / dist.total_projects
        sup = 0.0
        current = 0.0
        for x in range(1, int(dist.max_value) + 1):
            current = ecdf_at.get(x, current)
            sup = max(sup, abs(current - cdf(x, 3.0)))
        assert ks_statistic(dist, 3.0) == pytest.approx(sup, abs=1e-12)

    def test_empty_distribution_rejected(self):
        with pytest.raises(DomainError):
            ks_statistic(SizeDistribution.from_mapping({}), 3.0)


class TestBootstrap:
    def test_determinism(self):
        dist = SizeDistribution.from_sizes(sample(3.0, 500, rng(2)))
        a = bootstrap_pvalue(dist, n_bootstrap=100, seed=9)
        b = bootstrap_pvalue(dist, n_bootstrap=100, seed=9)
        assert a == b

    def test_blocks_split_anywhere_give_the_same_replicas(self):
        whole = _replica_block((2.5, 400, 21, 0, 60))
        parts = [_replica_block((2.5, 400, 21, lo, hi)) for lo, hi in ((0, 1), (1, 37), (37, 60))]
        np.testing.assert_array_equal(np.concatenate(parts), whole)

    def test_batched_replicas_match_one_at_a_time(self):
        # oracle: each replica drawn, refitted and scored on its own; n=3
        # makes some replicas all-singleton, which must read nan
        for n in (3, 300):
            stats = _replica_block((3.0, n, 5, 0, 100))
            for b, got in enumerate(stats):
                gen = np.random.Generator(np.random.Philox(np.random.SeedSequence(5, spawn_key=(b,))))
                dist = SizeDistribution(*sample_counts(3.0, n, gen))
                if dist.max_value < 2:
                    assert np.isnan(got)
                else:
                    assert got == ks_statistic(dist, fit_rho_weighted(dist.sizes, dist.counts)[0])
            if n == 3:
                assert 0 < np.isnan(stats).sum() < 100

    def test_all_singleton_replicas_fail_as_with_the_chain_oracle(self):
        # n = 15 at rho_hat = 2.44: a replica is all singletons with
        # probability 0.0058, so about 2 of 400 fail, within the 1% budget
        dist = SizeDistribution.from_mapping({1: 10, 2: 3, 3: 1, 5: 1})
        res = bootstrap_pvalue(dist, n_bootstrap=400, seed=0)
        assert res.n_failed > 0
        assert (res.n_failed, res.p_value) == chain_bootstrap(dist, 400, 0)

    def test_draw_above_int64_makes_gof_exit_2(self, tmp_path, capsys):
        # rho_hat = 0.11: a replica of 100 draws passes 2**63 - 1 with
        # probability 0.54
        heavy = tmp_path / "heavy.csv"
        heavy.write_text("size,count\n1,70\n1000000000000,30\n")
        out = tmp_path / "out"
        argv = ["gof", str(heavy), "--bootstrap", "100", "--seed", "1", "--output-dir", str(out)]
        assert main(argv) == 2
        rho_hat = mle_rho(SizeDistribution.from_mapping({1: 70, 10**12: 30})).rho_hat
        assert capsys.readouterr().err == (
            f"forgesim gof: rho={rho_hat} is too small to sample: a draw fell above the int64 "
            f"bound 9223372036854775807\n")
        assert not out.exists()

    def test_parallel_equals_serial(self):
        dist = SizeDistribution.from_sizes(sample(3.0, 500, rng(3)))
        serial = bootstrap_pvalue(dist, n_bootstrap=100, seed=4, jobs=1)
        parallel = bootstrap_pvalue(dist, n_bootstrap=100, seed=4, jobs=2)
        assert serial == parallel

    def test_pvalue_in_unit_interval_and_invariants(self):
        dist = SizeDistribution.from_sizes(sample(3.0, 1000, rng(5)))
        res = bootstrap_pvalue(dist, n_bootstrap=100, seed=6)
        assert 0.0 <= res.p_value <= 1.0
        assert res.n_bootstrap == 100
        assert res.seed == 6
        assert res.ks_observed == ks_statistic(dist, res.rho_hat)

    def test_light_tailed_data_rejected(self):
        # geometric data is far too steep for the Yule-Simon null
        draws = rng(7).geometric(0.5, 5000)
        dist = SizeDistribution.from_sizes(draws)
        res = bootstrap_pvalue(dist, n_bootstrap=200, seed=8)
        assert res.p_value < 0.01

    def test_null_data_not_rejected(self):
        draws = sample(3.0, 5000, rng(11))
        dist = SizeDistribution.from_sizes(draws)
        res = bootstrap_pvalue(dist, n_bootstrap=200, seed=12)
        assert res.p_value > 0.05

    def test_minimum_bootstrap_size(self):
        dist = SizeDistribution.from_sizes(sample(3.0, 100, rng(13)))
        with pytest.raises(DomainError):
            bootstrap_pvalue(dist, n_bootstrap=50, seed=1)

    def test_tiny_sample_aborts_on_failed_replicas(self):
        # n=2 resamples are frequently all-singleton, overwhelming the 1%
        # failure budget
        dist = SizeDistribution.from_mapping({1: 1, 2: 1})
        with pytest.raises(DegenerateDataError):
            bootstrap_pvalue(dist, n_bootstrap=100, seed=14)

    def test_negative_seed_rejected(self):
        dist = SizeDistribution.from_sizes(sample(3.0, 200, rng(15)))
        with pytest.raises(DomainError):
            bootstrap_pvalue(dist, n_bootstrap=100, seed=-5)

    def test_degenerate_input_propagates(self):
        with pytest.raises(DegenerateDataError):
            bootstrap_pvalue(SizeDistribution.from_mapping({1: 50}), n_bootstrap=100, seed=1)
