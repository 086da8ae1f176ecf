"""Tests of the histogram containers."""

import numpy as np
import pytest

from forgesim import DomainError, SizeDistribution
from snapshot_loop_oracle import DegreeDistribution


class TestSizeDistribution:
    def test_totals(self):
        dist = SizeDistribution.from_mapping({1: 2, 2: 1})
        assert dist.total_projects == 3
        assert dist.total_developers == 4

    def test_from_sizes(self):
        dist = SizeDistribution.from_sizes([1, 1, 2, 5, 5, 5])
        assert dist.as_dict() == {1: 2.0, 2: 1.0, 5: 3.0}
        assert dist.max_value == 5

    def test_frequencies_sum_to_one(self):
        dist = SizeDistribution.from_sizes([1, 2, 3, 4])
        assert dist.frequencies().sum() == pytest.approx(1.0, abs=1e-15)

    def test_zero_counts_dropped(self):
        dist = SizeDistribution.from_mapping({1: 5, 2: 0})
        assert dist.as_dict() == {1: 5.0}
        assert dist.count(2) == 0.0

    def test_restrict_min_size(self):
        dist = SizeDistribution.from_mapping({1: 5, 2: 3, 7: 1})
        assert dist.restrict_min_size(2).as_dict() == {2: 3.0, 7: 1.0}

    def test_validation(self):
        with pytest.raises(DomainError):
            SizeDistribution(np.array([0]), np.array([1.0]))
        with pytest.raises(DomainError):
            SizeDistribution(np.array([1]), np.array([-1.0]))
        with pytest.raises(DomainError):
            SizeDistribution(np.array([1, 1]), np.array([1.0, 2.0]))

    def test_arrays_read_only(self):
        dist = SizeDistribution.from_sizes([1, 2])
        with pytest.raises(ValueError):
            dist.counts[0] = 99.0

    def test_float_counts_supported(self):
        dist = SizeDistribution.from_mapping({1: 2.5, 3: 0.5})
        assert dist.total_projects == 3.0
        assert dist.total_developers == 4.0


class TestDegreeDistribution:
    def test_link_mass(self):
        dist = DegreeDistribution.from_degrees([1, 1, 2])
        assert dist.n_developers == 3
        assert dist.n_links == 4
