"""End-to-end pipeline test on a synthetic corpus with known ground truth.

The corpus mimics the empirical setting: a size-proportional
founding-and-joining population of collaborative projects plus a stream of
non-collaborative single-developer projects that never grow. The chain
events -> snapshots -> size distributions -> fit / EM / GoF must then

- reject the uncontaminated-model null on the raw monthly distributions,
- recover the collaborative rho and the latent singleton count via EM,
- accept the null on the EM-corrected histograms, and
- predict the collaborative founding flux from the corrected fits.
"""

import io

import numpy as np
import pytest

from forgesim import (
    SizeDistribution,
    bootstrap_pvalue,
    em_fit,
    mle_rho,
    parse_events,
    month_sweep,
    predicted_collaborative_entries,
)

P0 = 0.6
RHO_TRUE = 1.0 / (1.0 - P0)  # 2.5
ARRIVALS = 200  # collaborative-pool arrivals per month
EXTRA_SINGLETONS = 80  # non-collaborative foundings per month
MONTHS = 30


@pytest.fixture(scope="module")
def corpus():
    """(event file text, true collaborative singleton count per month)."""
    rng = np.random.default_rng(2024)
    rows = []
    sizes = []  # collaborative project sizes, index = project id
    slots = []  # developer-slot list realising size-proportional joins
    dev = 0
    solo = 0
    collab_singletons = {}
    for month in range(MONTHS):
        for _ in range(ARRIVALS):
            if not sizes or rng.random() < P0:
                project = len(sizes)
                sizes.append(1)
                slots.append(project)
            else:
                project = slots[int(rng.integers(len(slots)))]
                sizes[project] += 1
                slots.append(project)
            rows.append(f"d{dev},c{project},{month},")
            dev += 1
        for _ in range(EXTRA_SINGLETONS):
            rows.append(f"d{dev},s{solo},{month},")
            dev += 1
            solo += 1
        collab_singletons[month] = sum(1 for s in sizes if s == 1)
    return "\n".join(rows) + "\n", collab_singletons


@pytest.fixture(scope="module")
def monthly_distributions(corpus):
    text, _ = corpus
    result = parse_events(io.StringIO(text))
    assert result.ok
    sweep = month_sweep(result.log, 0, MONTHS - 1)
    return {month: SizeDistribution(sweep.sizes, row)
            for month, row in zip(sweep.months.tolist(), sweep.size_counts)}


def test_contamination_inflates_the_raw_fit(monthly_distributions):
    raw = mle_rho(monthly_distributions[MONTHS - 1])
    assert raw.rho_hat > RHO_TRUE + 0.3  # singleton excess pushes rho up


def test_raw_distribution_rejected_by_gof(monthly_distributions):
    res = bootstrap_pvalue(monthly_distributions[MONTHS - 1], n_bootstrap=200, seed=1)
    assert res.p_value < 0.01


def test_em_recovers_rho_and_latent_count(corpus, monthly_distributions):
    _, collab_singletons = corpus
    for month in (14, 22, MONTHS - 1):
        res = em_fit(monthly_distributions[month])
        assert res.converged
        assert abs(res.rho_col - RHO_TRUE) < 0.35, (month, res.rho_col)
        assert res.latent_singletons == pytest.approx(
            collab_singletons[month], rel=0.15
        ), month


def test_corrected_distribution_passes_gof(monthly_distributions):
    pvals = []
    for month in (14, 22, MONTHS - 1):
        dist = monthly_distributions[month]
        res = em_fit(dist)
        corrected = {int(x): float(c) for x, c in dist.as_dict().items() if x >= 2}
        corrected[1] = res.latent_singletons
        gof = bootstrap_pvalue(
            SizeDistribution.from_mapping(corrected), n_bootstrap=200, seed=month
        )
        pvals.append(gof.p_value)
    assert np.median(pvals) > 0.1
    assert max(pvals) > 0.3


def test_predicted_founding_flux_matches_truth(monthly_distributions):
    months = range(10, MONTHS)
    em_by_month = {m: em_fit(monthly_distributions[m]) for m in months}
    arrivals = {m: float(ARRIVALS) for m in months}  # collaborative-pool inflow
    predicted = predicted_collaborative_entries(em_by_month, arrivals)
    target = P0 * ARRIVALS
    for month, value in predicted.items():
        assert abs(value - target) / target < 0.15, (month, value)
