"""Goodness-of-fit of the Yule-Simon hypothesis via semi-parametric bootstrap.

A naive KS test against a fitted heavy-tailed distribution is badly
miscalibrated because the parameter was estimated from the same data. The
bootstrap here therefore re-runs the whole pipeline on every synthetic
replica: draw a sample of the same size from the fitted distribution, refit
rho on the replica, and score the replica's KS distance against its own
refit. The p-value is the fraction of replica distances at least as large as
the observed one.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import yule
from .distributions import SizeDistribution
from .errors import DegenerateDataError, DomainError, require_integer, require_seed
from .simulate import _generator

__all__ = ["GofResult", "ks_statistic", "bootstrap_pvalue"]

# Fraction of replica fits allowed to fail (degenerate resamples) before the
# test aborts rather than quietly reporting a p-value on a biased subset.
_MAX_FAILURE_FRACTION = 0.01


def _ks_blocks(sizes, counts, lengths, rho, totals) -> np.ndarray:
    """KS distance of each of several histograms laid end to end.

    Block i is the next lengths[i] (size, count) pairs, ascending by size,
    scored against cdf(., rho[i]) with ECDF denominator totals[i]. The ECDF
    is one cumsum over all blocks minus each block's offset. The cdf is
    :func:`yule.cdf`'s closed form 1 - x B(x, rho+1), with block i reading
    row i of log B, so no sort has to recover the rows.
    """
    starts = np.cumsum(lengths) - lengths
    cum = np.cumsum(counts)
    offsets = np.repeat(cum[starts] - counts[starts], lengths)
    ecdf = (cum - offsets) / np.repeat(totals, lengths)
    x = np.asarray(sizes, dtype=np.float64)
    block = np.repeat(np.arange(len(lengths)), lengths)
    a = np.asarray(rho, dtype=np.float64) + 1.0
    model = -np.expm1(np.log(x) + yule._log_beta(x, a, block))
    return np.maximum.reduceat(np.abs(ecdf - model), starts)


def ks_statistic(dist: SizeDistribution, rho: float) -> float:
    """Max |ECDF(x) - cdf(x, rho)| over the observed support.

    The ECDF is right-continuous at the integer atoms; no continuity
    correction is applied (recorded in result metadata so runs stay
    comparable).
    """
    if dist.total_projects < 1:
        raise DomainError("empty distribution has no KS statistic")
    rho = yule._check_rho(rho)
    return float(_ks_blocks(dist.sizes, dist.counts, [len(dist)], [rho], [dist.total_projects])[0])


@dataclass(frozen=True)
class GofResult:
    rho_hat: float
    ks_observed: float
    p_value: float
    n_bootstrap: int
    seed: int
    n_failed: int = 0
    metadata: dict = field(default_factory=dict)


def _replica_block(args: tuple[float, int, int, int, int]) -> np.ndarray:
    """KS distances of replicas start..stop-1, each against its own refit.

    The replicas are drawn straight into histograms by one
    :func:`yule._sample_counts_batch` call: one ``multinomial`` call per
    replica for sizes up to 32 and one placement of every replica's draws
    above 32, at a cost that grows with the number of distinct sizes rather
    than with n. The generators come from a generator expression, so the
    block never holds all of them. The non-degenerate replicas are refitted
    together by one batched MLE and scored by one batched KS. A degenerate
    replica (all singletons: its largest size is below 2) reads nan; the
    caller counts those as failures.
    """
    rho_hat, n, seed, start, stop = args
    sizes, counts, replica = yule._sample_counts_batch(
        rho_hat, n, (_generator(seed, b) for b in range(start, stop)))
    lengths = np.bincount(replica, minlength=stop - start)
    # triples are sorted by (replica, size): a replica's last one holds its largest size
    keep = sizes[np.cumsum(lengths) - 1] >= 2
    stats = np.full(stop - start, np.nan)
    if keep.any():
        on = keep[replica]
        n_kept = int(keep.sum())
        sizes, counts = sizes[on], counts[on]
        rho, _, _ = yule.fit_rho_batch(sizes, counts, (np.cumsum(keep) - 1)[replica[on]], n_kept)
        stats[keep] = _ks_blocks(sizes, counts, lengths[keep], rho, np.full(n_kept, n))
    return stats


def bootstrap_pvalue(
    dist: SizeDistribution,
    n_bootstrap: int = 1000,
    seed: int = 0,
    jobs: int = 1,
) -> GofResult:
    """Semi-parametric bootstrap p-value for the Yule-Simon null.

    Replica b consumes the stream derived from (seed, b), and its refit does
    not depend on which other replicas share its batch, so the result is
    reproducible and independent of how replicas are split across jobs.
    """
    # fewer than 100 replicas leave the p-value too coarse to use
    n_bootstrap = require_integer("n_bootstrap", n_bootstrap, 100)
    seed = require_seed(seed)
    jobs = require_integer("jobs", jobs, 1)
    fit = yule.mle_rho(dist)
    d_obs = ks_statistic(dist, fit.rho_hat)
    n = int(round(dist.total_projects))

    # one contiguous block of replicas per worker; serial is the one-block case
    n_blocks = min(jobs, n_bootstrap)
    bounds = [n_bootstrap * k // n_blocks for k in range(n_blocks + 1)]
    tasks = [(fit.rho_hat, n, seed, lo, hi) for lo, hi in zip(bounds, bounds[1:])]
    if n_blocks > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=n_blocks) as pool:
            stats = np.concatenate(list(pool.map(_replica_block, tasks)))
    else:
        stats = _replica_block(tasks[0])

    failed = int(np.isnan(stats).sum())
    if failed > _MAX_FAILURE_FRACTION * n_bootstrap:
        raise DegenerateDataError(
            f"{failed}/{n_bootstrap} bootstrap replicas produced degenerate fits"
        )
    ok = stats[~np.isnan(stats)]
    p_value = float((ok >= d_obs).sum() / ok.size)
    return GofResult(
        rho_hat=fit.rho_hat,
        ks_observed=d_obs,
        p_value=p_value,
        n_bootstrap=n_bootstrap,
        seed=seed,
        n_failed=failed,
        metadata={"ecdf": "right-continuous integer atoms, no continuity correction",
                  "smoothing": "none"},
    )
