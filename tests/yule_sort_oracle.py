"""The sort-based histogram sampler, kept as the oracle of yule.sample_counts.

It was yule.sample_counts before the hazard chain replaced it: it consumes
the same uniforms as yule.sample and returns exactly ``np.unique`` of its
draws, so a two-sample test against it checks the chain's distribution
without trusting the chain's own reading of the pmf.
"""

import numpy as np

from forgesim.errors import require_integer
from forgesim.yule import DEFAULT_CDF_CACHE, _cdf_table, _check_rho, _invert_tail


def sort_sample_counts(
    rho: float, n: int, rng: np.random.Generator, x_cache: int = DEFAULT_CDF_CACHE
) -> tuple[np.ndarray, np.ndarray]:
    """Histogram of n draws: (sizes, counts), ascending by size.

    Consumes the same uniforms as :func:`yule.sample` and returns exactly
    ``np.unique(sample(rho, n, rng, x_cache), return_counts=True)``, but
    never builds the per-draw sizes: the uniforms are sorted, and the cdf
    table's edges up to the largest size drawn are searched into them.
    """
    rho = _check_rho(rho)
    n, x_cache = require_integer("n", n, 1), require_integer("x_cache", x_cache, 1)
    table = _cdf_table(rho, x_cache)
    u = np.sort(rng.random(n))
    n_table = int(np.searchsorted(u, table[-1], side="right"))
    top = int(np.searchsorted(table, u[n_table - 1], side="left")) + 1 if n_table else 0
    # draws of size <= x, for x = 1..top
    at_most = np.searchsorted(u, table[:top], side="right")
    counts = np.diff(at_most, prepend=0)
    sizes = np.flatnonzero(counts) + 1
    counts = counts[sizes - 1]
    if n_table < n:
        tail = [_invert_tail(1.0 - v, rho, x_cache) for v in u[n_table:]]
        tail_sizes, tail_counts = np.unique(tail, return_counts=True)
        sizes = np.concatenate([sizes, tail_sizes])
        counts = np.concatenate([counts, tail_counts])
    return sizes.astype(np.int64), counts.astype(np.int64)
