"""The binomial-chain histogram sampler, kept as the oracle of yule.sample_counts.

It was yule.sample_counts before one ``multinomial`` call per histogram
replaced its 32 scalar ``binomial`` calls. Both draw the sizes 1..32 as a
chain of conditional binomials on the hazard rho/(k+rho) and place the rest
with one ``random`` call, so on one stream the two agree draw for draw
except where a 1-ulp difference in a binomial's probability changes that
binomial's draw.
"""

import numpy as np

from forgesim.errors import require_integer
from forgesim.yule import _CHAIN_TOP, DEFAULT_CDF_CACHE, _cdf_table, _check_rho, _invert_tail


def chain_sample_counts(
    rho: float, n: int, rng: np.random.Generator, x_cache: int = DEFAULT_CDF_CACHE
) -> tuple[np.ndarray, np.ndarray]:
    """Histogram of n i.i.d. draws: (sizes, counts), ascending by size.

    Sizes 1..32 come from a chain of conditional binomials on the hazard
    P(X = k | X >= k) = rho/(k+rho): of the r draws not yet placed,
    c_k ~ Binomial(r, rho/(k+rho)) have size k, and the chain stops once none
    are left. The r draws left after k = 32 are those with X > 32; each is
    placed by a uniform in [cdf(32), 1) searched in the cached cdf table, or,
    beyond the table's reach, by closed-form survival inversion.
    """
    rho = _check_rho(rho)
    n, x_cache = require_integer("n", n, 1), require_integer("x_cache", x_cache, 1)
    k = np.arange(1.0, _CHAIN_TOP + 1.0)
    chain, left = [], n
    for hazard in (rho / (k + rho)).tolist():
        drawn = int(rng.binomial(left, hazard))
        chain.append(drawn)
        left -= drawn
        if not left:
            break
    counts = np.array(chain, dtype=np.int64)
    sizes = np.flatnonzero(counts) + 1
    counts = counts[sizes - 1]
    if left:
        # each draw's survival target, uniform on (0, S(32)], S(32) = prod k/(k+rho)
        target = np.prod(k / (k + rho)) * (1.0 - rng.random(left))
        table = _cdf_table(rho, x_cache)
        u = 1.0 - target
        in_table = u <= table[-1]
        far = [_invert_tail(t, rho, max(x_cache, _CHAIN_TOP)) for t in target[~in_table]]
        tail = np.concatenate([
            np.searchsorted(table[_CHAIN_TOP:], u[in_table], side="left") + _CHAIN_TOP + 1,
            np.array(far, dtype=np.int64),
        ])
        tail_sizes, tail_counts = np.unique(tail, return_counts=True)
        sizes = np.concatenate([sizes, tail_sizes])
        counts = np.concatenate([counts, tail_counts])
    return sizes.astype(np.int64), counts
