"""The alternating EM loop, kept as the oracle of em.em_fit.

It was em.em_fit before one truncated Newton solve replaced it: an E-step
n1 = f(1)/(1-f(1)) * T, with T the count at x >= 2, and a full untruncated
refit of rho on the corrected histogram, repeated until |delta rho| <
epsilon. Its fixed point is the maximiser of the x >= 2 likelihood truncated
below 2, but it only creeps toward it, so the tests run it to a tight
epsilon.
"""

import numpy as np

from forgesim import yule
from forgesim.distributions import SizeDistribution


def em_loop(dist: SizeDistribution, epsilon: float = 1e-12,
            max_iterations: int = 10_000) -> tuple[float, float, int]:
    """(rho, latent singletons, iterations) at |delta rho| < epsilon.

    Starts from the untruncated MLE on the x >= 2 histogram, as em_fit did,
    but without mle_rho's two-observation guard: a lone project of size >= 3
    is enough for both the start and the truncated fixed point. Raises
    AssertionError if the iteration cap is reached first.
    """
    tail = dist.restrict_min_size(2)
    tail_sum = tail.total_projects
    # the corrected histogram shares the x>=2 block untouched; only the
    # singleton bin is replaced during iteration
    sizes = np.concatenate([[1], tail.sizes])
    rho, _ = yule.fit_rho_weighted(tail.sizes, tail.counts)
    for iterations in range(1, max_iterations + 1):
        f1 = yule.pmf(1, rho)
        latent = f1 / (1.0 - f1) * tail_sum
        counts = np.concatenate([[latent], tail.counts])
        rho_new, _ = yule.fit_rho_weighted(sizes, counts)
        delta = abs(rho_new - rho)
        rho = rho_new
        if delta < epsilon:
            return rho, float(latent), iterations
    raise AssertionError(f"EM loop did not reach |delta rho| < {epsilon} "
                         f"in {max_iterations} iterations")
