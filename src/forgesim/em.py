"""EM correction of the singleton count for non-collaborative projects.

Single-developer projects mix two populations: collaborative projects that
happen not to have attracted a second developer yet, and projects that were
never meant to grow. Only the former belong to the growth model, so the
collaborative singleton count is treated as a latent quantity.

E-step: given the current rho, replace the observed singleton count with the
count that makes the histogram consistent with the model's conditional
proportions, n1 = f(1;rho)/(1-f(1;rho)) * sum_{x>=2} n(x). M-step: refit rho
on the corrected histogram. Alternate until |delta rho| < epsilon. This is
the classic EM for a sample truncated below x=2 with an unknown number of
truncated observations; its fixed point maximises the conditional likelihood
of the x>=2 block, and on model-consistent data it leaves the singleton
count untouched.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from . import yule
from .distributions import SizeDistribution
from .errors import (AlignmentError, DegenerateDataError, DomainError, require_integer,
                     require_months)

__all__ = ["EMConfig", "EMResult", "em_fit", "predicted_collaborative_entries"]


@dataclass(frozen=True)
class EMConfig:
    """Convergence threshold on |delta rho|, iteration cap, optional start.

    rho_init defaults to the MLE on the x>=2 restricted histogram, which
    starts the iteration outside the singleton-inflated basin.
    """

    epsilon: float = 1e-4
    max_iterations: int = 500
    rho_init: float | None = None

    def __post_init__(self):
        if not 0 < self.epsilon < np.inf:
            raise DomainError(f"epsilon must be positive and finite, got {self.epsilon}")
        object.__setattr__(
            self, "max_iterations", require_integer("max_iterations", self.max_iterations, 1)
        )


@dataclass(frozen=True)
class EMResult:
    rho_col: float
    latent_singletons: float
    observed_singletons: float
    iterations: int
    converged: bool
    rho_sequence: tuple[float, ...]

    @property
    def non_collaborative_singletons(self) -> float:
        return self.observed_singletons - self.latent_singletons


def em_fit(dist: SizeDistribution, cfg: EMConfig | None = None) -> EMResult:
    """Alternate singleton prediction and rho refits until |delta rho| < epsilon.

    Non-convergence within the iteration cap returns converged=False rather
    than raising; the final state is still the best available estimate.
    """
    cfg = cfg or EMConfig()
    tail = dist.restrict_min_size(2)
    if len(tail) < 2:
        raise DegenerateDataError("EM needs at least 2 distinct sizes with x >= 2")
    tail_sum = tail.total_projects
    observed = dist.count(1)

    # corrected histogram shares the x>=2 block untouched; only the
    # singleton bin is replaced during iteration
    sizes = np.concatenate([[1], tail.sizes])

    rho = cfg.rho_init if cfg.rho_init is not None else yule.mle_rho(tail).rho_hat
    sequence = [rho]
    latent = observed
    converged = False
    iterations = 0
    for iterations in range(1, cfg.max_iterations + 1):
        f1 = yule.pmf(1, rho)
        latent = f1 / (1.0 - f1) * tail_sum
        counts = np.concatenate([[latent], tail.counts])
        rho_new, _ = yule.fit_rho_weighted(sizes, counts)
        delta = abs(rho_new - rho)
        rho = rho_new
        sequence.append(rho)
        if delta < cfg.epsilon:
            converged = True
            break
    return EMResult(
        rho_col=rho,
        latent_singletons=float(latent),
        observed_singletons=float(observed),
        iterations=iterations,
        converged=converged,
        rho_sequence=tuple(sequence),
    )


def predicted_collaborative_entries(
    em_results: Mapping[int, EMResult],
    new_developers: Mapping[int, float],
    mask: set[int] | frozenset[int] | None = None,
) -> dict[int, float]:
    """Model-implied monthly count of newly founded collaborative projects.

    Under the generative model a fraction p0 = 1 - 1/rho of arriving
    developers found projects, so the corrected rho of a month's snapshot
    together with that month's developer inflow yields the founding flux the
    model predicts, comparable to the empirically classified series.

    Masked months are dropped from the output; the two inputs must otherwise
    cover exactly the same months.
    """
    mask = require_months("mask", () if mask is None else mask)
    months_em = set(em_results) - mask
    months_nd = set(new_developers) - mask
    if months_em != months_nd:
        raise AlignmentError(
            f"month sets differ: {sorted(months_em ^ months_nd)} present on one side only"
        )
    out: dict[int, float] = {}
    for month in sorted(months_em):
        rho = em_results[month].rho_col
        p0 = 1.0 - 1.0 / rho if rho > 0 else float("nan")
        out[month] = p0 * float(new_developers[month])
    return out
