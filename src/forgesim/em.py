"""EM correction of the singleton count for non-collaborative projects.

Single-developer projects mix two populations: collaborative projects that
happen not to have attracted a second developer yet, and projects that were
never meant to grow. Only the former belong to the growth model, so the
collaborative singleton count is treated as a latent quantity.

The classic EM for this alternates an E-step, n1 = f(1;rho)/(1-f(1;rho)) * T
with T = sum_{x>=2} n(x), and a refit of rho on the corrected histogram. Its
fixed point maximises the likelihood of the x>=2 block truncated below 2,
sum_{x>=2} n(x) [log f(x;rho) + log(rho+1)], since 1 - f(1;rho) = 1/(rho+1).
:func:`em_fit` finds that maximiser with one truncated Newton solve
(:func:`yule.fit_rho_batch` with ``truncated=True``) rather than by
iterating, and then the E-step has the closed form latent = rho * T. The
fit never reads the observed singleton count; on model-consistent data the
latent count lands close to it.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from . import yule
from .distributions import SizeDistribution
from .errors import AlignmentError, require_months

__all__ = ["EMResult", "em_fit", "predicted_collaborative_entries"]


@dataclass(frozen=True)
class EMResult:
    """The corrected fit. iterations counts the Newton steps of the solve."""

    rho_col: float
    latent_singletons: float
    observed_singletons: float
    iterations: int

    @property
    def converged(self) -> bool:
        """Always True: a solve that does not converge raises ConvergenceError."""
        return True

    @property
    def non_collaborative_singletons(self) -> float:
        return self.observed_singletons - self.latent_singletons


def em_fit(dist: SizeDistribution) -> EMResult:
    """Fit rho to the x>=2 block truncated below 2; latent singletons = rho * T.

    Raises DegenerateDataError when no size >= 3 carries weight, where the
    truncated likelihood grows without bound in rho.
    """
    tail = dist.restrict_min_size(2)
    rho, _, steps = yule.fit_rho_batch(tail.sizes, tail.counts,
                                       np.zeros(len(tail), dtype=np.intp), 1, truncated=True)
    rho_col = float(rho[0])
    return EMResult(
        rho_col=rho_col,
        latent_singletons=rho_col * tail.total_projects,
        observed_singletons=float(dist.count(1)),
        iterations=int(steps[0]),
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
