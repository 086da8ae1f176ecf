"""The sliced rate-equation loop, kept as the oracle of `forgesim.master.iterate_master`.

`oracle_iterate_master` slices every array to the current support
L = min(N, x_trunc) at each step. It does the same float64 operations in the
same order as the library's loop, so the two must agree bit for bit.
"""

import numpy as np

from forgesim.master import MasterState


def oracle_iterate_master(p0, n_max_steps, record_at=None, x_trunc=1000):
    wanted = sorted({int(s) for s in (record_at if record_at is not None else [n_max_steps])})

    T = int(x_trunc)
    c = 1.0 - p0
    # index x for x = 1..T; slot 0 unused
    n = np.zeros(T + 1)
    n[1] = 1.0
    xs = np.arange(T + 1, dtype=np.float64)
    flow = np.zeros(T + 1)
    over_count = 0.0
    over_mass = 0.0

    records = []

    def record(N):
        records.append(
            MasterState(
                N=N,
                counts=n[1:].copy(),
                overflow_count=float(over_count),
                overflow_mass=float(over_mass),
            )
        )

    pending = list(wanted)
    while pending and pending[0] == 1:
        pending.pop(0)
        record(1)

    for N in range(1, n_max_steps):
        L = min(N, T)
        np.multiply(n[: L + 1], xs[: L + 1], out=flow[: L + 1])
        flow[: L + 1] *= c / N
        if L == T:
            # promotions out of the top class carry x_trunc+1 developers each;
            # joins landing on overflow projects add one developer at rate
            # proportional to the mass already there
            over_mass += flow[T] * (T + 1) + c * over_mass / N
            over_count += flow[T]
        hi = min(L + 1, T)
        n[2 : hi + 1] += flow[1:hi]
        n[1 : L + 1] -= flow[1 : L + 1]
        n[1] += p0
        while pending and pending[0] == N + 1:
            pending.pop(0)
            record(N + 1)

    return records
