"""Monte Carlo generator of the founding-and-joining growth process.

One developer arrives per step: with probability p0 they found a new project
of size 1, otherwise they join an existing project r chosen with probability
proportional to x_r**alpha.

Stream contract. Arrival 0 is the forced founding and draws nothing. Arrival
k >= 1 draws a branch uniform u; if u < p0 it founds a project, otherwise it
draws one more uniform v and picks a target. Uniforms are pulled from the
generator in blocks of _BLOCK, which continue one sequence.

`run` has one core per kind of alpha. At alpha = 1 the target is the
project of arrival floor(v * k), a uniformly random already placed
developer, which realises size-proportional selection exactly; the core
resolves the whole run without a per-arrival loop: it locates every branch
draw in each block with one running maximum, links each joiner to the
arrival it copies, and finds every arrival's founder by pointer jumping. At
any other alpha the target is found by searching a Fenwick tree over the
per-project weights x**alpha for v times the weight sum, in O(log
n_projects) per join, and the core places one arrival at a time in a loop
over Python lists. Both cores give bit for bit what a per-arrival stepping
loop gives on the same stream; the tests hold such a loop as their oracle.

Randomness comes from numpy's counter-based Philox generator; replica r of a
run derives its stream deterministically as SeedSequence(seed, spawn_key=(r,)),
so replicas are independent and reproducible in any execution order. The
generator identity is recorded in every trace.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

import numpy as np

from .distributions import SizeDistribution
from .errors import DomainError, require_integer, require_p0, require_seed

__all__ = [
    "SimParams",
    "Checkpoint",
    "SimTrace",
    "ReplicateResult",
    "run",
    "replicate",
]

GENERATOR_ID = f"numpy.random.Philox numpy=={np.__version__}"

_BLOCK = 1 << 16


def _generator(seed: int, replica: int) -> np.random.Generator:
    """The Philox stream of one replica of a seeded run; the bootstrap draws
    its replicas from it too."""
    seq = np.random.SeedSequence(seed, spawn_key=(replica,))
    return np.random.Generator(np.random.Philox(seq))


@dataclass(frozen=True)
class SimParams:
    """Configuration of one generative run."""

    p0: float
    n_steps: int
    seed: int
    alpha: float = 1.0
    checkpoints: tuple[int, ...] | None = None
    full_history: bool = False

    def __post_init__(self):
        require_p0(self.p0)
        cps = (self.n_steps,) if self.checkpoints is None else self.checkpoints
        object.__setattr__(self, "n_steps", require_integer("n_steps", self.n_steps, 1))
        object.__setattr__(self, "seed", require_seed(self.seed))
        cps = {require_integer("checkpoint", c) for c in cps}
        if not np.isfinite(self.alpha):
            raise DomainError("alpha must be finite")
        cps = tuple(sorted(cps))
        if not cps:
            raise DomainError("checkpoints must not be empty")
        if cps[0] < 1 or cps[-1] > self.n_steps:
            raise DomainError("checkpoints must lie within [1, n_steps]")
        object.__setattr__(self, "checkpoints", cps)


@dataclass(frozen=True)
class Checkpoint:
    step: int
    n_projects: int
    distribution: SizeDistribution
    sizes: tuple[int, ...] | None = None  # populated only with full_history


@dataclass(frozen=True)
class SimTrace:
    params: SimParams
    generator: str
    checkpoints: tuple[Checkpoint, ...]

    @property
    def final(self) -> Checkpoint:
        return self.checkpoints[-1]

    @property
    def project_counts(self) -> tuple[tuple[int, int], ...]:
        """(step, n_projects) at each checkpoint."""
        return tuple((c.step, c.n_projects) for c in self.checkpoints)


def _copy_links(params: SimParams, replica: int) -> np.ndarray:
    """The arrival each arrival of an alpha=1 run copies, or itself for a founder.

    Reads the replica's stream block by block. Position i of the stream is a
    branch draw exactly when position i-1 is not a join's branch draw, so
    inside a run of joins (u >= p0) the branch draws sit at even offsets from
    the run's start, and one running maximum of run starts places them all.
    A join's next uniform v makes arrival k copy arrival floor(v * k); when
    that uniform opens the next block, the join is carried over to it.
    """
    n = params.n_steps
    parent = np.arange(n, dtype=np.int64)
    generator = _generator(params.seed, replica)
    offsets = np.arange(_BLOCK, dtype=np.int64)
    k = 1  # next arrival to place; arrival 0 is the forced founding and draws nothing
    carried = False
    while k < n or carried:
        u = generator.random(_BLOCK)
        if carried:
            parent[k - 1] = int(u[0] * (k - 1))
        join = u >= params.p0
        starts = np.where(join, -1, offsets + 1)  # the position after a non-join opens a run
        starts[1:] = starts[:-1]
        starts[0] = -1 if carried else 0  # a carried target shifts the parity by one
        np.maximum.accumulate(starts, out=starts)
        branch = np.flatnonzero((offsets - starts) % 2 == 0)[: n - k]
        nth = np.flatnonzero(join[branch])
        joined, arrivals = branch[nth], k + nth
        carried = joined.size > 0 and joined[-1] == _BLOCK - 1
        if carried:
            joined, arrivals = joined[:-1], arrivals[:-1]
        parent[arrivals] = (u[joined + 1] * arrivals).astype(np.int64)
        k += branch.size
    return parent


def _arrival_projects(params: SimParams, replica: int = 0) -> np.ndarray:
    """Project index of every arrival of an alpha=1 run, bit for bit as the stepping loop gives it.

    Every copy link points to an earlier arrival, so pointer jumping over the
    links reaches each arrival's founder in O(log depth) passes; projects are
    numbered in founding order.
    """
    parent = _copy_links(params, replica)
    founder = parent == np.arange(parent.size)
    while not np.array_equal(root := parent[parent], parent):
        parent = root
    ids = np.cumsum(founder)
    ids -= 1
    return ids[parent]


def _fenwick_sizes(params: SimParams, replica: int):
    """Project sizes at each checkpoint of a run at alpha != 1, placed one arrival at a time.

    Three lists hold the state: a Fenwick tree over the per-project weights
    x**alpha, the weights and the sizes. A join searches the tree for v times
    the running weight sum in O(log n_projects). Each weight and tree node
    is the running sum of its updates; when the projects outgrow the tree's
    capacity, it doubles and the tree is rebuilt from the weights in index
    order. Every float64 operation is thus fixed by the stream, and the run
    stops at the last checkpoint.
    """
    p0, alpha = params.p0, params.alpha
    generator = _generator(params.seed, replica)
    # the stream's uniforms as Python floats, one _BLOCK pulled at a time
    uniform = chain.from_iterable(iter(lambda: generator.random(_BLOCK).tolist(), None)).__next__
    cap = max(min(params.n_steps, 1024), 2)
    top = 1 << (cap.bit_length() - 1)
    tree = [0.0] * (cap + 1)
    i = 1
    while i <= cap:  # the forced founding: project 0 with weight 1
        tree[i] = 1.0
        i += i
    weights, sizes, total = [1.0], [1], 1.0
    k = 1
    for c in params.checkpoints:
        for _ in range(c - k):
            n = len(sizes)
            if uniform() < p0:
                if n == cap:
                    cap += cap
                    top += top
                    tree = [0.0, *weights] + [0.0] * (cap - n)
                    for i in range(1, cap + 1):
                        j = i + (i & -i)
                        if j <= cap:
                            tree[j] += tree[i]
                weights.append(1.0)
                sizes.append(1)
                i = n + 1
                while i <= cap:
                    tree[i] += 1.0
                    i += i & -i
                total += 1.0
            else:
                value = uniform() * total
                r, bit = 0, top
                while bit:
                    nxt = r + bit
                    if nxt <= cap and tree[nxt] <= value:
                        value -= tree[nxt]
                        r = nxt
                    bit >>= 1
                if r >= n:
                    r = n - 1
                x = sizes[r]
                sizes[r] = x + 1
                delta = float(x + 1) ** alpha - float(x) ** alpha
                weights[r] += delta
                i = r + 1
                while i <= cap:
                    tree[i] += delta
                    i += i & -i
                total += delta
        k = c
        yield np.array(sizes, dtype=np.int64)


def run(params: SimParams, replica: int = 0) -> SimTrace:
    """Run the process from the forced founding and record each checkpoint.

    At alpha = 1 every arrival's project is resolved at once from the whole
    run; at any other alpha the Fenwick loop places one arrival at a time up
    to the last checkpoint.
    """
    if params.alpha == 1.0:
        project = _arrival_projects(params, replica)
        sizes_at = (np.bincount(project[:c]) for c in params.checkpoints)
    else:
        sizes_at = _fenwick_sizes(params, replica)
    records = tuple(
        Checkpoint(
            step=c,
            n_projects=sizes.size,
            distribution=SizeDistribution.from_sizes(sizes),
            sizes=tuple(sizes.tolist()) if params.full_history else None,
        )
        for c, sizes in zip(params.checkpoints, sizes_at)
    )
    return SimTrace(params=params, generator=GENERATOR_ID, checkpoints=records)


@dataclass(frozen=True)
class ReplicateResult:
    mean_distribution: SizeDistribution
    traces: tuple[SimTrace, ...]

    @property
    def n_replicas(self) -> int:
        return len(self.traces)


def _run_replica(args: tuple[SimParams, int]) -> SimTrace:
    params, r = args
    return run(params, replica=r)


def replicate(params: SimParams, n_replicas: int, jobs: int = 1) -> ReplicateResult:
    """Average the final-checkpoint size distribution over independent replicas.

    Replica r consumes the stream derived from (seed, r); results are merged
    by replica index, so the output is identical for any jobs count or
    execution order.
    """
    n_replicas = require_integer("n_replicas", n_replicas, 1)
    jobs = require_integer("jobs", jobs, 1)
    tasks = [(params, r) for r in range(n_replicas)]
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            traces = tuple(pool.map(_run_replica, tasks))
    else:
        traces = tuple(run(params, replica=r) for r in range(n_replicas))
    return ReplicateResult(mean_distribution=_mean_distribution(traces), traces=traces)


def _mean_distribution(traces: tuple[SimTrace, ...]) -> SizeDistribution:
    max_size = max(t.final.distribution.max_value for t in traces)
    acc = np.zeros(max_size + 1)
    for t in traces:
        d = t.final.distribution
        acc[d.sizes] += d.counts
    acc /= len(traces)
    sizes = np.flatnonzero(acc)
    return SizeDistribution(sizes.astype(np.int64), acc[sizes])
