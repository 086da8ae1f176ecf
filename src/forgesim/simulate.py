"""Monte Carlo generator of the founding-and-joining growth process.

One developer arrives per step: with probability p0 they found a new project
of size 1, otherwise they join an existing project r chosen with probability
proportional to x_r**alpha.

Stream contract. Arrival 0 is the forced founding and draws nothing. Arrival
k >= 1 draws a branch uniform u; if u < p0 it founds a project, otherwise it
joins one. With n projects placed, a join at alpha = 1 draws one uniform v
and takes the project of arrival floor(v * k), a uniformly random already
placed developer, which realises size-proportional selection exactly. At any
other alpha it draws pairs (v, w) until one is accepted: v proposes a project
r of size x from an envelope of x**alpha, and w accepts it with probability
x**alpha over the envelope at x. The three envelopes are
- alpha > 1: x * x_max**(alpha-1); v proposes the project of arrival
  floor(v * k), and w < (x / x_max)**(alpha-1) accepts;
- 0 <= alpha < 1: the tangent A + B x of x**alpha at the mean size
  x0 = k / n, A = (1-alpha) x0**alpha, B = alpha x0**(alpha-1); with the
  weights A n and B k of its two parts, v < 1 - alpha proposes project
  floor(v / (1-alpha) * n) and otherwise the project of arrival
  floor((v - (1-alpha)) / alpha * k), each index clamped to the last one,
  and w (1 - alpha + alpha z) < z**alpha accepts, with z = x / x0;
- alpha < 0: x_min**alpha; v proposes project floor(v * n), and
  w < (x / x_min)**alpha accepts.
The acceptance forms only ratios of at most 1; the largest project at
alpha > 1 and the smallest at alpha < 0 are accepted with certainty, and at
0 <= alpha < 1 every ratio is positive, so every round can accept even where
x**alpha itself would overflow or underflow. A join takes on average the
envelope's total over sum x**alpha proposals: k x_max**(alpha-1),
n x0**alpha or n x_min**alpha over sum x**alpha. In runs of 1e5 arrivals
that is 1.0-1.3 at 0 <= alpha < 1; at alpha > 1, where it approaches
k / x_max as one project takes nearly every join, 1.05 at p0 = 0.05, 3 at
p0 = 2/3 and 20-34 at p0 = 0.95; and at alpha < 0, where it grows with the
share of projects above the smallest size, 1.03 at p0 = 0.95 but 12.5 at
alpha = -1 and p0 = 0.05; there, and at strongly negative alpha, a
Fenwick-tree search over the weights is faster.

Uniforms are one sequence of the generator, which the cores and the tests'
stepping loop read in chunks of different sizes; Philox gives the same
sequence however it is chunked.

`run` has one core for alpha = 1 and one for any other alpha. At alpha = 1
the core resolves the whole run without a per-arrival loop. It reads the
stream in blocks of at most _BLOCK, each no longer than the two uniforms per
arrival still to place (plus a carried target) can use, so a run's last
block is short and may be a single carried target. In each block one running
maximum of run starts locates every branch draw, by the low bit of an int32
offset, and a join's arrival follows from its position and the joins before
it. Each joiner is linked to the arrival it copies, and pointer jumping finds
every arrival's founder, each pass over only the arrivals whose link does not
yet reach a founder. At any other alpha the core places one arrival at a time
in a loop over Python lists and an array of every arrival's project. Both
cores give bit for bit what a per-arrival stepping loop gives on the same
stream; the tests hold such a loop as their oracle, and a Fenwick-tree search
over the weights x**alpha as a second realisation of the alpha != 1 process.

Randomness comes from numpy's counter-based Philox generator; replica r of a
run derives its stream deterministically as SeedSequence(seed, spawn_key=(r,)),
so replicas are independent and reproducible in any execution order. The
generator identity is recorded in every trace.
"""

from __future__ import annotations

from array import array
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
_OFFSETS = np.arange(_BLOCK, dtype=np.int32)
_OFFSETS.setflags(write=False)


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

    Reads the replica's stream block by block, each block no longer than the
    two uniforms per arrival still to place, plus a carried target, can use.
    Position i of the stream is a branch draw exactly when position i-1 is
    not a join's branch draw, so inside a run of joins (u >= p0) the branch
    draws sit at even offsets from the run's start, and one running maximum of
    run starts places them all. Before a join's branch draw a block holds the
    branch draws of its earlier arrivals, one target per earlier join and any
    carried target, so the join's position less the joins before it gives its
    arrival. A join's next uniform v makes arrival k copy arrival
    floor(v * k); when that uniform opens the next block, the join is carried
    over to it.
    """
    n = params.n_steps
    parent = np.arange(n, dtype=np.int64)
    generator = _generator(params.seed, replica)
    k = 1  # next arrival to place; arrival 0 is the forced founding and draws nothing
    carried = False
    while k < n or carried:
        m = min(_BLOCK, 2 * (n - k) + carried)
        u = generator.random(m)
        join = u >= params.p0
        if carried:
            parent[k - 1] = int(u[0] * (k - 1))
            join[0] = False  # a target, so a run opens after it
        # position i opens a run when position i-1 is not a join; the running
        # maximum carries each run's start over its joins
        starts = np.empty(m, dtype=np.int32)
        starts[0] = 0
        np.multiply(_OFFSETS[1:m], ~join[:-1], out=starts[1:])
        np.maximum.accumulate(starts, out=starts)
        starts ^= _OFFSETS[:m]  # bit 0 is set at odd offsets from the run's start
        branch_join = (starts & 1) == 0
        branch_join &= join
        joined = np.flatnonzero(branch_join)
        arrivals = k - carried + joined - np.arange(joined.size)
        joined = joined[: np.searchsorted(arrivals, n)]  # the last block may run past n
        arrivals = arrivals[: joined.size]
        carried_in = carried
        carried = bool(joined.size) and joined[-1] == m - 1
        if carried:
            joined, arrivals = joined[:-1], arrivals[:-1]
        parent[arrivals] = (u[joined + 1] * arrivals).astype(np.int64)
        # besides its targets, a block holds one branch draw per arrival it placed
        k = min(n, k + m - carried_in - joined.size)
    return parent


def _arrival_projects(params: SimParams, replica: int = 0) -> np.ndarray:
    """Project index of every arrival of an alpha=1 run, bit for bit as the stepping loop gives it.

    Every copy link points to an earlier arrival, so pointer jumping over the
    links reaches each arrival's founder in O(log depth) passes. Each pass
    jumps only the arrivals whose link does not yet reach a founder; projects
    are numbered in founding order.
    """
    parent = _copy_links(params, replica)
    founder = parent == np.arange(parent.size)
    roots = np.flatnonzero(founder)
    ids = np.empty(parent.size, dtype=np.int64)
    ids[roots] = np.arange(roots.size)
    pending = np.flatnonzero(~founder[parent])
    while pending.size:
        up = parent[parent[pending]]
        parent[pending] = up
        pending = pending[~founder[up]]
    return ids[parent]


def _rejection_sizes(params: SimParams, replica: int):
    """Project sizes at each checkpoint of a run at alpha != 1, placed one arrival at a time.

    A join draws pairs (v, w) until one is accepted: v proposes a project from
    an envelope of x**alpha that the state samples in O(1), and w accepts the
    proposal with the probability x**alpha / envelope(x), a ratio of at most
    1 formed without x**alpha itself. The state is the sizes in founding
    order, the project of every placed arrival, the largest size and, at
    alpha < 0, the smallest size and the count of projects of each size.
    The run stops at the last checkpoint.
    """
    p0, alpha = params.p0, params.alpha
    last = params.checkpoints[-1]
    generator = _generator(params.seed, replica)
    chunk = min(_BLOCK, 2 * last)  # a short run pulls a short chunk of the one sequence
    # the stream's uniforms as Python floats, one chunk pulled at a time
    uniform = chain.from_iterable(iter(lambda: generator.random(chunk).tolist(), None)).__next__
    sizes = [1]
    owner = array("q", bytes(8 * last))  # the project of every placed arrival
    x_max = x_min = 1
    per_size = [0, 1] + [0] * last if alpha < 0.0 else None
    tilt, gap = alpha - 1.0, 1.0 - alpha
    k = 1
    for c in params.checkpoints:
        for k in range(k, c):
            if uniform() < p0:
                owner[k] = len(sizes)
                sizes.append(1)
                if per_size is not None:
                    per_size[1] += 1
                    x_min = 1
                continue
            if alpha > 1.0:
                # v: the project of arrival floor(v * k), chance x / k; the
                # envelope x * x_max**(alpha - 1) is met by the largest project
                while True:
                    r = owner[int(uniform() * k)]
                    x = sizes[r]
                    if uniform() < (x / x_max) ** tilt:
                        break
            elif alpha < 0.0:
                # v: project floor(v * n), chance 1 / n; the envelope
                # x_min**alpha is met by the smallest project
                n = len(sizes)
                while True:
                    r = int(uniform() * n)
                    x = sizes[r]
                    if uniform() < (x / x_min) ** alpha:
                        break
                per_size[x] -= 1
                per_size[x + 1] += 1
                if x == x_min and not per_size[x]:
                    x_min = x + 1
            else:
                # v < 1 - alpha: a uniform project; otherwise the project of a
                # uniform earlier arrival. The chance (1 - alpha) / n + alpha * x / k
                # is the tangent of x**alpha at the mean size k / n over its sum.
                n = len(sizes)
                mean = k / n
                while True:
                    v = uniform()
                    if v < gap:
                        r = min(int(v / gap * n), n - 1)
                    else:
                        r = owner[min(int((v - gap) / alpha * k), k - 1)]
                    x = sizes[r]
                    z = x / mean
                    if uniform() * (gap + alpha * z) < z**alpha:
                        break
            sizes[r] = x + 1
            if x == x_max:
                x_max = x + 1
            owner[k] = r
        k = c
        yield np.array(sizes, dtype=np.int64)


def run(params: SimParams, replica: int = 0) -> SimTrace:
    """Run the process from the forced founding and record each checkpoint.

    At alpha = 1 every arrival's project is resolved at once from the whole
    run; at any other alpha the rejection loop places one arrival at a time
    up to the last checkpoint.
    """
    if params.alpha == 1.0:
        project = _arrival_projects(params, replica)
        sizes_at = (np.bincount(project[:c]) for c in params.checkpoints)
    else:
        sizes_at = _rejection_sizes(params, replica)
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
