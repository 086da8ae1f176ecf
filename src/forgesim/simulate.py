"""Monte Carlo generator of the founding-and-joining growth process.

One developer arrives per step: with probability p0 they found a new project
of size 1, otherwise they join an existing project r chosen with probability
proportional to x_r**alpha.

Stream contract. Arrival 0 is the forced founding and draws nothing. Arrival
k >= 1 draws a branch uniform u; if u < p0 it founds a project, otherwise it
draws one more uniform v and picks a target. Uniforms are pulled from the
generator in blocks of _BLOCK, which continue one sequence.

For alpha = 1 the target is the project of arrival floor(v * k), a uniformly
random already placed developer, which realises size-proportional selection
exactly. `run` resolves such a run without a per-arrival loop: it locates
every branch draw in each block with one running maximum, links each joiner
to the arrival it copies, and finds every arrival's founder by pointer
jumping. The result is bit for bit what `step` gives on the same stream.
For general alpha, `step` searches a Fenwick tree over per-project weights
x**alpha for v times the weight sum, in O(log n_projects) with the sum
maintained incrementally, and `run` loops over arrivals.

Randomness comes from numpy's counter-based Philox generator; replica r of a
run derives its stream deterministically as SeedSequence(seed, spawn_key=(r,)),
so replicas are independent and reproducible in any execution order. The
generator identity is recorded in every trace.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .distributions import SizeDistribution
from .errors import DomainError

__all__ = [
    "SimParams",
    "SimState",
    "Checkpoint",
    "SimTrace",
    "ReplicateResult",
    "initial_state",
    "step",
    "run",
    "replicate",
]

GENERATOR_ID = f"numpy.random.Philox numpy=={np.__version__}"

_BLOCK = 1 << 16


class UniformStream:
    """Buffered stream of uniforms on [0,1) drawn from a Generator.

    Pulling blocks amortises numpy call overhead; the sequence consumed is a
    pure function of the underlying generator's seed.
    """

    __slots__ = ("generator", "_buf", "_pos")

    def __init__(self, generator: np.random.Generator):
        self.generator = generator
        self._buf = generator.random(_BLOCK)
        self._pos = 0

    def next(self) -> float:
        if self._pos >= _BLOCK:
            self._buf = self.generator.random(_BLOCK)
            self._pos = 0
        v = self._buf[self._pos]
        self._pos += 1
        return v


def _generator(seed: int, replica: int) -> np.random.Generator:
    seq = np.random.SeedSequence(seed, spawn_key=(replica,))
    return np.random.Generator(np.random.Philox(seq))


def stream_for(seed: int, replica: int = 0) -> UniformStream:
    """Deterministic uniform stream for (seed, replica)."""
    return UniformStream(_generator(seed, replica))


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
        if not 0.0 < self.p0 < 1.0:
            raise DomainError(f"p0 must lie in (0,1), got {self.p0}")
        cps = (self.n_steps,) if self.checkpoints is None else self.checkpoints
        for name, value in (("n_steps", self.n_steps), ("seed", self.seed),
                            *(("checkpoint", c) for c in cps)):
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise DomainError(f"{name} must be an integer, got {value!r}")
        object.__setattr__(self, "n_steps", int(self.n_steps))
        object.__setattr__(self, "seed", int(self.seed))
        if self.n_steps < 1:
            raise DomainError(f"n_steps must be >= 1, got {self.n_steps}")
        if not 0 <= self.seed < 2**64:
            raise DomainError(f"seed must be a 64-bit unsigned integer, got {self.seed}")
        if not np.isfinite(self.alpha):
            raise DomainError("alpha must be finite")
        cps = tuple(sorted({int(c) for c in cps}))
        if cps and (cps[0] < 1 or cps[-1] > self.n_steps):
            raise DomainError("checkpoints must lie within [1, n_steps]")
        object.__setattr__(self, "checkpoints", cps)


class _Fenwick:
    """Binary indexed tree over nonnegative weights with prefix-sum search.

    Updates propagate to the full capacity so plain appends stay consistent;
    the tree is rebuilt in O(n) on the rare capacity doublings.
    """

    def __init__(self, capacity: int):
        self._cap = max(int(capacity), 2)
        self._tree = np.zeros(self._cap + 1)
        self._weights = np.zeros(self._cap)
        self._n = 0

    def append(self, weight: float) -> None:
        if self._n >= self._cap:
            self._grow()
        self._weights[self._n] = weight
        self._n += 1
        self._add_tree(self._n - 1, weight)

    def add(self, index: int, delta: float) -> None:
        self._weights[index] += delta
        self._add_tree(index, delta)

    def _add_tree(self, index: int, delta: float) -> None:
        i = index + 1
        tree = self._tree
        cap = self._cap
        while i <= cap:
            tree[i] += delta
            i += i & (-i)

    def _grow(self) -> None:
        self._cap *= 2
        weights = np.zeros(self._cap)
        weights[: self._n] = self._weights[: self._n]
        self._weights = weights
        tree = np.zeros(self._cap + 1)
        tree[1 : self._n + 1] = weights[: self._n]
        for i in range(1, self._cap + 1):
            j = i + (i & (-i))
            if j <= self._cap:
                tree[j] += tree[i]
        self._tree = tree

    def find(self, value: float) -> int:
        """0-based index of the element whose prefix interval contains value."""
        idx = 0
        bit = 1 << (self._cap.bit_length() - 1)
        tree = self._tree
        while bit:
            nxt = idx + bit
            if nxt <= self._cap and tree[nxt] <= value:
                value -= tree[nxt]
                idx = nxt
            bit >>= 1
        return min(idx, self._n - 1)


class SimState:
    """Evolving state of one run: per-project sizes plus selection machinery.

    The arrays are preallocated for n_steps; `step` mutates the state in
    place (a per-step copy would turn the run quadratic).
    """

    __slots__ = ("step", "n_projects", "_sizes", "_slots", "_alpha", "sum_alpha_weights", "_fenwick")

    def __init__(self, n_steps: int, alpha: float):
        self.step = 1
        self.n_projects = 1
        self._alpha = alpha
        self._sizes = np.zeros(n_steps, dtype=np.int64)
        self._sizes[0] = 1
        if alpha == 1.0:
            # slot s holds the project of the s-th placed developer
            self._slots = np.zeros(n_steps, dtype=np.int64)
            self._fenwick = None
            self.sum_alpha_weights = 1.0
        else:
            self._slots = None
            self._fenwick = _Fenwick(min(n_steps, 1024))
            self._fenwick.append(1.0)
            self.sum_alpha_weights = 1.0

    @property
    def project_sizes(self) -> np.ndarray:
        view = self._sizes[: self.n_projects]
        view.setflags(write=False)
        return view

    def size_distribution(self) -> SizeDistribution:
        return SizeDistribution.from_sizes(self._sizes[: self.n_projects])

    def _found(self) -> None:
        self._sizes[self.n_projects] = 1
        if self._slots is not None:
            self._slots[self.step] = self.n_projects
        else:
            self._fenwick.append(1.0)
            self.sum_alpha_weights += 1.0
        self.n_projects += 1
        self.step += 1

    def _join(self, project: int) -> None:
        x = self._sizes[project]
        self._sizes[project] = x + 1
        if self._slots is not None:
            self._slots[self.step] = project
            self.sum_alpha_weights += 1.0
        else:
            delta = float(x + 1) ** self._alpha - float(x) ** self._alpha
            self._fenwick.add(project, delta)
            self.sum_alpha_weights += delta
        self.step += 1


def initial_state(params: SimParams) -> SimState:
    """State after the forced founding at N=1: one project of size 1."""
    return SimState(params.n_steps, params.alpha)


def _draw(state: SimState, params: SimParams, u: UniformStream) -> int:
    """Draw one arrival's decision on the frozen state.

    Returns -1 for a founding, otherwise the index of the project joined.
    Consumes one uniform for the branch and, on a join, one more for the
    target.
    """
    if u.next() < params.p0:
        return -1
    if state._slots is not None:
        return int(state._slots[int(u.next() * state.step)])
    return state._fenwick.find(u.next() * state.sum_alpha_weights)


def step(state: SimState, params: SimParams, u: UniformStream) -> SimState:
    """Advance the process by one arriving developer (in place)."""
    target = _draw(state, params, u)
    if target < 0:
        state._found()
    else:
        state._join(target)
    return state


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
    """Project index of every arrival of an alpha=1 run, bit for bit as `step` gives it.

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
    """Project sizes at each checkpoint, stepping one arrival at a time."""
    u = stream_for(params.seed, replica)
    state = initial_state(params)
    for c in params.checkpoints:
        while state.step < c:
            step(state, params, u)
        yield state.project_sizes.copy()


def run(params: SimParams, replica: int = 0) -> SimTrace:
    """Run the process from the forced founding and record each checkpoint.

    At alpha = 1 every arrival's project is resolved at once from the whole
    run; otherwise `step` places one arrival at a time up to the last checkpoint.
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
    if n_replicas < 1:
        raise DomainError("n_replicas must be >= 1")
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
