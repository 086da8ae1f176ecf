"""The per-arrival stepping machine, kept as the oracle of both simulator cores.

`step` places one arriving developer on a `SimState`, reading uniforms from a
`UniformStream`: at alpha = 1 through an array of the project of every placed
developer (slots), at other alpha through a numpy Fenwick tree over the
weights x**alpha. It follows the stream contract in `forgesim.simulate`, so
`stepping_run` gives what `forgesim.simulate.run` must give bit for bit.
"""

import numpy as np

from forgesim.distributions import SizeDistribution
from forgesim.simulate import _BLOCK, Checkpoint, SimParams, _generator


class UniformStream:
    """Buffered stream of uniforms on [0,1) drawn from a Generator in _BLOCK blocks."""

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


def stream_for(seed: int, replica: int = 0) -> UniformStream:
    """Deterministic uniform stream for (seed, replica)."""
    return UniformStream(_generator(seed, replica))


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


def stepping_run(params: SimParams, replica: int = 0):
    """One `step` per arrival on the replica's stream, recording each checkpoint
    as it is reached. Returns the checkpoints and the slot array (at alpha=1,
    the project of every arrival; None at other alpha)."""
    u = stream_for(params.seed, replica)
    state = initial_state(params)
    pending = list(params.checkpoints)
    records = []

    def record():
        records.append(
            Checkpoint(
                step=state.step,
                n_projects=state.n_projects,
                distribution=state.size_distribution(),
                sizes=tuple(int(s) for s in state.project_sizes) if params.full_history else None,
            )
        )

    while pending and pending[0] <= state.step:
        pending.pop(0)
        record()
    while state.step < params.n_steps:
        step(state, params, u)
        while pending and pending[0] == state.step:
            pending.pop(0)
            record()
    return tuple(records), state._slots
