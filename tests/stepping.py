"""The per-arrival stepping machine, kept as the oracle of both simulator cores.

`step` places one arriving developer on a `SimState`, reading uniforms from a
`UniformStream`. It follows the stream contract in `forgesim.simulate`, so
`stepping_run` gives what `forgesim.simulate.run` must give bit for bit: a
join at alpha = 1 takes the project of a uniformly random placed developer
(the slots), and at any other alpha it draws rounds until one takes a
project:

- alpha > 1: the state tracks top, the project that first reached the largest
  size x_max, and x_2, the largest size of the others. A round's u takes top
  if u < x_max / (x_max + (k - x_max) * (x_2 / x_max)**(alpha-1)); otherwise
  v picks placed developers until one is outside top, and w accepts that
  developer's project if w < (x / x_2)**(alpha-1). While top holds every
  placed developer the join takes it and draws nothing;
- 0 <= alpha < 1: v < 1 - alpha picks a uniform project and otherwise a placed
  developer's project, w * (1 - alpha + alpha * z) < z**alpha with z = x n / k;
- alpha < 0: v picks a uniform project, w < (x / x_min)**alpha.

The state counts the rounds its joins draw.

`fenwick_sizes` draws the same process another way: a join searches a
Fenwick tree over x**alpha for one uniform times the weight sum. Its
realisations differ from `run`'s, and the tests compare the two by their
statistics.
"""

import numpy as np

from forgesim.distributions import SizeDistribution
from forgesim.simulate import _BLOCK, Checkpoint, SimParams, _generator


class UniformStream:
    """Buffered stream of uniforms on [0,1), as Python floats, drawn from a
    Generator in _BLOCK blocks."""

    __slots__ = ("generator", "_buf", "_pos")

    def __init__(self, generator: np.random.Generator):
        self.generator = generator
        self._buf = generator.random(_BLOCK).tolist()
        self._pos = 0

    def next(self) -> float:
        if self._pos >= _BLOCK:
            self._buf = self.generator.random(_BLOCK).tolist()
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
        self._tree = [0.0] * (self._cap + 1)
        self._weights = []

    def append(self, weight: float) -> None:
        if len(self._weights) >= self._cap:
            self._grow()
        self._weights.append(weight)
        self._add_tree(len(self._weights) - 1, weight)

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
        tree = [0.0, *self._weights] + [0.0] * (self._cap - len(self._weights))
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
        return min(idx, len(self._weights) - 1)


def fenwick_sizes(params: SimParams, replica: int = 0) -> np.ndarray:
    """Final project sizes of one run of the Fenwick process on the replica's stream.

    Each arrival draws a branch uniform u and founds a project if u < p0;
    otherwise it draws v and joins the project that a Fenwick tree over the
    weights x**alpha finds for v times their sum.
    """
    u = stream_for(params.seed, replica)
    alpha = params.alpha
    tree = _Fenwick(min(params.n_steps, 1024))
    tree.append(1.0)
    sizes, total = [1], 1.0
    for _ in range(params.n_steps - 1):
        if u.next() < params.p0:
            tree.append(1.0)
            sizes.append(1)
            total += 1.0
        else:
            r = tree.find(u.next() * total)
            x = sizes[r]
            sizes[r] = x + 1
            delta = float(x + 1) ** alpha - float(x) ** alpha
            tree.add(r, delta)
            total += delta
    return np.array(sizes, dtype=np.int64)


class SimState:
    """Evolving state of one run: per-project sizes plus selection machinery.

    The arrays are preallocated for n_steps; `step` mutates the state in
    place (a per-step copy would turn the run quadratic).
    """

    __slots__ = ("step", "n_projects", "x_max", "x_min", "top", "x_2", "rounds", "_sizes",
                 "_slots", "_per_size")

    def __init__(self, n_steps: int):
        self.step = 1
        self.n_projects = 1
        self.x_max = self.x_min = 1
        # the project that first reached x_max, and the largest size of the others
        self.top, self.x_2 = 0, 0
        self.rounds = 0  # rounds drawn by joins at alpha != 1
        self._sizes = np.zeros(n_steps, dtype=np.int64)
        self._sizes[0] = 1
        # slot s holds the project of the s-th placed developer
        self._slots = np.zeros(n_steps, dtype=np.int64)
        # the number of projects of each size
        self._per_size = np.zeros(n_steps + 2, dtype=np.int64)
        self._per_size[1] = 1

    @property
    def project_sizes(self) -> np.ndarray:
        view = self._sizes[: self.n_projects]
        view.setflags(write=False)
        return view

    def size_distribution(self) -> SizeDistribution:
        return SizeDistribution.from_sizes(self._sizes[: self.n_projects])

    def _found(self) -> None:
        self._sizes[self.n_projects] = 1
        self._slots[self.step] = self.n_projects
        self._per_size[1] += 1
        self.x_min = 1
        self.x_2 = max(self.x_2, 1)
        self.n_projects += 1
        self.step += 1

    def _join(self, project: int) -> None:
        x = int(self._sizes[project])
        self._sizes[project] = x + 1
        self._slots[self.step] = project
        self._per_size[x] -= 1
        self._per_size[x + 1] += 1
        if project == self.top:
            self.x_max = x + 1
        elif x + 1 > self.x_max:
            self.top, self.x_2, self.x_max = project, self.x_max, x + 1
        else:
            self.x_2 = max(self.x_2, x + 1)
        if x == self.x_min and self._per_size[x] == 0:
            self.x_min = x + 1
        self.step += 1


def initial_state(params: SimParams) -> SimState:
    """State after the forced founding at N=1: one project of size 1."""
    return SimState(params.n_steps)


def _round(state: SimState, alpha: float, u: UniformStream) -> int:
    """The project that one round of a join at alpha != 1 takes, or -1 if it takes none."""
    k, n = state.step, state.n_projects
    state.rounds += 1
    if alpha > 1.0:
        skew = (state.x_2 / state.x_max) ** (alpha - 1.0)
        if u.next() < state.x_max / (state.x_max + (k - state.x_max) * skew):
            return state.top
        r = int(state._slots[int(u.next() * k)])
        while r == state.top:
            r = int(state._slots[int(u.next() * k)])
        x = int(state._sizes[r])
        return r if u.next() < (x / state.x_2) ** (alpha - 1.0) else -1
    v, w = u.next(), u.next()
    if alpha < 0.0:
        r = int(v * n)
        x = int(state._sizes[r])
        return r if w < (x / state.x_min) ** alpha else -1
    if v < 1.0 - alpha:
        r = min(int(v / (1.0 - alpha) * n), n - 1)
    else:
        r = int(state._slots[min(int((v - (1.0 - alpha)) / alpha * k), k - 1)])
    z = int(state._sizes[r]) / (k / n)
    return r if w * ((1.0 - alpha) + alpha * z) < z**alpha else -1


def _draw(state: SimState, params: SimParams, u: UniformStream) -> int:
    """Draw one arrival's decision on the frozen state.

    Returns -1 for a founding, otherwise the index of the project joined.
    Consumes one uniform for the branch; a join then consumes one more at
    alpha = 1, none at alpha > 1 while top holds every placed arrival, and
    otherwise rounds until one takes a project.
    """
    if u.next() < params.p0:
        return -1
    if params.alpha == 1.0:
        return int(state._slots[int(u.next() * state.step)])
    if params.alpha > 1.0 and state.step == state.x_max:
        return state.top
    while True:
        r = _round(state, params.alpha, u)
        if r >= 0:
            return r


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
    as it is reached. Returns the checkpoints and the slot array, the project
    of every arrival."""
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
