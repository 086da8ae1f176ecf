"""The Yule-Simon distribution: evaluation, sampling, and maximum likelihood.

The pmf is f(x) = rho * B(x, rho+1) on x = 1, 2, ... with parameter rho > 0.
It arises as the stationary size distribution of the founding-and-joining
process simulated in :mod:`forgesim.simulate`; the founding probability p0 of
that process maps to rho = 1/(1-p0).

Sizes are integers, so every special function reduces to finite sums and
asymptotic series in numpy. All Beta evaluation goes through log B(x, a)
with a = rho+1, exponentiated last. Up to x = 64 it is the sum
-log a - sum_{k<x} log1p(a/k), read off one cumulative-sum row of 64 entries
per distinct rho. Above, it is log B(64, a) + R(x) - R(64), where
R(x) = log Gamma(x) - log Gamma(x+a) comes from a Stirling-series expansion
of the ratio itself rather than a subtraction of two large log-Gammas (which
loses ~4 digits near x = 1e6), and R(64) is computed once per row. Against
40-digit mpmath, log B is within 1.5e-13 absolute over x <= 1e6,
rho <= 63, so the pmf keeps at least 12 significant digits. The score sums
sum_{k<x} 1/(a+k) and sum_{k<x} 1/(a+k)^2 are rows of the same kind, with
the asymptotic series of psi and psi' beyond 64; over the same range both
are within 1e-15 relative of mpmath.

The survival function has the exact closed form S(x) = x * B(x, rho+1)
(telescoping the pmf recurrence), so cumulative quantities never require
explicit tail summation. It also gives the hazard a closed form,
P(X = k | X >= k) = f(k)/S(k-1) = rho/(k+rho), from which
:func:`sample_counts` draws a whole histogram as a chain of conditional
binomials over the small sizes, at a cost that grows with the number of
distinct sizes rather than with the number of draws. The chain runs in C as
one ``Generator.multinomial`` call over cells built from the hazard, each of
whose binomial probabilities is the hazard to within 1 ulp, so the law is
the chain's; :func:`_sample_counts_batch` draws many histograms this way
and places all their draws above size 32 together, whenever _TAIL_BUDGET
of them are pending. It is a new realisation of the Python chain of 32
scalar ``binomial`` calls it replaced, but a close one: on the same streams
99% of 1800 histograms (rho 0.7-30, n 10-1e5) came out draw for draw the
same, the rest differing where a probability 1 ulp off the hazard changed a
binomial draw.

The maximum-likelihood estimate of rho is the root of the score, found by a
safeguarded Newton iteration in log rho that fits many histograms at once
(:func:`fit_rho_batch`); a single fit is the one-histogram case.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .distributions import SizeDistribution
from .errors import (ConvergenceError, DegenerateDataError, DomainError, require_integer,
                     require_p0)

__all__ = [
    "YuleFit",
    "pmf",
    "log_pmf",
    "cdf",
    "survival",
    "log_survival",
    "sample",
    "sample_counts",
    "mle_rho",
    "fit_rho_weighted",
    "fit_rho_batch",
    "rho_from_p0",
    "p0_from_rho",
]

# Sizes up to this are summed term by term from one table row per rho;
# above it the asymptotic series take over, at arguments >= 64.
_STIRLING_MIN = 64

# Default length of the cached cdf table used by the sampler; draws landing
# beyond it fall back to closed-form survival inversion.
DEFAULT_CDF_CACHE = 100_000

# sample_counts draws sizes up to this by the hazard chain and places the
# draws above it with the cdf table.
_CHAIN_TOP = 32

# The largest size a sampler can return: sizes are int64.
_SIZE_MAX = int(np.iinfo(np.int64).max)


def _stirling_ratio(x: np.ndarray, a) -> np.ndarray:
    """log Gamma(x) - log Gamma(x + a) for x >= 64, from the Stirling series
    of the ratio itself rather than a difference of two large log-Gammas."""
    u = 1.0 / x
    v = 1.0 / (x + a)
    d = a / (x * (x + a))  # u - v without cancellation
    # Bernoulli corrections B_2..B_8 of the Stirling series, as differences:
    # u^(n+1) - v^(n+1) = d * p[n] with p[n] = u p[n-1] + v^n, as in _psi_series.
    vn, p = v, [1.0, u + v]
    for _ in range(5):
        vn = vn * v
        p.append(u * p[-1] + vn)
    corr = d / 12.0
    corr -= d * p[2] / 360.0
    corr += d * p[4] / 1260.0
    corr -= d * p[6] / 1680.0
    return -(x - 0.5) * np.log1p(a / x) - a * np.log(x + a) + a + corr


def _psi_series(z: np.ndarray, m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(psi(z+m) - psi(z), psi'(z) - psi'(z+m)) for z >= 64, m >= 0, to full
    relative accuracy.

    The values at z and z+m agree in their leading digits, so each difference
    is taken term by term in the asymptotic series
    psi(z) ~ log z - 1/(2z) - sum_k B_2k / (2k z^2k) and
    psi'(z) ~ 1/z + 1/(2z^2) + sum_k B_2k / z^(2k+1) instead: with u = 1/z,
    v = 1/(z+m) and d = u - v, u^(n+1) - v^(n+1) = d * p[n], where
    p[n] = sum_{i<=n} u^(n-i) v^i = u p[n-1] + v^n.
    """
    b = z + m
    u, v = 1.0 / z, 1.0 / b
    d = m / (z * b)  # u - v without cancellation
    p, vn = [np.ones_like(u)], np.ones_like(u)
    for _ in range(10):
        vn = vn * v
        p.append(u * p[-1] + vn)
    psi = np.log1p(m / z) + d * (0.5 + p[1] / 12.0 - p[3] / 120.0 + p[5] / 252.0 - p[7] / 240.0)
    psi1 = d * (1.0 + p[1] / 2.0 + p[2] / 6.0 - p[4] / 30.0 + p[6] / 42.0 - p[8] / 30.0
                + 5.0 * p[10] / 66.0)
    return psi, psi1


def _rows(rho: float, shape):
    """(a, row): a = rho+1 as the one row, and every element of an array of
    the given shape reading it."""
    return np.array([rho + 1.0]), np.zeros(shape, dtype=np.intp)


def _log_beta_rows(a: np.ndarray) -> np.ndarray:
    """log B(x, a) for x = 1..64, one row per entry of a: the cumsum of
    -log a and -log1p(a/k) for k = 1..63."""
    table = np.empty((a.size, _STIRLING_MIN))
    table[:, 0] = -np.log(a)
    np.negative(np.log1p(a[:, None] / np.arange(1.0, _STIRLING_MIN)), out=table[:, 1:])
    np.cumsum(table, axis=1, out=table)
    return table


def _log_beta(x: np.ndarray, a: np.ndarray, row: np.ndarray,
              table: np.ndarray | None = None) -> np.ndarray:
    """log B(x, a[row]) for integer sizes x >= 1, each element reading its row.

    Up to x = 64 it is read off ``table``, the rows of :func:`_log_beta_rows`
    (built here unless the caller already holds them). Above, it is
    log B(64, a) + R(x) - R(64) with the Stirling ratio
    R(x) = log Gamma(x) - log Gamma(x+a), and R(64) once per row.
    """
    if table is None:
        table = _log_beta_rows(a)
    out = np.asarray(table[row, np.minimum(x, _STIRLING_MIN).astype(np.intp) - 1])
    big = x > _STIRLING_MIN
    if big.any():
        # one Stirling call for the sizes above 64 and for R(64) of every row
        rb = row[big]
        r = _stirling_ratio(np.concatenate([x[big], np.full(a.size, float(_STIRLING_MIN))]),
                            np.concatenate([a[rb], a]))
        out[big] += r[: rb.size] - r[rb.size :][rb]
    return out


def _score_sums(a: np.ndarray, x: np.ndarray, row: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(psi(a+x) - psi(a), psi'(a) - psi'(a+x)) for integer x >= 0 and a >= 1,
    each element reading its row of a.

    These are sum_{k<x} 1/(a+k) and sum_{k<x} 1/(a+k)^2: one cumsum row each
    per entry of a covers x <= 64, and the asymptotic series at a+64 adds
    the rest.
    """
    inv = 1.0 / (a[:, None] + np.arange(float(_STIRLING_MIN)))
    s1 = np.zeros((a.size, _STIRLING_MIN + 1))
    s2 = np.zeros((a.size, _STIRLING_MIN + 1))
    np.cumsum(inv, axis=1, out=s1[:, 1:])
    np.cumsum(inv * inv, axis=1, out=s2[:, 1:])
    col = np.minimum(x, _STIRLING_MIN).astype(np.intp)
    d1, d2 = s1[row, col], s2[row, col]
    big = x > _STIRLING_MIN
    if big.any():
        psi, psi1 = _psi_series((a + _STIRLING_MIN)[row[big]], x[big] - _STIRLING_MIN)
        d1[big] += psi
        d2[big] += psi1
    return d1, d2


def _check_rho(rho) -> float:
    """rho as a float: one positive, finite value."""
    if np.ndim(rho):
        raise DomainError(f"rho must be a single value, got an array of shape {np.shape(rho)}")
    value = float(rho)
    if not 0.0 < value < np.inf:
        raise DomainError(f"rho must be positive and finite, got {rho}")
    return value


def _check_x(x) -> np.ndarray:
    arr = np.asarray(x, dtype=np.float64)
    if arr.size and (np.any(arr < 1) or np.any(arr != np.floor(arr))):
        raise DomainError("x must consist of integers >= 1")
    return arr


def log_pmf(x, rho: float):
    """log f(x) = log rho + log B(x, rho+1)."""
    rho = _check_rho(rho)
    arr = _check_x(x)
    out = np.log(rho) + _log_beta(arr, *_rows(rho, arr.shape))
    return out if np.ndim(x) else float(out)


def pmf(x, rho: float):
    """Probability of size x under the Yule-Simon distribution."""
    return np.exp(log_pmf(x, rho))


def log_survival(x, rho: float):
    """log P(X > x); exact closed form S(x) = x * B(x, rho+1)."""
    rho = _check_rho(rho)
    arr = _check_x(x)
    out = np.log(arr) + _log_beta(arr, *_rows(rho, arr.shape))
    return out if np.ndim(x) else float(out)


def survival(x, rho: float):
    """P(X > x), with full relative accuracy even deep in the tail."""
    return np.exp(log_survival(x, rho))


def cdf(x, rho: float):
    """P(X <= x) = 1 - x * B(x, rho+1); equals the pmf prefix sum exactly."""
    out = -np.expm1(log_survival(x, rho))
    return out if np.ndim(x) else float(out)


@lru_cache(maxsize=8)
def _cdf_table(rho: float, x_cache: int) -> np.ndarray:
    """cdf at x = 1..x_cache via the pmf recurrence f(x)/f(x-1) = (x-1)/(x+rho).

    Cumulative product plus prefix sum: cheap to build and (validated against
    the closed form) accurate to ~1e-11 at the far end, which is far below
    the 2**-53 resolution of the uniforms consuming it.
    """
    p = np.empty(x_cache)
    p[0] = rho / (rho + 1.0)
    x = np.arange(2.0, x_cache + 1.0)
    p[1:] = (x - 1.0) / (x + rho)
    np.cumprod(p, out=p)
    np.cumsum(p, out=p)
    p.setflags(write=False)
    return p


def _invert_tail(target_survival: float, rho: float, lo: int) -> int:
    """Smallest x > lo with S(x) <= target, via asymptotic guess + bisection.

    S(x) is evaluated as :func:`survival` evaluates it, bit for bit, but a and
    its row of log B up to 64 are built once rather than at every point. A
    draw above the int64 bound, which a small rho makes likely (S(2**63-1)
    is 0.11 at rho = 0.05), is a DomainError rather than an overflow.
    """
    a = np.array([rho + 1.0])
    row = np.zeros((), dtype=np.intp)
    table = _log_beta_rows(a)

    def above(x: int) -> bool:
        """S(x) > target."""
        arr = np.array(float(x))
        return np.exp(np.log(arr) + _log_beta(arr, a, row, table)) > target_survival

    if above(_SIZE_MAX):
        raise DomainError(f"rho={rho} is too small to sample: a draw fell above the int64 "
                          f"bound {_SIZE_MAX}")
    # S(x) ~ Gamma(rho+1) x^-rho for large x
    guess = np.exp((math.lgamma(rho + 1.0) - np.log(target_survival)) / rho)
    hi = int(min(max(lo + 1, guess), _SIZE_MAX))
    while above(hi):
        hi = min(2 * hi, _SIZE_MAX)
    lo_b, hi_b = lo, hi
    while lo_b < hi_b:
        mid = (lo_b + hi_b) // 2
        if above(mid):
            lo_b = mid + 1
        else:
            hi_b = mid
    return lo_b


def sample(rho: float, n: int, rng: np.random.Generator, x_cache: int = DEFAULT_CDF_CACHE) -> np.ndarray:
    """Draw n i.i.d. sizes by inverse transform on the cached cdf.

    Uniforms beyond the table's reach (probability S(x_cache)) are inverted
    against the closed-form survival function instead, so the sampler is
    exact over the whole support.
    """
    rho = _check_rho(rho)
    n, x_cache = require_integer("n", n, 1), require_integer("x_cache", x_cache, 1)
    table = _cdf_table(rho, x_cache)
    u = rng.random(n)
    out = np.searchsorted(table, u, side="left") + 1
    tail = u > table[-1]
    for i in np.flatnonzero(tail):
        out[i] = _invert_tail(1.0 - u[i], rho, x_cache)
    return out.astype(np.int64)


def sample_counts(
    rho: float, n: int, rng: np.random.Generator, x_cache: int = DEFAULT_CDF_CACHE
) -> tuple[np.ndarray, np.ndarray]:
    """Histogram of n i.i.d. draws: (sizes, counts), ascending by size.

    The one-generator case of :func:`_sample_counts_batch`. Sizes 1..32 come
    from one ``rng.multinomial`` call, which runs a chain of conditional
    binomials on the hazard P(X = k | X >= k) = rho/(k+rho) in C: of the r
    draws not yet placed, c_k ~ Binomial(r, rho/(k+rho)) have size k, and
    the chain stops once none are left. The r draws left after k = 32 are
    those with X > 32; each is placed by a uniform in [cdf(32), 1) searched
    in the cached cdf table, or, beyond the table's reach, by closed-form
    survival inversion as in :func:`sample`. The sampler is exact over the
    whole support, and its cost grows with the number of distinct sizes
    rather than with n. Its histogram has the distribution of ``np.unique``
    of n draws of :func:`sample`, but the two read different streams.
    """
    sizes, counts, _ = _sample_counts_batch(rho, n, [rng], x_cache)
    return sizes, counts


# _sample_counts_batch places the tail draws of the replicas so far once this
# many are pending, so memory stays bounded where rho is small and many draws
# fall above 32.
_TAIL_BUDGET = 1 << 16


@lru_cache(maxsize=8)
def _hazard_cells(rho: float) -> tuple[np.ndarray, float]:
    """The multinomial cells of one histogram draw, and S(32).

    Cell k-1 is P(X = k) for k = 1..32 and the last cell holds the mass
    above 32. Each cell is built as the hazard rho/(k+rho) times the mass
    not yet assigned. ``Generator.multinomial`` draws cell k-1 as a binomial
    on that cell over the mass not yet assigned, which it tracks by the same
    subtractions, so each binomial's probability is the hazard to within
    1 ulp. S(32) = prod k/(k+rho) scales the survival targets of the draws
    left above 32.
    """
    k = np.arange(1.0, _CHAIN_TOP + 1.0)
    cells, left = [], 1.0
    for hazard in (rho / (k + rho)).tolist():
        cells.append(hazard * left)
        left -= cells[-1]
    cells = np.array(cells + [left])
    cells.setflags(write=False)
    return cells, float(np.prod(k / (k + rho)))


def _sample_counts_batch(
    rho: float, n: int, generators: Iterable[np.random.Generator],
    x_cache: int = DEFAULT_CDF_CACHE,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Histograms of n i.i.d. draws, one per generator, as flattened
    (sizes, counts, replica) triples sorted by (replica, size); replica b is
    drawn from the b-th generator.

    Each generator makes exactly two calls: ``multinomial(n, cells)`` over
    the cells of :func:`_hazard_cells`, then ``random(r)`` for the r draws
    left above 32, if any. The generators are read one at a time, so a
    generator expression never holds them all. The tail draws of all pending
    replicas are placed together by :func:`_batch_histograms` whenever they
    reach _TAIL_BUDGET, and once at the end. Every step is elementwise or
    per replica, so a replica's histogram depends only on its generator,
    never on the batch it shares or where the batch was cut.
    """
    rho = _check_rho(rho)
    n, x_cache = require_integer("n", n, 1), require_integer("x_cache", x_cache, 1)
    cells = _hazard_cells(rho)[0]
    parts, heads, tails, pending, first = [], [], [], 0, 0
    for generator in generators:
        heads.append(generator.multinomial(n, cells))
        if left := int(heads[-1][-1]):
            tails.append(generator.random(left))
            pending += left
        if pending >= _TAIL_BUDGET:
            parts.append(_batch_histograms(rho, x_cache, heads, tails, first))
            first += len(heads)
            heads, tails, pending = [], [], 0
    parts.append(_batch_histograms(rho, x_cache, heads, tails, first))
    sizes, counts, replica = (np.concatenate(column) for column in zip(*parts))
    return sizes, counts, replica


def _batch_histograms(rho: float, x_cache: int, heads: list, tails: list, first: int):
    """(sizes, counts, replica) of replicas first, first+1, ..., sorted by
    (replica, size).

    heads holds each replica's multinomial row and tails the uniforms of the
    draws left above 32, replica after replica. Each uniform becomes a
    survival target in (0, S(32)] and is placed by one ``searchsorted`` in
    the cached cdf table for all replicas at once, or, beyond the table's
    reach, by closed-form survival inversion. One sort of (replica, size)
    then merges the cells of sizes 1..32 and the tail draws into histograms.
    """
    heads = np.array(heads, dtype=np.int64).reshape(-1, _CHAIN_TOP + 1)
    rows, k = np.nonzero(heads[:, :-1])
    table = _cdf_table(rho, x_cache)
    target = _hazard_cells(rho)[1] * (1.0 - np.concatenate([np.empty(0), *tails]))
    u = 1.0 - target
    tail = np.searchsorted(table[_CHAIN_TOP:], u, side="left") + _CHAIN_TOP + 1
    for i in np.flatnonzero(u > table[-1]):
        tail[i] = _invert_tail(target[i], rho, max(x_cache, _CHAIN_TOP))
    sizes = np.concatenate([k + 1, tail]).astype(np.int64)
    replica = np.concatenate([rows, np.repeat(np.arange(len(heads)), heads[:, -1])])
    weight = np.concatenate([heads[rows, k], np.ones(tail.size, dtype=np.int64)])
    order = np.lexsort((sizes, replica))
    sizes, replica = sizes[order], replica[order]
    new = np.ones(sizes.size, dtype=bool)
    new[1:] = (sizes[1:] != sizes[:-1]) | (replica[1:] != replica[:-1])
    starts = np.flatnonzero(new)
    return sizes[starts], np.add.reduceat(weight[order], starts), replica[starts] + first


def rho_from_p0(p0: float) -> float:
    """rho = 1/(1-p0) for founding probability p0 in (0,1)."""
    return 1.0 / (1.0 - require_p0(p0))


def p0_from_rho(rho: float) -> float:
    """Inverse of rho_from_p0; requires rho > 1."""
    if not rho > 1.0:
        raise DomainError(f"rho must exceed 1 to map to a p0 in (0,1), got {rho}")
    return 1.0 - 1.0 / rho


@dataclass(frozen=True)
class YuleFit:
    """Maximum-likelihood fit of rho to a size histogram.

    domain_flag marks whether the estimate is inside the generative model's
    range (rho > 1 <=> p0 in (0,1)); fits outside are reported, not rejected,
    because empirical histograms may fall outside the model.
    """

    rho_hat: float
    log_likelihood: float
    n_observations: float
    derived_p0: float
    domain_flag: bool


# Newton iteration in t = log rho: a replica is frozen once its step falls
# below _LOG_RHO_TOL; steps are capped at _MAX_LOG_STEP and fall back to
# bisection of the sign bracket when they would leave it.
_LOG_RHO_TOL = 1e-10
_MAX_LOG_STEP = 2.0
_MAX_ITERATIONS = 100


def fit_rho_batch(
    sizes: np.ndarray, weights: np.ndarray, replica: np.ndarray, n_replicas: int,
    truncated: bool = False,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Maximise sum_x w(x) log pmf(x, rho) for many histograms at once.

    The histograms come as flattened (replica, size, weight) triples;
    returns (rho, loglik, steps), one entry per replica, where steps counts
    the replica's Newton steps. In t = log rho the log-likelihood is
    strictly concave: its derivative

        g(t) = sum_x w(x) [1 - rho (psi(x+rho+1) - psi(rho+1))]
             = sum_x w(x) [1 - sum_{k=1..x} rho/(rho+k)]

    falls strictly from sum w to sum w (1-x), so it has one root whenever
    some size >= 2 carries weight. Each replica runs its own safeguarded
    Newton iteration on g and stops on its own step size; per-replica sums
    are taken with np.bincount, which adds in input order, so a replica's
    rho is bitwise the same whether it is fitted alone or in any batch.

    With ``truncated``, each histogram is a sample truncated below 2: the
    weight at x = 1 is ignored and the likelihood is that of x given x >= 2,
    sum_{x>=2} w(x) [log pmf(x, rho) + log(rho+1)]. With W the weight at
    x >= 2, the score gains W rho/(rho+1) and its derivative
    W rho/(rho+1)^2, so that

        g(t) = sum_{x>=2} w(x) [1 - sum_{k=2..x} rho/(rho+k)],

    which falls strictly from W to sum w (2-x) and has one root whenever
    some size >= 3 carries weight.
    """
    sizes = np.asarray(sizes, dtype=np.float64)
    weights = np.asarray(weights, dtype=np.float64)
    replica = np.asarray(replica, dtype=np.intp)
    # the smallest size the likelihood sees; its hazard rho/(rho+first)
    # starts the iteration
    first = 2 if truncated else 1
    if truncated:
        weights = np.where(sizes >= 2, weights, 0.0)
        tail = np.bincount(replica, weights, minlength=n_replicas)
    heavy = np.bincount(replica, weights * (sizes >= first + 1), minlength=n_replicas)
    if np.any(heavy <= 0):
        raise DegenerateDataError(f"no weight above size {first}: rho is not identifiable")
    # start from the hazard estimate rho = first * n(first) / n(> first)
    at_first = np.bincount(replica, weights * (sizes == first), minlength=n_replicas)
    t = np.log(np.maximum(first * at_first / heavy, 1e-2))
    lo = np.full(n_replicas, -np.inf)
    hi = np.full(n_replicas, np.inf)
    active = np.ones(n_replicas, dtype=bool)
    steps = np.zeros(n_replicas, dtype=np.int64)
    for _ in range(_MAX_ITERATIONS):
        idx = np.flatnonzero(active)
        steps[idx] += 1
        on = active[replica]
        # each active replica is one row of the sum tables
        row = (np.cumsum(active) - 1)[replica[on]]
        x, w = sizes[on], weights[on]
        rho_row = np.exp(t[idx])
        d1, d2 = _score_sums(rho_row + 1.0, x, row)  # sum_k 1/(rho+k), sum_k 1/(rho+k)^2
        rho = rho_row[row]
        g = np.bincount(row, w * (1.0 - rho * d1), minlength=idx.size)
        h = np.bincount(row, w * rho * (rho * d2 - d1), minlength=idx.size)
        if truncated:
            q = rho_row / (rho_row + 1.0)
            g += tail[idx] * q
            h += tail[idx] * q / (rho_row + 1.0)
        ti = t[idx]
        lo[idx] = np.where(g > 0, ti, lo[idx])
        hi[idx] = np.where(g < 0, ti, hi[idx])
        # h < 0 analytically; where rounding says otherwise, step uphill
        step = np.where(h < 0, -g / np.where(h < 0, h, -1.0), np.sign(g) * _MAX_LOG_STEP)
        new = ti + np.clip(step, -_MAX_LOG_STEP, _MAX_LOG_STEP)
        outside = (new < lo[idx]) | (new > hi[idx])
        new = np.where(outside, 0.5 * (lo[idx] + hi[idx]), new)
        t[idx] = new
        active[idx[np.abs(new - ti) < _LOG_RHO_TOL]] = False
        if not active.any():
            break
    else:
        raise ConvergenceError(
            f"rho maximisation did not converge in {_MAX_ITERATIONS} Newton steps "
            f"for {int(active.sum())} of {n_replicas} histograms",
            best=np.exp(t),
        )
    rho = np.exp(t)
    ll = np.log(rho[replica]) + _log_beta(sizes, rho + 1.0, replica)
    if truncated:
        ll += np.log1p(rho)[replica]
    return rho, np.bincount(replica, weights * ll, minlength=n_replicas), steps


def fit_rho_weighted(sizes: np.ndarray, weights: np.ndarray) -> tuple[float, float]:
    """Maximise sum_x w(x) log pmf(x, rho) over rho; returns (rho, loglik).

    The one-histogram case of :func:`fit_rho_batch`.
    """
    rho, ll, _ = fit_rho_batch(sizes, weights, np.zeros(np.size(sizes), dtype=np.intp), 1)
    return float(rho[0]), float(ll[0])


def mle_rho(dist: SizeDistribution) -> YuleFit:
    """Numerical maximum-likelihood estimate of rho from a size histogram.

    Requires at least two observations and at least one size >= 2; an
    all-singleton histogram has its likelihood maximised at rho -> infinity
    and is rejected as degenerate.
    """
    if dist.total_projects < 2:
        raise DegenerateDataError("need at least 2 observations to fit rho")
    if dist.max_value < 2:
        raise DegenerateDataError("all-singleton histogram: rho is not identifiable")
    rho_hat, loglik = fit_rho_weighted(dist.sizes, dist.counts)
    return YuleFit(
        rho_hat=rho_hat,
        log_likelihood=loglik,
        n_observations=dist.total_projects,
        derived_p0=1.0 - 1.0 / rho_hat,
        domain_flag=rho_hat > 1.0,
    )
