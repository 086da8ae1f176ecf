"""Empirical estimators: growth rates, entry rates, size-dependent growth,
founding-probability series, collaborative classification, and inter-arrival
censoring correction.

All estimators accept gap masks and skip masked months; the upstream data
has documented disruption periods and the estimators should not silently
interpolate across them.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass

import numpy as np

from .errors import (AlignmentError, DegenerateDataError, DomainError, require_integer,
                     require_month_array, require_months)
from .events import MembershipEventLog, _reach
from .snapshots import SnapshotSummary, _month_bounds, _tally, snapshot_at

__all__ = [
    "GrowthFit",
    "EntryRateSeries",
    "GammaFit",
    "P0Series",
    "InterArrivalFit",
    "ProjectLabel",
    "DAYS_PER_MONTH",
    "fit_exponential_growth",
    "relative_entry_rates",
    "size_dependent_growth",
    "p0_series",
    "classify_collaborative",
    "collaborative_entry_counts",
    "fit_interarrival_waits",
    "interarrival_fit",
]

DAYS_PER_MONTH = 365.25 / 12.0


# ---------------------------------------------------------------------------
# aggregate exponential growth


@dataclass(frozen=True)
class GrowthFit:
    """Per-month exponential growth rate from OLS of ln X on month."""

    omega: float
    r_squared: float
    p_value: float
    n_points: int


def fit_exponential_growth(
    months: Sequence[int],
    values: Sequence[float],
    mask: frozenset[int] | set[int] | None = None,
) -> GrowthFit:
    """Least-squares slope of ln X(t) against t, i.e. X(t) ~ exp(omega t)."""
    mask = require_months("mask", () if mask is None else mask)
    months = require_month_array("months", months).astype(np.float64)
    values = np.asarray(values, dtype=np.float64)
    if months.shape != values.shape:
        raise DomainError("months and values must have equal length")
    keep = ~np.isin(months, list(mask))
    months, values = months[keep], values[keep]
    bad = np.flatnonzero(~(np.isfinite(values) & (values > 0)))
    if bad.size:
        raise DomainError(f"nonpositive or non-finite value at month {int(months[bad[0]])}")
    if months.size < 3:
        raise DegenerateDataError(f"need >= 3 unmasked points, got {months.size}")
    from scipy.stats import linregress  # deferred: scipy.stats is slow to import

    res = linregress(months, np.log(values))
    return GrowthFit(
        omega=float(res.slope),
        r_squared=float(res.rvalue**2),
        p_value=float(res.pvalue),
        n_points=int(months.size),
    )


# ---------------------------------------------------------------------------
# relative monthly entry rates


@dataclass(frozen=True)
class EntryRateSeries:
    """g(t) = (N(t) - N(t-1)) / N(t) with its median and decile spread."""

    months: np.ndarray
    values: np.ndarray
    median: float
    q10: float
    q90: float

    def __post_init__(self):
        m = np.asarray(self.months, dtype=np.int64)
        v = np.asarray(self.values, dtype=np.float64)
        m.setflags(write=False)
        v.setflags(write=False)
        object.__setattr__(self, "months", m)
        object.__setattr__(self, "values", v)


def _entry_rate(name, months, totals, mask) -> EntryRateSeries:
    out_m, out_v = [], []
    by_month = dict(zip(months, totals))
    bad = [t for t, n in by_month.items() if t not in mask and not np.isfinite(n)]
    if bad:
        raise DomainError(f"non-finite {name} at month {min(bad)}")
    for t in sorted(by_month):
        if t in mask or (t - 1) not in by_month or (t - 1) in mask:
            continue
        n_t = by_month[t]
        if n_t == 0:
            continue  # division by zero: masked point
        out_m.append(t)
        out_v.append((n_t - by_month[t - 1]) / n_t)
    values = np.asarray(out_v)
    if values.size == 0:
        raise DegenerateDataError("no consecutive unmasked month pairs")
    return EntryRateSeries(
        months=np.asarray(out_m, dtype=np.int64),
        values=values,
        median=float(np.median(values)),
        q10=float(np.quantile(values, 0.10)),
        q90=float(np.quantile(values, 0.90)),
    )


def relative_entry_rates(
    summaries: Sequence[SnapshotSummary],
    mask: frozenset[int] | set[int] | None = None,
) -> tuple[EntryRateSeries, EntryRateSeries]:
    """(projects, developers) relative monthly entry rate series."""
    mask = require_months("mask", () if mask is None else mask)
    months = [s.month for s in summaries]
    projects = _entry_rate("n_projects", months, [s.n_projects for s in summaries], mask)
    developers = _entry_rate("n_developers", months, [s.n_developers for s in summaries], mask)
    return projects, developers


# ---------------------------------------------------------------------------
# size-dependent growth exponent


@dataclass(frozen=True)
class GammaFit:
    """Fitted exponent of mean growth rate vs starting size (log-log OLS)."""

    gamma: float
    stderr: float
    intercept: float
    bin_sizes: tuple[float, ...]
    bin_rates: tuple[float, ...]
    bin_counts: tuple[int, ...]
    window_months: int


def _log2_bins(sizes: np.ndarray, increments: np.ndarray, min_bin_count: int):
    """Mean size and mean increment per log2 size bin, sparse bins merged left.

    Size s >= 1 falls in bin floor(log2 s), read exactly off its binary
    exponent. Right to left, a bin below min_bin_count carries into its left
    neighbour; a sparse remainder at the leftmost bin is dropped.
    """
    index = np.frexp(sizes)[1] - 1
    counts = np.bincount(index)
    size_sums = np.bincount(index, weights=sizes)
    inc_sums = np.bincount(index, weights=increments)
    bins = []
    count, size_sum, inc_sum = 0, 0.0, 0.0
    for j in np.flatnonzero(counts)[::-1].tolist():
        count += int(counts[j])
        size_sum += size_sums[j]
        inc_sum += inc_sums[j]
        if count >= min_bin_count:
            bins.append((float(size_sum / count), float(inc_sum / count), count))
            count, size_sum, inc_sum = 0, 0.0, 0.0
    return bins[::-1]


def size_dependent_growth(
    log: MembershipEventLog,
    window_months: int = 12,
    min_bin_count: int = 20,
    mask: frozenset[int] | set[int] | None = None,
) -> dict[int, GammaFit]:
    """Growth exponent per window: mean increment of projects binned by
    starting size, fitted as log(rate) = gamma*log(size) + const.

    Windows are consecutive non-overlapping [start, start+window) intervals
    from the log's first month; the key is the window's start month. Windows
    containing masked months are skipped.
    """
    window_months = require_integer("window_months", window_months, 1)
    min_bin_count = require_integer("min_bin_count", min_bin_count, 1)
    mask = require_months("mask", () if mask is None else mask)
    lo, hi = log.month_range
    if hi - lo < window_months:
        raise DomainError(f"log spans {hi - lo} months, need >= {window_months}")
    from scipy.stats import linregress  # deferred: scipy.stats is slow to import

    fits: dict[int, GammaFit] = {}
    for start in range(lo, hi - window_months + 1, window_months):
        if any(m in mask for m in range(start, start + window_months + 1)):
            continue
        size0 = snapshot_at(log, start).sizes()
        size1 = snapshot_at(log, start + window_months).sizes()
        present = size0 > 0
        if not present.any():
            continue
        sizes = size0[present].astype(np.float64)
        rates = (size1[present] - size0[present]) / window_months
        binned = [(s, g, c) for s, g, c in _log2_bins(sizes, rates, min_bin_count) if g > 0]
        if len(binned) >= 2:
            bx = np.log([b[0] for b in binned])
            by = np.log([b[1] for b in binned])
            res = linregress(bx, by)
            fits[start] = GammaFit(
                gamma=float(res.slope),
                stderr=float(res.stderr),
                intercept=float(res.intercept),
                bin_sizes=tuple(b[0] for b in binned),
                bin_rates=tuple(b[1] for b in binned),
                bin_counts=tuple(b[2] for b in binned),
                window_months=window_months,
            )
    if not fits:
        raise DegenerateDataError("no window produced enough populated size bins")
    return fits


# ---------------------------------------------------------------------------
# founding-probability series


@dataclass(frozen=True)
class P0Series:
    """Monthly p0(t) = delta N_p / delta N_d with the inputs retained."""

    months: np.ndarray
    values: np.ndarray
    g1: np.ndarray  # monthly new projects
    gtot: np.ndarray  # monthly new developers
    variant: str
    median: float

    def __post_init__(self):
        for name, dtype in (
            ("months", np.int64),
            ("values", np.float64),
            ("g1", np.float64),
            ("gtot", np.float64),
        ):
            arr = np.asarray(getattr(self, name), dtype=dtype)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def above_one(self) -> np.ndarray:
        """Months with p0 > 1: impossible under entry-only founding, so a
        diagnostic that established members are founding projects."""
        return self.months[self.values > 1.0]


def p0_series(
    months: Sequence[int],
    delta_projects: Sequence[float],
    delta_developers: Sequence[float],
    variant: str = "all",
    mask: frozenset[int] | set[int] | None = None,
) -> P0Series:
    """Ratio series of project entries to developer entries per month.

    Months that are masked or have a zero developer inflow are dropped
    (masked on the spot), matching the division-by-zero contract.
    """
    if variant not in ("all", "collaborative"):
        raise DomainError(f"variant must be 'all' or 'collaborative', got {variant!r}")
    mask = require_months("mask", () if mask is None else mask)
    months = require_month_array("months", months)
    g1 = np.asarray(delta_projects, dtype=np.float64)
    gtot = np.asarray(delta_developers, dtype=np.float64)
    if not (months.size == g1.size == gtot.size):
        raise AlignmentError("months, delta_projects, delta_developers must align")
    keep = ~np.isin(months, list(mask))
    bad = np.flatnonzero(keep & ~(np.isfinite(g1) & np.isfinite(gtot)))
    if bad.size:
        raise DomainError(f"non-finite delta at month {int(months[bad[0]])}")
    keep &= gtot > 0
    months, g1, gtot = months[keep], g1[keep], gtot[keep]
    if months.size == 0:
        raise DegenerateDataError("no usable months for the p0 series")
    values = g1 / gtot
    return P0Series(
        months=months,
        values=values,
        g1=g1,
        gtot=gtot,
        variant=variant,
        median=float(np.median(values)),
    )


# ---------------------------------------------------------------------------
# collaborative classification


@dataclass(frozen=True)
class ProjectLabel:
    project_id: str
    collaborative: bool
    first_month: int
    censored: bool


def _collaborative(log: MembershipEventLog, observation_end: int) -> np.ndarray:
    """Per project code, whether the project reaches size >= 2 by observation_end."""
    # With a project's rows in start order, its size reaches 2 exactly when a
    # non-empty row starts before the reach of the rows before it (a pair's
    # rows never overlap, so the two rows hold two developers), and it does so
    # in that row's start month.
    order = np.lexsort((log.start, log.project))
    project, start, stop = log.project[order], log.start[order], log.stop[order]
    new_project = np.diff(project, prepend=-1) != 0
    joins = ~new_project & (start < np.roll(_reach(stop, new_project), 1))
    ever = np.zeros(len(log.project_ids), dtype=bool)
    ever[project[joins & (start < stop) & (start <= observation_end)]] = True
    return ever


def classify_collaborative(
    log: MembershipEventLog,
    observation_end: int,
    censor_horizon_months: float | None = None,
) -> dict[str, ProjectLabel]:
    """Label a project collaborative iff it ever reaches size >= 2 by
    observation_end (size = simultaneously active developers; overlapping
    records of one pair count once).

    Projects born within censor_horizon_months of the end carry a censoring
    flag: their second developer may simply not have arrived yet. Extending
    observation_end can only turn non-collaborative labels into
    collaborative ones, never the reverse. Labels cover the projects born by
    observation_end, in project-id order.
    """
    observation_end = require_integer("observation_end", observation_end)
    horizon = censor_horizon_months if censor_horizon_months is not None else 0.0
    collaborative = _collaborative(log, observation_end).tolist()
    first_months = log.project_first.tolist()
    return {
        project: ProjectLabel(
            project_id=project,
            collaborative=collaborative[code],
            first_month=first,
            censored=first > observation_end - horizon,
        )
        for code, (project, first) in enumerate(zip(log.project_ids, first_months))
        if first <= observation_end
    }


def collaborative_entry_counts(
    log: MembershipEventLog,
    observation_end: int,
    months: tuple[int, int] | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(months, new collaborative projects, new developers excluding founders
    of non-collaborative projects) for the collaborative p0 variant.

    A developer is excluded in their entry month if their first link founds a
    project labelled non-collaborative (exclusion at entry month; the data
    does not say whether the original analysis excluded retroactively).
    """
    observation_end = require_integer("observation_end", observation_end)
    lo, hi = _month_bounds(log, months)
    collaborative = _collaborative(log, observation_end)
    hi = min(hi, observation_end)
    # a founder of a non-collaborative project is excluded when that founding
    # row is also the developer's first link; a project born after
    # observation_end is not collaborative, but its founders enter after hi
    founds = (log.start == log.project_first[log.project]) & (
        log.start == log.developer_first[log.developer]
    )
    excluded = np.zeros(len(log.developer_ids), dtype=bool)
    excluded[log.developer[founds & ~collaborative[log.project]]] = True
    return (
        np.arange(lo, hi + 1),
        _tally(log.project_first[collaborative], lo, hi),
        _tally(log.developer_first[~excluded], lo, hi),
    )


# ---------------------------------------------------------------------------
# inter-arrival waits of the second developer


@dataclass(frozen=True)
class InterArrivalFit:
    """Exponential fit of waits until the second developer joins."""

    lam: float  # rate per day
    mean_days: float
    prob_before_mean: float
    censor_factor: float
    n_waits: int
    n_censored: int
    exponential_plausible: bool


def fit_interarrival_waits(
    waits_days: Sequence[float],
    n_censored: int = 0,
    min_waits: int = 30,
) -> InterArrivalFit:
    """Closed-form exponential MLE on uncensored waits.

    lambda = 1/mean; prob_before_mean is the empirical fraction of waits
    strictly below the mean (analytically 1 - 1/e for an exponential), and
    its reciprocal is the factor correcting right-censored classification
    counts. A degenerate fraction of 0 flags the sample as non-exponential.
    """
    n_censored = require_integer("n_censored", n_censored, 0)
    min_waits = require_integer("min_waits", min_waits, 1)
    waits = np.asarray(waits_days, dtype=np.float64)
    if waits.size < min_waits:
        raise DegenerateDataError(f"need >= {min_waits} uncensored waits, got {waits.size}")
    bad = np.flatnonzero(~(np.isfinite(waits) & (waits >= 0)))
    if bad.size:
        raise DomainError(f"wait {bad[0]} must be nonnegative and finite, got {waits[bad[0]]}")
    mean_days = float(waits.mean())
    if mean_days <= 0:
        raise DegenerateDataError("all waits are zero; no rate is identifiable")
    prob = float((waits < mean_days).mean())
    plausible = prob > 0.0
    return InterArrivalFit(
        lam=1.0 / mean_days,
        mean_days=mean_days,
        prob_before_mean=prob,
        censor_factor=1.0 / prob if plausible else float("inf"),
        n_waits=int(waits.size),
        n_censored=n_censored,
        exponential_plausible=plausible,
    )


def interarrival_fit(
    log: MembershipEventLog,
    cohort_months: Iterable[int],
    min_waits: int = 30,
) -> InterArrivalFit:
    """Fit waits (project creation -> second distinct developer) for the
    cohort of projects born in the given months.

    The log is month-granular, so waits are month differences scaled by
    DAYS_PER_MONTH. Projects that never gain a second developer are counted
    as censored and excluded from the fit.
    """
    # a pair's first join is its first row (rows are sorted by project,
    # developer, start); a rejoining founder is not a second developer
    first = (np.diff(log.project, prepend=-1) != 0) | (np.diff(log.developer, prepend=-1) != 0)
    order = np.lexsort((log.start[first], log.project[first]))
    project, joined = log.project[first][order], log.start[first][order]
    heads = np.flatnonzero(np.diff(project, prepend=-1))
    n_joins = np.diff(np.append(heads, project.size))
    in_cohort = np.isin(joined[heads], list(require_months("cohort_months", cohort_months)))
    grew = heads[in_cohort & (n_joins >= 2)]
    waits = (joined[grew + 1] - joined[grew]) * DAYS_PER_MONTH
    censored = int(np.count_nonzero(in_cohort & (n_joins < 2)))
    return fit_interarrival_waits(waits, n_censored=censored, min_waits=min_waits)
