"""Independent checks of forgesim's output tables.

Everything here is computed from the benchmark's own inputs with numpy and
scipy, never by calling forgesim: the forge-log tables are compared with a
tally of the generator's interval records, the Yule-Simon fits with the root
of the likelihood score, and the simulated and iterated size distributions
with ``scipy.stats.yulesimon``. Each ``check_*`` function returns a list of
failure messages, empty when the output is right.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np
from scipy import optimize, special, stats


def read_csv(path: Path) -> tuple[dict[str, str], list[str], list[list[str]]]:
    """(metadata, header, rows) of a '#'-commented comma-separated table."""
    meta: dict[str, str] = {}
    header: list[str] = []
    rows: list[list[str]] = []
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if not line.strip():
            continue
        if line.startswith("#"):
            key, _, val = line[1:].strip().partition("=")
            meta[key.strip()] = val.strip()
        elif not header:
            header = line.split(",")
        else:
            rows.append(line.split(","))
    return meta, header, rows


def columns(path: Path) -> dict[str, np.ndarray]:
    """Numeric columns of a table by header name (empty cells read as nan)."""
    _, header, rows = read_csv(path)
    data = np.array([[float(v) if v != "" else math.nan for v in r] for r in rows])
    data = data.reshape(len(rows), len(header))
    return {name: data[:, i] for i, name in enumerate(header)}


def _close(a, b, rel: float) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and bool(np.all(np.abs(a - b) <= rel * np.maximum(np.abs(b), 1e-300)))


# ---------------------------------------------------------------------------
# Yule-Simon likelihood


def score(rho: float, sizes, weights) -> float:
    """d/drho of sum_x w(x) log(rho B(x, rho+1))."""
    x = np.asarray(sizes, dtype=float)
    w = np.asarray(weights, dtype=float)
    return float(np.dot(w, 1.0 / rho + special.digamma(rho + 1.0) - special.digamma(x + rho + 1.0)))


def score_root(sizes, weights) -> float:
    """Maximum-likelihood rho as the root of the score, found by brentq.

    The score is positive as rho -> 0 and negative for large rho whenever a
    size above 1 carries weight, so widening the upper end finds a bracket.
    """
    if not np.any((np.asarray(sizes) > 1) & (np.asarray(weights) > 0)):
        raise ValueError("score has no root: all weight on size 1")
    lo, hi = 1e-6, 10.0
    while score(hi, sizes, weights) > 0:
        hi *= 10.0
    return optimize.brentq(score, lo, hi, args=(sizes, weights), xtol=1e-14, rtol=1e-14, maxiter=500)


def ks_distance(sizes, counts, rho: float) -> float:
    ecdf = np.cumsum(counts) / np.sum(counts)
    return float(np.abs(ecdf - stats.yulesimon.cdf(sizes, rho)).max())


def tv_head(sizes, counts, rho: float, x_max: int) -> float:
    """Total variation over x <= x_max between a histogram and Yule(rho)."""
    freq = np.zeros(x_max)
    keep = np.asarray(sizes) <= x_max
    freq[np.asarray(sizes)[keep] - 1] = np.asarray(counts)[keep]
    freq /= np.sum(counts)
    return 0.5 * float(np.abs(freq - stats.yulesimon.pmf(np.arange(1, x_max + 1), rho)).sum())


def check_fit(path: Path, sizes, counts) -> list[str]:
    rho_hat = float(columns(path)["rho_hat"][0])
    rho = score_root(sizes, counts)
    if not _close(rho_hat, rho, 1e-6):
        return [f"fit: rho_hat {rho_hat!r} != score root {rho!r}"]
    return []


def check_gof(path: Path, sizes, counts, expect_reject: bool) -> list[str]:
    meta = read_csv(path)[0]
    row = columns(path)
    rho, ks, p, b = (float(row[k][0]) for k in ("rho_hat", "ks", "p_value", "B"))
    bad = []
    if not _close(rho, score_root(sizes, counts), 1e-6):
        bad.append(f"gof: rho_hat {rho!r} is not the score root")
    if abs(ks - ks_distance(sizes, counts, rho)) > 1e-9:
        bad.append(f"gof: KS {ks!r} != {ks_distance(sizes, counts, rho)!r}")
    if not 0.0 <= p <= 1.0:
        bad.append(f"gof: p-value {p!r} outside [0, 1]")
    if expect_reject and not p < 0.01:
        bad.append(f"gof: p-value {p!r} does not reject the geometric alternative")
    if int(meta.get("n_failed", "-1")) not in range(0, int(0.01 * b) + 1):
        bad.append(f"gof: {meta.get('n_failed')} failed replicas of {b:.0f}")
    return bad


def check_em(path: Path, sizes, counts, true_singletons: int | None = None) -> list[str]:
    row = columns(path)
    rho, latent = float(row["rho_col"][0]), float(row["latent_singletons"][0])
    sizes = np.asarray(sizes)
    counts = np.asarray(counts, dtype=float)
    tail = float(counts[sizes >= 2].sum())
    bad = []
    if row["converged"][0] != 1:
        bad.append("em: did not converge")
    # latent = f1/(1-f1) * tail with f1 = rho/(rho+1) at the previous iterate,
    # which differs from rho_col by less than the 1e-4 stopping threshold
    f1 = stats.yulesimon.pmf(1, rho)
    if not _close(latent, f1 / (1.0 - f1) * tail, 1e-4):
        bad.append(f"em: latent {latent!r} is not f1/(1-f1) * {tail!r} at rho_col")
    corrected = np.where(sizes == 1, 0.0, counts)
    w = np.concatenate([[latent], corrected[sizes >= 2]])
    x = np.concatenate([[1], sizes[sizes >= 2]])
    if not _close(rho, score_root(x, w), 1e-6):
        bad.append(f"em: score is not 0 at rho_col {rho!r}")
    if true_singletons is not None:
        if not 2.8 <= rho <= 3.2:
            bad.append(f"em: rho_col {rho!r} outside [2.8, 3.2]")
        if abs(latent - true_singletons) > 0.1 * true_singletons:
            bad.append(f"em: latent {latent!r} not within 10% of {true_singletons}")
    return bad


# ---------------------------------------------------------------------------
# model workload


def check_simulate(out: Path, p0: float, steps: int, replicas: int, tv_bound: float | None) -> list[str]:
    bad = []
    for r in range(replicas):
        t = columns(out / f"trace_replica_{r:03d}.csv")
        final = t["checkpoint_step"] == steps
        mass = float(np.dot(t["size"][final], t["count"][final]))
        projects = float(t["count"][final].sum())
        if mass != steps:
            bad.append(f"simulate: replica {r} holds {mass} developers, not {steps}")
        if abs(projects - steps * p0) > 0.02 * steps * p0:
            bad.append(f"simulate: replica {r} has {projects} projects, not N*p0 within 2%")
    if tv_bound is not None:
        mean = columns(out / "mean_distribution.csv")
        tv = tv_head(mean["size"].astype(int), mean["count"], 1.0 / (1.0 - p0), 50)
        if not tv < tv_bound:
            bad.append(f"simulate: TV {tv!r} to Yule-Simon over x <= 50 is not below {tv_bound}")
    return bad


def check_rateeq(out: Path, p0: float, steps: int) -> list[str]:
    t = columns(out / "rateeq.csv")
    over = columns(out / "rateeq_overflow.csv")
    bad = []
    mass = float(np.dot(t["x"], t["n"])) + over["overflow_mass"][0]
    if not abs(mass - steps) / steps < 1e-9:
        bad.append(f"rateeq: mass leak {abs(mass - steps) / steps!r}")
    head = t["x"] <= 30
    expected = steps * p0 * stats.yulesimon.pmf(t["x"][head], 1.0 / (1.0 - p0))
    if head.sum() != 30 or not _close(t["n"][head], expected, 0.01):
        bad.append("rateeq: n(x, N) not within 1% of N p0 f(x) for x <= 30")
    return bad


# ---------------------------------------------------------------------------
# forge log


def interval_tally(records: np.ndarray) -> dict:
    """Monthly tables of a membership log, tallied from its interval records.

    records rows are (developer, project, entry, exit) with integer ids and
    month offsets; exit -1 means open. A pair is active in month t iff
    entry <= t < exit; overlapping records of one pair count once.
    """
    dev, proj, entry, end = (records[:, i] for i in range(4))
    lo = int(entry.min())
    hi = int(max(entry.max(), end.max()))
    stop = np.where(end < 0, hi + 1, end)
    span = stop - entry
    rec = np.repeat(np.arange(len(records)), span)
    month = entry[rec] + np.arange(rec.size) - np.repeat(np.cumsum(span) - span, span)
    n_dev, n_proj = int(dev.max()) + 1, int(proj.max()) + 1
    pairs = np.unique((month * n_dev + dev[rec]) * n_proj + proj[rec])
    m = pairs // (n_dev * n_proj)
    d = pairs // n_proj % n_dev
    p = pairs % n_proj
    months = np.arange(lo, hi + 1)

    def per_month_hist(keys, owner):
        """{month: {size: count}} of how many pairs each (month, owner) has."""
        groups, size = np.unique(keys * (owner.max() + 1) + owner, return_counts=True)
        gm = groups // (owner.max() + 1)
        cells, n = np.unique(gm * (size.max() + 1) + size, return_counts=True)
        out: dict[int, dict[int, int]] = {}
        for cell, c in zip(cells.tolist(), n.tolist()):
            out.setdefault(cell // (size.max() + 1), {})[cell % (size.max() + 1)] = c
        return out, np.bincount(gm - lo, minlength=months.size)

    sizes, projects = per_month_hist(m, p)
    degrees, developers = per_month_hist(m, d)

    def first_and_removed(owner, n):
        first = np.full(n, np.iinfo(np.int64).max)
        np.minimum.at(first, owner, entry)
        last = np.full(n, -1)
        np.maximum.at(last, owner, np.where(end < 0, np.iinfo(np.int64).max, end))
        seen = first < np.iinfo(np.int64).max
        new = np.bincount(first[seen] - lo, minlength=months.size)
        closed = seen & (last < np.iinfo(np.int64).max)
        removed = np.bincount(last[closed] - lo, minlength=months.size)
        return first, new, removed

    proj_first, new_p, rem_p = first_and_removed(proj, n_proj)
    dev_first, new_d, rem_d = first_and_removed(dev, n_dev)

    # a project is collaborative iff two distinct developers are active in it
    # in some month; a developer whose first link founds a non-collaborative
    # project is left out of the collaborative developer inflow
    collab = np.zeros(n_proj, dtype=bool)
    pm, pm_size = np.unique(m * n_proj + p, return_counts=True)
    collab[np.unique(pm[pm_size >= 2] % n_proj)] = True
    founder = (entry == proj_first[proj]) & (dev_first[dev] == entry) & ~collab[proj]
    excluded = np.zeros(n_dev, dtype=bool)
    excluded[dev[founder]] = True
    seen_p = proj_first < np.iinfo(np.int64).max
    collab_new_p = np.bincount(proj_first[seen_p & collab] - lo, minlength=months.size)
    seen_d = dev_first < np.iinfo(np.int64).max
    collab_new_d = np.bincount(dev_first[seen_d & ~excluded] - lo, minlength=months.size)

    return {
        "months": months,
        "n_developers": developers,
        "n_projects": projects,
        "n_links": np.bincount(m - lo, minlength=months.size),
        "sizes": sizes,
        "degrees": degrees,
        "new_projects": new_p,
        "removed_projects": rem_p,
        "new_developers": new_d,
        "removed_developers": rem_d,
        "collab_new_projects": collab_new_p,
        "collab_new_developers": collab_new_d,
    }


def size_histogram(tally: dict, month: int) -> tuple[np.ndarray, np.ndarray]:
    h = tally["sizes"][month]
    sizes = np.array(sorted(h))
    return sizes, np.array([h[s] for s in sizes], dtype=float)


def _hist_rows(path: Path, offset: int, value: str) -> dict[int, dict[int, int]]:
    t = columns(path)
    out: dict[int, dict[int, int]] = {}
    for m, v, c in zip(t["month"].astype(int), t[value].astype(int), t["count"]):
        if c != int(c):
            raise ValueError(f"{path.name}: non-integer count {c!r}")
        out.setdefault(int(m) - offset, {})[int(v)] = int(c)
    return out


def _entry_rate(months, totals) -> tuple[np.ndarray, np.ndarray]:
    prev = totals[:-1].astype(float)
    cur = totals[1:].astype(float)
    keep = cur != 0
    return months[1:][keep], (cur[keep] - prev[keep]) / cur[keep]


def check_analyze(out: Path, tally: dict, offset: int) -> list[str]:
    bad = []
    months = tally["months"] + offset
    s = columns(out / "summary.csv")
    for name in ("n_developers", "n_projects", "n_links"):
        if not np.array_equal(s[name], tally[name]) or not np.array_equal(s["month"], months):
            bad.append(f"analyze: summary.csv {name} differs from the interval tally")
    if _hist_rows(out / "size_distribution.csv", offset, "size") != tally["sizes"]:
        bad.append("analyze: size_distribution.csv differs from the interval tally")
    if _hist_rows(out / "degree_distribution.csv", offset, "degree") != tally["degrees"]:
        bad.append("analyze: degree_distribution.csv differs from the interval tally")
    ee = columns(out / "entry_exit.csv")
    for name in ("new_projects", "removed_projects", "new_developers", "removed_developers"):
        if not np.array_equal(ee[name], tally[name]) or not np.array_equal(ee["month"], months):
            bad.append(f"analyze: entry_exit.csv {name} differs from the interval tally")
    mp, gp = _entry_rate(months, tally["n_projects"])
    md, gd = _entry_rate(months, tally["n_developers"])
    shared = np.intersect1d(mp, md)
    rates = columns(out / "entry_rates.csv")
    if not (np.array_equal(rates["month"], shared)
            and _close(rates["g_projects"], gp[np.isin(mp, shared)], 1e-10)
            and _close(rates["g_developers"], gd[np.isin(md, shared)], 1e-10)):
        bad.append("analyze: entry_rates.csv differs from the interval tally")
    q = read_csv(out / "entry_rate_quantiles.csv")[2]
    for row, g in zip(q, (gp, gd)):
        want = [np.quantile(g, 0.1), np.median(g), np.quantile(g, 0.9)]
        if not _close([float(v) for v in row[1:]], want, 1e-10):
            bad.append(f"analyze: entry_rate_quantiles.csv {row[0]} differs from the tally")
    return bad


def check_p0(path: Path, tally: dict, offset: int, collaborative: bool) -> list[str]:
    key = "collab_" if collaborative else ""
    g1 = tally[key + "new_projects"]
    gtot = tally[key + "new_developers"]
    keep = gtot > 0
    t = columns(path)
    want = {
        "month": tally["months"][keep] + offset,
        "g1": g1[keep],
        "gtot": gtot[keep],
        "above_one": (g1[keep] > gtot[keep]).astype(float),
    }
    bad = [f"p0: column {name} differs from the interval tally"
           for name, v in want.items() if not np.array_equal(t[name], v)]
    if not _close(t["p0"], g1[keep] / gtot[keep], 1e-10):
        bad.append("p0: ratios differ from the interval tally")
    return bad
