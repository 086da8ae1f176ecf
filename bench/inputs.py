"""Seeded inputs of the benchmark workloads, made without forgesim.

Every input is a pure function of the benchmark seed: Yule-Simon histograms
come from ``scipy.stats.yulesimon``, the geometric and singleton-inflated
ones from ``numpy.random.Generator``, and the forge log from a monthly
membership process written here. Nothing in this file imports forgesim, so a
change to the simulator or the sampler cannot change what the program is fed.

Regenerate every input of every workload into a directory:

    python3 bench/inputs.py --seed 1 --out inputs
"""

from __future__ import annotations

import argparse
import math
from pathlib import Path

import numpy as np
from scipy import stats

# Calendar month of forge-log month 0, and forgesim's default epoch; the
# month indices in the program's outputs are offsets from the epoch.
LOG_START = (2004, 1)
EPOCH = (1970, 1)
MONTH_OFFSET = (LOG_START[0] - EPOCH[0]) * 12 + (LOG_START[1] - EPOCH[1])

# The forge log's membership process (see forge_log). Month t brings
# round(arrivals0 * exp(GROWTH * t)) new developers; each founds a project
# with probability P_FOUND. Per new developer, established developers make
# JOIN_RATE joins, REJOIN_RATE rejoins and FOUND_RATE[0] foundings, or
# FOUND_RATE[1] from SHIFT_MONTH on. A link ends each month with
# probability EXIT_HAZARD.
GROWTH = 0.01
P_FOUND = 0.6
EXIT_HAZARD = 0.03
JOIN_RATE = 0.3
REJOIN_RATE = 0.05
FOUND_RATE = (0.05, 0.45)
SHIFT_MONTH = 84

# The inflated histogram's singleton bin is this many times the true count.
INFLATION = 4

# One stream per input, so adding an input never shifts another one.
_STREAMS = {"yule": 1, "geometric": 2, "yule_large": 3, "inflated": 4, "forge_log": 5}


def rng_for(seed: int, name: str) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, _STREAMS[name]]))


def histogram(samples: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    sizes, counts = np.unique(np.asarray(samples, dtype=np.int64), return_counts=True)
    return sizes, counts.astype(np.int64)


def yule_histogram(rng: np.random.Generator, rho: float, n: int):
    return histogram(stats.yulesimon(rho).rvs(size=n, random_state=rng))


def geometric_histogram(rng: np.random.Generator, p: float, n: int):
    return histogram(rng.geometric(p, size=n))


def inflated_histogram(rng: np.random.Generator, rho: float, n: int):
    """Yule(rho) sample whose singleton bin is multiplied by INFLATION.

    Returns (sizes, counts, true singleton count).
    """
    sizes, counts = histogram(stats.yulesimon(rho).rvs(size=n, random_state=rng))
    true_singletons = int(counts[sizes == 1].sum())
    counts = counts.copy()
    counts[sizes == 1] *= INFLATION
    return sizes, counts, true_singletons


def write_histogram(path: Path, sizes, counts) -> None:
    lines = ["size,count"] + [f"{int(s)},{int(c)}" for s, c in zip(sizes, counts)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def forge_log(rng: np.random.Generator, months: int = 120, arrivals0: float = 85.0) -> np.ndarray:
    """Membership records (developer, project, entry, exit) of a growing forge.

    Month t gets round(arrivals0 * exp(GROWTH * t)) new developers. Each
    founds a project with probability P_FOUND, otherwise joins a project
    picked in proportion to its active size (a uniformly random active link).
    Established developers also join further projects, rejoin projects they
    left, and found projects; from SHIFT_MONTH on they found at the higher
    rate, so months with more new projects than new developers (p0 > 1)
    appear. Each link lasts a geometric number of months; exit is the first
    month the link is inactive, and -1 marks a link still open at the end.

    A (developer, project) pair never has two overlapping records: joins and
    rejoins only target pairs without an active record.
    """
    records: list[tuple[int, int, int, int]] = []
    active: list[int] = []  # ids of active records
    where: dict[int, int] = {}  # record id -> index in active
    open_pairs: set[tuple[int, int]] = set()
    closed: list[int] = []
    exits_at: dict[int, list[int]] = {}
    n_dev = n_proj = 0

    def add(dev: int, proj: int, t: int) -> None:
        rid = len(records)
        end = t + int(rng.geometric(EXIT_HAZARD))
        if end >= months:
            end = -1
        else:
            exits_at.setdefault(end, []).append(rid)
        records.append((dev, proj, t, end))
        where[rid] = len(active)
        active.append(rid)
        open_pairs.add((dev, proj))

    def random_active_project() -> int:
        return records[active[int(rng.integers(len(active)))]][1]

    for t in range(months):
        for rid in exits_at.pop(t, ()):
            i = where.pop(rid)
            last = active.pop()
            if last != rid:
                active[i] = last
                where[last] = i
            open_pairs.discard(records[rid][:2])
            closed.append(rid)
        arrivals = int(round(arrivals0 * math.exp(GROWTH * t)))
        established = n_dev
        for _ in range(arrivals):
            dev = n_dev
            n_dev += 1
            if not active or rng.random() < P_FOUND:
                add(dev, n_proj, t)
                n_proj += 1
            else:
                add(dev, random_active_project(), t)
        if not established:
            continue
        for _ in range(int(round(JOIN_RATE * arrivals))):
            pair = (int(rng.integers(established)), random_active_project())
            if pair not in open_pairs:
                add(*pair, t)
        for _ in range(int(round(REJOIN_RATE * arrivals)) if closed else 0):
            dev, proj, _, end = records[closed[int(rng.integers(len(closed)))]]
            if end < t and (dev, proj) not in open_pairs:
                add(dev, proj, t)
        rate = FOUND_RATE[1] if t >= SHIFT_MONTH else FOUND_RATE[0]
        for _ in range(int(round(rate * arrivals))):
            add(int(rng.integers(established)), n_proj, t)
            n_proj += 1
    return np.asarray(records, dtype=np.int64)


def calendar(t: int) -> str:
    total = LOG_START[0] * 12 + LOG_START[1] - 1 + t
    return f"{total // 12:04d}-{total % 12 + 1:02d}"


def write_forge_log(path: Path, records: np.ndarray) -> None:
    lines = ["developer_id,project_id,entry_month,exit_month"]
    for dev, proj, entry, end in records.tolist():
        lines.append(f"d{dev:06d},p{proj:06d},{calendar(entry)},{calendar(end) if end >= 0 else ''}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def make_inputs(workload: str, seed: int, out: Path) -> dict:
    """Write the inputs of one workload into out; return what the checks need."""
    out.mkdir(parents=True, exist_ok=True)
    made: dict = {}
    if workload == "model":
        return made
    if workload != "estimate":
        raise ValueError(f"unknown workload {workload!r}")
    for name, (sizes, counts) in {
        "yule": yule_histogram(rng_for(seed, "yule"), 3.0, 5_000),
        "geometric": geometric_histogram(rng_for(seed, "geometric"), 0.5, 5_000),
        "yule_large": yule_histogram(rng_for(seed, "yule_large"), 3.0, 100_000),
    }.items():
        path = out / f"{name}.csv"
        write_histogram(path, sizes, counts)
        made[name] = {"path": path, "sizes": sizes, "counts": counts}
    sizes, counts, true_singletons = inflated_histogram(rng_for(seed, "inflated"), 3.0, 100_000)
    path = out / "inflated.csv"
    write_histogram(path, sizes, counts)
    made["inflated"] = {"path": path, "sizes": sizes, "counts": counts,
                        "true_singletons": true_singletons}
    records = forge_log(rng_for(seed, "forge_log"))
    path = out / "events.csv"
    write_forge_log(path, records)
    made["events"] = {"path": path, "records": records}
    return made


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    for name, item in make_inputs("estimate", args.seed, args.out).items():
        print(f"{name} -> {item['path']}")


if __name__ == "__main__":
    main()
