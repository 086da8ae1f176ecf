"""The per-month snapshot loop, kept as the oracle of snapshots.month_sweep.

It was `analyze`'s month loop before one sweep over the log replaced it: for
each month it took the month's snapshot with a fresh scan of the log, its
summary and its project-size and developer-degree distributions. A masked
month wrote an empty summary row and nothing else.
"""

from forgesim import snapshots


def snapshot_loop(log, lo, hi, mask=frozenset()):
    """(summary rows, size rows, degree rows, summaries) of the months in
    [lo, hi], as `analyze` built them; summaries holds the unmasked months."""
    summaries = []
    summary_rows, size_rows, degree_rows = [], [], []
    for m in range(lo, hi + 1):
        if m in mask:
            summary_rows.append((m, "", "", "", 1))
            continue
        snap = snapshots.snapshot_at(log, m)
        s = snapshots.summarize(snap)
        summaries.append(s)
        summary_rows.append((m, s.n_developers, s.n_projects, s.n_links, 0))
        sdist = snapshots.project_size_distribution(snap)
        size_rows.extend((m, int(x), c) for x, c in zip(sdist.sizes, sdist.counts))
        ddist = snapshots.developer_degree_distribution(snap)
        degree_rows.extend((m, int(k), c) for k, c in zip(ddist.degrees, ddist.counts))
    return summary_rows, size_rows, degree_rows, summaries
