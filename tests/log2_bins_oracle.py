"""The list-based log2 binning, kept as the oracle of `forgesim.estimators._log2_bins`.

`oracle_log2_bins` gathers each bin's values into Python lists, merges sparse
bins into their left neighbour with `extend`/`pop`, and averages each bin with
`np.mean`. The library sums with `np.bincount` instead, in another order, so
the two agree on bins and counts exactly and on means to rounding.
"""

import numpy as np


def oracle_log2_bins(sizes: np.ndarray, increments: np.ndarray, min_bin_count: int):
    """Mean size and mean increment per log2 size bin, sparse bins merged left."""
    edges_hi = int(np.ceil(np.log2(sizes.max() + 1)))
    bins: list[tuple[list[float], list[float]]] = []
    for j in range(edges_hi + 1):
        sel = (sizes >= 2**j) & (sizes < 2 ** (j + 1))
        if sel.any():
            bins.append((list(sizes[sel]), list(increments[sel])))
    # merge sparse bins into their left neighbour, right to left
    i = len(bins) - 1
    while i > 0:
        if len(bins[i][0]) < min_bin_count:
            bins[i - 1][0].extend(bins[i][0])
            bins[i - 1][1].extend(bins[i][1])
            bins.pop(i)
        i -= 1
    return [
        (float(np.mean(s)), float(np.mean(g)), len(s))
        for s, g in bins
        if len(s) >= min_bin_count
    ]
