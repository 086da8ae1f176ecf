"""The month loop, kept as the oracle of `forgesim.estimators._collaborative`.

`oracle_collaborative` counts the active rows of every project in each month
where a size can change (a start or a stop month) up to observation_end, with
a full `np.bincount` per month. The library finds the same projects from one
pass over the rows in (project, start) order.
"""

import numpy as np


def oracle_collaborative(log, observation_end: int) -> np.ndarray:
    """Per project code, whether the project reaches size >= 2 by observation_end."""
    n = len(log.project_ids)
    ever = np.zeros(n, dtype=bool)
    # sizes change only at start and stop months, so only those are checked
    changes = np.unique(np.concatenate([log.start, log.stop]))
    for month in changes[changes <= observation_end]:
        ever |= np.bincount(log.project[log.active(month)], minlength=n) >= 2
    return ever
