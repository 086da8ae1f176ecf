"""forgesim: simulation and estimation toolkit for the entry and growth
dynamics of project communities.

The generative picture: developers arrive one at a time and either found a
new project (probability p0) or join an existing one with probability
proportional to its size. The stationary project-size distribution is
Yule-Simon with rho = 1/(1-p0). The toolkit simulates the process, iterates
its mean-field rate equations, fits and tests the Yule-Simon distribution on
monthly project-size histograms (with an EM correction for non-collaborative
singletons), and computes the empirical growth/entry/exit estimators used
alongside it.
"""

from .distributions import SizeDistribution
from .em import EMResult, em_fit, predicted_collaborative_entries
from .errors import (
    AlignmentError,
    ConvergenceError,
    DegenerateDataError,
    DomainError,
    ForgesimError,
)
from .estimators import (
    DAYS_PER_MONTH,
    EntryRateSeries,
    GammaFit,
    GrowthFit,
    InterArrivalFit,
    P0Series,
    ProjectLabel,
    classify_collaborative,
    collaborative_entry_counts,
    fit_exponential_growth,
    fit_interarrival_waits,
    interarrival_fit,
    p0_series,
    relative_entry_rates,
    size_dependent_growth,
)
from .events import (
    MembershipEventLog,
    ParseIssue,
    ParseResult,
    month_index,
    month_label,
    parse_events,
    read_gap_mask,
)
from .gof import GofResult, bootstrap_pvalue, ks_statistic
from .master import MasterState, iterate_master, steady_state
from .simulate import (
    Checkpoint,
    ReplicateResult,
    SimParams,
    SimTrace,
    replicate,
    run,
)
from .snapshots import (
    EntryExitCounts,
    MonthSweep,
    Snapshot,
    entry_exit_counts,
    month_sweep,
    snapshot_at,
)
from .yule import (
    YuleFit,
    cdf,
    log_pmf,
    log_survival,
    mle_rho,
    p0_from_rho,
    pmf,
    rho_from_p0,
    sample,
    survival,
)

__version__ = "0.1.0"
