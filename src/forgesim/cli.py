"""Command-line surface: reproducible pipelines emitting plot-ready tables.

Every command is a pure function of (inputs, flags, seed); identical
invocations reproduce numerically identical output files on one platform.
Exit codes: 0 success, 2 usage/validation, 3 I/O failure, 4 numerical
non-convergence.
"""

from __future__ import annotations

import argparse
import functools
import re
import sys
from pathlib import Path

import numpy as np

# numpy imports numpy.ma on the first unique, median or quantile and
# numpy.random on the first generator, which most commands reach; importing
# them with numpy keeps that cost in start-up rather than in whichever
# command reaches them first
import numpy.ma  # noqa: F401
import numpy.random  # noqa: F401

from . import __version__, em, estimators, gof, master, simulate, snapshots, yule
from .distributions import SizeDistribution
from .errors import ConvergenceError, DomainError, ForgesimError, require_integer
from .events import _INTEGER_RE, month_index, parse_events, read_gap_mask
from .report import RunManifest, read_table, write_table

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_NONCONVERGENCE = 4


class UsageError(Exception):
    pass


def _ascii_int(text: str) -> int:
    """ASCII [+-]?[0-9]+ only, so no underscores or other digits; ValueError otherwise."""
    if not _INTEGER_RE.fullmatch(text):
        raise ValueError(f"invalid integer value: {text!r}")
    return int(text)


def _ascii_float(text: str) -> float:
    """A float without underscores, non-ASCII characters or padding; ValueError otherwise."""
    if "_" in text or not text.isascii() or text != text.strip():
        raise ValueError(f"invalid float value: {text!r}")
    return float(text)


def _integer(text: str) -> int:
    """Value of an integer flag."""
    try:
        return _ascii_int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _real(text: str) -> float:
    """Value of a float flag."""
    try:
        return _ascii_float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None


def _month(text: str) -> int:
    """Value of --month: a month token as in an event file, an integer or YYYY-MM."""
    try:
        return month_index(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid month value: {text!r}") from None


def _jobs(text: str) -> int:
    """Value of --jobs: an integer flag of at least 1. argparse names the flag
    before the message, so the message drops the name."""
    try:
        return require_integer("jobs", _integer(text), 1)
    except DomainError as exc:
        raise argparse.ArgumentTypeError(str(exc).removeprefix("jobs ")) from None


class _Parser(argparse.ArgumentParser):
    """argparse takes only -N and -N.N for negative numbers, so it would read
    a month range with a negative LO, such as -3:2, as an option. No option
    starts with -N:, so such an argument is always a value."""

    _MONTH_RANGE = re.compile(r"-[0-9]+:")

    def _parse_optional(self, arg_string):
        if self._MONTH_RANGE.match(arg_string):
            return None
        return super()._parse_optional(arg_string)


def _parse_month_range(text: str) -> tuple[int, int]:
    try:
        lo, _, hi = text.partition(":")
        lo, hi = month_index(lo), month_index(hi)
        if lo > hi:
            raise ValueError(f"{lo} > {hi}")
        return lo, hi
    except ValueError as exc:
        raise UsageError(f"bad month range {text!r}, expected LO:HI with LO <= HI") from exc


def _load_events(path: str, manifest: RunManifest):
    result = parse_events(path)
    if not result.ok:
        listing = "; ".join(f"line {e.line_no}: {e.message}" for e in result.errors[:20])
        raise UsageError(f"{len(result.errors)} malformed rows in {path}: {listing}")
    if len(result.log) == 0:
        raise UsageError(f"event file {path} contains no events")
    manifest.add_input(path)
    manifest.params["n_duplicates_dropped"] = result.n_duplicates
    return result.log


def _load_mask(args, manifest: RunManifest) -> frozenset[int]:
    """The months of --gap-mask, or none without it."""
    if not args.gap_mask:
        return frozenset()
    mask = read_gap_mask(args.gap_mask)
    manifest.add_input(args.gap_mask)
    return mask


def _load_distribution(args, manifest: RunManifest) -> tuple[SizeDistribution, str]:
    """Distribution from a size,count table, a trace file, or events+month."""
    path = args.input
    if args.month is not None:
        if args.checkpoint is not None:
            raise UsageError("--checkpoint applies to a trace, not to --month")
        log = _load_events(path, manifest)
        snap = snapshots.snapshot_at(log, args.month)
        return snapshots.project_size_distribution(snap), str(args.month)
    manifest.add_input(path)
    _, header, rows = read_table(path)
    cols = {name: i for i, name in enumerate(header)}
    if "size" not in cols or "count" not in cols:
        raise UsageError(f"{path}: expected columns size,count (got {header})")

    def column(name: str, convert) -> list:
        values = []
        for k, row in enumerate(rows, start=1):
            try:
                values.append(convert(row[cols[name]]))
            except (ValueError, IndexError) as exc:
                raise UsageError(f"{path}: data row {k} {','.join(row)!r}: bad {name} cell") from exc
        return values

    sizes = np.asarray(column("size", _ascii_int))
    counts = np.asarray(column("count", _ascii_float))
    if args.checkpoint is not None and "checkpoint_step" not in cols:
        raise UsageError(f"--checkpoint applies to a trace, and {path} has no checkpoint_step")
    if "checkpoint_step" in cols:
        steps = column("checkpoint_step", _ascii_int)
        chosen = args.checkpoint if args.checkpoint is not None else max(steps, default=None)
        if chosen not in steps:
            raise UsageError(f"checkpoint {chosen} not in trace (has {sorted(set(steps))})")
        keep = np.asarray(steps) == chosen
        sizes, counts = sizes[keep], counts[keep]
    return SizeDistribution(sizes, counts), ""


def _write_outputs(args, manifest: RunManifest, tables) -> int:
    """Write each (name, header, rows, metadata) table to --output-dir in the
    given order, then the command's manifest, which lists them in that order."""
    out = Path(args.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    for name, header, rows, metadata in tables:
        write_table(out / name, header, rows, metadata)
        manifest.outputs.append(name)
    manifest.write(out / f"{args.command}.manifest.txt")
    return EXIT_OK


def _trace_rows(trace: simulate.SimTrace):
    for cp in trace.checkpoints:
        for size, count in zip(cp.distribution.sizes, cp.distribution.counts):
            yield (cp.step, int(size), count)


def cmd_simulate(args, manifest: RunManifest) -> int:
    params = simulate.SimParams(
        p0=args.p0,
        n_steps=args.steps,
        seed=args.seed,
        alpha=args.alpha,
        checkpoints=tuple(args.checkpoint_at) if args.checkpoint_at else None,
    )
    manifest.params["generator"] = simulate.GENERATOR_ID
    result = simulate.replicate(params, args.replicas, jobs=args.jobs)
    meta = {key: manifest.params[key] for key in ("p0", "steps", "alpha", "seed", "generator")}
    mean = result.mean_distribution
    return _write_outputs(args, manifest, [
        *((f"trace_replica_{r:03d}.csv", ["checkpoint_step", "size", "count"], _trace_rows(trace),
           {**meta, "replica": r}) for r, trace in enumerate(result.traces)),
        ("mean_distribution.csv", ["size", "count"], zip((int(s) for s in mean.sizes), mean.counts),
         {**meta, "replicas": args.replicas}),
    ])


def _histogram_rows(months: np.ndarray, values: np.ndarray, table: np.ndarray,
                    keep: np.ndarray):
    """The (month, value, count) rows of the nonzero cells of a sweep table, in
    month then value order, over the months that keep selects."""
    row, col = np.nonzero(table * keep[:, None])
    return zip(months[row].tolist(), values[col].tolist(), table[row, col].tolist())


def cmd_analyze(args, manifest: RunManifest) -> int:
    log = _load_events(args.events, manifest)
    mask = _load_mask(args, manifest)
    first, last = log.month_range
    lo, hi = _parse_month_range(args.months) if args.months else (first, last)
    # only masked months may lie outside the observed range; the first other
    # one is an error that names the --months range it came from
    outside = (m for r in (range(lo, min(hi + 1, first)), range(max(lo, last + 1), hi + 1))
               for m in r if m not in mask)
    if (month := next(outside, None)) is not None:
        raise UsageError(f"bad month range {args.months!r}: month {month} outside observed "
                         f"range [{first}, {last}]")
    manifest.params["months"] = f"{lo}:{hi}"

    sweep = snapshots.month_sweep(log, lo, hi)
    summaries, summary_rows = [], []
    for m, n_developers, n_projects, n_links in zip(
            sweep.months.tolist(), sweep.n_developers.tolist(), sweep.n_projects.tolist(),
            sweep.n_links.tolist()):
        if m in mask:
            summary_rows.append((m, "", "", "", 1))
            continue
        summaries.append(snapshots.SnapshotSummary(m, n_developers, n_projects, n_links))
        summary_rows.append((m, n_developers, n_projects, n_links, 0))
    unmasked = np.array([m not in mask for m in range(lo, hi + 1)])
    counts = snapshots.entry_exit_counts(log, (lo, hi))
    # a month has an active project exactly when it has an active developer,
    # so both series cover the same months
    rates_p, rates_d = estimators.relative_entry_rates(summaries, mask)

    return _write_outputs(args, manifest, [
        ("summary.csv", ["month", "n_developers", "n_projects", "n_links", "masked"],
         summary_rows, None),
        ("size_distribution.csv", ["month", "size", "count"],
         _histogram_rows(sweep.months, sweep.sizes, sweep.size_counts, unmasked), None),
        ("degree_distribution.csv", ["month", "degree", "count"],
         _histogram_rows(sweep.months, sweep.degrees, sweep.degree_counts, unmasked), None),
        ("entry_exit.csv",
         ["month", "new_projects", "removed_projects", "new_developers", "removed_developers"],
         zip(counts.months, counts.new_projects, counts.removed_projects,
             counts.new_developers, counts.removed_developers), None),
        ("entry_rates.csv", ["month", "g_projects", "g_developers"],
         zip(rates_p.months, rates_p.values, rates_d.values), None),
        ("entry_rate_quantiles.csv", ["series", "q10", "median", "q90"],
         [("projects", rates_p.q10, rates_p.median, rates_p.q90),
          ("developers", rates_d.q10, rates_d.median, rates_d.q90)], None),
    ])


def cmd_fit(args, manifest: RunManifest) -> int:
    dist, month = _load_distribution(args, manifest)
    fit = yule.mle_rho(dist)
    return _write_outputs(args, manifest, [(
        "fit.csv",
        ["month", "rho_hat", "log_likelihood", "n_observations", "derived_p0", "domain_flag"],
        [(month, fit.rho_hat, fit.log_likelihood, fit.n_observations,
          fit.derived_p0, fit.domain_flag)],
        None,
    )])


def cmd_gof(args, manifest: RunManifest) -> int:
    dist, month = _load_distribution(args, manifest)
    result = gof.bootstrap_pvalue(dist, n_bootstrap=args.bootstrap, seed=args.seed, jobs=args.jobs)
    return _write_outputs(args, manifest, [(
        "gof.csv",
        ["month", "rho_hat", "ks", "p_value", "B", "seed"],
        [(month, result.rho_hat, result.ks_observed, result.p_value,
          result.n_bootstrap, result.seed)],
        {**result.metadata, "n_failed": result.n_failed},
    )])


def cmd_em(args, manifest: RunManifest) -> int:
    dist, month = _load_distribution(args, manifest)
    result = em.em_fit(dist)
    return _write_outputs(args, manifest, [(
        "em.csv",
        ["month", "rho_col", "observed_singletons", "latent_singletons", "iterations", "converged"],
        [(month, result.rho_col, result.observed_singletons, result.latent_singletons,
          result.iterations, result.converged)],
        None,
    )])


def cmd_p0(args, manifest: RunManifest) -> int:
    log = _load_events(args.events, manifest)
    mask = _load_mask(args, manifest)
    lo, hi = log.month_range
    if args.variant == "collaborative":
        months, new_p, new_d = estimators.collaborative_entry_counts(log, observation_end=hi)
    else:
        counts = snapshots.entry_exit_counts(log, (lo, hi))
        months, new_p, new_d = counts.months, counts.new_projects, counts.new_developers
    series = estimators.p0_series(months, new_p, new_d, variant=args.variant, mask=mask)
    return _write_outputs(args, manifest, [(
        "p0.csv",
        ["month", "g1", "gtot", "p0", "above_one"],
        [
            (int(m), g1, gt, v, int(v > 1.0))
            for m, g1, gt, v in zip(series.months, series.g1, series.gtot, series.values)
        ],
        {"variant": series.variant, "median": series.median},
    )])


def cmd_rateeq(args, manifest: RunManifest) -> int:
    record_at = sorted(args.record_at) if args.record_at else [args.steps]
    states = master.iterate_master(args.p0, args.steps, record_at=record_at, x_trunc=args.x_trunc)
    rows = []
    over_rows = []
    for st in states:
        for x0, value in enumerate(st.counts, start=1):
            if value > 0.0:
                rows.append((st.N, x0, value))
        over_rows.append((st.N, st.overflow_count, st.overflow_mass, st.total_mass))
    return _write_outputs(args, manifest, [
        ("rateeq.csv", ["N", "x", "n"], rows, {"p0": args.p0, "x_trunc": args.x_trunc}),
        ("rateeq_overflow.csv", ["N", "overflow_count", "overflow_mass", "total_mass"],
         over_rows, None),
    ])


# parse_args leaves the parser as it found it, so one parser serves every main call
@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="forgesim",
        description="Simulation and estimation toolkit for project-community growth dynamics.",
    )
    parser.add_argument("--version", action="version", version=f"forgesim {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--output-dir", default=".", help="directory for tables and manifest")

    p = sub.add_parser("simulate", help="run the founding-and-joining process")
    p.add_argument("--p0", type=_real, required=True)
    p.add_argument("--steps", type=_integer, required=True)
    p.add_argument("--alpha", type=_real, default=1.0)
    p.add_argument("--replicas", type=_integer, default=1)
    p.add_argument("--seed", type=_integer, required=True)
    p.add_argument("--checkpoint-at", type=_integer, action="append",
                   help="record a checkpoint at this step (repeatable; default: final step)")
    p.add_argument("--jobs", type=_jobs, default=1)
    add_common(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("analyze", help="monthly summaries and distributions from an event file")
    p.add_argument("events")
    p.add_argument("--months", help="restrict to LO:HI month range")
    p.add_argument("--gap-mask", help="file with one masked month per line")
    add_common(p)
    p.set_defaults(func=cmd_analyze)

    def add_dist_input(p):
        p.add_argument("input", help="size,count table, simulate trace, or events file")
        p.add_argument("--month", type=_month,
                       help="treat input as an events file and use this month's snapshot")
        p.add_argument("--checkpoint", type=_integer,
                       help="checkpoint step when the input is a trace (default: last)")

    p = sub.add_parser("fit", help="maximum-likelihood Yule-Simon fit")
    add_dist_input(p)
    add_common(p)
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("gof", help="bootstrap goodness-of-fit test")
    add_dist_input(p)
    p.add_argument("--bootstrap", type=_integer, default=1000)
    p.add_argument("--seed", type=_integer, required=True)
    p.add_argument("--jobs", type=_jobs, default=1)
    add_common(p)
    p.set_defaults(func=cmd_gof)

    p = sub.add_parser("em", help="EM correction of the singleton count")
    add_dist_input(p)
    add_common(p)
    p.set_defaults(func=cmd_em)

    p = sub.add_parser("p0", help="monthly founding-probability series")
    p.add_argument("events")
    p.add_argument("--variant", choices=["all", "collaborative"], default="all")
    p.add_argument("--gap-mask")
    add_common(p)
    p.set_defaults(func=cmd_p0)

    p = sub.add_parser("rateeq", help="iterate the mean-field rate equations")
    p.add_argument("--p0", type=_real, required=True)
    p.add_argument("--steps", type=_integer, required=True)
    p.add_argument("--x-trunc", type=_integer, default=master.DEFAULT_X_TRUNC)
    p.add_argument("--record-at", type=_integer, action="append",
                   help="record state at this step (repeatable; default: final step)")
    add_common(p)
    p.set_defaults(func=cmd_rateeq)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    manifest = RunManifest(command=args.command, version=__version__)
    # the parsed flags; a command adds only what it observes
    manifest.params.update((key, value) for key, value in vars(args).items()
                           if key not in ("command", "func", "output_dir"))
    try:
        return args.func(args, manifest)
    except ConvergenceError as exc:
        print(f"forgesim {args.command}: {exc}", file=sys.stderr)
        return EXIT_NONCONVERGENCE
    except (UsageError, ForgesimError) as exc:
        print(f"forgesim {args.command}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"forgesim {args.command}: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
