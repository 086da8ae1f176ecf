"""Command-line surface: reproducible pipelines emitting plot-ready tables.

Every command is a pure function of (inputs, flags, seed); identical
invocations reproduce numerically identical output files on one platform.
Exit codes: 0 success, 2 usage/validation, 3 I/O failure, 4 numerical
non-convergence.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import __version__, em, estimators, gof, master, simulate, snapshots, yule
from .distributions import SizeDistribution
from .errors import ConvergenceError, ForgesimError
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
    """A float without underscores or non-ASCII characters; ValueError otherwise."""
    if "_" in text or not text.isascii():
        raise ValueError(f"invalid float value: {text!r}")
    return float(text)


def _integer(text: str) -> int:
    """Value of an integer flag."""
    try:
        return _ascii_int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _jobs(text: str) -> int:
    """Value of --jobs: an integer flag of at least 1."""
    value = _integer(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


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


def _load_distribution(args, manifest: RunManifest) -> tuple[SizeDistribution, str]:
    """Distribution from a size,count table, a trace file, or events+month."""
    path = args.input
    if args.month is not None:
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
    if "checkpoint_step" in cols:
        steps = column("checkpoint_step", _ascii_int)
        chosen = args.checkpoint if args.checkpoint is not None else max(steps, default=None)
        if chosen not in steps:
            raise UsageError(f"checkpoint {chosen} not in trace (has {sorted(set(steps))})")
        keep = np.asarray(steps) == chosen
        sizes, counts = sizes[keep], counts[keep]
    return SizeDistribution(sizes, counts), ""


def _outdir(args) -> Path:
    out = Path(args.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _trace_rows(trace: simulate.SimTrace):
    for cp in trace.checkpoints:
        for size, count in zip(cp.distribution.sizes, cp.distribution.counts):
            yield (cp.step, int(size), count)


def cmd_simulate(args) -> int:
    manifest = RunManifest(command="simulate", version=__version__)
    params = simulate.SimParams(
        p0=args.p0,
        n_steps=args.steps,
        seed=args.seed,
        alpha=args.alpha,
        checkpoints=tuple(args.checkpoint_at) if args.checkpoint_at else None,
    )
    manifest.params.update(
        p0=args.p0, steps=args.steps, alpha=args.alpha, replicas=args.replicas,
        seed=args.seed, generator=simulate.GENERATOR_ID,
    )
    result = simulate.replicate(params, args.replicas, jobs=args.jobs)
    out = _outdir(args)
    meta = {
        "p0": args.p0, "steps": args.steps, "alpha": args.alpha,
        "seed": args.seed, "generator": simulate.GENERATOR_ID,
    }
    for r, trace in enumerate(result.traces):
        name = f"trace_replica_{r:03d}.csv"
        write_table(out / name, ["checkpoint_step", "size", "count"], _trace_rows(trace),
                    metadata={**meta, "replica": r})
        manifest.outputs.append(name)
    mean = result.mean_distribution
    write_table(
        out / "mean_distribution.csv",
        ["size", "count"],
        zip((int(s) for s in mean.sizes), mean.counts),
        metadata={**meta, "replicas": args.replicas},
    )
    manifest.outputs.append("mean_distribution.csv")
    manifest.write(out / "simulate.manifest.txt")
    return EXIT_OK


def cmd_analyze(args) -> int:
    manifest = RunManifest(command="analyze", version=__version__)
    log = _load_events(args.events, manifest)
    mask = frozenset()
    if args.gap_mask:
        mask = read_gap_mask(args.gap_mask)
        manifest.add_input(args.gap_mask)
    lo, hi = log.month_range
    if args.months:
        lo, hi = _parse_month_range(args.months)
    manifest.params.update(events=args.events, months=f"{lo}:{hi}")
    out = _outdir(args)

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

    write_table(
        out / "summary.csv",
        ["month", "n_developers", "n_projects", "n_links", "masked"],
        summary_rows,
    )
    write_table(out / "size_distribution.csv", ["month", "size", "count"], size_rows)
    write_table(out / "degree_distribution.csv", ["month", "degree", "count"], degree_rows)

    counts = snapshots.entry_exit_counts(log, (lo, hi))
    write_table(
        out / "entry_exit.csv",
        ["month", "new_projects", "removed_projects", "new_developers", "removed_developers"],
        zip(counts.months, counts.new_projects, counts.removed_projects,
            counts.new_developers, counts.removed_developers),
    )

    rates_p, rates_d = estimators.relative_entry_rates(summaries, mask)
    by_month_p = dict(zip(rates_p.months.tolist(), rates_p.values.tolist()))
    by_month_d = dict(zip(rates_d.months.tolist(), rates_d.values.tolist()))
    shared = sorted(set(by_month_p) & set(by_month_d))
    write_table(
        out / "entry_rates.csv",
        ["month", "g_projects", "g_developers"],
        [(m, by_month_p[m], by_month_d[m]) for m in shared],
    )
    write_table(
        out / "entry_rate_quantiles.csv",
        ["series", "q10", "median", "q90"],
        [
            ("projects", rates_p.q10, rates_p.median, rates_p.q90),
            ("developers", rates_d.q10, rates_d.median, rates_d.q90),
        ],
    )
    for name in ("summary.csv", "size_distribution.csv", "degree_distribution.csv",
                 "entry_exit.csv", "entry_rates.csv", "entry_rate_quantiles.csv"):
        manifest.outputs.append(name)
    manifest.write(out / "analyze.manifest.txt")
    return EXIT_OK


def cmd_fit(args) -> int:
    manifest = RunManifest(command="fit", version=__version__)
    dist, month = _load_distribution(args, manifest)
    manifest.params.update(input=args.input, month=month)
    fit = yule.mle_rho(dist)
    out = _outdir(args)
    write_table(
        out / "fit.csv",
        ["month", "rho_hat", "log_likelihood", "n_observations", "derived_p0", "domain_flag"],
        [(month, fit.rho_hat, fit.log_likelihood, fit.n_observations,
          fit.derived_p0, fit.domain_flag)],
    )
    manifest.outputs.append("fit.csv")
    manifest.write(out / "fit.manifest.txt")
    return EXIT_OK


def cmd_gof(args) -> int:
    manifest = RunManifest(command="gof", version=__version__)
    dist, month = _load_distribution(args, manifest)
    manifest.params.update(input=args.input, month=month, bootstrap=args.bootstrap,
                           seed=args.seed, jobs=args.jobs)
    result = gof.bootstrap_pvalue(dist, n_bootstrap=args.bootstrap, seed=args.seed, jobs=args.jobs)
    out = _outdir(args)
    write_table(
        out / "gof.csv",
        ["month", "rho_hat", "ks", "p_value", "B", "seed"],
        [(month, result.rho_hat, result.ks_observed, result.p_value,
          result.n_bootstrap, result.seed)],
        metadata={**result.metadata, "n_failed": result.n_failed},
    )
    manifest.outputs.append("gof.csv")
    manifest.write(out / "gof.manifest.txt")
    return EXIT_OK


def cmd_em(args) -> int:
    manifest = RunManifest(command="em", version=__version__)
    dist, month = _load_distribution(args, manifest)
    manifest.params.update(input=args.input, month=month, epsilon=args.epsilon,
                           max_iterations=args.max_iterations)
    cfg = em.EMConfig(epsilon=args.epsilon, max_iterations=args.max_iterations)
    result = em.em_fit(dist, cfg)
    out = _outdir(args)
    write_table(
        out / "em.csv",
        ["month", "rho_col", "observed_singletons", "latent_singletons", "iterations", "converged"],
        [(month, result.rho_col, result.observed_singletons, result.latent_singletons,
          result.iterations, result.converged)],
    )
    manifest.outputs.append("em.csv")
    manifest.write(out / "em.manifest.txt")
    if not result.converged:
        raise ConvergenceError("EM did not converge within the iteration cap", best=result)
    return EXIT_OK


def cmd_p0(args) -> int:
    manifest = RunManifest(command="p0", version=__version__)
    log = _load_events(args.events, manifest)
    mask = frozenset()
    if args.gap_mask:
        mask = read_gap_mask(args.gap_mask)
        manifest.add_input(args.gap_mask)
    manifest.params.update(events=args.events, variant=args.variant)
    lo, hi = log.month_range
    if args.variant == "collaborative":
        months, new_p, new_d = estimators.collaborative_entry_counts(log, observation_end=hi)
    else:
        counts = snapshots.entry_exit_counts(log, (lo, hi))
        months, new_p, new_d = counts.months, counts.new_projects, counts.new_developers
    series = estimators.p0_series(months, new_p, new_d, variant=args.variant, mask=mask)
    out = _outdir(args)
    write_table(
        out / "p0.csv",
        ["month", "g1", "gtot", "p0", "above_one"],
        [
            (int(m), g1, gt, v, int(v > 1.0))
            for m, g1, gt, v in zip(series.months, series.g1, series.gtot, series.values)
        ],
        metadata={"variant": series.variant, "median": series.median},
    )
    manifest.outputs.append("p0.csv")
    manifest.write(out / "p0.manifest.txt")
    return EXIT_OK


def cmd_rateeq(args) -> int:
    manifest = RunManifest(command="rateeq", version=__version__)
    record_at = sorted(args.record_at) if args.record_at else [args.steps]
    manifest.params.update(p0=args.p0, steps=args.steps, x_trunc=args.x_trunc,
                           record_at=",".join(map(str, record_at)))
    states = master.iterate_master(args.p0, args.steps, record_at=record_at, x_trunc=args.x_trunc)
    out = _outdir(args)
    rows = []
    over_rows = []
    for st in states:
        for x0, value in enumerate(st.counts, start=1):
            if value > 0.0:
                rows.append((st.N, x0, value))
        over_rows.append((st.N, st.overflow_count, st.overflow_mass, st.total_mass))
    write_table(out / "rateeq.csv", ["N", "x", "n"], rows,
                metadata={"p0": args.p0, "x_trunc": args.x_trunc})
    write_table(out / "rateeq_overflow.csv",
                ["N", "overflow_count", "overflow_mass", "total_mass"], over_rows)
    manifest.outputs.extend(["rateeq.csv", "rateeq_overflow.csv"])
    manifest.write(out / "rateeq.manifest.txt")
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="forgesim",
        description="Simulation and estimation toolkit for project-community growth dynamics.",
    )
    parser.add_argument("--version", action="version", version=f"forgesim {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--output-dir", default=".", help="directory for tables and manifest")

    p = sub.add_parser("simulate", help="run the founding-and-joining process")
    p.add_argument("--p0", type=float, required=True)
    p.add_argument("--steps", type=_integer, required=True)
    p.add_argument("--alpha", type=float, default=1.0)
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
        p.add_argument("--month", type=_integer,
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
    p.add_argument("--epsilon", type=float, default=1e-4)
    p.add_argument("--max-iterations", type=_integer, default=500)
    add_common(p)
    p.set_defaults(func=cmd_em)

    p = sub.add_parser("p0", help="monthly founding-probability series")
    p.add_argument("events")
    p.add_argument("--variant", choices=["all", "collaborative"], default="all")
    p.add_argument("--gap-mask")
    add_common(p)
    p.set_defaults(func=cmd_p0)

    p = sub.add_parser("rateeq", help="iterate the mean-field rate equations")
    p.add_argument("--p0", type=float, required=True)
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
    try:
        return args.func(args)
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
