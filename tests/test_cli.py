"""End-to-end tests of the command-line surface and its exit codes."""

import argparse
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from forgesim import __version__, cli, estimators, parse_events, snapshots, yule
from forgesim.cli import _build_parser, main
from forgesim.report import read_table, sha256_file, write_table
from snapshot_loop_oracle import project_size_distribution, snapshot_loop

DATA = Path(__file__).parent / "data"
FIXTURE = str(DATA / "events_200.csv")


def table_bytes(path: Path) -> bytes:
    return path.read_bytes()


class TestSimulate:
    def test_writes_trace_and_mean_distribution(self, tmp_path):
        out = tmp_path / "run"
        code = main(["simulate", "--p0", "0.5", "--steps", "2000", "--seed", "7",
                     "--output-dir", str(out)])
        assert code == 0
        metadata, header, rows = read_table(out / "mean_distribution.csv")
        assert header == ["size", "count"]
        assert metadata["p0"] == "0.5"
        total = sum(int(r[0]) * float(r[1]) for r in rows)
        assert total == 2000.0
        assert (out / "trace_replica_000.csv").exists()
        assert (out / "simulate.manifest.txt").exists()

    def test_rerun_is_byte_identical(self, tmp_path):
        args = ["simulate", "--p0", "0.5", "--steps", "1000", "--replicas", "3",
                "--seed", "11"]
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(args + ["--output-dir", str(a)]) == 0
        assert main(args + ["--output-dir", str(b)]) == 0
        for name in ("mean_distribution.csv", "trace_replica_002.csv"):
            assert table_bytes(a / name) == table_bytes(b / name)

    def test_invalid_p0_exits_2(self, tmp_path, capsys):
        code = main(["simulate", "--p0", "1.5", "--steps", "10", "--seed", "1",
                     "--output-dir", str(tmp_path)])
        assert code == 2
        assert "p0" in capsys.readouterr().err

    def test_zero_replicas_exits_2_without_output_dir(self, tmp_path, capsys):
        out = tmp_path / "rep0"
        assert main(["simulate", "--p0", "0.5", "--steps", "10", "--seed", "1",
                     "--replicas", "0", "--output-dir", str(out)]) == 2
        assert "n_replicas" in capsys.readouterr().err
        assert not out.exists()


class TestAnalyze:
    def test_matches_checked_in_goldens(self, tmp_path):
        out = tmp_path / "an"
        assert main(["analyze", FIXTURE, "--output-dir", str(out)]) == 0
        for name in ("summary.csv", "size_distribution.csv", "degree_distribution.csv",
                     "entry_exit.csv", "entry_rates.csv", "entry_rate_quantiles.csv"):
            assert table_bytes(out / name) == table_bytes(DATA / "golden" / name), name

    @pytest.mark.parametrize("months, masked", [
        (None, [0, 7, 8, 30]),
        ("3:12", [3, 5]),
        # masked months on both sides of the observed range [0, 30]
        ("-3:33", [-3, -2, -1, 6, 17, 18, 31, 32, 33]),
    ])
    def test_masked_months_match_the_snapshot_loop(self, tmp_path, months, masked):
        mask = tmp_path / "mask.txt"
        mask.write_text("".join(f"{m}\n" for m in masked))
        out = tmp_path / "an"
        flags = ["--months", months] if months else []
        assert main(["analyze", FIXTURE, *flags, "--gap-mask", str(mask),
                     "--output-dir", str(out)]) == 0
        log = parse_events(FIXTURE).log
        lo, hi = map(int, months.split(":")) if months else log.month_range
        summary_rows, size_rows, degree_rows, summaries = snapshot_loop(log, lo, hi, set(masked))
        rates_p, rates_d = estimators.relative_entry_rates(
            [s.month for s in summaries], [s.n_projects for s in summaries],
            [s.n_developers for s in summaries], set(masked))
        want = tmp_path / "want"
        want.mkdir()
        for name, header, rows in [
            ("summary.csv", ["month", "n_developers", "n_projects", "n_links", "masked"],
             summary_rows),
            ("size_distribution.csv", ["month", "size", "count"], size_rows),
            ("degree_distribution.csv", ["month", "degree", "count"], degree_rows),
            ("entry_rates.csv", ["month", "g_projects", "g_developers"],
             zip(rates_p.months, rates_p.values, rates_d.values)),
        ]:
            write_table(want / name, header, rows)
            assert table_bytes(out / name) == table_bytes(want / name), name

    def test_month_range_restriction(self, tmp_path):
        out = tmp_path / "an"
        assert main(["analyze", FIXTURE, "--months", "24:26", "--output-dir", str(out)]) == 0
        _, _, rows = read_table(out / "summary.csv")
        assert [r[0] for r in rows] == ["24", "25", "26"]

    @pytest.mark.parametrize("months", ["1_0:2_0", "\uff12\uff14:26", "24", "24:x", "26:24",
                                        "100:200"])
    def test_month_range_outside_the_month_rule_exits_2(self, tmp_path, capsys, months):
        out = tmp_path / "an"
        assert main(["analyze", FIXTURE, "--months", months, "--output-dir", str(out)]) == 2
        assert "bad month range" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("months, last", [("-3:2", 2), ("-3:-1", -1)])
    def test_negative_month_range_takes_a_space_like_an_equals_sign(self, tmp_path, months, last):
        events = tmp_path / "events.csv"
        events.write_text("d1,p1,-4,\nd2,p1,-3,1\nd3,p2,-1,\nd4,p3,2,\n")
        spaced, joined = tmp_path / "spaced", tmp_path / "joined"
        for flags, out in ((["--months", months], spaced), ([f"--months={months}"], joined)):
            assert main(["analyze", str(events), *flags, "--output-dir", str(out)]) == 0
        _, _, rows = read_table(spaced / "summary.csv")
        assert [int(r[0]) for r in rows] == list(range(-3, last + 1))
        for name in ("summary.csv", "entry_exit.csv", "size_distribution.csv"):
            assert table_bytes(spaced / name) == table_bytes(joined / name), name

    def test_month_range_takes_calendar_months(self, tmp_path):
        out = tmp_path / "an"
        assert main(["analyze", FIXTURE, "--months", "1972-01:1972-03",
                     "--output-dir", str(out)]) == 0
        _, _, rows = read_table(out / "summary.csv")
        assert [r[0] for r in rows] == ["24", "25", "26"]

    def test_gap_mask_flagged(self, tmp_path):
        mask = tmp_path / "mask.txt"
        mask.write_text("5\n6\n")
        out = tmp_path / "an"
        assert main(["analyze", FIXTURE, "--gap-mask", str(mask),
                     "--output-dir", str(out)]) == 0
        _, _, rows = read_table(out / "summary.csv")
        flagged = {r[0] for r in rows if r[4] == "1"}
        assert flagged == {"5", "6"}
        _, _, size_rows = read_table(out / "size_distribution.csv")
        assert not any(r[0] in ("5", "6") for r in size_rows)

    def test_parse_errors_exit_2_listing_lines(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("d1,p1,3,\nd2,p2,9,4\n")
        code = main(["analyze", str(bad), "--output-dir", str(tmp_path / "o")])
        assert code == 2
        assert "line 2" in capsys.readouterr().err

    def test_empty_log_exits_2(self, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text("developer_id,project_id,entry_month,exit_month\n")
        assert main(["analyze", str(empty), "--output-dir", str(tmp_path / "o")]) == 2

    def test_one_month_log_exits_2_without_output_dir(self, tmp_path, capsys):
        events = tmp_path / "events.csv"
        events.write_text("d1,p1,5,\nd2,p1,5,\n")
        out = tmp_path / "an"
        assert main(["analyze", str(events), "--output-dir", str(out)]) == 2
        assert "no consecutive unmasked month pairs" in capsys.readouterr().err
        assert not out.exists()


# the three commands that fit one histogram, with the flags each needs
HISTOGRAM_COMMANDS = [["fit"], ["gof", "--bootstrap", "100", "--seed", "1"], ["em"]]


class TestMonthHistograms:
    """analyze and the --month of fit, gof and em read their months from a sweep."""

    @pytest.mark.parametrize("command", [["analyze"], *HISTOGRAM_COMMANDS],
                             ids=["analyze", "fit", "gof", "em"])
    def test_makes_no_snapshot_at_call(self, tmp_path, monkeypatch, command):
        """A per-month scan fails here. analyze writes its goldens, and a
        --month command the table it writes on the snapshot's histogram of
        that month, whose month cell is empty."""
        name, flags = command[0], command[1:]
        if name == "analyze":
            argv, want = [name, FIXTURE], DATA / "golden"
            tables = ["summary.csv", "size_distribution.csv", "degree_distribution.csv"]
        else:
            argv, want = [name, FIXTURE, "--month", "25", *flags], tmp_path / "want"
            tables = [f"{name}.csv"]
            dist = project_size_distribution(snapshots.snapshot_at(parse_events(FIXTURE).log, 25))
            hist = tmp_path / "hist.csv"
            write_table(hist, ["size", "count"], zip(dist.sizes.tolist(), dist.counts.tolist()))
            assert main([name, str(hist), *flags, "--output-dir", str(want)]) == 0

        def snapshot_at(*args):
            raise AssertionError(f"{name} took a snapshot")

        monkeypatch.setattr(snapshots, "snapshot_at", snapshot_at)
        out = tmp_path / "out"
        assert main([*argv, "--output-dir", str(out)]) == 0
        for table in tables:
            got = table_bytes(out / table)
            if name != "analyze":
                got = got.replace(b"\n25,", b"\n,")
            assert got == table_bytes(want / table), table

    @pytest.mark.parametrize("command", HISTOGRAM_COMMANDS, ids=["fit", "gof", "em"])
    @pytest.mark.parametrize("month, message", [
        ("9", "month 9 outside observed range [0, 5]"),
        ("2", None),
    ], ids=["outside", "no-link"])
    def test_edge_months_exit_2(self, tmp_path, capsys, command, month, message):
        """Month 2 of the log has no active link, so its histogram is empty."""
        events = tmp_path / "events.csv"
        events.write_text("d1,p1,0,2\nd2,p2,3,5\n")
        if message is None:
            message = ("no weight above size 2: rho is not identifiable" if command[0] == "em"
                       else "need at least 2 observations to fit rho")
        out = tmp_path / "out"
        assert main([command[0], str(events), "--month", month, *command[1:],
                     "--output-dir", str(out)]) == 2
        assert capsys.readouterr().err == f"forgesim {command[0]}: {message}\n"
        assert not out.exists()


@pytest.fixture(scope="module")
def yule_sample_file(tmp_path_factory):
    """size,count table of a Yule(rho=3) sample, n=5000."""
    from forgesim import sample

    draws = sample(3.0, 5000, np.random.default_rng(77))
    values, counts = np.unique(draws, return_counts=True)
    path = tmp_path_factory.mktemp("dist") / "yule3.csv"
    lines = ["size,count"] + [f"{v},{c}" for v, c in zip(values, counts)]
    path.write_text("\n".join(lines) + "\n")
    return str(path)


class TestFit:
    def test_fit_on_sample_file(self, yule_sample_file, tmp_path):
        out = tmp_path / "fit"
        assert main(["fit", yule_sample_file, "--output-dir", str(out)]) == 0
        _, header, rows = read_table(out / "fit.csv")
        rho_hat = float(rows[0][header.index("rho_hat")])
        assert 2.8 <= rho_hat <= 3.2
        assert rows[0][header.index("domain_flag")] == "1"

    def test_fit_on_trace_checkpoint(self, tmp_path):
        sim_out = tmp_path / "sim"
        assert main(["simulate", "--p0", "0.6667", "--steps", "20000", "--seed", "5",
                     "--checkpoint-at", "10000", "--checkpoint-at", "20000",
                     "--output-dir", str(sim_out)]) == 0
        out = tmp_path / "fit"
        assert main(["fit", str(sim_out / "trace_replica_000.csv"),
                     "--checkpoint", "20000", "--output-dir", str(out)]) == 0
        _, header, rows = read_table(out / "fit.csv")
        assert 2.5 <= float(rows[0][header.index("rho_hat")]) <= 3.5

    def test_fit_on_events_with_month(self, tmp_path):
        out = tmp_path / "fit"
        assert main(["fit", FIXTURE, "--month", "25", "--output-dir", str(out)]) == 0
        _, header, rows = read_table(out / "fit.csv")
        assert rows[0][header.index("month")] == "25"

    def test_checkpoint_on_a_table_without_steps_exits_2(self, yule_sample_file, tmp_path,
                                                         capsys):
        out = tmp_path / "fit"
        assert main(["fit", yule_sample_file, "--checkpoint", "7", "--output-dir", str(out)]) == 2
        assert "--checkpoint applies to a trace" in capsys.readouterr().err
        assert not out.exists()

    def test_checkpoint_with_month_exits_2(self, tmp_path, capsys):
        out = tmp_path / "fit"
        assert main(["fit", FIXTURE, "--month", "30", "--checkpoint", "4",
                     "--output-dir", str(out)]) == 2
        assert "--checkpoint applies to a trace" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_columns_exit_2(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b\n1,2\n")
        assert main(["fit", str(bad), "--output-dir", str(tmp_path / "o")]) == 2


class TestGof:
    def test_deterministic_pvalue(self, yule_sample_file, tmp_path):
        args = ["gof", yule_sample_file, "--bootstrap", "100", "--seed", "1"]
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(args + ["--output-dir", str(a)]) == 0
        assert main(args + ["--output-dir", str(b)]) == 0
        assert table_bytes(a / "gof.csv") == table_bytes(b / "gof.csv")
        _, header, rows = read_table(a / "gof.csv")
        assert rows[0][header.index("B")] == "100"
        assert rows[0][header.index("seed")] == "1"

    def test_two_jobs_write_the_serial_table(self, yule_sample_file, tmp_path):
        args = ["gof", yule_sample_file, "--bootstrap", "100", "--seed", "3"]
        one, two = tmp_path / "one", tmp_path / "two"
        assert main(args + ["--jobs", "1", "--output-dir", str(one)]) == 0
        assert main(args + ["--jobs", "2", "--output-dir", str(two)]) == 0
        assert table_bytes(two / "gof.csv") == table_bytes(one / "gof.csv")


class TestEm:
    def test_em_on_singleton_inflated_file(self, tmp_path):
        from forgesim import sample

        draws = sample(3.0, 5000, np.random.default_rng(88))
        values, counts = np.unique(draws, return_counts=True)
        counts = counts.astype(float)
        counts[values == 1] += 3 * counts[values == 1]
        path = tmp_path / "inflated.csv"
        path.write_text(
            "\n".join(["size,count"] + [f"{v},{c}" for v, c in zip(values, counts)]) + "\n"
        )
        out = tmp_path / "em"
        assert main(["em", str(path), "--output-dir", str(out)]) == 0
        _, header, rows = read_table(out / "em.csv")
        # plumbing check; the tight recovery band is exercised at n=1e4 in
        # the acceptance suite
        assert 2.6 <= float(rows[0][header.index("rho_col")]) <= 3.4
        assert rows[0][header.index("converged")] == "1"

    def test_nonconvergence_exits_4_without_output(self, yule_sample_file, tmp_path, capsys,
                                                   monkeypatch):
        monkeypatch.setattr(yule, "_MAX_ITERATIONS", 1)
        out = tmp_path / "em"
        assert main(["em", yule_sample_file, "--output-dir", str(out)]) == 4
        assert "did not converge in 1 Newton steps" in capsys.readouterr().err
        assert not out.exists()


class TestP0:
    def test_both_variants_run(self, tmp_path):
        for variant in ("all", "collaborative"):
            out = tmp_path / variant
            assert main(["p0", FIXTURE, "--variant", variant,
                         "--output-dir", str(out)]) == 0
            metadata, header, rows = read_table(out / "p0.csv")
            assert metadata["variant"] == variant
            assert float(metadata["median"]) > 0

    def test_collaborative_variant_lowers_or_keeps_counts(self, tmp_path):
        out_all, out_col = tmp_path / "all", tmp_path / "col"
        main(["p0", FIXTURE, "--variant", "all", "--output-dir", str(out_all)])
        main(["p0", FIXTURE, "--variant", "collaborative", "--output-dir", str(out_col)])
        _, h_all, rows_all = read_table(out_all / "p0.csv")
        _, h_col, rows_col = read_table(out_col / "p0.csv")
        g1_all = {r[0]: float(r[h_all.index("g1")]) for r in rows_all}
        g1_col = {r[0]: float(r[h_col.index("g1")]) for r in rows_col}
        for month, value in g1_col.items():
            assert value <= g1_all[month]


class TestRateeq:
    def test_tables_written(self, tmp_path):
        out = tmp_path / "req"
        assert main(["rateeq", "--p0", "0.5", "--steps", "2000",
                     "--record-at", "1000", "--record-at", "2000",
                     "--output-dir", str(out)]) == 0
        _, header, rows = read_table(out / "rateeq.csv")
        recorded = {r[0] for r in rows}
        assert recorded == {"1000", "2000"}
        _, oh, orows = read_table(out / "rateeq_overflow.csv")
        total = float(orows[-1][oh.index("total_mass")])
        assert total == pytest.approx(2000.0, rel=1e-12)

    def test_rerun_byte_identical(self, tmp_path):
        args = ["rateeq", "--p0", "0.6667", "--steps", "500"]
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(args + ["--output-dir", str(a)]) == 0
        assert main(args + ["--output-dir", str(b)]) == 0
        assert table_bytes(a / "rateeq.csv") == table_bytes(b / "rateeq.csv")


_ANALYZE_TABLES = ["summary.csv", "size_distribution.csv", "degree_distribution.csv",
                   "entry_exit.csv", "entry_rates.csv", "entry_rate_quantiles.csv"]


# one run of each command: (argv, the inputs it reads, the tables it writes)
_RUNS = pytest.mark.parametrize("argv, inputs, tables", [
    (["simulate", "--p0", "0.5", "--steps", "200", "--seed", "1", "--replicas", "2"], [],
     ["trace_replica_000.csv", "trace_replica_001.csv", "mean_distribution.csv"]),
    (["analyze", FIXTURE, "--gap-mask", "MASK"], [FIXTURE, "MASK"], _ANALYZE_TABLES),
    (["fit", "TABLE"], ["TABLE"], ["fit.csv"]),
    (["gof", "TABLE", "--bootstrap", "100", "--seed", "1"], ["TABLE"], ["gof.csv"]),
    (["em", "TABLE"], ["TABLE"], ["em.csv"]),
    (["p0", FIXTURE], [FIXTURE], ["p0.csv"]),
    (["rateeq", "--p0", "0.5", "--steps", "100", "--record-at", "50"], [],
     ["rateeq.csv", "rateeq_overflow.csv"]),
], ids=["simulate", "analyze", "fit", "gof", "em", "p0", "rateeq"])

# the params a command observes, beside its parsed flags
_OBSERVED = {"simulate": {"generator"}, "analyze": {"n_duplicates_dropped", "months"},
             "p0": {"n_duplicates_dropped"}}


def manifest_params(out: Path, command: str) -> dict[str, str]:
    lines = (out / f"{command}.manifest.txt").read_text().splitlines()
    return dict(line.removeprefix("param.").partition("=")[::2]
                for line in lines if line.startswith("param."))


class TestOutputContract:
    """Every command writes its tables, then <command>.manifest.txt listing them."""

    @_RUNS
    def test_manifest_lists_what_was_read_and_written(self, tmp_path, yule_sample_file, argv,
                                                      inputs, tables):
        mask = tmp_path / "mask.txt"
        mask.write_text("30\n")
        files = {"MASK": str(mask), "TABLE": yule_sample_file}
        argv = [files.get(a, a) for a in argv]
        inputs = [files.get(a, a) for a in inputs]
        out = tmp_path / "out"
        assert main(argv + ["--output-dir", str(out)]) == 0

        command = argv[0]
        lines = (out / f"{command}.manifest.txt").read_text().splitlines()
        assert lines[:2] == [f"command={command}", f"version={__version__}"]
        params = [line for line in lines if line.startswith("param.")]
        assert params and lines[2:2 + len(params)] == params
        keys = [line.partition("=")[0] for line in params]
        assert keys == sorted(keys)
        rest = lines[2 + len(params):]
        assert rest[:len(inputs)] == [f"input.sha256.{path}={sha256_file(path)}"
                                      for path in sorted(inputs)]
        assert rest[len(inputs):-1] == [f"output={name}" for name in tables]
        assert re.fullmatch(r"duration_s=[0-9]+\.[0-9]{3}", rest[-1])
        assert sorted(p.name for p in out.iterdir()) == sorted(tables + [f"{command}.manifest.txt"])

    @_RUNS
    def test_manifest_records_every_parsed_flag(self, tmp_path, yule_sample_file, argv, inputs,
                                                tables):
        mask = tmp_path / "mask.txt"
        mask.write_text("30\n")
        argv = [{"MASK": str(mask), "TABLE": yule_sample_file}.get(a, a) for a in argv]
        out = tmp_path / "out"
        assert main(argv + ["--output-dir", str(out)]) == 0
        flags = set(vars(_build_parser().parse_args(argv))) - {"command", "func", "output_dir"}
        command = argv[0]
        assert set(manifest_params(out, command)) == flags | _OBSERVED.get(command, set())

    def test_runs_that_differ_in_one_flag_have_different_manifests(self, tmp_path):
        """A checkpoint flag changes the tables, so the manifest records it."""
        def run(name, argv, table):
            out = tmp_path / name
            assert main(argv + ["--output-dir", str(out)]) == 0
            return manifest_params(out, argv[0]), table_bytes(out / table)

        simulate = ["simulate", "--p0", "0.5", "--steps", "300", "--seed", "1"]
        plain = run("sim", simulate, "trace_replica_000.csv")
        checkpoints = run("sim_cp", simulate + ["--checkpoint-at", "300", "--checkpoint-at", "100"],
                          "trace_replica_000.csv")
        assert plain[1] != checkpoints[1] and plain[0] != checkpoints[0]
        assert checkpoints[0]["checkpoint_at"] == "300,100"
        trace = str(tmp_path / "sim_cp" / "trace_replica_000.csv")
        last = run("fit", ["fit", trace], "fit.csv")
        first = run("fit_cp", ["fit", trace, "--checkpoint", "100"], "fit.csv")
        assert last[1] != first[1] and last[0] != first[0]
        assert (last[0]["checkpoint"], first[0]["checkpoint"]) == ("", "100")

    def test_successive_runs_share_no_appended_flags(self, tmp_path):
        """main reuses one parser; a repeatable flag of one run is not in the next."""
        simulate = ["simulate", "--p0", "0.5", "--steps", "300", "--seed", "1"]
        rateeq = ["rateeq", "--p0", "0.5", "--steps", "300"]
        runs = [(simulate + ["--checkpoint-at", "100"], "checkpoint_at", "100"),
                (simulate + ["--checkpoint-at", "200"], "checkpoint_at", "200"),
                (simulate, "checkpoint_at", ""),
                (rateeq + ["--record-at", "50"], "record_at", "50"),
                (rateeq + ["--record-at", "60", "--record-at", "70"], "record_at", "60,70"),
                (rateeq, "record_at", "")]
        for i, (argv, flag, recorded) in enumerate(runs):
            out = tmp_path / str(i)
            assert main(argv + ["--output-dir", str(out)]) == 0
            assert manifest_params(out, argv[0])[flag] == recorded
        assert _build_parser() is _build_parser()

    @pytest.mark.parametrize("argv, message", [
        (["p0", "ONE_MONTH", "--gap-mask", "MASK"], "no usable months"),
        (["rateeq", "--p0", "1.5", "--steps", "10"], "p0 must lie in"),
        (["gof", "TABLE", "--bootstrap", "50", "--seed", "1"], "n_bootstrap must be >= 100"),
        (["gof", "HEAVY", "--bootstrap", "100", "--seed", "1"], "above the int64 bound"),
        (["em", "PAIRS"], "no weight above size 2"),
    ], ids=["p0", "rateeq", "gof", "gof-heavy-tail", "em"])
    def test_exit_2_creates_no_output_dir(self, tmp_path, yule_sample_file, capsys, argv,
                                          message):
        events, mask = tmp_path / "one.csv", tmp_path / "mask.txt"
        events.write_text("d1,p1,5,6\n")
        mask.write_text("5\n")
        # rho_hat = 0.069: a replica's draws pass 2**63 - 1 with probability 0.05 each
        heavy = tmp_path / "heavy.csv"
        heavy.write_text("size,count\n1,50\n1000000000000,50\n")
        pairs = tmp_path / "pairs.csv"
        pairs.write_text("size,count\n1,100\n2,50\n")
        files = {"ONE_MONTH": str(events), "MASK": str(mask), "TABLE": yule_sample_file,
                 "HEAVY": str(heavy), "PAIRS": str(pairs)}
        out = tmp_path / "out"
        assert main([files.get(a, a) for a in argv] + ["--output-dir", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()


_INTEGER_FLAGS = [
    (["simulate", "--p0", "0.5", "--steps", "10", "--seed", "1"],
     ["--steps", "--replicas", "--seed", "--checkpoint-at", "--jobs"]),
    (["fit", FIXTURE], ["--checkpoint"]),
    (["gof", FIXTURE, "--seed", "1"], ["--bootstrap", "--seed", "--jobs"]),
    (["rateeq", "--p0", "0.5", "--steps", "10"], ["--steps", "--x-trunc", "--record-at"]),
]


_FLOAT_FLAGS = [
    (["simulate", "--p0", "0.5", "--steps", "10", "--seed", "1"], ["--p0", "--alpha"]),
    (["rateeq", "--p0", "0.5", "--steps", "10"], ["--p0"]),
]


class TestIntegerFlags:
    @pytest.mark.parametrize("base, flag", [(b, f) for b, flags in _INTEGER_FLAGS for f in flags])
    @pytest.mark.parametrize("value", ["1_0", "１０", "10.0", " 10", ""])
    def test_only_ascii_integers_accepted(self, base, flag, value, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(base + [flag, value, "--output-dir", str(tmp_path)])
        assert exc.value.code == 2
        assert f"argument {flag}: invalid integer value" in capsys.readouterr().err

    @pytest.mark.parametrize("base, flag", [(b, f) for b, flags in _FLOAT_FLAGS for f in flags])
    @pytest.mark.parametrize("value", ["0.6_6", "\uff10.\uff15", " 0.5", "0.5 "])
    def test_only_ascii_floats_accepted(self, base, flag, value, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(base + [flag, value, "--output-dir", str(tmp_path)])
        assert exc.value.code == 2
        assert f"argument {flag}: invalid float value" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["5_2_2", "５２２", "1_0", "10.0", "", "1972-13",
                                       "1972-2", "\uff11\uff19\uff17\uff12-02", "x"])
    def test_month_lookalikes_exit_2(self, value, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["fit", FIXTURE, "--month", value, "--output-dir", str(tmp_path)])
        assert exc.value.code == 2
        assert "argument --month: invalid month value" in capsys.readouterr().err
        assert not (tmp_path / "fit.csv").exists()

    @pytest.mark.parametrize("argv", [["fit"], ["gof", "--bootstrap", "100", "--seed", "1"],
                                      ["em"]], ids=["fit", "gof", "em"])
    def test_month_takes_a_calendar_token_like_months(self, argv, tmp_path):
        """--month 1972-02 is month 25 from the 1970-01 epoch, as in an event file."""
        tables = []
        for token in ("25", "1972-02"):
            out = tmp_path / token
            assert main([argv[0], FIXTURE, *argv[1:], "--month", token,
                         "--output-dir", str(out)]) == 0
            tables.append(table_bytes(out / f"{argv[0]}.csv"))
        assert tables[0] == tables[1]

    @pytest.mark.parametrize("base", [b for b, flags in _INTEGER_FLAGS if "--jobs" in flags])
    @pytest.mark.parametrize("value", ["0", "-3", "+0", "-0"])
    def test_jobs_below_one_exit_2(self, base, value, tmp_path, capsys):
        out = tmp_path / "o"
        with pytest.raises(SystemExit) as exc:
            main(base + ["--jobs", value, "--output-dir", str(out)])
        assert exc.value.code == 2
        assert "argument --jobs: must be >= 1" in capsys.readouterr().err
        assert not out.exists()

    def test_readme_lists_exactly_the_integer_and_float_flags(self):
        readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
        commands = next(action for action in _build_parser()._actions
                        if isinstance(action, argparse._SubParsersAction)).choices.values()

        def listed(kind):
            return set(re.findall(r"`(--[a-z0-9-]+)`", re.search(rf"{kind} flags \(([^)]*)\)",
                                                              readme).group(1)))

        def typed(*types):
            return {flag for command in commands for action in command._actions
                    if action.type in types for flag in action.option_strings}

        assert listed("Integer") == typed(cli._integer, cli._jobs)
        assert listed("Float") == typed(cli._real)

    def test_signed_integers_accepted(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["fit", FIXTURE, "--month", "+25", "--output-dir", str(a)]) == 0
        assert main(["fit", FIXTURE, "--month", "25", "--output-dir", str(b)]) == 0
        assert table_bytes(a / "fit.csv") == table_bytes(b / "fit.csv")


class TestExitCodes:
    def test_io_failure_exits_3(self, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("x")
        code = main(["rateeq", "--p0", "0.5", "--steps", "10",
                     "--output-dir", str(blocker / "sub")])
        assert code == 3

    def test_unknown_command_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("table_text, message", [
        pytest.param("size,count\n1,40\n2,many\n", "data row 2 '2,many': bad count cell",
                     id="count-word"),
        pytest.param("size,count\n1,40\n1_0,3\n2,5\n", "data row 2 '1_0,3': bad size cell",
                     id="size-underscore"),
        pytest.param("size,count\n1,40\n\uff11\uff10,3\n",
                     "data row 2 '\uff11\uff10,3': bad size cell", id="size-fullwidth"),
        pytest.param("size,count\n1,4_0\n2,5\n", "data row 1 '1,4_0': bad count cell",
                     id="count-underscore"),
        pytest.param("checkpoint_step,size,count\n10,1,4\n1_0,2,5\n",
                     "data row 2 '1_0,2,5': bad checkpoint_step cell", id="step-underscore"),
    ])
    def test_non_numeric_count_cell_exits_2_naming_the_row(self, tmp_path, capsys, table_text,
                                                           message):
        table = tmp_path / "hist.csv"
        table.write_text(table_text, encoding="utf-8")
        assert main(["fit", str(table), "--output-dir", str(tmp_path / "o")]) == 2
        assert message in capsys.readouterr().err

    def test_non_utf8_table_exits_2(self, tmp_path, capsys):
        table = tmp_path / "hist.csv"
        table.write_bytes(b"size,count\n1,\xff\n")
        assert main(["fit", str(table), "--output-dir", str(tmp_path / "o")]) == 2
        assert "data row 1 '1,\\udcff': bad count cell" in capsys.readouterr().err

    def test_internal_value_error_is_not_a_usage_error(self, yule_sample_file, tmp_path,
                                                       monkeypatch):
        def broken(dist):
            raise ValueError("internal bug")

        monkeypatch.setattr("forgesim.cli.yule.mle_rho", broken)
        with pytest.raises(ValueError, match="internal bug"):
            main(["fit", yule_sample_file, "--output-dir", str(tmp_path / "o")])


class TestStartup:
    # scipy is slow to import, and no command needs it
    LOADED_SCIPY = "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"

    @staticmethod
    def _run(code):
        src = str(Path(__file__).resolve().parent.parent / "src")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True, env={"PYTHONPATH": src}, timeout=120)
        return out.stdout.strip().splitlines()[-1]

    def test_cli_import_loads_no_scipy(self):
        assert self._run("import sys, forgesim.cli; " + self.LOADED_SCIPY) == "[]"

    def test_cli_and_serial_gof_load_no_process_pool(self, yule_sample_file, tmp_path):
        # only gof and simulate with --jobs above 1 start worker processes
        loaded_pool = "print('concurrent.futures.process' in sys.modules)"
        assert self._run("import sys, forgesim.cli; " + loaded_pool) == "False"
        argv = ["gof", yule_sample_file, "--bootstrap", "100", "--seed", "1", "--jobs", "1",
                "--output-dir", str(tmp_path / "gof")]
        code = f"import sys; from forgesim.cli import main\nassert main({argv!r}) == 0\n"
        assert self._run(code + loaded_pool) == "False"

    def test_commands_load_no_scipy(self, yule_sample_file, tmp_path):
        runs = [["fit", yule_sample_file],
                ["gof", yule_sample_file, "--bootstrap", "100", "--seed", "1", "--jobs", "1"],
                ["em", yule_sample_file],
                ["rateeq", "--p0", "0.5", "--steps", "100"],
                ["simulate", "--p0", "0.5", "--steps", "100", "--seed", "1"],
                ["analyze", FIXTURE],
                ["p0", FIXTURE]]
        code = "import sys; from forgesim.cli import main\n" + "".join(
            f"assert main({argv + ['--output-dir', str(tmp_path / argv[0])]!r}) == 0\n"
            for argv in runs) + self.LOADED_SCIPY
        assert self._run(code) == "[]"
