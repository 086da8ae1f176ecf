"""End-to-end tests of the command-line surface and its exit codes."""

import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from forgesim.cli import main
from forgesim.report import read_table

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
        for name in ("summary.csv", "entry_exit.csv", "entry_rate_quantiles.csv"):
            assert table_bytes(out / name) == table_bytes(DATA / "golden" / name), name

    def test_month_range_restriction(self, tmp_path):
        out = tmp_path / "an"
        assert main(["analyze", FIXTURE, "--months", "24:26", "--output-dir", str(out)]) == 0
        _, _, rows = read_table(out / "summary.csv")
        assert [r[0] for r in rows] == ["24", "25", "26"]

    @pytest.mark.parametrize("months", ["1_0:2_0", "\uff12\uff14:26", "24", "24:x", "26:24"])
    def test_month_range_outside_the_month_rule_exits_2(self, tmp_path, capsys, months):
        out = tmp_path / "an"
        assert main(["analyze", FIXTURE, "--months", months, "--output-dir", str(out)]) == 2
        assert "bad month range" in capsys.readouterr().err
        assert not out.exists()

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

    def test_nonconvergence_exits_4_with_partial_output(self, yule_sample_file, tmp_path):
        out = tmp_path / "em"
        code = main(["em", yule_sample_file, "--max-iterations", "1",
                     "--output-dir", str(out)])
        assert code == 4
        _, header, rows = read_table(out / "em.csv")  # partial results written
        assert rows[0][header.index("converged")] == "0"


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


_INTEGER_FLAGS = [
    (["simulate", "--p0", "0.5", "--steps", "10", "--seed", "1"],
     ["--steps", "--replicas", "--seed", "--checkpoint-at", "--jobs"]),
    (["fit", FIXTURE], ["--month", "--checkpoint"]),
    (["gof", FIXTURE, "--seed", "1"], ["--bootstrap", "--seed", "--jobs"]),
    (["em", FIXTURE], ["--max-iterations"]),
    (["rateeq", "--p0", "0.5", "--steps", "10"], ["--steps", "--x-trunc", "--record-at"]),
]


class TestIntegerFlags:
    @pytest.mark.parametrize("base, flag", [(b, f) for b, flags in _INTEGER_FLAGS for f in flags])
    @pytest.mark.parametrize("value", ["1_0", "１０", "10.0", " 10", ""])
    def test_only_ascii_integers_accepted(self, base, flag, value, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(base + [flag, value, "--output-dir", str(tmp_path)])
        assert exc.value.code == 2
        assert f"argument {flag}: invalid integer value" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["5_2_2", "５２２"])
    def test_month_lookalikes_exit_2(self, value, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["fit", FIXTURE, "--month", value, "--output-dir", str(tmp_path)])
        assert exc.value.code == 2
        assert not (tmp_path / "fit.csv").exists()

    @pytest.mark.parametrize("base", [b for b, flags in _INTEGER_FLAGS if "--jobs" in flags])
    @pytest.mark.parametrize("value", ["0", "-3", "+0", "-0"])
    def test_jobs_below_one_exit_2(self, base, value, tmp_path, capsys):
        out = tmp_path / "o"
        with pytest.raises(SystemExit) as exc:
            main(base + ["--jobs", value, "--output-dir", str(out)])
        assert exc.value.code == 2
        assert "argument --jobs: must be >= 1" in capsys.readouterr().err
        assert not out.exists()

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
    def test_cli_import_skips_scipy_optimize_and_stats(self):
        # both are slow to import and no command needs them at start-up
        code = ("import sys, forgesim.cli; "
                "print(sorted(m for m in ('scipy.optimize', 'scipy.stats') if m in sys.modules))")
        src = str(Path(__file__).resolve().parent.parent / "src")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True, env={"PYTHONPATH": src}, timeout=120)
        assert out.stdout.strip() == "[]"
