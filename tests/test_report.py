"""Tests of table formatting and run manifests."""

from forgesim.report import RunManifest, format_value, read_table, sha256_file, write_table


class TestFormatting:
    def test_twelve_significant_digits(self):
        assert format_value(1.0 / 3.0) == "0.333333333333"
        assert format_value(123456789.123456789) == "123456789.123"

    def test_integers_and_bools(self):
        assert format_value(42) == "42"
        assert format_value(True) == "1"
        assert format_value(False) == "0"

    def test_strings_pass_through(self):
        assert format_value("collaborative") == "collaborative"


class TestTables:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "t.csv"
        write_table(path, ["a", "b"], [(1, 0.5), (2, 0.25)], metadata={"seed": 7})
        metadata, header, rows = read_table(path)
        assert metadata == {"seed": "7"}
        assert header == ["a", "b"]
        assert rows == [["1", "0.5"], ["2", "0.25"]]

    def test_identical_content_identical_bytes(self, tmp_path):
        rows = [(1, 1.0 / 7.0), (2, 2.0 / 7.0)]
        a = write_table(tmp_path / "a.csv", ["x", "y"], rows)
        b = write_table(tmp_path / "b.csv", ["x", "y"], rows)
        assert a.read_bytes() == b.read_bytes()


class TestManifest:
    def test_written_fields(self, tmp_path):
        data = tmp_path / "input.csv"
        data.write_text("x\n1\n")
        manifest = RunManifest(command="fit", version="0.1.0", params={"seed": 3})
        manifest.add_input(data)
        manifest.outputs.append("fit.csv")
        out = manifest.write(tmp_path / "fit.manifest.txt")
        text = out.read_text()
        assert "command=fit" in text
        assert "param.seed=3" in text
        assert f"input.sha256.{data}={sha256_file(data)}" in text
        assert "output=fit.csv" in text
        assert "duration_s=" in text

    def test_none_is_empty_and_a_list_is_joined_in_order(self, tmp_path):
        params = {"gap_mask": None, "record_at": [300, 5, 100], "alpha": 1.5, "exact": True,
                  "one": [0.1]}
        manifest = RunManifest(command="rateeq", version="0.1.0", params=params)
        lines = manifest.write(tmp_path / "m.txt").read_text().splitlines()
        assert [line for line in lines if line.startswith("param.")] == [
            "param.alpha=1.5", "param.exact=1", "param.gap_mask=", "param.one=0.1",
            "param.record_at=300,5,100",
        ]
