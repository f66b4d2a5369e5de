"""Unit tests for the experiment reporting helpers."""

import pytest

from repro.experiments.reporting import (
    ExperimentReport,
    ascii_bar,
    format_cell,
    format_table,
    histogram_rows,
)


class TestFormatting:
    def test_format_cell_float(self):
        assert format_cell(1.23456) == "1.235"

    def test_format_cell_bool(self):
        assert format_cell(True) == "yes"
        assert format_cell(False) == "no"

    def test_format_cell_other(self):
        assert format_cell("abc") == "abc"
        assert format_cell(7) == "7"

    def test_format_table_aligns_columns(self):
        table = format_table(["a", "long header"], [[1, 2], [333, 4]])
        lines = table.splitlines()
        assert lines[0].startswith("a")
        assert "---" in lines[1]
        assert len(lines) == 4

    def test_format_table_handles_extra_columns_in_rows(self):
        table = format_table(["a"], [[1, 2, 3]])
        assert "3" in table


class TestAsciiBarAndHistogram:
    def test_ascii_bar_scales(self):
        assert ascii_bar(5, 10, width=10) == "#####"
        assert ascii_bar(0, 10, width=10) == ""
        assert ascii_bar(10, 10, width=10) == "#" * 10

    def test_ascii_bar_with_zero_maximum(self):
        assert ascii_bar(3, 0) == ""

    def test_histogram_rows_bucketing(self):
        rows = histogram_rows([1.0, 1.5, 2.5, 10.0], [1, 2, 5, 10])
        assert [row[:2] for row in rows] == [
            ["[1, 2)", 2], ["[2, 5)", 1], ["[5, 10)", 0], ["[10, inf)", 1]
        ]

    def test_histogram_values_beyond_last_edge_land_in_last_bin(self):
        rows = histogram_rows([100.0], [1, 2, 5])
        assert rows[-1][:2] == ["[5, inf)", 1]

    def test_histogram_out_of_range_values_get_rows_whose_labels_hold_them(self):
        rows = histogram_rows([0.5, 2.0, 5.0], [1, 2, 5])
        assert [row[:2] for row in rows] == [["[-inf, 1)", 1], ["[1, 2)", 0], ["[2, 5)", 1], ["[5, inf)", 1]]

    def test_histogram_requires_two_edges(self):
        with pytest.raises(ValueError):
            histogram_rows([1.0], [1])


class TestExperimentReport:
    def make_report(self) -> ExperimentReport:
        return ExperimentReport(
            experiment="table2",
            title="demo",
            headers=["a", "b"],
            rows=[[1, 2.5]],
            summary={"mean": 1.5},
            notes=["a note"],
        )

    def test_render_contains_everything(self):
        text = self.make_report().render()
        assert "table2" in text and "demo" in text
        assert "2.500" in text
        assert "mean: 1.500" in text
        assert "note: a note" in text

    def test_render_without_rows(self):
        report = ExperimentReport(experiment="x", title="t", headers=["h"])
        assert "x: t" in report.render()

    def test_as_dict_roundtrip_shape(self):
        data = self.make_report().as_dict()
        assert data["experiment"] == "table2"
        assert data["rows"] == [[1, 2.5]]
        assert data["summary"] == {"mean": 1.5}
        assert data["notes"] == ["a note"]
