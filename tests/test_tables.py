"""Tests for repro.util.tables."""

import pytest

from repro.util.tables import Table, bar_chart


class TestTable:
    def test_renders_headers_and_rows(self):
        t = Table(["chip", "TDP (W)"])
        t.add_row(["TPUv4i", 175])
        out = t.render()
        assert "chip" in out and "TPUv4i" in out and "175" in out

    def test_row_length_checked(self):
        t = Table(["a", "b"])
        with pytest.raises(ValueError):
            t.add_row([1])

    def test_float_formatting(self):
        t = Table(["x"])
        t.add_row([3.14159265])
        assert "3.142" in t.render()

    def test_bool_formatting(self):
        t = Table(["ok"])
        t.add_row([True])
        t.add_row([False])
        out = t.render()
        assert "yes" in out and "no" in out

    def test_title_first_line(self):
        t = Table(["a"], title="Table 1")
        t.add_row([1])
        assert t.render().splitlines()[0] == "Table 1"

    def test_alignment_columns_line_up(self):
        t = Table(["name", "v"])
        t.add_row(["x", 1])
        t.add_row(["longer", 100])
        lines = t.render().splitlines()
        assert len({len(l) for l in lines}) == 1  # all same width

    def test_empty_headers_rejected(self):
        with pytest.raises(ValueError):
            Table([])


class TestBarChart:
    def test_longest_bar_has_full_width(self):
        out = bar_chart(["a", "b"], [1.0, 2.0], width=10)
        lines = out.splitlines()
        assert lines[1].count("#") == 10
        assert lines[0].count("#") == 5

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            bar_chart(["a"], [-1.0])

    def test_rejects_mismatch(self):
        with pytest.raises(ValueError):
            bar_chart(["a"], [1.0, 2.0])

    def test_zero_values_ok(self):
        out = bar_chart(["a"], [0.0])
        assert "#" not in out

    def test_unit_suffix(self):
        out = bar_chart(["a"], [2.0], unit="TOPS")
        assert "TOPS" in out
