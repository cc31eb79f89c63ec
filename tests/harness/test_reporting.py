"""Table rendering: ``format_table`` and a figure's per-part tables."""

import pytest

from repro.harness import format_table
from repro.harness.figures import _tables


class TestFormatTable:
    def test_alignment(self):
        text = format_table(["a", "long_header"], [[1, 2.5], [100, 0.001]])
        lines = text.splitlines()
        widths = {len(line) for line in lines}
        assert len(widths) == 1  # all rows padded to the same width

    def test_separator_row(self):
        text = format_table(["x"], [[1]])
        lines = text.splitlines()
        assert set(lines[1]) == {"-"}

    def test_float_formats(self):
        text = format_table(["v"], [[12345.6], [12.345], [0.00012]])
        assert "12346" in text
        assert "12.35" in text  # two decimals in the 1..1000 range
        assert "0.00012" in text

    def test_zero(self):
        assert "0" in format_table(["v"], [[0.0]])

    def test_strings_pass_through(self):
        text = format_table(["name"], [["era-ce-cd"]])
        assert "era-ce-cd" in text


def test_a_key_of_any_row_must_be_a_declared_column():
    rows = [{"part": "a", "x": 1}, {"part": "a", "x": 2, "stray": 3}]
    with pytest.raises(ValueError, match="stray"):
        _tables(("x",), {"rows": rows})
    assert _tables(("x", "stray"), {"rows": rows}).startswith("a\n")
