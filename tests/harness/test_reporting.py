"""Reports: the digest rule, ``format_table`` and a figure's per-part
tables."""

import copy
import dataclasses

import pytest

from repro.harness import format_table
from repro.harness.experiment import Claim, Experiment, run
from repro.harness.figures import _tables


@dataclasses.dataclass
class ToyConfig:
    seed: int = 0
    size: int = 3


TOY_BLOCKS = {
    "value": 2,
    "rows": [{"x": 1}],
    "events": [[0.5, "soak.phase", {"label": "start"}]],
    "resources": {"wall_seconds": 0.25},
}


def _toy_report(blocks, config=ToyConfig()):
    spec = Experiment(
        name="toy",
        title="toy",
        params=ToyConfig,
        runner=lambda params: copy.deepcopy(blocks),
        render=str,
        claims=(Claim("toy.value_positive", "none",
                      lambda report: report["value"] > 0),),
    )
    return run(spec, config)


class TestTheDigestIsTheReport:
    @pytest.mark.parametrize("block, edit", [
        ("value", 3), ("rows", [{"x": 2}]), ("events", []),
    ])
    def test_changing_any_returned_block_moves_the_digest(self, block, edit):
        changed = dict(TOY_BLOCKS, **{block: edit})
        assert _toy_report(changed)["digest"] != _toy_report(TOY_BLOCKS)["digest"]

    def test_changing_resources_does_not(self):
        changed = dict(TOY_BLOCKS, resources={"wall_seconds": 9.0})
        assert _toy_report(changed)["digest"] == _toy_report(TOY_BLOCKS)["digest"]

    def test_params_is_the_whole_config(self):
        report = _toy_report(TOY_BLOCKS, ToyConfig(seed=4, size=9))
        assert report["params"] == {"seed": 4, "size": 9}
        assert report["claims"] == {"toy.value_positive": True}
        assert report["resources"] == TOY_BLOCKS["resources"]


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
