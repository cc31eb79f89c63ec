"""Report digests are a contract: every command line pinned in
``golden_digests.json`` must keep reproducing its recorded digests.
CI's ``experiments`` matrix is the record's own leg list
(``golden.py --matrix``), so every leg runs there; tier-1 runs the
cheap soak legs here and the cheap figures in ``test_figures.py``."""

import json
import subprocess
import sys

import pytest

from repro.harness.__main__ import main

from .golden import GOLDEN, PATH, mismatches

#: the cheap soak legs tier-1 runs against the golden record
CHEAP_LEGS = (
    "chaos", "chaos-se-sd", "scale", "stripes", "stripes-all", "scrub",
    "gossip32",
)


@pytest.mark.parametrize("leg", CHEAP_LEGS)
def test_ci_command_reproduces_recorded_digests(leg, tmp_path, capsys):
    report_path = tmp_path / "report.json"
    argv = GOLDEN[leg]["args"].split() + ["--report", str(report_path)]
    assert main(argv) == 0
    capsys.readouterr()
    assert mismatches(leg, json.loads(report_path.read_text())) == []


def test_matrix_names_every_leg_with_its_recorded_args():
    printed = subprocess.run(
        [sys.executable, str(PATH.with_name("golden.py")), "--matrix"],
        check=True, capture_output=True, text=True,
    ).stdout
    legs = {leg["name"]: leg["args"] for leg in json.loads(printed)}
    assert legs == {name: entry["args"] for name, entry in GOLDEN.items()}
