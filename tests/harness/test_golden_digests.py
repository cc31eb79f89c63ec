"""Report digests are a contract: every command line pinned in
``golden_digests.json`` must keep reproducing its recorded digests, and
every pinned line must actually run somewhere — in CI's
``experiments`` matrix, or in tier-1 here and in ``test_figures.py``."""

import json
import pathlib
import re

import pytest

from repro.harness.__main__ import main

from .golden import GOLDEN, mismatches
from .test_figures import TIER1_FIGURES

CI_YML = pathlib.Path(__file__).parents[2] / ".github" / "workflows" / "ci.yml"
#: the cheap soak legs tier-1 runs against the golden record
CHEAP_LEGS = ("chaos", "chaos-se-sd", "scale", "stripes", "scrub", "gossip32")


def ci_matrix() -> dict:
    """The ``experiments`` job's matrix: name -> args."""
    return dict(
        re.findall(r"- name: (\S+)\n\s+args: (.+)", CI_YML.read_text())
    )


@pytest.mark.parametrize("leg", CHEAP_LEGS)
def test_ci_command_reproduces_recorded_digests(leg, tmp_path, capsys):
    report_path = tmp_path / "report.json"
    argv = GOLDEN[leg]["args"].split() + ["--report", str(report_path)]
    assert main(argv) == 0
    capsys.readouterr()
    assert mismatches(leg, json.loads(report_path.read_text())) == []


def test_ci_args_equal_the_golden_args():
    matrix = ci_matrix()
    assert matrix
    for name, args in matrix.items():
        assert args == GOLDEN[name]["args"], name


def test_every_golden_entry_is_run_somewhere():
    """A pinned command line that neither CI nor tier-1 runs pins
    nothing."""
    run = set(ci_matrix()) | set(TIER1_FIGURES) | set(CHEAP_LEGS)
    assert set(GOLDEN) <= run, set(GOLDEN) - run
