"""Report digests are a contract: the CI soak commands must keep
producing the digests recorded on the commit before the soak kernel
existed (``golden_digests.json``; the two slow legs are checked by the
overload soak test and the CI matrix instead)."""

import json
import pathlib

import pytest

from repro.harness.__main__ import main

GOLDEN = json.loads(
    (pathlib.Path(__file__).parent / "golden_digests.json").read_text()
)["legs"]

CHEAP_LEGS = ("chaos", "chaos-se-sd", "scale", "stripes", "scrub", "gossip32")


@pytest.mark.parametrize("leg", CHEAP_LEGS)
def test_ci_command_reproduces_recorded_digests(leg, tmp_path, capsys):
    golden = GOLDEN[leg]
    report_path = tmp_path / "report.json"
    assert main(golden["args"].split() + ["--report", str(report_path)]) == 0
    capsys.readouterr()
    reports = json.loads(report_path.read_text())["reports"]
    assert {
        str(r["config"]["seed"]): r["digest"] for r in reports
    } == golden["digests"]
    if "plan_digests" in golden:
        assert {
            str(r["config"]["seed"]): [
                t["plan"]["digest"] for t in r["transitions"]
            ]
            for r in reports
        } == golden["plan_digests"]
