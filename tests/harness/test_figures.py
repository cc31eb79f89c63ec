"""The experiment table: complete, its quick claims hold, its digests pinned.

The YCSB and scale-out specs take ~28 s each; CI's ``experiments`` job
runs them (and every other entry of the golden record) against the
same golden digests.
"""

import dataclasses
import json
import pathlib
import re

import pytest

import repro.harness as harness
from repro.harness import EXPERIMENTS, Claim
from repro.harness.__main__ import main

from .golden import GOLDEN, mismatches

EXPERIMENTS_MD = pathlib.Path(__file__).parents[2] / "EXPERIMENTS.md"

CI_ONLY = ("fig11-12", "scaleout")
#: the figures (pinned by their bare name) tier-1 runs
TIER1_FIGURES = [
    name for name, entry in GOLDEN.items()
    if entry["args"] == name and name not in CI_ONLY
]
CITATION = re.compile(r"(Fig\. \d+(\([a-c]\))?|Section [IVX]+(-[A-D])?)$")


def claim_names():
    return [claim.name for spec in EXPERIMENTS for claim in spec.claims]


def test_table_is_complete():
    assert len({spec.name for spec in EXPERIMENTS}) == len(EXPERIMENTS)
    assert len(set(claim_names())) == len(claim_names())
    for spec in EXPERIMENTS:
        assert spec.claims, spec.name
        for claim in spec.claims:
            assert CITATION.match(claim.cites), (claim.name, claim.cites)
    # every experiment has a pinned command line
    assert {entry["args"].split()[0] for entry in GOLDEN.values()} == {
        spec.name for spec in EXPERIMENTS
    }


@pytest.mark.parametrize("name", TIER1_FIGURES)
def test_quick_claims_hold_and_digest_is_pinned(name, tmp_path, capsys):
    path = tmp_path / "report.json"
    assert main(GOLDEN[name]["args"].split() + ["--report", str(path)]) == 0
    assert "FAIL" not in capsys.readouterr().out
    result = json.loads(path.read_text())
    (report,) = result["reports"]
    spec = next(spec for spec in EXPERIMENTS if spec.name == name)
    assert report["claims"] == {claim.name: True for claim in spec.claims}
    assert mismatches(name, result) == []


@pytest.mark.parametrize(
    "argv, false_claim",
    [
        (["fig4"], Claim("fig4a.deliberately_false", "Fig. 4(a)",
                         lambda report: False)),
        (["gossip", "--servers", "32", "--seeds", "0"],
         Claim("gossip.deliberately_false", "Section VIII",
               lambda report: False)),
    ],
    ids=["fig4", "gossip"],
)
def test_a_failing_claim_exits_1(argv, false_claim, monkeypatch, capsys):
    table = list(EXPERIMENTS)
    index = [spec.name for spec in table].index(argv[0])
    spec = table[index]
    table[index] = dataclasses.replace(
        spec, claims=spec.claims + (false_claim,)
    )
    monkeypatch.setattr(harness, "EXPERIMENTS", tuple(table))
    assert main(argv) == 1
    out = capsys.readouterr().out
    assert "FAIL  %s  (%s)" % (false_claim.name, false_claim.cites) in out
    assert "PASS  %s" % spec.claims[0].name in out


def test_experiments_md_reports_every_claim():
    """Each ✅/⚠ line of EXPERIMENTS.md starts with the claim it reports."""
    reported = [
        re.match(r"- [✅⚠] `([^`]+)`", line).group(1)
        for line in EXPERIMENTS_MD.read_text().splitlines()
        if line.startswith(("- ✅", "- ⚠"))
    ]
    assert len(reported) == len(set(reported))
    assert set(reported) == set(claim_names())
