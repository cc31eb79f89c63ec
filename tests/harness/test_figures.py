"""The figure table: complete, its quick claims hold, its digests pinned.

The YCSB and scale-out specs take ~28 s each; CI's ``figures`` job runs
them (and every other spec) against the same golden digests.
"""

import dataclasses
import json
import pathlib
import re

import pytest

from repro.harness import FIGURES, Claim, figures
from repro.harness.__main__ import main

HERE = pathlib.Path(__file__).parent
GOLDEN = json.loads((HERE / "golden_digests.json").read_text())["figures"]
EXPERIMENTS_MD = HERE.parent.parent / "EXPERIMENTS.md"

CI_ONLY = ("fig11-12", "scaleout")
CITATION = re.compile(r"(Fig\. \d+(\([a-c]\))?|Section [IVX]+(-[A-D])?)$")


def claim_names():
    return [claim.name for spec in FIGURES for claim in spec.claims]


def test_table_is_complete():
    assert len({spec.name for spec in FIGURES}) == len(FIGURES)
    assert len(set(claim_names())) == len(claim_names())
    for spec in FIGURES:
        assert spec.claims, spec.name
        for claim in spec.claims:
            assert CITATION.match(claim.cites), (claim.name, claim.cites)
    assert set(GOLDEN) == {spec.name for spec in FIGURES}


@pytest.mark.parametrize(
    "spec", [s for s in FIGURES if s.name not in CI_ONLY], ids=lambda s: s.name
)
def test_quick_claims_hold_and_digest_is_pinned(spec, tmp_path, capsys):
    path = tmp_path / "report.json"
    assert main([spec.name, "--report", str(path)]) == 0
    assert "FAIL" not in capsys.readouterr().out
    report = json.loads(path.read_text())
    assert report["claims"] == {claim.name: True for claim in spec.claims}
    assert all(set(row) <= set(spec.columns) for row in report["rows"])
    assert report["digest"] == GOLDEN[spec.name]


def test_a_failing_claim_exits_1(monkeypatch, capsys):
    fig4 = FIGURES[0]
    false = Claim("fig4a.deliberately_false", "Fig. 4(a)", lambda rows: False)
    broken = dataclasses.replace(fig4, claims=fig4.claims + (false,))
    monkeypatch.setattr(figures, "FIGURES", (broken,) + FIGURES[1:])
    assert main(["fig4"]) == 1
    out = capsys.readouterr().out
    assert "FAIL  fig4a.deliberately_false  (Fig. 4(a))" in out
    assert "PASS  fig4a.rs_van_fastest_encode_512b_to_1mib" in out


def test_experiments_md_reports_every_claim():
    """Each ✅/⚠ line of EXPERIMENTS.md starts with the claim it reports."""
    reported = [
        re.match(r"- [✅⚠] `([^`]+)`", line).group(1)
        for line in EXPERIMENTS_MD.read_text().splitlines()
        if line.startswith(("- ✅", "- ⚠"))
    ]
    assert len(reported) == len(set(reported))
    assert set(reported) == set(claim_names())

