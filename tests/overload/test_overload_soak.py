"""The overload ramp soak: contrast gates and determinism.

One seeded contrast run (protection on and off over the identical
issuance schedule) is the expensive end-to-end check: protected traffic
must recover its goodput after the ramp, unprotected traffic must
demonstrably not, and nobody may lose a request silently.
"""

import pytest

from repro.harness.experiment import digest_of, run
from repro.harness.overload import SPEC, OverloadConfig

from ..harness.golden import GOLDEN

SEED = 1
#: the keys ``run`` stamps on a report beside the runner's blocks
STAMPED = ("name", "params", "claims", "ok", "digest")
GOODPUT = "overload.goodput_recovers_after_the_ramp"
RESOLVED = "overload.every_op_resolves_to_a_typed_result"


@pytest.fixture(scope="module")
def suite():
    return {
        "reports": [run(SPEC, OverloadConfig(seed=SEED), contrast=True)]
    }


class TestContrastGates:
    def test_suite_passes_with_contrast(self, suite):
        (report,) = suite["reports"]
        assert report["ok"]
        assert report["params"]["seed"] == SEED

    def test_protected_run_clears_both_gates(self, suite):
        report = suite["reports"][0]
        assert report["claims"][GOODPUT]
        assert report["claims"][RESOLVED]
        assert report["goodput_ratio"] >= report["goodput_floor"]

    def test_unprotected_run_fails_the_goodput_gate(self, suite):
        bare = suite["reports"][0]["unprotected"]
        assert not bare["claims"][GOODPUT]
        # shedding is the difference, not bookkeeping: even the collapsed
        # run accounts for every operation it issued
        assert bare["claims"][RESOLVED]

    def test_protection_machinery_actually_engaged(self, suite):
        protection = suite["reports"][0]["protection"]
        assert protection["enabled"]
        assert protection["server_busy_rejects"] > 0
        assert protection["breaker_fast_fails"] > 0
        assert protection["brownout_transitions"]
        assert protection["aimd"]["shrinks"] > 0
        assert protection["cancels_sent"] > 0

    def test_ramp_phase_sheds_rather_than_queues(self, suite):
        phases = suite["reports"][0]["phases"]
        # during the flood the typed-busy answer dominates silence
        assert phases["ramp"]["busy_rejected"] > 0
        assert phases["ramp"]["issued"] > phases["warm"]["issued"]


def _blocks(report):
    return {key: value for key, value in report.items() if key not in STAMPED}


class TestDeterminism:
    def test_same_seed_same_digest(self, suite):
        """The protected run alone reproduces the contrast report's
        blocks but the unprotected one."""
        fresh = run(SPEC, OverloadConfig(seed=SEED, protection=True))
        blocks = _blocks(suite["reports"][0])
        del blocks["unprotected"]
        assert fresh["digest"] == digest_of(blocks)

    def test_protected_digest_covers_the_unprotected_digest(self, suite):
        report = suite["reports"][0]
        blocks = _blocks(report)
        assert digest_of(blocks) == report["digest"]
        blocks["unprotected"] = dict(blocks["unprotected"], digest="0" * 64)
        assert digest_of(blocks) != report["digest"]

    def test_digests_match_the_recorded_contract(self, suite):
        """Seed 1, the first run of the golden record's overload leg."""
        golden = GOLDEN["overload"]
        assert golden["args"].startswith("overload --seeds %d," % SEED)
        assert suite["reports"][0]["digest"] == golden["digests"][0]
