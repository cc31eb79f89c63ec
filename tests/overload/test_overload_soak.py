"""The overload ramp soak: contrast gates and determinism.

One seeded contrast run (protection on and off over the identical
issuance schedule) is the expensive end-to-end check: protected traffic
must recover its goodput after the ramp, unprotected traffic must
demonstrably not, and nobody may lose a request silently.
"""

import json
import pathlib

import pytest

from repro.harness.overload import (
    OverloadConfig,
    run_overload,
    run_overload_suite,
)

SEED = 1


@pytest.fixture(scope="module")
def suite():
    return run_overload_suite([SEED], contrast=True)


class TestContrastGates:
    def test_suite_passes_with_contrast(self, suite):
        assert suite["ok"]
        assert suite["seeds"] == [SEED]

    def test_protected_run_clears_both_gates(self, suite):
        report = suite["reports"][0]
        assert report["gates"]["goodput_ok"]
        assert report["gates"]["silent_ok"]
        assert report["gates"]["goodput_ratio"] >= report["gates"][
            "goodput_floor"
        ]

    def test_unprotected_run_fails_the_goodput_gate(self, suite):
        bare = suite["reports"][0]["unprotected"]
        assert not bare["gates"]["goodput_ok"]
        # shedding is the difference, not bookkeeping: even the collapsed
        # run accounts for every operation it issued
        assert bare["gates"]["silent_ok"]

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


class TestDeterminism:
    def test_same_seed_same_digest(self, suite):
        fresh = run_overload(OverloadConfig(seed=SEED, protection=True))
        assert fresh["digest"] == suite["reports"][0]["digest"]

    def test_digests_match_the_recorded_contract(self, suite):
        """The overload leg of ``tests/harness/golden_digests.json``."""
        golden = json.loads(
            (
                pathlib.Path(__file__).parents[1]
                / "harness"
                / "golden_digests.json"
            ).read_text()
        )["legs"]["overload"]
        report = suite["reports"][0]
        assert report["digest"] == golden["digests"][str(SEED)]
        assert (
            report["unprotected"]["digest"]
            == golden["unprotected_digests"][str(SEED)]
        )
