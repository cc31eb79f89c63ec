"""The stripe-packing soak: overhead gate, delete durability, determinism."""

import pytest

from repro.harness.stripes import (
    COMPARISON_SCHEMES,
    StripesSoakConfig,
    run_stripes,
    run_stripes_suite,
)

QUICK = StripesSoakConfig(objects=160, duration=0.3, key_space=32)


@pytest.fixture(scope="module")
def report():
    return run_stripes(QUICK)


class TestComparisonPhase:
    def test_all_schemes_measured(self, report):
        assert set(report["comparison"]) == set(COMPARISON_SCHEMES)
        for row in report["comparison"].values():
            assert row["set_acks"] == QUICK.objects
            assert row["get_ok"] == QUICK.objects
            assert row["memory_overhead_ratio"] > 1.0
            assert row["goodput_ops_per_sec"] > 0

    def test_overhead_gate_holds(self, report):
        """Packing at least halves per-object coding's overhead (the
        acceptance headline) and beats replication outright."""
        gates = report["gates"]
        assert gates["overhead_ok"]
        assert gates["per_object_overhead"] >= 2 * gates["stripes_overhead"]
        stripes = report["comparison"]["stripes"]["memory_overhead_ratio"]
        rep = report["comparison"]["sync-rep"]["memory_overhead_ratio"]
        assert stripes < rep


class TestChaosPhase:
    def test_durability_holds(self, report):
        assert report["gates"]["durability_ok"]
        assert report["ok"]
        for entries in report["violations"].values():
            assert entries == []

    def test_mix_exercises_the_stripe_lifecycle(self, report):
        """Deletes, overwrites, sealing and compaction all actually ran."""
        ops = report["ops"]
        assert ops["delete_attempts"] > 0
        assert ops["set_acks"] > 0
        assert ops["get_attempts"] > 0
        metrics = report["stripe_metrics"]
        assert metrics["stripes.sealed"] > 0
        assert metrics["stripes.compactions"] > 0
        assert metrics["stripes.slice_reads"] > 0
        assert report["fault_log_entries"] > 0


class TestDeterminism:
    def test_same_seed_same_digest(self):
        suite_a = run_stripes_suite([5], QUICK)
        suite_b = run_stripes_suite([5], QUICK)
        assert suite_a["ok"] and suite_b["ok"]
        assert (
            suite_a["reports"][0]["digest"] == suite_b["reports"][0]["digest"]
        )

    def test_different_seeds_diverge(self):
        suite = run_stripes_suite([6, 7], QUICK)
        assert suite["ok"]
        digests = {r["digest"] for r in suite["reports"]}
        assert len(digests) == 2
