"""The stripe-packing soak: overhead gate, delete durability, determinism."""

import dataclasses

import pytest

from repro.harness.experiment import run
from repro.harness.stripes import (
    COMPARISON_SCHEMES,
    SPEC,
    StripesSoakConfig,
)

QUICK = StripesSoakConfig(objects=160, duration=0.3, key_space=32)


def run_seeds(seeds):
    return [run(SPEC, dataclasses.replace(QUICK, seed=seed)) for seed in seeds]


@pytest.fixture(scope="module")
def report():
    return run(SPEC, QUICK)


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
        claim = "stripes.overhead_at_most_half_of_per_object_coding"
        assert report["claims"][claim]
        overhead = report["overhead"]
        assert overhead["per_object"] >= 2 * overhead["stripes"]
        stripes = report["comparison"]["stripes"]["memory_overhead_ratio"]
        rep = report["comparison"]["sync-rep"]["memory_overhead_ratio"]
        assert stripes < rep


class TestChaosPhase:
    def test_durability_holds(self, report):
        assert report["claims"]["stripes.durability"]
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
        (first,) = run_seeds([5])
        (second,) = run_seeds([5])
        assert first["ok"] and second["ok"]
        assert first["digest"] == second["digest"]

    def test_different_seeds_diverge(self):
        reports = run_seeds([6, 7])
        assert all(r["ok"] for r in reports)
        digests = {r["digest"] for r in reports}
        assert len(digests) == 2
