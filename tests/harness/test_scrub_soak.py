"""The scrub soak: gate wiring, scrubber activity, determinism."""

import dataclasses

import pytest

from repro.harness.experiment import run
from repro.harness.scrub import SPEC, ScrubSoakConfig

QUICK = ScrubSoakConfig(duration=1.0, seed=0)


def run_seeds(seeds, config):
    return [
        run(SPEC, dataclasses.replace(config, seed=seed)) for seed in seeds
    ]


@pytest.fixture(scope="module")
def report():
    return run(SPEC, QUICK)


class TestGates:
    def test_all_gates_hold(self, report):
        assert report["ok"]
        assert set(report["claims"]) == {
            "scrub.rot_detected_in_bound",
            "scrub.no_data_loss",
            "scrub.certificates_honest",
            "scrub.foreground_p99_within_limit",
        }
        for name, passed in report["claims"].items():
            assert passed, name
        for entries in report["violations"].values():
            assert entries == []

    def test_rot_was_actually_injected_and_scrubbed(self, report):
        assert report["rot_injected"] > 0
        scrub = report["scrub"]
        assert scrub["chunks_verified"] > 0
        assert scrub["passes"] > 0
        # the lazy workload leaves most rot to the scrubber
        assert scrub["corrupt_found"] > 0
        assert scrub["repairs_triggered"] >= scrub["corrupt_found"]
        assert scrub["time_to_detect"]["count"] == scrub["corrupt_found"]
        assert scrub["time_to_detect"]["max"] <= scrub["ttd_bound"]
        assert scrub["time_to_heal"]["count"] > 0

    def test_audits_certify_against_ground_truth(self, report):
        scrub = report["scrub"]
        assert scrub["audits"]
        assert scrub["audits_certified"] == len(scrub["audits"])
        first = scrub["audits"][0]
        assert first["samples"] == 44  # required_samples(1e-2, 0.1)
        assert first["epsilon_achieved"] <= first["epsilon_target"]

    def test_p99_ratio_computed_from_baseline(self, report):
        assert report["baseline_get_latency"] is not None
        assert report["p99_ratio"] is not None
        assert report["p99_ratio"] <= QUICK.p99_ratio_limit


class TestDeterminism:
    def test_same_seed_same_digest(self):
        config = ScrubSoakConfig(duration=0.6, baseline=False)
        (first,) = run_seeds([3], config)
        (second,) = run_seeds([3], config)
        assert first["ok"] and second["ok"]
        assert first["digest"] == second["digest"]

    def test_different_seeds_diverge(self):
        config = ScrubSoakConfig(duration=0.6, baseline=False)
        reports = run_seeds([4, 5], config)
        assert all(r["ok"] for r in reports)
        digests = {r["digest"] for r in reports}
        assert len(digests) == 2
