"""The chaos soak: durability invariant + reproducible reports.

Short horizons keep these CI-friendly; the full-length multi-seed run is
the harness's ``chaos`` subcommand (CI's ``experiments`` job runs it).
"""

import json

import pytest

from repro.harness.__main__ import main
from repro.harness.chaos import SPEC, SoakConfig
from repro.harness.experiment import run


def run_soak(config):
    return run(SPEC, config)


def _config(**overrides):
    base = dict(seed=5, duration=0.5)
    base.update(overrides)
    return SoakConfig(**base)


class TestDurabilityInvariant:
    def test_no_violations_under_all_faults(self):
        report = run_soak(_config())
        assert report["ok"], report["violations"]
        assert report["violations"] == {
            "lost_writes": [],
            "wrong_bytes": [],
        }
        assert report["ops"]["set_acks"] > 0
        assert report["fault_log_entries"] > 0

    @pytest.mark.parametrize(
        "scheme", ["era-ce-cd", "era-se-cd", "era-se-sd"]
    )
    def test_every_era_scheme_survives(self, scheme):
        report = run_soak(_config(scheme=scheme))
        assert report["ok"], (scheme, report["violations"])

    def test_faults_actually_injected(self):
        report = run_soak(_config())
        assert sum(report["faults_injected"].values()) > 0

    def test_quiet_profile_runs_clean(self):
        report = run_soak(_config(fault_profile="none"))
        assert report["ok"]
        assert sum(report["faults_injected"].values()) == 0
        assert report["ops"]["set_failures"] == 0
        assert report["ops"]["unavailable"] == 0


class TestDeterminism:
    def test_same_seed_identical_digest(self):
        first = run_soak(_config())
        second = run_soak(_config())
        assert first["digest"] == second["digest"]
        assert first["ops"] == second["ops"]
        assert first["faults_injected"] == second["faults_injected"]

    def test_different_seed_different_digest(self):
        assert (
            run_soak(_config(seed=5))["digest"]
            != run_soak(_config(seed=6))["digest"]
        )


class TestReportShape:
    def test_report_is_json_serializable(self):
        report = run_soak(_config(duration=0.25))
        json.dumps(report)  # must not raise
        assert report["params"]["seed"] == 5
        assert "latency" in report
        assert report["virtual_time"] > 0

    def test_latency_percentiles_present(self):
        report = run_soak(_config())
        summary = report["latency"]["set"]
        assert summary is not None
        assert summary["p50_us"] <= summary["p95_us"] <= summary["p99_us"]

    def test_suite_aggregates_verdict(self, tmp_path, capsys):
        path = tmp_path / "chaos.json"
        argv = ["chaos", "--seeds", "1,2", "--duration", "0.25"]
        assert main(argv + ["--report", str(path)]) == 0
        capsys.readouterr()
        suite = json.loads(path.read_text())
        assert suite["ok"]
        assert [r["params"]["seed"] for r in suite["reports"]] == [1, 2]
        assert (
            suite["reports"][0]["digest"] != suite["reports"][1]["digest"]
        )
