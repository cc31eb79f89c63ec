import json
import os
import re
import shutil
import subprocess
import sys
import time

import pytest

import measure
import run
from metrics import END_TO_END, PER_LAYER
from workloads import WORKLOADS

KV = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(os.path.dirname(KV))
RUN = os.path.join(KV, "run.py")
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
SMOKE = run.SMOKE


def _run(*args, cwd=ROOT, script=RUN):
    return subprocess.run(
        [sys.executable, script, *args], cwd=cwd, capture_output=True, text=True
    )


def _last_json(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def manifest():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def test_manifest_is_the_catalogue(manifest):
    assert manifest == run.manifest()


def test_manifest_names_and_counts(manifest):
    names = [w["name"] for w in manifest["workloads"]]
    names += [m["name"] for m in manifest["end_to_end"] + manifest["per_layer"]]
    assert all(NAME.match(name) for name in names)
    assert len(set(names)) == len(names)
    assert len(manifest["workloads"]) == 4
    assert len(manifest["end_to_end"]) == 15
    assert len(manifest["per_layer"]) <= 128
    assert any(
        m["name"] == "setup_s" and m["unit"] == "s" and m["better"] == "lower"
        for m in manifest["end_to_end"]
    )
    assert all(0 < m["bound"] <= 0.25 for m in manifest["end_to_end"])
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"]
               for w in manifest["workloads"])


def test_smoke_set_is_quick_and_complete(manifest, tmp_path):
    """Every workload and metric of the manifest is emitted, and nothing else."""
    out = tmp_path / "report.json"
    start = time.perf_counter()
    done = _run("--smoke", "--seed", "1", "--out", str(out))
    elapsed = time.perf_counter() - start
    assert done.returncode == 0, done.stderr
    assert elapsed < 20, "smoke set took %.1f s" % elapsed
    report = json.loads(out.read_text())
    workloads = [w["name"] for w in manifest["workloads"]]
    assert list(report["end_to_end"]) == workloads
    assert list(report["per_layer"]) == workloads
    for name in workloads:
        assert list(report["end_to_end"][name]["metrics"]) == [
            m["name"] for m in manifest["end_to_end"]]
        assert list(report["per_layer"][name]["metrics"]) == [
            m["name"] for m in manifest["per_layer"]]
        assert report["end_to_end"][name]["failed"] == 0
        for row in report["end_to_end"][name]["metrics"].values():
            assert row["value"] > 0


@pytest.mark.parametrize("trace", ["0", "1"])
def test_driver_contract_last_line(manifest, trace):
    done = _run("--workload", "ycsb_a_4k", "--seed", "5", "--seconds", "1",
                "--trace", trace, "--smoke")
    assert done.returncode == 0, done.stderr
    result = _last_json(done.stdout)
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True and result["attempted"] >= 1
    wanted = manifest["per_layer" if trace == "1" else "end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        name: row["unit"] for name, row in result["metrics"].items()}
    assert all(sorted(row) == ["unit", "value"]
               for row in result["metrics"].values())


def test_same_seed_same_sim_metrics_other_seed_other_ops():
    sim = [m.name for m in END_TO_END if m.clock != "host"]
    for name, cls in WORKLOADS.items():
        reports = [measure.end_to_end(name, seed, **SMOKE) for seed in (7, 7, 8)]
        values = [[r["metrics"][m]["value"] for m in sim] for r in reports]
        assert values[0] == values[1], name
        assert values[0] != values[2], name
    for cls in WORKLOADS.values():
        if hasattr(cls(7, 0.1), "streams"):
            assert cls(7, 0.1).streams == cls(7, 0.1).streams
            assert cls(7, 0.1).streams != cls(8, 0.1).streams
        assert cls(7, 0.1).keys != cls(8, 0.1).keys


def test_wrong_expected_value_fails_the_run():
    done = _run("--workload", "etc_small_stripes", "--seed", "1", "--smoke",
                "--corrupt-model")
    assert done.returncode != 0
    assert "INCORRECT" in done.stderr
    assert not done.stdout.strip().endswith("}")


def _modules_after(imports):
    probe = (
        "import sys; sys.argv = ['run.py']; sys.path.insert(0, %r); %s; "
        "print('\\n'.join(sys.modules))" % (KV, imports)
    )
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, cwd=ROOT)
    assert done.returncode == 0, done.stderr
    return done.stdout.split()


def test_load_generator_is_outside_the_program():
    assert not [m for m in _modules_after("import loadgen")
                if m.split(".")[0] == "repro"]
    assert not [m for m in _modules_after("import run")
                if m.startswith(("repro.workloads", "repro.harness"))]


def test_refuses_to_run_without_the_program(tmp_path):
    """In a directory holding only BENCHMARK.json and the benchmark's own
    files there is nothing to measure: non-zero exit, no result line."""
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(KV, tmp_path / "benchmarks" / "kv",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = _run("--workload", "ycsb_a_4k", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=tmp_path,
                script=str(tmp_path / "benchmarks" / "kv" / "run.py"))
    assert done.returncode != 0
    assert done.stdout.strip() == ""


def test_compare_refuses_other_machines(tmp_path):
    report = {"fingerprint": measure.fingerprint(), "seed": 1, "end_to_end": {}}
    other = dict(report, fingerprint=dict(report["fingerprint"], nproc=999))
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(report))
    b.write_text(json.dumps(other))
    assert _run("--compare", str(a), str(a)).returncode == 0
    refused = _run("--compare", str(a), str(b))
    assert refused.returncode == 2 and "refusing" in refused.stderr
