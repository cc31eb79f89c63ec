"""The benchmark's virtual clock is pinned: one smoke run of each
workload (``benchmarks/kv/run.py --workload W --seed 1 --smoke``) must
reproduce every ``sim`` and ``count`` end-to-end metric in
``bench_virtual_clock.json`` exactly.  Host-clock rows (wall time, RSS)
vary run to run and are not recorded.

A change that is meant to move the virtual clock re-records it::

    python tests/test_bench_virtual_clock.py --record

and the record's diff shows which metric moved on which workload.
"""

import importlib.util
import json
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
KV = ROOT / "benchmarks" / "kv"
RECORD = pathlib.Path(__file__).with_name("bench_virtual_clock.json")
SEED = 1


def _catalogue():
    # loaded by path: benchmarks/kv's module names would shadow others
    spec = importlib.util.spec_from_file_location(
        "bench_kv_metrics", KV / "metrics.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.END_TO_END


#: the end-to-end metrics that repeat bit for bit for one seed
PINNED = [metric.name for metric in _catalogue() if metric.clock != "host"]
#: the benchmark's workloads, as its manifest declares them
WORKLOADS = [
    entry["name"]
    for entry in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]
]


def smoke_run(workload: str) -> dict:
    """The pinned metrics of one smoke run of ``workload``."""
    done = subprocess.run(
        [sys.executable, str(KV / "run.py"), "--workload", workload,
         "--seed", str(SEED), "--smoke"],
        cwd=ROOT, capture_output=True, text=True,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    metrics = json.loads(done.stdout.strip().splitlines()[-1])["metrics"]
    return {name: metrics[name]["value"] for name in PINNED}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_reproduces_the_recorded_virtual_clock(workload):
    recorded = json.loads(RECORD.read_text())["workloads"]
    assert smoke_run(workload) == recorded[workload]


def record() -> None:
    workloads = {name: smoke_run(name) for name in WORKLOADS}
    RECORD.write_text(json.dumps(
        {"args": "--seed %d --smoke" % SEED, "workloads": workloads},
        indent=2,
    ) + "\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: python tests/test_bench_virtual_clock.py --record")
    record()
