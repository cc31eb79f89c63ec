#!/usr/bin/env python3
"""benchmarks/kv: the repository's one measuring instrument.

    python3 benchmarks/kv/run.py --seed 1                  every workload, every metric
    python3 benchmarks/kv/run.py --workload W --seed 1 --seconds 20 --trace 0|1
    python3 benchmarks/kv/run.py --check-repeat --seed 1   two sets, must agree
    python3 benchmarks/kv/run.py --compare A.json B.json   same machine only

Four named workloads drive the store through its public API, every
returned value is checked against a model, and every metric is printed by
name with unit, direction, clock, sample count and regression bound.  With
``--workload`` the last line of standard output is one JSON object:
end-to-end metrics for ``--trace 0``, per-layer metrics for ``--trace 1``.
Exit status is non-zero on any wrong byte, lost acked key, or
virtual-clock mismatch between trials.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
if not os.path.isdir(os.path.join(SRC, "repro")):
    sys.exit("benchmarks/kv: no program to measure (missing %s)" % SRC)
sys.path.insert(0, SRC)

import measure  # noqa: E402  (needs the path set above)
from metrics import BY_NAME, END_TO_END, PER_LAYER  # noqa: E402
from tracing import OUT_DIR  # noqa: E402
from trial import CorrectnessError  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

RUN_SECONDS = 20
SMOKE = {"scale": 0.1, "min_trials": 2, "seconds": 0.0}
SMOKE_LADDER_REPEATS = 2


def manifest() -> dict:
    """The contents of BENCHMARK.json, from the catalogue."""
    return {
        "command": ["python3", "benchmarks/kv/run.py"],
        "paths": ["benchmarks/kv"],
        "run_seconds": RUN_SECONDS,
        "workloads": [
            {"name": name, "why": cls.why} for name, cls in WORKLOADS.items()
        ],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER
        ],
    }


def print_table(report: dict) -> None:
    """Every metric of one report by name, with what is known about it."""
    print(
        "\n== %s  seed %s  %d trials, %d ops attempted, %d failed"
        % (report["workload"], report["seed"], report["trials"],
           report["attempted"], report["failed"])
    )
    if "samples" in report:
        print("   latency samples per trial: %s" % report["samples"])
    print("%-44s %14s %-6s %-6s %-5s %3s %12s %12s %6s"
          % ("metric", "value", "unit", "better", "clock", "n", "q1", "q3", "bound"))
    for name, row in report["metrics"].items():
        metric = BY_NAME[name]
        print(
            "%-44s %14.6g %-6s %-6s %-5s %3s %12s %12s %6s"
            % (
                name, row["value"], metric.unit, metric.better, metric.clock,
                row.get("n", 1),
                "%.6g" % row["q1"] if "q1" in row else "-",
                "%.6g" % row["q3"] if "q3" in row else "-",
                "%g%%" % (100 * metric.bound) if metric.bound is not None else "-",
            )
        )


def result_line(report: dict) -> str:
    """The driver's contract: one JSON object, last on standard output.
    A run that fails a correctness gate prints none and exits non-zero."""
    return json.dumps({
        "correct": True,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {
            name: {"value": row["value"], "unit": BY_NAME[name].unit}
            for name, row in report["metrics"].items()
        },
    })


def end_to_end_in_child(name: str, seed: int, seconds: float, smoke: bool) -> dict:
    """One workload's end-to-end report from a process of its own, as the
    gate runs it: peak RSS is per process, and a workload measured after
    ``bulk_256k_bytes`` in one process ran a tenth slower in a scratch set."""
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, "%s.report.json" % name)
    command = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(seed), "--seconds", str(seconds), "--out", path]
    if smoke:
        command.append("--smoke")
    sys.stdout.flush()
    if subprocess.run(command).returncode:
        raise CorrectnessError("%s failed in its own process" % name)
    with open(path) as fh:
        return json.load(fh)


def run_all(seed: int, seconds: float, smoke: bool, traced: bool, order=None) -> dict:
    """One full set: every workload's end-to-end (and per-layer) report."""
    reports = {"fingerprint": measure.fingerprint(), "seed": seed,
               "end_to_end": {}, "per_layer": {}}
    scale = SMOKE["scale"] if smoke else 1.0
    shared = None
    if traced:
        shared = measure.workload_independent(
            seed, scale,
            SMOKE_LADDER_REPEATS if smoke else measure.LADDER_REPEATS)
    for name in order or WORKLOADS:
        reports["end_to_end"][name] = end_to_end_in_child(
            name, seed, seconds, smoke)
        if traced:
            layers = measure.per_layer(name, seed, scale, shared)
            print_table(layers)
            reports["per_layer"][name] = layers
    return reports


def worse_by(metric, before: float, after: float) -> float:
    """How much worse ``after`` is than ``before``, as a share of ``before``."""
    change = (after - before) / before
    return -change if metric.better == "higher" else change


def compare(first: dict, second: dict, same_seed: bool, both_ways=False) -> bool:
    """Print both sets side by side; True when the second is no worse than
    the first by more than each metric's bound (and, for one seed, every
    virtual-clock and count metric is identical).  ``both_ways`` also
    rejects a second set *better* by more than the bound: two runs of the
    same code must simply agree."""
    ok = True
    print("\n%-20s %-38s %14s %14s %9s %7s  %s"
          % ("workload", "metric", "first", "second", "worse by", "bound", ""))
    for name, before in first["end_to_end"].items():
        after = second["end_to_end"].get(name)
        if after is None:
            continue
        for metric in END_TO_END:
            a = before["metrics"][metric.name]["value"]
            b = after["metrics"][metric.name]["value"]
            worse = worse_by(metric, a, b)
            if both_ways:
                worse = abs(worse)
            if same_seed and metric.clock != "host":
                verdict = "identical" if a == b else "DIFFERS"
            else:
                verdict = "ok" if worse <= metric.bound else "WORSE"
            ok = ok and verdict in ("ok", "identical")
            print("%-20s %-38s %14.6g %14.6g %8.2f%% %6g%%  %s"
                  % (name, metric.name, a, b, 100 * worse, 100 * metric.bound,
                     verdict))
    return ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes and two trials: a functional check")
    parser.add_argument("--out", help="write the full report as JSON")
    parser.add_argument("--check-repeat", action="store_true",
                        help="run two sets of one seed and require agreement")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    parser.add_argument("--print-manifest", action="store_true",
                        help="print BENCHMARK.json as the catalogue defines it")
    parser.add_argument("--corrupt-model", action="store_true",
                        help="self-test: expect a wrong value, must exit non-zero")
    args = parser.parse_args(argv)
    sizes = SMOKE if args.smoke else {
        "scale": 1.0, "min_trials": measure.MIN_TRIALS, "seconds": args.seconds}

    if args.print_manifest:
        print(json.dumps(manifest(), indent=2))
        return 0

    if args.compare:
        reports = []
        for path in args.compare:
            with open(path) as fh:
                reports.append(json.load(fh))
        first, second = reports
        if first["fingerprint"] != second["fingerprint"]:
            print("refusing to compare across machines:\n  %s\n  %s"
                  % (first["fingerprint"], second["fingerprint"]), file=sys.stderr)
            return 2
        return 0 if compare(first, second, first["seed"] == second["seed"]) else 1

    try:
        if args.check_repeat:
            first = run_all(args.seed, args.seconds, args.smoke, traced=False)
            second = run_all(args.seed, args.seconds, args.smoke, traced=False,
                             order=reversed(list(WORKLOADS)))
            agreed = compare(first, second, same_seed=True, both_ways=True)
            print("\ncheck-repeat: %s" % ("PASS" if agreed else "FAIL"))
            return 0 if agreed else 1

        if args.workload is None:
            report = run_all(args.seed, args.seconds, args.smoke, traced=True)
        elif args.trace:
            report = measure.per_layer(args.workload, args.seed, sizes["scale"])
        else:
            report = measure.end_to_end(
                args.workload, args.seed, corrupt_model=args.corrupt_model,
                **sizes)
    except CorrectnessError as error:
        print("INCORRECT: %s" % error, file=sys.stderr)
        return 1
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=2)
    if args.workload is not None:
        print_table(report)
        print(result_line(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
