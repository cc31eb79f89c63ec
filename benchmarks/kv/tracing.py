"""The traced run: where one workload's host time and virtual time go.

Two extra trials, kept apart so neither distorts the other's answer:

* a **traced** trial with ``build_cluster(trace=True)`` -- the program's
  own virtual-clock ``Tracer`` -- whose spans are written out as a Chrome
  trace, whose host time against the untraced median is the tracing
  overhead, and whose handles give the Fig. 9 phase split;
* a **profiled** trial under ``cProfile`` (tracer off), whose run-phase
  self time is rolled up by ``repro.<package>``.  cProfile taxes every
  Python call but not the work inside native code, so the shares lean
  towards call-heavy layers; they rank layers, the ladder times them.

Spans and the roll-up stay in memory until the trial ends, then go to
``benchmarks/kv/out/``.
"""

from __future__ import annotations

import cProfile
import json
import os
import pstats
from typing import Dict, Tuple

from repro import write_chrome_trace

from metrics import LAYERS
from trial import Workload

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(HERE, "out")

_PACKAGE_MARK = os.sep + "repro" + os.sep


def _owner(filename: str) -> str:
    """The layer a source file belongs to ('' for foreign code)."""
    at = filename.rfind(_PACKAGE_MARK)
    if at >= 0:
        package = filename[at + len(_PACKAGE_MARK):].split(os.sep, 1)[0]
        return package if package in LAYERS else "other"
    if filename.startswith(HERE):
        return "bench"
    return ""


def roll_up(stats: Dict) -> Tuple[Dict[str, float], Dict[Tuple[str, str], int]]:
    """Self seconds per layer, and call counts per (layer, function name).

    A builtin's or library function's time goes to the layer of whoever
    called it, split by each caller's share of its time; chains of
    foreign callers are followed until a layer is found.
    """
    shares: Dict[tuple, Dict[str, float]] = {}

    def layer_shares(func, trail=()) -> Dict[str, float]:
        known = shares.get(func)
        if known is not None:
            return known
        owner = _owner(func[0])
        if owner:
            result = {owner: 1.0}
        else:
            result = {}
            callers = stats[func][4] if func in stats else {}
            total = sum(edge[2] for edge in callers.values())
            for caller, edge in callers.items():
                if caller in trail or not total:
                    continue
                for layer, share in layer_shares(caller, trail + (func,)).items():
                    result[layer] = result.get(layer, 0.0) + share * edge[2] / total
            lost = 1.0 - sum(result.values())
            if lost > 1e-12:
                result["other"] = result.get("other", 0.0) + lost
        if not trail:
            shares[func] = result
        return result

    seconds = {layer: 0.0 for layer in LAYERS}
    calls: Dict[Tuple[str, str], int] = {}
    for func, (_, ncalls, self_time, _, _) in stats.items():
        for layer, share in layer_shares(func).items():
            seconds[layer] += self_time * share
        owner = _owner(func[0])
        if owner:
            calls[(owner, func[2])] = calls.get((owner, func[2]), 0) + ncalls
    return seconds, calls


def traced_run(workload: Workload, untraced_trial_s: float) -> Dict[str, float]:
    """Run the traced and the profiled trial; returns per-layer metrics.

    ``untraced_trial_s`` is the untraced median of set-up plus run phase,
    the span the traced trial is compared on.
    """
    os.makedirs(OUT_DIR, exist_ok=True)
    metrics: Dict[str, float] = {}

    traced = workload.trial(trace=True, split_phases=True)
    metrics["obs.trace_overhead_ratio"] = (
        traced.setup_s + traced.run_s
    ) / untraced_trial_s
    metrics.update(traced.counts)
    sets, gets = traced.phases["set"], traced.phases["get"]

    def mean_us(total: float, count: float) -> float:
        return total / count * 1e6 if count else 0.0

    for phase in ("encode", "request", "wait"):
        metrics["resilience.set_%s_us" % phase] = mean_us(sets[phase], sets["count"])
    for phase in ("request", "wait", "decode"):
        metrics["resilience.get_%s_us" % phase] = mean_us(gets[phase], gets["count"])
    metrics["store.arpe_queue_us"] = mean_us(
        sets["queue"] + gets["queue"], sets["count"] + gets["count"]
    )
    trace_path = os.path.join(OUT_DIR, "%s.trace.json" % workload.name)
    write_chrome_trace(traced.tracer, trace_path, traced.registry)
    del traced

    profiler = cProfile.Profile()
    workload.trial(profiler=profiler)
    seconds, calls = roll_up(pstats.Stats(profiler).stats)
    total = sum(seconds.values())
    for layer in LAYERS:
        metrics["%s.host_self_s" % layer] = seconds[layer]
        metrics["%s.host_share" % layer] = seconds[layer] / total if total else 0.0
    metrics["ec.encode_calls"] = calls.get(("ec", "encode"), 0)
    metrics["ec.decode_calls"] = calls.get(("ec", "decode"), 0)
    with open(os.path.join(OUT_DIR, "%s.profile.json" % workload.name), "w") as fh:
        json.dump(
            {
                "workload": workload.name,
                "host_self_s": seconds,
                "calls": {
                    "%s.%s" % key: count
                    for key, count in sorted(calls.items(), key=lambda kv: -kv[1])[:40]
                },
                "trace": os.path.basename(trace_path),
            },
            fh,
            indent=2,
        )
    return metrics
