"""Repeat trials and reduce them to the benchmark's named metrics.

Host-clock metrics are the median over the timed trials, with quartiles
and trial count kept beside them; virtual-clock and count metrics must
come out bit-identical on every trial of one seed, or the run fails.
"""

from __future__ import annotations

import os
import platform
import resource
import statistics
import sys
import time
from typing import Dict, List, Optional, Sequence

import numpy

from feature_tax import feature_tax
from ladder import REPEATS as LADDER_REPEATS, run_ladder
from metrics import END_TO_END, PER_LAYER
from tracing import traced_run
from trial import CorrectnessError, TrialResult, Workload
from workloads import WORKLOADS

#: timed trials per workload; seven is the floor (two 7-trial medians of
#: a 2.4 s trial were seen 8.6% apart on the reference box)
MIN_TRIALS = 7
#: untraced trials of a traced run (the baseline tracing is compared to)
TRACE_BASE_TRIALS = 3


def fingerprint() -> Dict[str, object]:
    """What a host-clock number depends on besides the code."""
    model = ""
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.lower().startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model or platform.processor(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }


def spread(values: Sequence[float]) -> Dict[str, float]:
    """Median, quartiles and count of a host-clock sample."""
    if len(values) < 2:
        return {"value": values[0], "q1": values[0], "q3": values[0], "n": 1}
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {
        "value": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "n": len(values),
    }


def timed_trials(
    workload: Workload,
    seconds: float,
    min_trials: int,
    corrupt_model: bool = False,
) -> List[TrialResult]:
    """One discarded warm-up, then trials until both ``min_trials`` are
    done and ``seconds`` (counted from before the warm-up) are used up."""
    deadline = time.perf_counter() + seconds
    workload.trial()  # warm-up: allocator, caches, lazily built tables
    trials: List[TrialResult] = []
    longest = 0.0
    while len(trials) < min_trials or time.perf_counter() + longest < deadline:
        start = time.perf_counter()
        trials.append(workload.trial(corrupt_model=corrupt_model))
        longest = max(longest, time.perf_counter() - start)
        first, last = trials[0], trials[-1]
        if (last.sim, last.samples, last.attempted, last.failed) != (
            first.sim, first.samples, first.attempted, first.failed
        ):
            moved = sorted(k for k in first.sim if first.sim[k] != last.sim[k])
            raise CorrectnessError(
                "%s: virtual-clock results differ between trials of one "
                "seed: %s" % (workload.name, moved or "sample counts")
            )
    return trials


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(
    name: str,
    seed: int,
    seconds: float,
    scale: float = 1.0,
    min_trials: int = MIN_TRIALS,
    corrupt_model: bool = False,
) -> Dict[str, object]:
    """Measure one workload; the report carries every end-to-end metric."""
    workload = WORKLOADS[name](seed, scale)
    trials = timed_trials(workload, seconds, min_trials, corrupt_model)
    measured = {
        "host_ops_per_s": spread([t.run_ops / t.run_s for t in trials]),
        "setup_s": spread([t.setup_s for t in trials]),
        "host_peak_rss_mib": spread([peak_rss_mib()]),
    }
    for key, value in trials[0].sim.items():
        measured[key] = {"value": value, "q1": value, "q3": value, "n": len(trials)}
    return {
        "workload": name,
        "seed": seed,
        "trials": len(trials),
        "attempted": sum(t.attempted for t in trials),
        "failed": sum(t.failed for t in trials),
        "samples": trials[0].samples,
        "metrics": {m.name: measured[m.name] for m in END_TO_END},
    }


def workload_independent(
    seed: int, scale: float = 1.0, ladder_repeats: int = LADDER_REPEATS
) -> Dict[str, object]:
    """The layer ladder and the feature-tax table: the per-layer metrics
    that are the same whichever workload they are reported beside."""
    ladder = run_ladder(ladder_repeats)
    values = {probe: row["value"] for probe, row in ladder.items()}
    values.update(feature_tax(seed, 0.25 * scale))
    return {"ladder": ladder, "values": values}


def per_layer(
    name: str,
    seed: int,
    scale: float = 1.0,
    shared: Optional[Dict[str, object]] = None,
) -> Dict[str, object]:
    """Every per-layer metric: run-phase segments of untraced trials, the
    traced run, and (measured here unless ``shared``) the ladder and tax."""
    workload = WORKLOADS[name](seed, scale)
    base = timed_trials(workload, 0.0, TRACE_BASE_TRIALS)
    trial_s = statistics.median([t.setup_s + t.run_s for t in base])
    values: Dict[str, float] = {}
    for kind in ("write", "read", "degraded"):
        rounds = [s for t in base for s in t.segments.get(kind, ())]
        values["ec.%s_round_host_s" % kind] = (
            statistics.median(rounds) if rounds else 0.0
        )
    values.update(traced_run(workload, trial_s))
    if shared is None:
        shared = workload_independent(seed, scale)
    values.update(shared["values"])
    return {
        "workload": name,
        "seed": seed,
        "trials": len(base),
        "attempted": sum(t.attempted for t in base),
        "failed": sum(t.failed for t in base),
        "ladder": shared["ladder"],
        "metrics": {m.name: {"value": values[m.name]} for m in PER_LAYER},
    }
