"""Feature-tax table: what each ``Features`` switch costs when on alone.

A quarter-size ``ycsb_a_4k`` is run once with the default configuration,
once with each switch enabled by itself, and once more with the default
(both default runs are averaged, so drift over the table cancels).  Each
switch reports host seconds per run-phase op relative to the default --
the pay-as-you-go claim as a tracked number: the default path must stay
at 1.00 -- and the exact ratio of ``sim_get_p50_us``.

Background features need a clock to run against: SWIM gets a protocol
period of a tenth of the default run's virtual length and the scrubber a
scan period of four times it, both started with the run phase.
``with_integrity`` is on by default, so its row is default / integrity off.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from repro.core.features import Features

from metrics import FEATURE_SWITCHES
from trial import State, TrialResult
from workloads import YcsbA4k

SCALE = 0.25


class _TaxedYcsb(YcsbA4k):
    #: builds the Features under test from the default run's virtual length
    configure: Optional[Callable[[float], Features]] = None
    run_virtual_s = 0.0

    def features(self):
        return self.configure(self.run_virtual_s) if self.configure else None

    def run_phase(self, st: State, result: TrialResult) -> None:
        cluster = st.cluster
        horizon = cluster.sim.now + self.run_virtual_s
        if cluster.detector is not None:
            cluster.detector.start(horizon)
        if cluster.scrubber is not None:
            cluster.scrubber.start(horizon)
        super().run_phase(st, result)


_CONFIGURE: Dict[str, Callable[[float], Features]] = {
    "harden": lambda run_s: Features().harden(),
    "with_overload": lambda run_s: Features().with_overload(),
    "with_admission_control": lambda run_s: Features().with_admission_control(),
    "with_integrity": lambda run_s: Features().with_integrity(False),
    "with_write_versioning": lambda run_s: Features().with_write_versioning(),
    "with_membership": lambda run_s: Features().with_membership(
        detector="swim", period=run_s / 10
    ),
    "with_small_object_stripes": lambda run_s: Features().with_small_object_stripes(),
    "with_scrubbing": lambda run_s: Features().with_scrubbing(scan_period=run_s * 4),
}


def _cost(result: TrialResult):
    return result.run_s / result.run_ops, result.sim["sim_get_p50_us"]


def feature_tax(seed: int, scale: float = SCALE) -> Dict[str, float]:
    """Per-layer metrics ``core.feature_tax.*`` / ``core.feature_sim_get_p50.*``."""
    workload = _TaxedYcsb(seed, scale)
    workload.trial()  # warm-up
    first = workload.trial()
    workload.run_virtual_s = first.run_ops / first.sim["sim_ops_per_s"]
    costs = {}
    for switch in FEATURE_SWITCHES:
        workload.configure = _CONFIGURE[switch]
        costs[switch] = _cost(workload.trial())
    workload.configure = None
    host_first, sim_default = _cost(first)
    host_default = (host_first + _cost(workload.trial())[0]) / 2

    metrics = {}
    for switch, (host, sim) in costs.items():
        host_ratio, sim_ratio = host / host_default, sim / sim_default
        if switch == "with_integrity":  # measured with it off; on is the default
            host_ratio, sim_ratio = 1 / host_ratio, 1 / sim_ratio
        metrics["core.feature_tax.%s" % switch] = host_ratio
        metrics["core.feature_sim_get_p50.%s" % switch] = sim_ratio
    return metrics
