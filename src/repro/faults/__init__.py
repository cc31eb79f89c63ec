"""Deterministic chaos engineering for the simulated KV store.

The package composes two layers:

- :mod:`repro.faults.profiles` — declarative fault mixes (packet loss,
  corruption, latency, partitions, crashes, gray nodes, bit rot).
- :mod:`repro.faults.engine` — :class:`ChaosEngine`, the seeded
  interceptor + scheduler that injects a profile into a live cluster.

The durability soak that drives a workload through the chaos lives in
:mod:`repro.harness.chaos`.

Everything is driven by one seed: the same seed replays the exact same
fault schedule, byte flips and all.
"""

from repro.faults.engine import ChaosEngine
from repro.faults.profiles import PROFILES, FaultProfile, profile_by_name

__all__ = [
    "ChaosEngine",
    "FaultProfile",
    "PROFILES",
    "profile_by_name",
]
