"""Deterministic discrete-event simulation engine.

This subpackage provides the virtual-time substrate for the whole
reproduction: a generator-based process model (similar in spirit to SimPy),
an event scheduler with deterministic FIFO tie-breaking, and the resource
primitives (capacity-limited resources, FIFO stores) used by the network,
server, and burst-buffer models.

No wall-clock time ever enters a simulation; given identical inputs and
seeds, every run is bit-for-bit reproducible.
"""

from repro.simulation.engine import (
    AllOf,
    AnyOf,
    Event,
    Interrupt,
    Process,
    SimulationError,
    Simulator,
    Timeout,
)
from repro.simulation.resources import (
    REBUILD_WINDOW,
    Gate,
    Resource,
    Store,
    run_window,
)

__all__ = [
    "REBUILD_WINDOW",
    "AllOf",
    "AnyOf",
    "Event",
    "Gate",
    "Interrupt",
    "Process",
    "Resource",
    "SimulationError",
    "Simulator",
    "Store",
    "Timeout",
    "run_window",
]
