"""Dynamic cluster membership: epoched rings, detection, rebalancing.

The subsystem the fixed-server-list paper leaves to future work: grow,
shrink, and heal the cluster online.  Topology is a versioned object
(:class:`RingEpoch` / :class:`MembershipTable`), failures are detected by
SWIM gossip on the virtual clock (:class:`SwimDetector`), membership
diffs compile to minimal chunk-move plans (:class:`MigrationPlanner`),
and plans execute in the background under a provable bandwidth cap
(:class:`RebuildScheduler`) while clients serve dual-epoch reads.

Entry points: ``cluster.scale_out`` / ``scale_in`` / ``replace_node``
(see :class:`repro.core.cluster.KVCluster`), or a
:class:`MembershipManager` built directly for custom caps and windows.
"""

from repro.membership.gossip import SwimDetector, SwimNode
from repro.membership.epoch import (
    ALIVE,
    DEAD,
    SUSPECT,
    MembershipError,
    MembershipTable,
    RingEpoch,
    RingView,
)
from repro.membership.manager import MembershipManager, adapter_for_scheme
from repro.membership.planner import (
    COPY,
    REENCODE,
    ChunkMove,
    ErasurePlacementAdapter,
    MigrationPlan,
    MigrationPlanner,
    ReplicationPlacementAdapter,
)
from repro.membership.rebuild import BandwidthThrottle, RebuildScheduler

__all__ = [
    "ALIVE",
    "SUSPECT",
    "DEAD",
    "COPY",
    "REENCODE",
    "MembershipError",
    "MembershipTable",
    "RingEpoch",
    "RingView",
    "SwimDetector",
    "SwimNode",
    "ChunkMove",
    "MigrationPlan",
    "MigrationPlanner",
    "ErasurePlacementAdapter",
    "ReplicationPlacementAdapter",
    "BandwidthThrottle",
    "RebuildScheduler",
    "MembershipManager",
    "adapter_for_scheme",
]
