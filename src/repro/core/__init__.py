"""Public facade: assemble and drive a resilient key-value store cluster."""

from repro.core.cluster import KVCluster, build_cluster
from repro.core.features import ClusterConfig, Features

__all__ = [
    "ClusterConfig",
    "Features",
    "KVCluster",
    "build_cluster",
]
