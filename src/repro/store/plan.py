"""Compiled request plans: flat per-component resolutions of feature flags.

The :class:`~repro.core.features.Features` builder is the single place
feature flags live; *these* classes are what the hot path actually
touches.  A plan is compiled once — at cluster configuration time, or
when a :class:`~repro.store.client.KVClient` is constructed standalone —
and the per-operation code branches on plain plan attributes, never on
feature flags, policy lookups or ``getattr`` probes.  A protection that
is correct by default has no plan field: the servers' stale-write guard
and cancel bookkeeping always run (see :class:`ServerPlan`).

Split out of :mod:`repro.core.features` so the store layer can import
plan types without pulling in the cluster facade (which imports the
store right back).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.store.policy import DEFAULT_POLICY, RetryPolicy


@dataclass(frozen=True)
class AdmissionConfig:
    """Server-side admission-control knobs; ``MemcachedServer.apply_plan``
    builds the server's ``AdmissionController`` from them."""

    max_queue: int = 64
    bg_max_queue: int = 16
    sojourn_deadline: float = 0.02


class ClientPlan:
    """Compiled per-client request plan: what the hot path must do.

    Every field is resolved once, at compile time, from the client's
    :class:`~repro.store.policy.RetryPolicy` and the cluster's
    :class:`~repro.core.features.Features`; ``use_guard`` comes from the
    cluster's ``with_overload()`` switch alone.
    """

    __slots__ = (
        "policy",
        "use_retries",
        "use_guard",
        "timeout",
        "verify_crc",
    )

    def __init__(
        self,
        policy: RetryPolicy,
        use_retries: bool,
        use_guard: bool,
        timeout: Optional[float],
        verify_crc: bool,
    ):
        self.policy = policy
        self.use_retries = use_retries
        self.use_guard = use_guard
        self.timeout = timeout
        self.verify_crc = verify_crc

    @property
    def is_fast_path(self) -> bool:
        """True when the plan adds nothing over the bare request path."""
        return not (self.use_retries or self.use_guard or self.timeout)


class ServerPlan:
    """Compiled per-server plan mirroring :class:`ClientPlan`:
    admission control, and CRC stamping on ingest plus verification on
    read (``integrity``).  The stale-write guard and cancel bookkeeping
    have no field: every server always runs them."""

    __slots__ = ("admission", "integrity")

    def __init__(self, admission: Optional[AdmissionConfig], integrity: bool):
        self.admission = admission
        self.integrity = integrity


def compile_client_plan(
    policy: Optional[RetryPolicy],
    integrity: bool = True,
    overload: bool = False,
) -> ClientPlan:
    """Resolve a retry policy (+ cluster features) into a flat plan.

    With the default policy (no retries, no deadline) and no overload
    switch the result is the fast path: operations run the scheme
    generator directly and requests go on the wire without a timeout
    closure.
    """
    policy = policy or DEFAULT_POLICY
    return ClientPlan(
        policy=policy,
        use_retries=policy.max_retries > 0,
        use_guard=overload,
        timeout=policy.request_timeout,
        verify_crc=integrity,
    )
