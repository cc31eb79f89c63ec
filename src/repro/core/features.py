"""Declarative feature configuration: the one place feature flags live.

Resilience is pay-as-you-go.  Every optional mechanism the store has
grown — retry/deadline hardening, hedged reads, overload guards,
admission control, brownout, chaos injection, write versioning,
end-to-end integrity — is declared on a :class:`Features` builder (also
exported as :data:`ClusterConfig`) and *compiled* into flat
per-component plans at configuration time:

- a :class:`~repro.store.plan.ClientPlan` drives
  :class:`~repro.store.client.KVClient` (retry driver on/off, request
  deadline, response CRC verification, epoch stamping, overload guard);
- a :class:`~repro.store.plan.ServerPlan` drives
  :class:`~repro.store.server.MemcachedServer` (admission control,
  cancel bookkeeping, CRC stamp/verify, stale-write guard, epoch
  tracking);
- the fabric's interceptor chain compiles to ``None`` when no
  interceptor is registered (see
  :meth:`~repro.network.fabric.Fabric.add_interceptor`).

No per-operation code re-checks a feature flag: when every feature is
off the compiled plan is the **fast path** — no policy lookups, no
breaker checks, no version/CRC bookkeeping, no closure allocations on
the request path.  Mutating a :class:`Features` bound to a cluster
recompiles every plan immediately, so features can be flipped mid-run.

The feature -> stage mapping is documented in DESIGN.md ("Plan
compilation").
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, List, Optional

from repro.store.plan import (
    AdmissionConfig,
    ClientPlan,
    ServerPlan,
    compile_client_plan,
)
from repro.store.policy import DEFAULT_POLICY, OverloadPolicy, RetryPolicy

__all__ = [
    "AdmissionConfig",
    "ChaosConfig",
    "ClientPlan",
    "ClusterConfig",
    "Features",
    "MembershipConfig",
    "ScrubConfig",
    "ServerPlan",
    "StripesConfig",
    "compile_client_plan",
]


@dataclass(frozen=True)
class MembershipConfig:
    """SWIM failure-detector declaration compiled by the owning cluster
    (decentralized gossip, O(1) per-node load — see
    :mod:`repro.membership.gossip`).

    ``period`` is the protocol period; ``timeout`` the per-probe deadline
    (``None`` derives ``period / 4``); ``indirect_probes`` proxies per
    miss; ``suspicion_periods`` protocol periods before a suspect is
    declared dead; anti-entropy sync every ``sync_every`` periods;
    ``piggyback_limit`` rumors per message, each retransmitted
    ``retransmit_factor * log2(n)`` times.
    """

    period: float = 0.05
    timeout: Optional[float] = None
    indirect_probes: int = 3
    suspicion_periods: float = 2.0
    sync_every: int = 10
    piggyback_limit: int = 8
    retransmit_factor: float = 3.0
    seed: int = 0


@dataclass(frozen=True)
class ChaosConfig:
    """Chaos-injection declaration: a fault profile plus its seed.

    ``profile`` is a profile name from :data:`repro.faults.profiles.
    PROFILES` (or a prebuilt :class:`~repro.faults.profiles.
    FaultProfile`); ``max_degraded`` bounds concurrent degradations
    (``None`` = the scheme's tolerated failures).
    """

    profile: object = "all"
    seed: int = 0
    max_degraded: Optional[int] = None


@dataclass(frozen=True)
class StripesConfig:
    """Small-object stripe-packing declaration (see :mod:`repro.stripes`).

    When set, the cluster wraps its resilience scheme in a
    :class:`~repro.stripes.scheme.StripedScheme`: Sets at or below
    ``threshold`` bytes are packed into ``stripe_capacity``-byte stripes
    coded once at seal time (on-full, or after ``seal_timeout`` virtual
    seconds); sealed stripes whose live fraction drops below
    ``compact_utilization`` are rewritten by the background GC.
    ``codec``/``k``/``m`` shape the per-stripe erasure code (and the
    per-object path large values still take).
    """

    threshold: int = 4 * 1024
    stripe_capacity: int = 64 * 1024
    seal_timeout: float = 0.005
    compact_utilization: float = 0.5
    codec: str = "rs_van"
    k: int = 3
    m: int = 2


@dataclass(frozen=True)
class ScrubConfig:
    """Integrity-scrubbing declaration (see :mod:`repro.scrub`).

    ``scan_period`` is the target duration of one full background pass
    over every chunk location (virtual seconds).  ``audit_period`` adds
    periodic sampling audits every that many seconds (``0`` disables
    them; :meth:`Scrubber.audit_once` can still run one on demand).
    ``epsilon``/``p_bound`` parameterize the DAS-style certificate:
    enough samples are drawn to certify "unreadable fraction below
    ``p_bound``" with confidence ``1 - epsilon`` (see
    :func:`repro.scrub.audit.required_samples`).
    """

    scan_period: float = 1.0
    audit_period: float = 0.0
    epsilon: float = 1e-3
    p_bound: float = 0.05
    seed: int = 0


class Features:
    """The feature-flag builder; compiles into request plans.

    Mutable: every ``with_*`` / ``harden`` / ``inject_chaos`` call
    mutates this object, notifies its observers (the owning
    :class:`~repro.core.cluster.KVCluster`, which recompiles all plans)
    and returns ``self`` for chaining::

        config = Features().harden().with_admission_control()
        cluster = build_cluster(..., config=config)
        ...
        config.with_overload()       # mid-run: plans recompile now

    Flags
    -----
    ``hardening``
        Optional :class:`RetryPolicy` for deadlines/retries/hedging/
        durable writes.  ``None`` keeps the paper's bare request path.
    ``overload``
        Optional :class:`OverloadPolicy` enabling client-side breakers,
        AIMD windows, pacing and brownout.  Merged into the effective
        policy handed to new clients.
    ``admission``
        Optional :class:`AdmissionConfig` bounding every server's
        request queue.
    ``chaos``
        Optional :class:`ChaosConfig`; the cluster attaches a seeded
        :class:`~repro.faults.ChaosEngine` when set.
    ``integrity``
        End-to-end CRCs: servers stamp/verify item checksums, clients
        and servers verify response payloads.  On by default (matching
        the store's historical behavior).
    ``write_versioning``
        Server-side stale-write guard (last-writer-wins by version).
        ``None`` (the default) derives it: on whenever hardening or
        chaos is enabled, or the cluster's membership has changed —
        the only regimes where a stale replay can reach a server.
    ``epoch_stamping``
        Stamp the routing epoch into every request (migration-lag
        telemetry).  ``None`` derives it the same way: on once the
        membership table has opened a new epoch.
    """

    def __init__(
        self,
        hardening: Optional[RetryPolicy] = None,
        overload: Optional[OverloadPolicy] = None,
        admission: Optional[AdmissionConfig] = None,
        chaos: Optional[ChaosConfig] = None,
        integrity: bool = True,
        write_versioning: Optional[bool] = None,
        epoch_stamping: Optional[bool] = None,
        membership: Optional[MembershipConfig] = None,
        stripes: Optional[StripesConfig] = None,
        scrubbing: Optional[ScrubConfig] = None,
    ):
        self.hardening = hardening
        self.overload = overload
        self.admission = admission
        self.chaos = chaos
        self.membership = membership
        self.stripes = stripes
        self.scrubbing = scrubbing
        self.integrity = integrity
        self.write_versioning = write_versioning
        self.epoch_stamping = epoch_stamping
        #: set by the owning cluster once membership epochs start moving
        self.dynamic_membership = False
        self._observers: List[Callable[["Features"], None]] = []

    # -- builder API ---------------------------------------------------------
    def harden(self, policy: Optional[RetryPolicy] = None) -> "Features":
        """Enable request hardening (deadlines, retries, hedging).

        Without an explicit policy, :data:`~repro.store.policy.
        HARDENED_POLICY` is used.
        """
        if policy is None:
            from repro.store.policy import HARDENED_POLICY

            policy = HARDENED_POLICY
        self.hardening = policy
        return self._touch()

    def with_overload(
        self, policy: Optional[OverloadPolicy] = None
    ) -> "Features":
        """Enable client-side overload protection (breakers, AIMD, brownout)."""
        if policy is None:
            from repro.store.policy import OVERLOAD_POLICY

            policy = OVERLOAD_POLICY
        self.overload = policy
        return self._touch()

    def with_admission_control(
        self,
        max_queue: int = 64,
        bg_max_queue: int = 16,
        sojourn_deadline: float = 0.02,
    ) -> "Features":
        """Enable bounded-queue admission control on every server."""
        self.admission = AdmissionConfig(
            max_queue=max_queue,
            bg_max_queue=bg_max_queue,
            sojourn_deadline=sojourn_deadline,
        )
        return self._touch()

    def inject_chaos(
        self,
        profile: object = "all",
        seed: int = 0,
        max_degraded: Optional[int] = None,
    ) -> "Features":
        """Attach a seeded chaos engine to the cluster's fabric.

        ``profile`` is a :class:`~repro.faults.profiles.FaultProfile` or
        the name of one; an unknown name raises ``KeyError`` here.
        """
        from repro.faults.profiles import FaultProfile, profile_by_name

        if not isinstance(profile, FaultProfile):
            profile_by_name(profile)
        self.chaos = ChaosConfig(
            profile=profile, seed=seed, max_degraded=max_degraded
        )
        return self._touch()

    def with_membership(
        self,
        detector: str = "swim",
        period: float = 0.05,
        timeout: Optional[float] = None,
        indirect_probes: int = 3,
        suspicion_periods: float = 2.0,
        sync_every: int = 10,
        piggyback_limit: int = 8,
        retransmit_factor: float = 3.0,
        seed: int = 0,
    ) -> "Features":
        """Declare the SWIM failure detector (see :class:`MembershipConfig`).

        ``detector`` must be ``"swim"``, the only detector.  The cluster
        constructs it on recompile and exposes it as ``cluster.detector``;
        call ``cluster.detector.start(horizon)`` to launch the probe
        loops.  The default fast path (no membership config) pays nothing.
        """
        if detector != "swim":
            raise ValueError("unknown detector %r (choices: swim)" % detector)
        if period <= 0:
            raise ValueError("period must be > 0")
        self.membership = MembershipConfig(
            period=period,
            timeout=timeout,
            indirect_probes=indirect_probes,
            suspicion_periods=suspicion_periods,
            sync_every=sync_every,
            piggyback_limit=piggyback_limit,
            retransmit_factor=retransmit_factor,
            seed=seed,
        )
        return self._touch()

    def with_small_object_stripes(
        self,
        threshold: int = 4 * 1024,
        stripe_capacity: int = 64 * 1024,
        seal_timeout: float = 0.005,
        compact_utilization: float = 0.5,
        codec: str = "rs_van",
        k: int = 3,
        m: int = 2,
    ) -> "Features":
        """Pack small Sets into erasure-coded stripes (MemEC-style).

        The cluster wraps its scheme in a :class:`~repro.stripes.scheme.
        StripedScheme` on recompile; ``disable("stripes")`` unwraps it.
        The default fast path (no stripes config) pays nothing.
        """
        if threshold <= 0:
            raise ValueError("threshold must be > 0")
        if stripe_capacity < threshold:
            raise ValueError(
                "stripe_capacity must hold at least one threshold-sized "
                "object"
            )
        if not 0.0 <= compact_utilization <= 1.0:
            raise ValueError("compact_utilization must be in [0, 1]")
        if seal_timeout <= 0:
            raise ValueError("seal_timeout must be > 0")
        self.stripes = StripesConfig(
            threshold=threshold,
            stripe_capacity=stripe_capacity,
            seal_timeout=seal_timeout,
            compact_utilization=compact_utilization,
            codec=codec,
            k=k,
            m=m,
        )
        return self._touch()

    def with_scrubbing(
        self,
        scan_period: float = 1.0,
        audit_period: float = 0.0,
        epsilon: float = 1e-3,
        p_bound: float = 0.05,
        seed: int = 0,
    ) -> "Features":
        """Attach a continuous integrity scrubber (see :mod:`repro.scrub`).

        The cluster constructs it on recompile and exposes it as
        ``cluster.scrubber``; call ``cluster.scrubber.start(horizon)`` to
        launch the scan (and, with ``audit_period > 0``, audit) loops.
        The default fast path (no scrub config) pays nothing.
        """
        if scan_period <= 0:
            raise ValueError("scan_period must be > 0")
        if audit_period < 0:
            raise ValueError("audit_period must be >= 0")
        if not 0.0 < epsilon < 1.0:
            raise ValueError("epsilon must be in (0, 1)")
        if not 0.0 < p_bound < 1.0:
            raise ValueError("p_bound must be in (0, 1)")
        self.scrubbing = ScrubConfig(
            scan_period=scan_period,
            audit_period=audit_period,
            epsilon=epsilon,
            p_bound=p_bound,
            seed=seed,
        )
        return self._touch()

    def with_integrity(self, enabled: bool = True) -> "Features":
        """Toggle end-to-end CRC stamping and verification."""
        self.integrity = enabled
        return self._touch()

    def with_write_versioning(self, enabled: bool = True) -> "Features":
        """Force the server-side stale-write guard on or off."""
        self.write_versioning = enabled
        return self._touch()

    def with_epoch_stamping(self, enabled: bool = True) -> "Features":
        """Force epoch stamping of requests on or off."""
        self.epoch_stamping = enabled
        return self._touch()

    def disable(self, *names: str) -> "Features":
        """Turn the named features off (``"hardening"``, ``"overload"``,
        ``"admission"``, ``"chaos"``, ``"membership"``, ``"stripes"``,
        ``"scrubbing"``)."""
        for name in names:
            if name not in (
                "hardening",
                "overload",
                "admission",
                "chaos",
                "membership",
                "stripes",
                "scrubbing",
            ):
                raise ValueError("unknown feature %r" % name)
            setattr(self, name, None)
        return self._touch()

    # -- derivation ----------------------------------------------------------
    @property
    def versioning_active(self) -> bool:
        """Whether servers must honor the stale-write guard."""
        if self.write_versioning is not None:
            return self.write_versioning
        return (
            self.hardening is not None
            or self.chaos is not None
            or self.dynamic_membership
        )

    @property
    def epoch_stamping_active(self) -> bool:
        """Whether requests carry their routing epoch."""
        if self.epoch_stamping is not None:
            return self.epoch_stamping
        return self.dynamic_membership

    @property
    def cancellation_active(self) -> bool:
        """Whether servers must track client cancellations.

        Cancels originate from hedged-read losers, brownout first-k
        floods, and timed-out fetches abandoned mid-gather — so the
        bookkeeping is needed exactly when hardening (hedge/deadline),
        overload protection or chaos is on.
        """
        return (
            self.hardening is not None
            or self.overload is not None
            or self.chaos is not None
        )

    def effective_policy(self) -> RetryPolicy:
        """The :class:`RetryPolicy` new clients inherit from this config."""
        policy = self.hardening or DEFAULT_POLICY
        if self.overload is not None and policy.overload is None:
            policy = replace(policy, overload=self.overload)
        return policy

    # -- compilation ---------------------------------------------------------
    def compile_client_plan(
        self, policy: Optional[RetryPolicy] = None
    ) -> ClientPlan:
        """Compile the plan for one client (``policy`` overrides)."""
        return compile_client_plan(
            policy if policy is not None else self.effective_policy(),
            integrity=self.integrity,
            stamp_epoch=self.epoch_stamping_active,
        )

    def compile_server_plan(self, extra_cancellation: bool = False) -> ServerPlan:
        """Compile the plan every server of the cluster applies.

        ``extra_cancellation`` forces cancel bookkeeping on — the
        cluster passes it when an attached client carries a per-client
        policy that hedges or floods even though the cluster-wide
        features do not.
        """
        return ServerPlan(
            admission=self.admission,
            cancellable=self.cancellation_active or extra_cancellation,
            verify_on_read=self.integrity,
            integrity=self.integrity,
            check_stale=self.versioning_active,
            track_epoch=self.epoch_stamping_active,
        )

    # -- change notification -------------------------------------------------
    def _touch(self) -> "Features":
        for observer in self._observers:
            observer(self)
        return self


#: The config-at-construction name: ``build_cluster(config=ClusterConfig()
#: .harden())``.  Same class; both names are part of the public API.
ClusterConfig = Features
