"""Declarative feature configuration: the one place feature flags live.

Resilience is pay-as-you-go.  Every optional mechanism the store has
grown — retry/deadline hardening, hedged reads, overload guards,
admission control, brownout, SWIM membership, stripe packing,
scrubbing, end-to-end integrity — is declared on a :class:`Features`
builder (also exported as :data:`ClusterConfig`).  Each optional
subsystem has one frozen config dataclass (:class:`AdmissionConfig`,
:class:`MembershipConfig`, :class:`StripesConfig`, :class:`ScrubConfig`)
that is the only home of its fields, defaults and checks; the cluster
builds the subsystem from that object.  Overload protection has no
config object: ``with_overload()`` is a plain switch, and the guard's
breakers, AIMD window and brownout keep their settings beside their
code.  Request-path features are
*compiled* into flat per-component plans at configuration time:

- a :class:`~repro.store.plan.ClientPlan` drives
  :class:`~repro.store.client.KVClient` (retry driver on/off, request
  deadline, response CRC verification, and the overload guard, which
  follows the cluster's switch whatever per-client policy is set);
- a :class:`~repro.store.plan.ServerPlan` drives
  :class:`~repro.store.server.MemcachedServer` (admission control, CRC
  stamp/verify);
- the fabric's interceptor chain compiles to ``None`` when no
  interceptor is registered (see
  :meth:`~repro.network.fabric.Fabric.add_interceptor`).

Chaos injection is not declared here: a
:class:`~repro.faults.engine.ChaosEngine` built on a cluster attaches
itself to the fabric.

Correctness is not a feature.  Every server always runs the
stale-write guard (last-writer-wins by write version, folded into the
slab store) and cancel bookkeeping (consulted only while a cancel is
remembered), so neither has a flag.

No per-operation code re-checks a feature flag: when every feature is
off the compiled plan is the **fast path** — no policy lookups, no
breaker checks, no closure allocations on the request path.  Mutating a
:class:`Features` bound to a cluster recompiles every plan immediately,
so features can be flipped mid-run.

The feature -> stage mapping is documented in DESIGN.md ("Plan
compilation").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional

from repro.store.plan import (
    AdmissionConfig,
    ClientPlan,
    ServerPlan,
    compile_client_plan,
)
from repro.store.policy import DEFAULT_POLICY, RetryPolicy

__all__ = [
    "AdmissionConfig",
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

    def __post_init__(self):
        if self.period <= 0:
            raise ValueError("period must be > 0")


@dataclass(frozen=True)
class StripesConfig:
    """Small-object stripe-packing declaration (see :mod:`repro.stripes`).

    When set, the cluster wraps its resilience scheme in a
    :class:`~repro.stripes.scheme.StripedScheme`: Sets at or below
    ``threshold`` bytes (ETC's small majority) are packed into
    ``stripe_capacity``-byte stripes coded once at seal time (on-full,
    or after ``seal_timeout`` virtual seconds); sealed stripes whose
    live fraction drops below ``compact_utilization`` are rewritten by
    the background GC.  ``codec``/``k``/``m`` shape the per-stripe
    erasure code (and the per-object path large values still take).
    """

    threshold: int = 4 * 1024
    stripe_capacity: int = 64 * 1024
    seal_timeout: float = 0.005
    compact_utilization: float = 0.5
    codec: str = "rs_van"
    k: int = 3
    m: int = 2

    def __post_init__(self):
        if self.threshold <= 0:
            raise ValueError("threshold must be > 0")
        if self.stripe_capacity < self.threshold:
            raise ValueError(
                "stripe_capacity (%d) must hold at least one threshold-"
                "sized object (%d)" % (self.stripe_capacity, self.threshold)
            )
        if not 0.0 <= self.compact_utilization <= 1.0:
            raise ValueError("compact_utilization must be in [0, 1]")
        if self.seal_timeout <= 0:
            raise ValueError("seal_timeout must be > 0")


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

    def __post_init__(self):
        if self.scan_period <= 0:
            raise ValueError("scan_period must be > 0")
        if self.audit_period < 0:
            raise ValueError("audit_period must be >= 0")
        if not 0.0 < self.epsilon < 1.0:
            raise ValueError("epsilon must be in (0, 1)")
        if not 0.0 < self.p_bound < 1.0:
            raise ValueError("p_bound must be in (0, 1)")


class Features:
    """The feature-flag builder; compiles into request plans.

    Mutable: every ``with_*`` / ``harden`` / ``disable`` call mutates
    this object, notifies its observers (the owning
    :class:`~repro.core.cluster.KVCluster`, which recompiles all plans)
    and returns ``self`` for chaining::

        config = Features().harden().with_admission_control()
        cluster = build_cluster(..., config=config)
        ...
        config.with_overload()       # mid-run: plans recompile now

    A ``with_*`` builder takes its config dataclass's fields as
    keywords and stores the config it builds: the dataclass owns each
    field's default and check, so a rejected value raises
    ``ValueError`` before anything is stored.

    Flags
    -----
    ``hardening``
        Optional :class:`RetryPolicy` for deadlines/retries/hedging/
        durable writes.  ``None`` keeps the paper's bare request path.
    ``overload``
        Whether every client of the cluster carries an overload guard
        (breakers, AIMD window, brownout), whatever per-client policy it
        has.  The guard's settings live next to its mechanisms.
    ``admission``
        Optional :class:`AdmissionConfig` bounding every server's
        request queue.
    ``membership`` / ``stripes`` / ``scrubbing``
        Optional :class:`MembershipConfig` / :class:`StripesConfig` /
        :class:`ScrubConfig`; the cluster builds the SWIM detector, the
        stripe-packing scheme or the scrubber from it.
    ``integrity``
        End-to-end CRCs: servers stamp/verify item checksums, clients
        and servers verify response payloads.  On by default (matching
        the store's historical behavior).

    Chaos is not a flag: a :class:`~repro.faults.engine.ChaosEngine`
    built on the cluster attaches itself.
    """

    def __init__(self):
        self.hardening: Optional[RetryPolicy] = None
        self.overload = False
        self.admission: Optional[AdmissionConfig] = None
        self.membership: Optional[MembershipConfig] = None
        self.stripes: Optional[StripesConfig] = None
        self.scrubbing: Optional[ScrubConfig] = None
        self.integrity = True
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

    def with_overload(self) -> "Features":
        """Enable client-side overload protection (breakers, AIMD, brownout)."""
        self.overload = True
        return self._touch()

    def with_admission_control(self, **fields) -> "Features":
        """Enable bounded-queue admission control on every server
        (``fields``: see :class:`AdmissionConfig`)."""
        self.admission = AdmissionConfig(**fields)
        return self._touch()

    def with_membership(self, detector: str = "swim", **fields) -> "Features":
        """Declare the SWIM failure detector (``fields``: see
        :class:`MembershipConfig`).

        ``detector`` must be ``"swim"``, the only detector.  The cluster
        constructs it on recompile and exposes it as ``cluster.detector``;
        call ``cluster.detector.start(horizon)`` to launch the probe
        loops.  The default fast path (no membership config) pays nothing.
        """
        if detector != "swim":
            raise ValueError("unknown detector %r (choices: swim)" % detector)
        self.membership = MembershipConfig(**fields)
        return self._touch()

    def with_small_object_stripes(self, **fields) -> "Features":
        """Pack small Sets into erasure-coded stripes, MemEC-style
        (``fields``: see :class:`StripesConfig`).

        The cluster wraps its scheme in a :class:`~repro.stripes.scheme.
        StripedScheme` on recompile; ``disable("stripes")`` unwraps it.
        The default fast path (no stripes config) pays nothing.
        """
        self.stripes = StripesConfig(**fields)
        return self._touch()

    def with_scrubbing(self, **fields) -> "Features":
        """Attach a continuous integrity scrubber (``fields``: see
        :class:`ScrubConfig`).

        The cluster constructs it on recompile and exposes it as
        ``cluster.scrubber``; call ``cluster.scrubber.start(horizon)`` to
        launch the scan (and, with ``audit_period > 0``, audit) loops.
        The default fast path (no scrub config) pays nothing.
        """
        self.scrubbing = ScrubConfig(**fields)
        return self._touch()

    def with_integrity(self, enabled: bool = True) -> "Features":
        """Toggle end-to-end CRC stamping and verification."""
        self.integrity = enabled
        return self._touch()

    def with_write_versioning(self, enabled: bool = True) -> "Features":
        """Accepted for callers written when the stale-write guard was a
        switch; changes nothing, since every server always runs it.

        ``benchmarks/kv/feature_tax.py`` still prices it as a row.
        Turning the guard off is refused with ``ValueError``.
        """
        if enabled is not True:
            raise ValueError("the stale-write guard cannot be turned off")
        return self

    def disable(self, *names: str) -> "Features":
        """Turn the named features off (``"hardening"``, ``"overload"``,
        ``"admission"``, ``"membership"``, ``"stripes"``,
        ``"scrubbing"``)."""
        for name in names:
            if name not in (
                "hardening",
                "overload",
                "admission",
                "membership",
                "stripes",
                "scrubbing",
            ):
                raise ValueError("unknown feature %r" % name)
            setattr(self, name, False if name == "overload" else None)
        return self._touch()

    # -- compilation ---------------------------------------------------------
    def compile_client_plan(
        self, policy: Optional[RetryPolicy] = None
    ) -> ClientPlan:
        """Compile the plan for one client (``policy`` overrides the
        cluster's hardening)."""
        return compile_client_plan(
            policy or self.hardening,
            integrity=self.integrity,
            overload=self.overload,
        )

    def compile_server_plan(self) -> ServerPlan:
        """Compile the plan every server of the cluster applies."""
        return ServerPlan(admission=self.admission, integrity=self.integrity)

    # -- change notification -------------------------------------------------
    def _touch(self) -> "Features":
        for observer in self._observers:
            observer(self)
        return self


#: The config-at-construction name: ``build_cluster(config=ClusterConfig()
#: .harden())``.  Same class; both names are part of the public API.
ClusterConfig = Features
