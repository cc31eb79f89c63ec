"""The key-value store client library.

Mirrors RDMA-Libmemcached's two API families:

- **Blocking** (``memcached_set``/``memcached_get``): :meth:`KVClient.set`
  and :meth:`KVClient.get` are generator methods driven to completion by
  the calling process — the process waits for the full resilience
  round-trip (this is what ``Sync-Rep`` uses).
- **Non-blocking** (``memcached_iset``/``iget``/``test``/``wait``):
  :meth:`KVClient.iset`/:meth:`KVClient.iget` enqueue the operation into
  the ARPE and return a :class:`RequestHandle`; completions are reaped
  with :meth:`KVClient.test`/:meth:`KVClient.wait`.

How an individual operation touches servers — one copy, F replicas, or
K+M erasure-coded chunks — is delegated to the attached resilience scheme.
Schemes return typed :class:`~repro.store.result.OpResult` values; the
blocking API unwraps them into the historical return conventions
(``True``/``False`` for Set, ``Payload``/``None`` for Get, exceptions for
hard failures) so existing callers are unaffected.
"""

from __future__ import annotations

import itertools
from typing import Any, Dict, Generator, Iterable, List, Optional

from repro.common.payload import Payload
from repro.common.stats import LatencyRecorder
from repro.ec.cost_model import CodingCostModel
from repro.network.fabric import Fabric, Message
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import NULL_TRACER, Span
from repro.overload.guard import OverloadGuard
from repro.overload.repair import ReadRepairQueue
from repro.simulation import Event, Simulator, Timeout
from repro.store import protocol
from repro.store.arpe import AsyncRequestEngine, OpMetrics, RequestHandle
from repro.store.hashring import HashRing
from repro.store.plan import ClientPlan, compile_client_plan
from repro.store.policy import DEFAULT_POLICY, AdaptiveCutoff, RetryPolicy
from repro.store.protocol import PendingTable, Request, Response
from repro.store.result import ErrorCode, OpResult


class KVStoreError(Exception):
    """A key-value operation failed (e.g. all replicas unreachable).

    Carries the typed :class:`ErrorCode` in :attr:`code`.
    """

    def __init__(self, message: str, code: ErrorCode = ErrorCode.SERVER_ERROR):
        super().__init__(message)
        self.code = code


def _batch_result(results: Dict[str, OpResult]) -> OpResult:
    """Summarize per-key outcomes into the batch handle's result.

    The batch is ``ok`` when every key succeeded; otherwise it carries
    the first failure's code and names the failed keys.
    """
    failed = {key: r for key, r in results.items() if not r.ok}
    if not failed:
        return OpResult.success()
    first = next(iter(failed.values()))
    return OpResult.failure(
        first.error,
        "%d/%d keys failed: %s"
        % (len(failed), len(results), ", ".join(sorted(failed))),
    )


class KVClient:
    """One application client attached to the server cluster."""

    #: the chunk holder an erasure scheme reaches in place when this
    #: coordinates a Set or Get: none for a client (see
    #: :class:`~repro.resilience.coordinator.ServerCoordinator`)
    local = None

    def __init__(
        self,
        sim: Simulator,
        fabric: Fabric,
        name: str,
        ring: HashRing,
        scheme,
        cost_model: Optional[CodingCostModel] = None,
        window: int = 32,
        buffer_pool: int = 64,
        host: Optional[str] = None,
        tracer=None,
        metrics: Optional[MetricsRegistry] = None,
        policy: Optional[RetryPolicy] = None,
    ):
        self.sim = sim
        self.fabric = fabric
        self.name = name
        self.ring = ring
        self.scheme = scheme
        self.cost_model = cost_model or CodingCostModel(
            cpu_speed_factor=fabric.profile.cpu_speed_factor
        )
        self.tracer = tracer or NULL_TRACER
        self.metrics = metrics or MetricsRegistry()
        self.policy = policy or DEFAULT_POLICY
        #: whether this client was handed its own policy (a cluster does
        #: not overwrite an explicit per-client policy on recompiles)
        self.explicit_policy = policy is not None
        #: rolling chunk-fetch latency window driving hedged reads
        self.hedge_cutoff = AdaptiveCutoff()
        self._retries_counter = self.metrics.counter("client.retries")
        self._retries_shed = self.metrics.counter("client.retries_shed")
        self._request_timeouts = self.metrics.counter(
            "client.request_timeouts"
        )
        self._op_timeouts = self.metrics.counter("client.op_timeouts")
        self._corrupt_responses = self.metrics.counter(
            "client.corrupt_responses"
        )
        #: logical payload bytes of every acknowledged Set — the
        #: denominator of ``cluster.memory_overhead_ratio()``
        self._acked_bytes = self.metrics.counter("client.acked_bytes")
        self.endpoint = fabric.add_node(name, host=host)
        self.pending = PendingTable(sim)
        self.engine = AsyncRequestEngine(
            sim,
            window=window,
            buffer_pool=buffer_pool,
            tracer=self.tracer,
            metrics=self.metrics,
        )
        self.recorder = LatencyRecorder()
        self._req_seq = itertools.count(1)
        #: lane stamped into outgoing requests lacking one ("bg" marks
        #: rebuild/repair traffic for the servers' priority queues)
        self.default_lane: Optional[str] = None
        #: overload guard (breakers, AIMD window, brownout) — present only
        #: while the cluster's plan opts in, so the fast request path is
        #: untouched otherwise
        self.guard: Optional[OverloadGuard] = None
        #: bounded, metered read-repair queue (brownout-sheddable)
        self.read_repair = ReadRepairQueue(self)
        # Standalone compile: a client outside a cluster resolves its own
        # policy into a plan, which never has a guard.  A cluster with a
        # Features config re-applies via apply_plan().
        self.plan: ClientPlan = compile_client_plan(self.policy)
        self._use_retries = self.plan.use_retries
        self._timeout = self.plan.timeout
        self._verify_crc = self.plan.verify_crc
        self.endpoint.on_message = self._on_message

    def apply_plan(self, plan: ClientPlan) -> None:
        """Adopt a freshly compiled plan (cluster feature recompile).

        Everything the plan resolves is re-derived here — policy,
        overload guard, read-repair brownout binding — so a mid-run
        ``Features`` mutation takes effect on the very next operation.
        Learned runtime state survives: the hedge cutoff keeps its
        latency samples, and the guard its breakers, AIMD window and
        brownout level for as long as the overload switch stays on.
        """
        self.plan = plan
        self.policy = plan.policy
        if plan.use_guard:
            if self.guard is None:
                self.guard = OverloadGuard(self)
        elif self.guard is not None:
            # Returning to the fast path: hand back any window capacity
            # AIMD had clawed away, then drop the guard entirely.
            aimd = self.guard.aimd
            if aimd.resource.capacity < aimd.ceiling:
                aimd.resource.resize(aimd.ceiling)
            self.guard = None
        self.read_repair.rebind(
            self.guard.brownout if self.guard is not None else None
        )
        self._use_retries = plan.use_retries
        self._timeout = plan.timeout
        self._verify_crc = plan.verify_crc

    # -- plumbing ---------------------------------------------------------
    def _on_message(self, message: Message) -> None:
        # Direct dispatch at delivery time (no inbox/dispatcher process).
        response = message.payload
        if not isinstance(response, Response):
            return
        if (
            self._verify_crc
            and response.ok
            and response.value is not None
            and response.value.has_data
        ):
            # End-to-end integrity: the server stamps the stored item's
            # CRC into the response meta; bytes mangled in flight turn
            # the response into a typed CORRUPT failure so the scheme
            # can re-fetch (from parity, for erasure reads).
            expected = response.meta.get("crc")
            if (
                expected is not None
                and response.value.checksum() != expected
            ):
                self._corrupt_responses.inc()
                # the original response is discarded, so the rewrap can
                # take ownership of its meta instead of copying it
                response = Response(
                    req_id=response.req_id,
                    ok=False,
                    server=response.server,
                    error=protocol.ERR_CORRUPT,
                    meta=response.meta,
                )
        if self.guard is not None:
            self.guard.observe_response(response.server, response)
        self.pending.complete(response)

    def _note_request_timeout(
        self, _request: Request, dst: Optional[str] = None
    ) -> None:
        self._request_timeouts.inc()
        if self.guard is not None and dst is not None:
            self.guard.record(dst, ErrorCode.TIMEOUT)

    def request(
        self,
        dst: str,
        op: str,
        key: str,
        value: Optional[Payload] = None,
        meta: Optional[Dict[str, Any]] = None,
        span: Optional[Span] = None,
        timeout: Optional[float] = None,
        arrivals: Optional[protocol.Arrivals] = None,
    ):
        """Post one raw request; event fires with the :class:`Response`.

        ``span`` (usually the operation span) parents the fabric's
        transfer span for the outgoing request.  ``timeout`` overrides the
        policy's per-request deadline for this one request.  With
        ``arrivals`` (a chunk gather's queue) the response is queued
        there instead, and the request id it will carry is returned.
        """
        # metaless requests share the EMPTY_META sentinel; callers that do
        # pass meta get a private copy (they own their dict and may reuse
        # it across sends)
        req = Request(
            op,
            key,
            next(self._req_seq),
            self.name,
            value,
            dict(meta) if meta else None,
        )
        if self.default_lane is not None:
            protocol.meta_setdefault(req, "lane", self.default_lane)
        waiter = self.pending.register(req.req_id, arrivals)
        handle = waiter if arrivals is None else req.req_id
        if timeout is None:
            timeout = self._timeout
            if timeout is None and self.guard is None:
                # Fast path: no deadline to arm, no guard to consult —
                # the request goes straight onto the wire with zero
                # closures allocated.
                protocol.issue_request(
                    self.fabric,
                    self.pending,
                    req,
                    dst,
                    span=span,
                    waiter=waiter,
                )
                return handle

        def _on_timeout(request: Request, _dst: str = dst) -> None:
            self._note_request_timeout(request, _dst)

        if self.guard is not None:
            hint = self.guard.refusal(dst)
            if hint is not None:
                # Local fast-fail: the breaker is open (or the server
                # told us to stay away).  Synthesize the same typed
                # SERVER_BUSY the server would send, without touching
                # the wire; ``breaker`` marks it as local so the guard
                # never mistakes its own rejection for server evidence.
                self.pending.complete(
                    Response(
                        req_id=req.req_id,
                        ok=False,
                        server=dst,
                        error=protocol.ERR_BUSY,
                        meta={"breaker": True, "retry_after": hint},
                    )
                )
                return handle
        protocol.issue_request(
            self.fabric,
            self.pending,
            req,
            dst,
            span=span,
            timeout=timeout,
            on_timeout=_on_timeout,
            waiter=waiter,
        )
        return handle

    def cancel_request(self, dst: str, key: str, req_id: int) -> None:
        """Tell ``dst`` to abandon our in-flight request ``req_id`` (for
        ``key``, which the cancel carries so it costs a request's bytes).

        Fire-and-forget advisory (best effort, no reply): a gather that
        abandons a hedge loser or a flood leftover uses it so the holder
        stops burning CPU on it.  The holder drops exactly that request;
        a cancel that arrives after it was served matches nothing.
        """
        req = Request(
            op="cancel",
            key=key,
            req_id=next(self._req_seq),
            reply_to=self.name,
            meta={"req_id": req_id},
        )
        self.metrics.counter("client.cancels_sent").inc()
        event = self.fabric.send(
            self.name,
            dst,
            size=req.wire_size(),
            payload=req,
            tag=protocol.TAG_REQUEST,
        )
        event.defuse()  # dead destination: nothing left to cancel anyway

    def next_req_id(self) -> int:
        """Allocate a request id (shared by KV and Lustre traffic)."""
        return next(self._req_seq)

    def compute(self, seconds: float) -> Event:
        """Charge client-side compute (encode/decode) as virtual time."""
        return Timeout(self.sim, seconds if seconds > 0.0 else 0.0)

    # -- retry driver -----------------------------------------------------
    def _run_with_retries(self, attempt_fn, first: Optional[OpResult] = None):
        """Drive an operation through the policy's backoff retries.

        ``attempt_fn`` is a thunk returning a *fresh* scheme generator per
        call.  Only :attr:`ErrorCode.retryable` failures are retried, with
        exponential backoff, until ``max_retries`` or the operation
        deadline is exhausted.  ``first`` seeds the loop with an already
        observed attempt-0 result (used by the batched APIs, which retry
        only the keys their fan-out left behind).  With the default
        policy (``max_retries=0``) this is a pass-through.
        """
        policy = self.policy
        deadline = None
        if policy.op_deadline is not None:
            deadline = self.sim.now + policy.op_deadline
        attempt = 0
        result = first
        while True:
            if result is None:
                result = yield from attempt_fn()
            if (
                result.ok
                or not result.error.retryable
                or attempt >= policy.max_retries
            ):
                return result
            if deadline is not None and self.sim.now >= deadline:
                self._op_timeouts.inc()
                return OpResult.failure(
                    ErrorCode.TIMEOUT,
                    "op deadline exceeded after %d attempts (last: %s)"
                    % (attempt + 1, result.error_text),
                )
            if (
                self.guard is not None
                and self.guard.brownout.shed_retries
                and result.error
                in (ErrorCode.SERVER_BUSY, ErrorCode.TIMEOUT)
            ):
                # Brownout OVERLOAD: retrying busy/timeout failures against
                # a saturated cluster is the amplification loop itself —
                # fail fast and let the caller's typed result say why.
                self._retries_shed.inc()
                return result
            attempt += 1
            self._retries_counter.inc()
            delay = policy.backoff(attempt)
            if delay > 0:
                yield self.sim.timeout(delay)
            result = None

    # -- blocking API ---------------------------------------------------------
    def set(self, key: str, value: Payload) -> Generator:
        """Blocking Set through the resilience scheme; returns ``True`` on
        success.  Drive with ``ok = yield from client.set(...)``."""
        metrics = OpMetrics(self.sim.now)
        metrics.started_at = self.sim.now
        if self.tracer.enabled:
            with self.tracer.span(
                self.name, "set:%s" % key, category="op"
            ) as span:
                metrics.span = span
                if self._use_retries:
                    result = yield from self._run_with_retries(
                        lambda: self.scheme.set(self, key, value, metrics)
                    )
                else:
                    result = yield from self.scheme.set(
                        self, key, value, metrics
                    )
        elif self._use_retries:
            result = yield from self._run_with_retries(
                lambda: self.scheme.set(self, key, value, metrics)
            )
        else:
            result = yield from self.scheme.set(self, key, value, metrics)
        metrics.completed_at = self.sim.now
        self.recorder.record("set", metrics.latency)
        if self.guard is not None:
            self.guard.note_latency(metrics.latency)
        if result.ok:
            self._acked_bytes.inc(value.size)
            return True
        if result.error is ErrorCode.OUT_OF_MEMORY:
            return False
        raise KVStoreError(
            "set %r failed: %s" % (key, result.error_text), result.error
        )

    def get(self, key: str) -> Generator:
        """Blocking Get; returns the :class:`Payload` or ``None`` on miss."""
        metrics = OpMetrics(self.sim.now)
        metrics.started_at = self.sim.now
        if self.tracer.enabled:
            with self.tracer.span(
                self.name, "get:%s" % key, category="op"
            ) as span:
                metrics.span = span
                if self._use_retries:
                    result = yield from self._run_with_retries(
                        lambda: self.scheme.get(self, key, metrics)
                    )
                else:
                    result = yield from self.scheme.get(self, key, metrics)
        elif self._use_retries:
            result = yield from self._run_with_retries(
                lambda: self.scheme.get(self, key, metrics)
            )
        else:
            result = yield from self.scheme.get(self, key, metrics)
        metrics.completed_at = self.sim.now
        self.recorder.record("get", metrics.latency)
        if self.guard is not None:
            self.guard.note_latency(metrics.latency)
        if result.ok:
            return result.value
        if result.error is ErrorCode.NOT_FOUND:
            return None
        raise KVStoreError(
            "get %r failed: %s" % (key, result.error_text), result.error
        )

    def delete(self, key: str) -> Generator:
        """Blocking Delete; ``True`` when the key existed, ``False`` on a
        miss.  Only schemes with an authoritative delete (the stripe
        path) support it."""
        scheme_delete = getattr(self.scheme, "delete", None)
        if scheme_delete is None:
            raise KVStoreError(
                "scheme %r has no delete" % self.scheme.name,
                ErrorCode.SERVER_ERROR,
            )
        metrics = OpMetrics(self.sim.now)
        metrics.started_at = self.sim.now
        result = yield from scheme_delete(self, key, metrics)
        metrics.completed_at = self.sim.now
        self.recorder.record("delete", metrics.latency)
        if result.ok:
            return True
        if result.error is ErrorCode.NOT_FOUND:
            return False
        raise KVStoreError(
            "delete %r failed: %s" % (key, result.error_text), result.error
        )

    # -- non-blocking API -----------------------------------------------------
    def iset(self, key: str, value: Payload) -> RequestHandle:
        """memcached_iset: enqueue a Set, return its handle immediately."""
        handle = RequestHandle(self.sim, "set", key)
        if self.tracer.enabled:
            handle.metrics.span = self.tracer.span(
                self.name, "set:%s" % key, category="op"
            )
        self._record_on_done(handle)

        def runner(h: RequestHandle) -> Generator:
            if self._use_retries:
                result = yield from self._run_with_retries(
                    lambda: self.scheme.set(self, key, value, h.metrics)
                )
            else:
                result = yield from self.scheme.set(self, key, value, h.metrics)
            if result.ok:
                self._acked_bytes.inc(value.size)
            return result

        return self.engine.submit(handle, runner)

    def iget(self, key: str) -> RequestHandle:
        """memcached_iget: enqueue a Get, return its handle immediately."""
        handle = RequestHandle(self.sim, "get", key)
        if self.tracer.enabled:
            handle.metrics.span = self.tracer.span(
                self.name, "get:%s" % key, category="op"
            )
        self._record_on_done(handle)

        def runner(h: RequestHandle) -> Generator:
            if self._use_retries:
                return (
                    yield from self._run_with_retries(
                        lambda: self.scheme.get(self, key, h.metrics)
                    )
                )
            return (yield from self.scheme.get(self, key, h.metrics))

        return self.engine.submit(handle, runner)

    def multi_set(self, items: Iterable) -> RequestHandle:
        """Batched Set: store many (key, value) pairs as ONE ARPE operation.

        The whole batch occupies a single window slot and registered
        buffer, amortizing per-op setup; schemes with client-side encode
        pipeline every key's chunk fan-out before the first wait.  The
        returned handle completes when the entire batch has; per-key
        outcomes land in ``handle.results`` (``{key: OpResult}``).
        """
        items = [(key, value) for key, value in items]
        handle = RequestHandle(self.sim, "multi_set", "[%d keys]" % len(items))
        if self.tracer.enabled:
            handle.metrics.span = self.tracer.span(
                self.name, "multi_set[%d]" % len(items), category="op"
            )
        self._record_on_done(handle)

        def runner(h: RequestHandle) -> Generator:
            results = yield from self.scheme.multi_set(self, items, h.metrics)
            if self._use_retries:
                for key, value in items:
                    prior = results.get(key)
                    if prior is None or prior.ok or not prior.error.retryable:
                        continue
                    results[key] = yield from self._run_with_retries(
                        lambda key=key, value=value: self.scheme.set(
                            self, key, value, h.metrics
                        ),
                        first=prior,
                    )
            for key, value in items:
                outcome = results.get(key)
                if outcome is not None and outcome.ok:
                    self._acked_bytes.inc(value.size)
            h.results = results
            return _batch_result(results)

        return self.engine.submit(handle, runner)

    def multi_get(self, keys: Iterable[str]) -> RequestHandle:
        """Batched Get: fetch many keys as ONE ARPE operation.

        Like :meth:`multi_set`: one window slot for the batch, per-key
        :class:`OpResult` values in ``handle.results`` on completion
        (``handle.results[key].value`` is the fetched payload).
        """
        keys = list(keys)
        handle = RequestHandle(self.sim, "multi_get", "[%d keys]" % len(keys))
        if self.tracer.enabled:
            handle.metrics.span = self.tracer.span(
                self.name, "multi_get[%d]" % len(keys), category="op"
            )
        self._record_on_done(handle)

        def runner(h: RequestHandle) -> Generator:
            results = yield from self.scheme.multi_get(self, keys, h.metrics)
            if self._use_retries:
                for key in keys:
                    prior = results.get(key)
                    if prior is None or prior.ok or not prior.error.retryable:
                        continue
                    results[key] = yield from self._run_with_retries(
                        lambda key=key: self.scheme.get(self, key, h.metrics),
                        first=prior,
                    )
            h.results = results
            return _batch_result(results)

        return self.engine.submit(handle, runner)

    def imget(self, keys: Iterable[str]) -> List[RequestHandle]:
        """Bulk non-blocking Get: one handle per key, all in flight.

        The paper's Section III observation — "any bulk Set/Get request
        access patterns can overlap the (D/B) factor" — in API form: the
        per-key transfers share the window and pipeline together.
        """
        return [self.iget(key) for key in keys]

    def mget(self, keys: Iterable[str]) -> Generator:
        """Blocking bulk Get; returns ``{key: Payload-or-None}``.

        Drive with ``values = yield from client.mget([...])``.  Misses and
        per-key failures map to ``None`` (libmemcached ``memcached_mget``
        semantics).
        """
        handles = self.imget(list(keys))
        yield self.wait(handles)
        return {handle.key: handle.result.value for handle in handles}

    def test(self, handle: RequestHandle) -> bool:
        """memcached_test: non-blocking completion check."""
        return self.engine.test(handle)

    def wait(self, handles: Iterable[RequestHandle]) -> Event:
        """memcached_wait: event that fires when all handles completed,
        with their :class:`OpResult` list as its value."""
        return self.engine.wait_all(list(handles))

    def wait_any(self, handles: Iterable[RequestHandle]) -> Event:
        """Event firing with the first completed :class:`RequestHandle`."""
        return self.engine.wait_any(list(handles))

    def _record_on_done(self, handle: RequestHandle) -> None:
        def _record(_event: Event) -> None:
            self.recorder.record(handle.op, handle.metrics.latency)
            if self.guard is not None:
                self.guard.note_latency(handle.metrics.latency)

        handle.done.callbacks.append(_record)

    # -- introspection --------------------------------------------------------
    def latencies(self, kind: str) -> List[float]:
        """All recorded latencies for ``kind`` (\"set\" or \"get\")."""
        return self.recorder.samples(kind)
