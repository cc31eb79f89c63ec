"""The Memcached server process.

Each server owns a slab cache and a pool of worker threads (a simulated
resource — CPU phases contend for it), and serves each request as it is
delivered.  The built-in ops (``set``/``get``/``delete``) run as
a short callback chain with no process per request; the server-side
erasure designs (Era-SE-*), stripes and SWIM register generator handlers
via :meth:`MemcachedServer.register_handler`, which run one process per
request and use the server's embedded request path (its ARPE, in the
paper's terms) to talk to peer servers.

A failed server loses its endpoint *and* its memory contents — Memcached
is volatile, which is the entire premise of the paper.
"""

from __future__ import annotations

import itertools
from collections import OrderedDict
from typing import Any, Callable, Dict, Generator, Optional

from repro.common.payload import Payload
from repro.ec.cost_model import CodingCostModel
from repro.network.fabric import Fabric, Message
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import NULL_SPAN, NULL_TRACER
from repro.overload.admission import (
    LANE_BG,
    LANE_FG,
    SHED,
    AdmissionController,
)
from repro.simulation import Event, Resource, Simulator, Timeout
from repro.store import protocol
from repro.store.plan import ServerPlan
from repro.store.protocol import PendingTable, Request, Response
from repro.store.slab import STALE, SlabCache

#: Base CPU cost of parsing a request and probing the hash table.
REQUEST_PARSE_CPU = 0.5e-6
#: CPU cost per payload byte touched (copy into/out of slab memory).
COPY_CPU_PER_BYTE = 2.0e-11
#: CPU cost per byte of checksum verification (hardware CRC32C rate).
CHECKSUM_CPU_PER_BYTE = 5.0e-11

#: Bound on the remembered-cancellation set: cancels for requests that
#: never arrive (already served, lost on a dead link) age out FIFO.
CANCEL_SET_LIMIT = 1024

Handler = Callable[["MemcachedServer", Request], Generator]


class RequestCancelled(Exception):
    """The client cancelled this request; abort service without replying."""


class MemcachedServer:
    """One RDMA-Memcached server instance in the simulated cluster."""

    def __init__(
        self,
        sim: Simulator,
        fabric: Fabric,
        name: str,
        memory_limit: int,
        worker_threads: int = 8,
        cost_model: Optional[CodingCostModel] = None,
        verify_on_read: bool = True,
        tracer=None,
        metrics: Optional[MetricsRegistry] = None,
    ):
        self.sim = sim
        self.fabric = fabric
        self.name = name
        self.tracer = tracer or NULL_TRACER
        self.metrics = metrics or MetricsRegistry()
        self.memory_limit = memory_limit
        # Flyweight state: the slab cache (~40 slab classes) and the
        # queue-depth histogram materialize on first touch, so the
        # thousands of servers in a scale soak that never store a byte or
        # queue a request cost almost nothing to build or keep around.
        self._cache: Optional[SlabCache] = None
        self._queue_depth_hist = None
        self.endpoint = fabric.add_node(name)
        #: verify stored checksums on every Get (detects bit rot; a
        #: corrupt item is reported so the resilience layer can recover
        #: it from replicas or parity chunks)
        self.verify_on_read = verify_on_read
        self.corruption_detected = 0
        self.workers = Resource(sim, worker_threads)
        self.cost_model = cost_model or CodingCostModel()
        self.cpu_speed = fabric.profile.cpu_speed_factor
        #: multiplier applied to every CPU charge — a chaos engine models
        #: a gray "slow node" by raising it above 1.0 for a while.
        self.cpu_throttle = 1.0
        #: optional deadline for this server's requests to peer servers
        #: (the embedded ARPE); ``None`` keeps peers waiting forever.
        self.peer_timeout = None
        self.handlers: Dict[str, Handler] = {}
        self.pending = PendingTable(sim)
        self._req_seq = itertools.count(1)
        self.alive = True
        #: bumped by every crash: whatever the node stored before is gone
        self.crashes = 0
        self.requests_handled = 0
        self.peer_requests_sent = 0
        #: optional admission controller, built by :meth:`apply_plan` from
        #: the plan's ``AdmissionConfig``; ``None`` keeps the legacy
        #: queue-forever behavior.
        self.admission: Optional[AdmissionController] = None
        #: cancelled requests ``(reply_to, req_id)`` → bounded FIFO; the
        #: request path consults it only while it holds an entry
        self._cancelled: "OrderedDict[tuple, bool]" = OrderedDict()
        #: optional callback(key, value_len) invoked after a successful
        #: store — the Boldio burst buffer hooks its async flusher here.
        self.on_store = None
        # CRC stamping on ingest: on for a standalone server; a cluster's
        # Features config can turn it off via apply_plan()
        self._stamp_crc = True
        self._service_name = "%s.req" % name
        self.endpoint.on_message = self._on_message

    @property
    def cache(self) -> SlabCache:
        """The slab cache, materialized on first use."""
        cache = self._cache
        if cache is None:
            cache = self._cache = SlabCache(
                self.memory_limit,
                metrics=self.metrics,
                metric_prefix="slab.%s" % self.name,
            )
        return cache

    @property
    def _queue_depth(self):
        """The queue-depth histogram, materialized on first contention."""
        hist = self._queue_depth_hist
        if hist is None:
            hist = self._queue_depth_hist = self.metrics.histogram(
                "server.%s.queue_depth" % self.name
            )
        return hist

    def apply_plan(self, plan: ServerPlan) -> None:
        """Adopt a compiled :class:`ServerPlan` (cluster feature recompile).

        Resolves, once, what the request loop would otherwise probe per
        message: admission control and CRC stamp/verify.  The stale-write
        guard and cancel bookkeeping are not switches: they always run.
        """
        config = plan.admission
        if config is None:
            self.admission = None
        elif self.admission is None:
            # one slot per worker thread: the admission controller is the
            # *only* queue in front of the workers, so an admitted
            # request always finds an uncontended worker
            self.admission = AdmissionController(
                self.sim,
                slots=self.workers.capacity,
                config=config,
                metrics=self.metrics,
                name=self.name,
                depth_histogram=self._queue_depth,
            )
        self.verify_on_read = self._stamp_crc = plan.integrity

    # -- lifecycle ----------------------------------------------------------
    def fail(self) -> None:
        """Crash the node: unreachable, and DRAM contents are gone."""
        self.alive = False
        self.crashes += 1
        self.endpoint.fail()
        if self._cache is not None:  # nothing stored -> nothing to lose
            self._cache.wipe()

    def recover(self) -> None:
        """Bring the node back empty (cold restart)."""
        self.alive = True
        self.endpoint.recover()

    def corrupt_item(self, key: str, byte_offset: int = 0) -> bool:
        """Test hook: flip one byte of a stored item (simulated bit rot)."""
        item = self.cache.peek(key)
        if item is None or item.data is None:
            return False
        data = bytearray(item.data)
        data[byte_offset % len(data)] ^= 0xFF
        item.data = bytes(data)
        return True

    # -- extension hook -------------------------------------------------------
    def register_handler(self, op: str, handler: Handler) -> None:
        """Attach a handler for a scheme-specific op (e.g. ``se_set``)."""
        if op in self.handlers:
            raise ValueError("handler for op %r already registered" % op)
        self.handlers[op] = handler

    def unregister_handler(self, op: str) -> None:
        """Detach a previously registered op handler (no-op when absent)."""
        self.handlers.pop(op, None)

    # -- overload protection --------------------------------------------------
    def note_cancel(self, reply_to: str, req_id: int) -> None:
        """Remember ``reply_to``'s cancellation of its request ``req_id``.

        The canceller (a gather abandoning a hedge loser or a flood
        leftover) holds the request id of every fetch it posted, so a
        cancel matches exactly the request it names: one that was
        already served matches nothing and ages out, and never swallows
        a later request for the same chunk.  A duplicate delivery of the
        cancelled request carries the same id and is dropped too.
        """
        self.metrics.counter("server.cancels_received").inc()
        self._cancelled[(reply_to, req_id)] = True
        while len(self._cancelled) > CANCEL_SET_LIMIT:
            self._cancelled.popitem(last=False)

    def _consume_cancel(self, request: Request) -> bool:
        """Whether ``request`` was cancelled (forgetting the cancel).
        Callers skip it while no cancel is remembered."""
        return self._cancelled.pop((request.reply_to, request.req_id), False)

    # -- CPU accounting -------------------------------------------------------
    def cpu(
        self, seconds: float, request: Optional[Request] = None
    ) -> Generator:
        """Occupy one worker thread for ``seconds`` of compute.

        ``seconds`` must already reflect this cluster's CPU speed (the
        coding cost model is constructed with the profile's speed factor);
        this method only adds worker-thread contention.

        Passing the ``request`` being served makes the phase cancellable:
        if the client cancelled it (hedge loser, satisfied gather), the
        phase raises :class:`RequestCancelled` *after* securing the
        worker — so the release in the finally block always balances —
        and before burning the compute.
        """
        if seconds <= 0:
            return
        seconds *= self.cpu_throttle
        req = self.workers.request()
        if not req.processed:  # uncontended grants need no suspension
            self._queue_depth.observe(self.workers.queued)
            yield req
        try:
            if (
                request is not None
                and self._cancelled
                and self._consume_cancel(request)
            ):
                raise RequestCancelled(request.key)
            yield self.sim.timeout(seconds)
        finally:
            self._release_worker(req)

    def _release_worker(self, worker) -> None:
        contended = self.workers.queued > 0
        self.workers.release(worker)
        if contended:
            self._queue_depth.observe(self.workers.queued)

    def _base_cpu(self, message_size: int) -> float:
        """Parse cost plus the per-message host CPU the transport implies
        (IPoIB only)."""
        profile = self.fabric.profile
        return REQUEST_PARSE_CPU / self.cpu_speed + (
            profile.recv_cpu_per_message
            + message_size * profile.recv_cpu_per_byte
        )

    def next_req_id(self) -> int:
        """Allocate a request id (shared by KV and Lustre traffic)."""
        return next(self._req_seq)

    # -- embedded client path (the server's ARPE) ------------------------------
    def send_request(
        self,
        dst: str,
        op: str,
        key: str,
        value: Optional[Payload] = None,
        meta: Optional[Dict[str, Any]] = None,
        timeout: Optional[float] = None,
        arrivals: Optional[protocol.Arrivals] = None,
    ):
        """Issue a non-blocking request to a peer server.

        Returns an event that fires with the :class:`Response` (an
        unreachable peer answers ``ok=False``).  ``timeout`` overrides
        this server's :attr:`peer_timeout` for one request — the SWIM
        prober arms much tighter deadlines than data transfers.  With
        ``arrivals`` (a chunk gather's queue) the response is queued
        there instead, and the request id it will carry is returned.
        """
        request = Request(
            op=op,
            key=key,
            req_id=next(self._req_seq),
            reply_to=self.name,
            value=value,
            # peer callers hand over per-request dicts; metaless requests
            # share the EMPTY_META sentinel instead of allocating one each
            meta=meta,
        )
        self.peer_requests_sent += 1
        waiter = protocol.issue_request(
            self.fabric,
            self.pending,
            request,
            dst,
            timeout=timeout if timeout is not None else self.peer_timeout,
            waiter=self.pending.register(request.req_id, arrivals),
        )
        return waiter if arrivals is None else request.req_id

    # -- dispatch ---------------------------------------------------------
    def _on_message(self, message: Message) -> None:
        # Direct dispatch at delivery time (no inbox/dispatcher process).
        payload = message.payload
        if isinstance(payload, Response):
            if (
                self._stamp_crc
                and payload.ok
                and payload.value is not None
                and payload.value.has_data
            ):
                # Same end-to-end integrity check the client performs:
                # a peer response mangled in flight (e.g. a chunk fetched
                # during server-side decode) must surface as a typed
                # CORRUPT failure, never as silently accepted bytes.
                expected = payload.meta.get("crc")
                if (
                    expected is not None
                    and payload.value.checksum() != expected
                ):
                    self.metrics.counter("server.corrupt_responses").inc()
                    # the corrupt original is discarded; its meta can be
                    # handed to the rewrap without a copy
                    payload = Response(
                        req_id=payload.req_id,
                        ok=False,
                        server=payload.server,
                        error=protocol.ERR_CORRUPT,
                        meta=payload.meta,
                    )
            self.pending.complete(payload)
        elif isinstance(payload, Request):
            if payload.op == "cancel":
                # Pure bookkeeping: no service process, no reply.
                self.note_cancel(payload.reply_to, payload.meta["req_id"])
                return
            handler = self.handlers.get(payload.op)
            if handler is None:
                self._serve(payload, message.size)
                return
            self.sim.process(
                self._handle_request(payload, message.size, handler),
                name=(
                    "%s.%s" % (self.name, payload.op)
                    if self.tracer.enabled
                    else self._service_name
                ),
            )

    # -- stages shared by both service paths ------------------------------
    def _accept(self, request: Request) -> bool:
        """Count an arriving request; False when it is dropped because
        its client already cancelled it (a hedge loser still on the
        wire, or a duplicate delivery of one)."""
        self.requests_handled += 1
        if self._cancelled and self._consume_cancel(request):
            self.metrics.counter("server.cancelled_drops").inc()
            return False
        return True

    def _offer(
        self, request: Request, admission: AdmissionController
    ) -> Optional[Event]:
        """Ask admission for a slot; None (busy sent) when the lane is full."""
        lane = LANE_BG if request.meta.get("lane") == "bg" else LANE_FG
        ticket = admission.offer(lane)
        if ticket is None:
            self._send_busy(request)
        return ticket

    def _admitted(
        self,
        request: Request,
        admission: AdmissionController,
        outcome: str,
    ) -> bool:
        """Whether a decided admission ticket lets service begin."""
        if outcome == SHED:
            self._send_busy(request)
            return False
        if self._cancelled and self._consume_cancel(request):
            # Cancelled while queued: the slot was granted an instant
            # ago and nothing ran yet, so hand it straight back.
            self.metrics.counter("server.cancelled_drops").inc()
            admission.release(0.0)
            return False
        return True

    def _service_span(self, request: Request):
        if not self.tracer.enabled:
            return NULL_SPAN
        return self.tracer.span(
            self.name,
            "service:%s" % request.op,
            category="server-service",
            key=request.key,
        )

    def _reply(
        self,
        request: Request,
        response: Response,
        span,
        admission: Optional[AdmissionController],
    ) -> None:
        span.finish(ok=response.ok)
        if admission is not None:
            # Piggyback the backlog so clients' brownout controllers see
            # server pressure without a separate health channel.  The
            # response meta may be the shared sentinel or alias a stored
            # item's meta (the Get path), so stamping always copies.
            meta = dict(response.meta)
            meta["qd"] = admission.backlog
            response.meta = meta
        self._send(request, response)

    def _send(self, request: Request, response: Response) -> None:
        send_event = self.fabric.send(
            self.name,
            request.reply_to,
            size=response.wire_size(),
            payload=response,
            tag=protocol.TAG_RESPONSE,
        )
        send_event.defuse()  # a dead client simply never hears back

    def _send_busy(self, request: Request) -> None:
        """Reject with a typed SERVER_BUSY plus a deterministic retry hint.

        The whole point of admission control is that saying *no* costs
        near-zero CPU: no worker is held, no service survives this call.
        """
        self.metrics.counter("server.busy_rejects").inc()
        admission = self.admission
        self._send(
            request,
            Response(
                req_id=request.req_id,
                ok=False,
                server=self.name,
                error=protocol.ERR_BUSY,
                meta={
                    "retry_after": admission.retry_after(),
                    "qd": admission.backlog,
                },
            ),
        )

    # -- registered ops: one process per request ---------------------------
    def _handle_request(
        self, request: Request, message_size: int, handler: Handler
    ) -> Generator:
        """Serve an op added through :meth:`register_handler`.

        Handlers are generators that may wait on peers (the SE/SD
        coordinators, stripe reads, SWIM probes), so each request runs
        as its own process, starting at an ``Initialize`` event.
        """
        if not self._accept(request):
            return
        admission = self.admission
        granted_at = self.sim.now
        if admission is not None:
            ticket = self._offer(request, admission)
            if ticket is None:
                return
            outcome = ticket.value if ticket.processed else (yield ticket)
            if not self._admitted(request, admission, outcome):
                return
            granted_at = self.sim.now
        span = self._service_span(request)
        try:
            yield from self.cpu(self._base_cpu(message_size), request)
            try:
                response = yield from handler(self, request)
            except RequestCancelled:
                raise
            except Exception as exc:  # noqa: BLE001 - to wire error
                response = Response(
                    req_id=request.req_id,
                    ok=False,
                    server=self.name,
                    error="%s: %s" % (protocol.ERR_SERVER, exc),
                )
        except RequestCancelled:
            # The client gave up mid-service; no reply owed, no further
            # CPU burned on zombie work.
            self.metrics.counter("server.cancelled_aborts").inc()
            span.finish(cancelled=True)
            return
        finally:
            if admission is not None:
                admission.release(self.sim.now - granted_at)

        if response is None:
            span.finish(replied="async")
            return  # handler replied on its own
        self._reply(request, response, span, admission)

    def store_item(self, key: str, value: Payload, meta):
        """Store into the slab cache, notifying the on_store hook.

        Every store of the server comes through here, so here is where
        the slab's stale-write guard is counted: returns ``True``,
        ``False`` (dropped: out of memory) or
        :data:`~repro.store.slab.STALE` (``meta`` carries an older write
        version than the stored item's; nothing was written).
        """
        stored = self.cache.set(key, value.size, value=value, meta=meta)
        if stored is STALE:
            self.metrics.counter("writes.stale_dropped").inc()
        elif stored and self.on_store is not None:
            self.on_store(key, value.size)
        return stored

    # -- built-in ops: served by callbacks -----------------------------------
    def _serve(self, request: Request, message_size: int) -> None:
        """Serve a built-in op (set/get/delete/unknown) from the
        delivery callback, with no process per request.

        The same stages as :meth:`_handle_request` — cancel drop,
        admission ticket (waited on by callback when queued), service
        span, worker holds, reply — run as a short callback chain:
        claim a worker, one timeout for the CPU charge, then the op's
        effect and the reply.
        """
        if not self._accept(request):
            return
        admission = self.admission
        if admission is None:
            self._builtin(request, message_size, None)
            return
        ticket = self._offer(request, admission)
        if ticket is None:
            return

        def decided(_event=None) -> None:
            if self._admitted(request, admission, ticket.value):
                self._builtin(request, message_size, admission)

        if ticket.processed:
            decided()
        else:
            ticket.callbacks.append(decided)

    def _builtin(
        self,
        request: Request,
        message_size: int,
        admission: Optional[AdmissionController],
    ) -> None:
        service = _Service(
            self,
            request,
            self._base_cpu(message_size),
            admission,
            self._service_span(request) if self.tracer.enabled else NULL_SPAN,
        )
        op = request.op
        if op == "set":
            self._op_set(service)
        elif op == "get":
            self._op_get(service)
        elif op == "delete":
            service.hold(service.base_cpu, self._delete)  # probe in base cost
        else:
            service.hold(service.base_cpu, self._unknown_op)

    def _finish(
        self,
        service: "_Service",
        ok: bool,
        error: str = "",
        value: Optional[Payload] = None,
        meta: Optional[Dict[str, Any]] = None,
    ) -> None:
        """End a built-in op: free its admission slot and reply."""
        request = service.request
        response = Response(request.req_id, ok, self.name, value, error, meta)
        admission = service.admission
        if admission is None:
            # the common case: no slot to free, no backlog to stamp
            service.span.finish(ok=ok)
            self.fabric.send(
                self.name,
                request.reply_to,
                response.wire_size(),
                response,
                protocol.TAG_RESPONSE,
            )._defused = True  # a dead client simply never hears back
            return
        admission.release(self.sim.now - service.granted_at)
        self._reply(request, response, service.span, admission)

    def _abort(self, service: "_Service") -> None:
        """The client cancelled mid-service: no reply owed, no further
        CPU burned on zombie work."""
        self.metrics.counter("server.cancelled_aborts").inc()
        service.span.finish(cancelled=True)
        if service.admission is not None:
            service.admission.release(self.sim.now - service.granted_at)

    # Each op is a chain of worker holds; the step after a hold is a
    # method taking the service, which carries what the step needs
    # (``value``/``meta`` to store, the slab ``item`` read).
    def _op_set(self, service: "_Service") -> None:
        request = service.request
        value = request.value
        if value is None:
            value = Payload.sized(0)
        cpu_cost = (
            service.base_cpu + value.size * COPY_CPU_PER_BYTE / self.cpu_speed
        )
        # the request's meta is stored as-is; only the CRC-stamping path
        # below needs a private copy to write into
        meta = request.meta
        if self._stamp_crc and value.has_data:
            # end-to-end integrity: checksum computed at ingest
            cpu_cost += value.size * CHECKSUM_CPU_PER_BYTE / self.cpu_speed
            # Cached on the Payload: a replicated Set hands the same object
            # to every replica server, so only the first one pays the CRC.
            actual = value.checksum()
            expected = meta.get("crc")
            if expected is not None and actual != expected:
                # The sender stamped a checksum and the bytes that arrived
                # do not match: in-flight corruption.  Refuse the write so
                # a poisoned chunk is never acknowledged; the client
                # retransmits.
                service.hold(cpu_cost, self._refused)
                return
            meta = dict(meta)
            meta["crc"] = actual
        service.value = value
        service.meta = meta
        service.hold(cpu_cost, self._write)

    def _refused(self, service: "_Service") -> None:
        self.corruption_detected += 1
        self._finish(service, False, protocol.ERR_CORRUPT)

    def _write(self, service: "_Service") -> None:
        stored = self.store_item(
            service.request.key, service.value, service.meta
        )
        if stored is STALE:
            # A newer version is already stored: acknowledge without
            # writing (the sender's intent is long superseded).  The
            # ``stale`` marker lets repair paths skip relocation
            # bookkeeping for a write that did not actually land.
            self._finish(service, True, meta={"stale": True})
            return
        self._finish(
            service, stored, "" if stored else protocol.ERR_OUT_OF_MEMORY
        )

    def _op_get(self, service: "_Service") -> None:
        item = self.cache.get(service.request.key)
        if item is None:
            service.hold(service.base_cpu, self._not_found)
            return
        service.item = item
        if not (
            self.verify_on_read
            and item.data is not None
            and "crc" in item.meta
        ):
            service.hold(
                service.base_cpu
                + item.value_len * COPY_CPU_PER_BYTE / self.cpu_speed,
                self._respond,
                cancellable=True,
            )
            return
        service.hold(
            service.base_cpu
            + item.value_len * CHECKSUM_CPU_PER_BYTE / self.cpu_speed,
            self._verified,
            cancellable=True,
        )

    def _verified(self, service: "_Service") -> None:
        item = service.item
        if item.payload().checksum() != item.meta["crc"]:
            # bit rot: drop the poisoned item and tell the client,
            # which recovers from a replica or parity chunk
            self.corruption_detected += 1
            self.cache.delete(service.request.key)
            self._finish(service, False, protocol.ERR_CORRUPT)
            return
        service.hold(
            item.value_len * COPY_CPU_PER_BYTE / self.cpu_speed,
            self._respond,
            cancellable=True,
        )

    def _respond(self, service: "_Service") -> None:
        # the stored meta is aliased into the response (read-only by
        # contract; the one writer, admission's qd stamp, copies first),
        # and so is the stored Payload with its CRC memo
        item = service.item
        self._finish(service, True, value=item.payload(), meta=item.meta)

    def _not_found(self, service: "_Service") -> None:
        self._finish(service, False, protocol.ERR_NOT_FOUND)

    def _delete(self, service: "_Service") -> None:
        removed = self.cache.delete(service.request.key)
        self._finish(service, removed, "" if removed else protocol.ERR_NOT_FOUND)

    def _unknown_op(self, service: "_Service") -> None:
        self._finish(service, False, protocol.ERR_UNKNOWN_OP)


class _Service:
    """A built-in request on its callback chain: what every stage needs.

    :meth:`hold` is the callback twin of :meth:`MemcachedServer.cpu`:
    occupy one worker for some seconds, then call ``then(service)`` —
    with the same grant, cancel and release points.  The continuation
    is a server method, so a service is never part of a reference cycle.
    """

    __slots__ = (
        "server",
        "request",
        "base_cpu",
        "admission",
        "granted_at",
        "span",
        "worker",
        "seconds",
        "then",
        "cancellable",
        "value",
        "meta",
        "item",
    )

    def __init__(self, server, request, base_cpu, admission, span):
        self.server = server
        self.request = request
        self.base_cpu = base_cpu
        self.admission = admission
        self.granted_at = server.sim.now
        self.span = span

    def hold(self, seconds: float, then, cancellable: bool = False) -> None:
        """Occupy one worker for ``seconds``, then call ``then(self)``.

        A contended grant waits by callback on the worker's request
        event, and a ``cancellable`` hold whose request was cancelled
        releases the worker and aborts the service instead of burning
        the compute.
        """
        if seconds <= 0:
            then(self)
            return
        server = self.server
        self.seconds = seconds * server.cpu_throttle
        self.then = then
        self.cancellable = cancellable
        self.worker = worker = server.workers.request()
        if worker.processed:
            self._granted()
        else:
            server._queue_depth.observe(server.workers.queued)
            worker.callbacks.append(self._granted)

    def _granted(self, _grant=None) -> None:
        """The worker is ours (``_grant``: its grant event, when it was
        waited for): one timeout, then :meth:`_done`."""
        server = self.server
        if (
            self.cancellable
            and server._cancelled
            and server._consume_cancel(self.request)
        ):
            self.then = None
            server._release_worker(self.worker)
            server._abort(self)
            return
        Timeout(server.sim, self.seconds).callbacks.append(self._done)

    def _done(self, _timer) -> None:
        then = self.then
        self.then = None
        self.server._release_worker(self.worker)
        then(self)
