"""Asynchronous Request Processing Engine (ARPE).

The paper's ARPE sits between the application and the RDMA-enhanced
Libmemcached client: new Set/Get requests enter a request queue via the
non-blocking ``memcached_iset``/``memcached_iget`` APIs, a pool of
pre-registered buffers bounds how many operations can be in flight, and a
tunable send/receive window gates progress so completions can be reaped
with ``memcached_test``/``memcached_wait``.

Overlap is the point: while operation *i* waits on the network, the engine
starts operation *i+1* — including its encode/decode compute — which is
how online erasure coding hides :math:`T_{encode}` (Section IV-A).

Every completion carries a typed :class:`~repro.store.result.OpResult`;
the engine populates per-operation :class:`OpMetrics` and, when a real
tracer is attached, an ``op`` span that scheme-level ``encode``/``post``/
``transfer``/``wait`` spans parent themselves under.
"""

from __future__ import annotations

import itertools
from typing import Callable, Generator, Iterable, List, Optional

from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import NULL_SPAN, NULL_TRACER
from repro.simulation import Event, Resource, Simulator
from repro.store.result import ErrorCode, OpResult


class OpMetrics:
    """Per-operation phase breakdown (drives Figure 9).

    ``span`` is the operation's trace span (``NULL_SPAN`` when untraced);
    schemes parent their phase spans under it.
    """

    __slots__ = (
        "enqueued_at",
        "started_at",
        "completed_at",
        "encode_time",
        "decode_time",
        "request_time",
        "wait_time",
        "span",
        "info",
    )

    def __init__(self, now: float):
        self.enqueued_at = now
        self.started_at = float("nan")
        self.completed_at = float("nan")
        self.encode_time = 0.0
        self.decode_time = 0.0
        self.request_time = 0.0
        self.wait_time = 0.0
        self.span = NULL_SPAN
        #: scheme-stamped annotations (e.g. ``ver``, ``hedged``,
        #: ``degraded``) — free-form, read by repair and the chaos soak
        self.info = {}

    @property
    def latency(self) -> float:
        """Application-visible latency: enqueue to completion."""
        return self.completed_at - self.enqueued_at

    @property
    def service_time(self) -> float:
        """Engine-side latency: start of processing to completion."""
        return self.completed_at - self.started_at


class RequestHandle:
    """A non-blocking operation in flight (``iset``/``iget`` return this).

    Once completed, the handle carries the operation's typed
    :class:`OpResult` in :attr:`result` (``None`` while in flight):
    ``handle.result.ok``, ``handle.result.value``,
    ``handle.result.error`` / ``error_text`` are the API.  :attr:`done`
    fires with that same :class:`OpResult`, so ``result = yield
    handle.done`` reads it directly.  The event never points back at
    its handle: a finished handle is freed by reference counting the
    moment its last user drops it, and its value with it.
    """

    _ids = itertools.count(1)

    def __init__(self, sim: Simulator, op: str, key: str):
        self.sim = sim
        self.handle_id = next(self._ids)
        self.op = op
        self.key = key
        self.done: Event = sim.event()
        self.metrics = OpMetrics(sim.now)
        self.result: Optional[OpResult] = None
        #: per-key results for batched ops (``multi_set``/``multi_get``):
        #: ``{key: OpResult}`` once completed, ``None`` for single ops.
        self.results = None

    @property
    def completed(self) -> bool:
        """Whether the operation has finished (ok or not)."""
        return self.done.triggered

    def _finish(self, result: OpResult) -> None:
        self.result = result
        self.metrics.completed_at = self.sim.now
        self.metrics.span.finish(
            ok=result.ok, error=result.error.value
        )
        self.done.succeed(result)


Runner = Callable[[RequestHandle], Generator]


class AsyncRequestEngine:
    """Bounded-concurrency execution engine for request handles."""

    def __init__(
        self,
        sim: Simulator,
        window: int = 32,
        buffer_pool: int = 64,
        tracer=None,
        metrics: Optional[MetricsRegistry] = None,
    ):
        if window < 1 or buffer_pool < 1:
            raise ValueError("window and buffer_pool must be >= 1")
        self.sim = sim
        self.window = Resource(sim, window)
        self.buffers = Resource(sim, buffer_pool)
        self.submitted = 0
        self.completed = 0
        self.tracer = tracer or NULL_TRACER
        self.metrics = metrics or MetricsRegistry()
        self._buffer_wait = self.metrics.histogram("arpe.buffer_wait")
        self._window_wait = self.metrics.histogram("arpe.window_wait")
        self._window_occupancy = self.metrics.histogram("arpe.window_occupancy")
        self._submitted_counter = self.metrics.counter("arpe.submitted")
        self._completed_counter = self.metrics.counter("arpe.completed")
        self._failed_counter = self.metrics.counter("arpe.failed")
        self._idle: Optional[Event] = None

    @property
    def in_flight(self) -> int:
        """Operations submitted but not yet completed."""
        return self.submitted - self.completed

    def submit(self, handle: RequestHandle, runner: Runner) -> RequestHandle:
        """Queue the operation; returns once it is posted or queued behind
        the buffer pool / window (non-blocking API).

        The runner starts inside this call (:meth:`Simulator.start`), not
        at an ``Initialize`` event later in the instant, so the op's
        first step (buffer and window claims, its first charge) happens
        where the caller submitted it.
        """
        self.submitted += 1
        self._submitted_counter.inc()
        self.sim.start(
            self._run(handle, runner),
            name=(
                "arpe.%s.%s" % (handle.op, handle.key)
                if self.tracer.enabled
                else "arpe.op"
            ),
        )
        return handle

    def _run(self, handle: RequestHandle, runner: Runner) -> Generator:
        sim = self.sim
        enqueued = sim.now
        buffer_req = self.buffers.request()
        granted = enqueued
        if not buffer_req.processed:  # uncontended grants skip the yield
            yield buffer_req
            granted = sim.now
        self._buffer_wait.observe(granted - enqueued)
        window_req = self.window.request()
        started = granted
        if not window_req.processed:
            yield window_req
            started = sim.now
        self._window_wait.observe(started - granted)
        self._window_occupancy.observe(self.window.in_use)
        handle.metrics.started_at = started
        try:
            result = yield from runner(handle)
            if not isinstance(result, OpResult):
                raise TypeError(
                    "runner for %s %r returned %r; schemes must return OpResult"
                    % (handle.op, handle.key, result)
                )
        except Exception as exc:  # noqa: BLE001 - surfaced via the handle
            result = OpResult.failure(ErrorCode.INTERNAL, str(exc))
        finally:
            self.window.release(window_req)
            self.buffers.release(buffer_req)
        self.completed += 1
        self._completed_counter.inc()
        if not result.ok:
            self._failed_counter.inc()
        handle._finish(result)
        if self.in_flight == 0 and self._idle is not None:
            idle, self._idle = self._idle, None
            idle.succeed(None)

    # -- completion APIs (memcached_test / memcached_wait) -------------------
    def test(self, handle: RequestHandle) -> bool:
        """Non-blocking completion probe."""
        return handle.completed

    def wait_all(self, handles: Iterable[RequestHandle]) -> Event:
        """Event firing once every given handle has completed; its value
        is the list of their :class:`OpResult` in ``handles`` order."""
        return self.sim.all_of([h.done for h in handles])

    def wait_any(self, handles: List[RequestHandle]) -> Event:
        """Event firing with the *first completed handle* as its value.

        Drive with ``first = yield engine.wait_any(handles)`` — the caller
        gets the winning :class:`RequestHandle` directly instead of having
        to dig through the raw ``any_of`` condition.  A ``done`` event
        carries only its :class:`OpResult`, so the engine maps the event
        that fired back to its handle.
        """
        owner = {handle.done: handle for handle in handles}
        if not owner:
            raise ValueError("wait_any needs at least one handle")
        winner = self.sim.event()
        inner = self.sim.any_of(owner)

        def _relay(event: Event) -> None:
            if not event.ok:  # pragma: no cover - handles never fail
                winner.fail(event.value)
                return
            done_event, _result = event.value
            winner.succeed(owner[done_event])

        inner.callbacks.append(_relay)
        return winner

    def drain(self) -> Generator:
        """Process generator: wait until the engine is fully idle.

        Event-driven: the engine triggers an idle event when ``in_flight``
        reaches zero, so draining costs one wakeup instead of busy-polling
        the simulator with micro-timeouts.
        """
        while self.in_flight > 0:
            if self._idle is None:
                self._idle = self.sim.event()
            yield self._idle
