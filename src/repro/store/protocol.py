"""Wire-level request/response records and pending-request routing.

Both clients and servers (which talk to peer servers in the server-side
erasure designs) multiplex requests and responses over one endpoint inbox;
:class:`PendingTable` matches responses back to the event a caller is
waiting on.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Dict, Optional

from repro.common.payload import Payload
from repro.simulation import Event, Simulator

#: Fixed serialized header cost for requests and responses.
REQUEST_HEADER = 48
RESPONSE_HEADER = 48

TAG_REQUEST = "req"
TAG_RESPONSE = "resp"

#: Shared sentinel for "no metadata".  Most requests and responses carry
#: no meta at all; giving each one its own empty dict was a measurable
#: slice of per-op allocation at scale.  Treat it as immutable — writers
#: must go through :func:`meta_setdefault` (or replace ``.meta`` with a
#: private dict) so a stray write can never leak to every other record.
EMPTY_META: Dict[str, Any] = {}


def meta_setdefault(record, key: str, value) -> None:
    """``record.meta.setdefault(key, value)`` with copy-on-write.

    When ``record.meta`` is the shared :data:`EMPTY_META` sentinel it is
    swapped for a private single-entry dict instead of being mutated.
    """
    meta = record.meta
    if meta is EMPTY_META:
        record.meta = {key: value}
    else:
        meta.setdefault(key, value)


class Request:
    """A client -> server (or server -> server) operation."""

    __slots__ = ("op", "key", "req_id", "reply_to", "value", "meta")

    def __init__(
        self,
        op: str,
        key: str,
        req_id: int,
        reply_to: str,
        value: Optional[Payload] = None,
        meta: Optional[Dict[str, Any]] = None,
    ):
        self.op = op
        self.key = key
        self.req_id = req_id
        self.reply_to = reply_to
        self.value = value
        self.meta = EMPTY_META if meta is None else meta

    def replace(self, **changes) -> "Request":
        """A shallow copy with ``changes`` applied (dataclasses.replace
        for a slotted record)."""
        fields = {name: getattr(self, name) for name in self.__slots__}
        fields.update(changes)
        return Request(**fields)

    def __repr__(self) -> str:
        return "Request(op=%r, key=%r, req_id=%r, reply_to=%r)" % (
            self.op,
            self.key,
            self.req_id,
            self.reply_to,
        )

    def wire_size(self) -> int:
        size = REQUEST_HEADER + len(self.key)
        if self.value is not None:
            size += self.value.size
        return size


class Response:
    """The server's answer; ``ok=False`` carries an error code."""

    __slots__ = ("req_id", "ok", "server", "value", "error", "meta")

    def __init__(
        self,
        req_id: int,
        ok: bool,
        server: str,
        value: Optional[Payload] = None,
        error: str = "",
        meta: Optional[Dict[str, Any]] = None,
    ):
        self.req_id = req_id
        self.ok = ok
        self.server = server
        self.value = value
        self.error = error
        self.meta = EMPTY_META if meta is None else meta

    def replace(self, **changes) -> "Response":
        """A shallow copy with ``changes`` applied."""
        fields = {name: getattr(self, name) for name in self.__slots__}
        fields.update(changes)
        return Response(**fields)

    def __repr__(self) -> str:
        return "Response(req_id=%r, ok=%r, server=%r, error=%r)" % (
            self.req_id,
            self.ok,
            self.server,
            self.error,
        )

    def wire_size(self) -> int:
        size = RESPONSE_HEADER
        if self.value is not None:
            size += self.value.size
        return size


def issue_request(
    fabric,
    pending: "PendingTable",
    request: Request,
    dst: str,
    span=None,
    timeout: Optional[float] = None,
    on_timeout=None,
    waiter=None,
):
    """Send ``request`` and return an event firing with its :class:`Response`.

    Used by both the client library and servers talking to peers.  If the
    fabric reports the destination unreachable, the waiter completes with
    an ``ok=False`` / ``ERR_UNREACHABLE`` response — failures are data,
    so callers can fail over without exception plumbing.  ``span``
    parents the fabric's transfer span under the caller's operation span.

    ``timeout`` arms a per-request deadline: if no response has landed
    within that many seconds, the waiter completes with an ``ok=False`` /
    ``ERR_TIMEOUT`` response and the real response, should it ever
    arrive, is dropped as a late packet.  ``on_timeout(request)`` fires
    only when the deadline actually expired an outstanding request.

    ``waiter`` accepts what :meth:`PendingTable.register` already
    returned for this request (an event, or a gather's
    :class:`Arrivals`) so callers that delay the send — e.g. a
    token-bucket pacer — can hand the waiter out before the request
    actually hits the wire.
    """
    if waiter is None:
        waiter = pending.register(request.req_id)
    send_event = fabric.send(
        request.reply_to,  # the requester replies-to itself: that is the src
        dst,
        size=request.wire_size(),
        payload=request,
        tag=TAG_REQUEST,
        parent=span,
    )
    send_event.callbacks.append(pending.on_send)
    send_event._defused = True  # failures are data: see on_send

    if timeout is not None:
        timer = fabric.sim.timeout(timeout)

        def _expire(_event: Event) -> None:
            expired = pending.complete(
                Response(
                    req_id=request.req_id,
                    ok=False,
                    server=dst,
                    error=ERR_TIMEOUT,
                )
            )
            if expired and on_timeout is not None:
                on_timeout(request)

        timer.callbacks.append(_expire)
    return waiter


ERR_NOT_FOUND = "NOT_FOUND"
ERR_OUT_OF_MEMORY = "OUT_OF_MEMORY"
ERR_UNKNOWN_OP = "UNKNOWN_OP"
ERR_SERVER = "SERVER_ERROR"
ERR_UNREACHABLE = "UNREACHABLE"
ERR_CORRUPT = "CORRUPT"
ERR_TIMEOUT = "TIMEOUT"
ERR_BUSY = "SERVER_BUSY"


class Arrivals:
    """One gather's arrival queue.

    A chunk gather keeps several fetches in flight and reacts to
    whichever answers first.  Its fetches are registered in the
    :class:`PendingTable` against this queue, so completing one appends
    the :class:`Response` here and wakes the waiting gatherer: one event
    per wait, however many fetches are outstanding.  Unreachable and
    timed-out fetches complete the same way; a hedge cutoff passed to
    :meth:`wait` expires into the queue as ``None``.
    """

    __slots__ = ("sim", "_items", "_wake")

    def __init__(self, sim: Simulator):
        self.sim = sim
        self._items: deque = deque()
        self._wake: Optional[Event] = None

    def __len__(self) -> int:
        return len(self._items)

    def succeed(self, response: Response) -> None:
        """Queue a completed fetch (:meth:`PendingTable.complete` calls
        this as it would succeed a waiter event)."""
        self._items.append(response)
        self._wake_up()

    def wait(self, timeout: Optional[float] = None) -> Event:
        """Event firing once something is queued.

        With ``timeout``, ``None`` is queued *ahead* of the arrivals if
        the timeout expires before the gatherer resumes — the same
        winner a first-of race between the fetches' waiter events and a
        timer picks, since a waiter event fires one step after its
        response lands.
        """
        wake = self._wake = self.sim.event()
        if timeout is not None:

            def expire(_timer: Event) -> None:
                if self._wake is wake:
                    self._items.appendleft(None)
                    self._wake_up()

            self.sim.timeout(timeout).callbacks.append(expire)
        return wake

    def _wake_up(self) -> None:
        wake = self._wake
        if wake is not None and not wake.triggered:
            wake.succeed()

    def pop(self) -> Optional[Response]:
        """The arrival that ended a wait (``None``: the wait timed out)."""
        self._wake = None
        return self._items.popleft()

    def take(self, order) -> Response:
        """Without waiting: the queued response whose request id comes
        first in ``order`` (request ids, oldest post first) — the one a
        first-of race over already-fired waiter events would pick."""
        items = self._items
        if len(items) > 1:
            for req_id in order:
                for response in items:
                    if response.req_id == req_id:
                        items.remove(response)
                        return response
        return items.popleft()


class PendingTable:
    """Outstanding request registry: req_id -> completion event (or the
    :class:`Arrivals` queue of the gather that posted the request)."""

    def __init__(self, sim: Simulator):
        self.sim = sim
        self._pending: Dict[int, Any] = {}
        #: the send-completion callback of every request, bound once
        self.on_send = self._on_send

    def __len__(self) -> int:
        return len(self._pending)

    def register(self, req_id: int, arrivals: Optional[Arrivals] = None):
        """Register an outgoing request id.

        Returns its completion event, or with ``arrivals`` routes the
        response into that gather's queue (and returns the queue).
        """
        if req_id in self._pending:
            raise ValueError("duplicate outstanding req_id %d" % req_id)
        waiter = Event(self.sim) if arrivals is None else arrivals
        self._pending[req_id] = waiter
        return waiter

    def complete(self, response: Response) -> bool:
        """Fire the waiter for this response; ``False`` if none is pending.

        Late responses (e.g. the waiter already failed over) are dropped,
        like packets for a closed connection.
        """
        waiter = self._pending.pop(response.req_id, None)
        if waiter is None:
            return False
        waiter.succeed(response)
        return True

    def _on_send(self, event: Event) -> None:
        """A request's send completed: an unreachable destination answers
        its waiter with an ``ok=False`` / ``ERR_UNREACHABLE`` response."""
        if not event._ok:
            message = event._value.message
            self.complete(
                Response(
                    req_id=message.payload.req_id,
                    ok=False,
                    server=message.dst,
                    error=ERR_UNREACHABLE,
                )
            )

    def forget(self, req_id: int) -> bool:
        """Drop a request the caller no longer cares about.

        Used to abandon a fetch that lost a hedge race: the response, if
        it ever arrives, is then discarded as a late packet.  Returns
        ``False`` when it already completed (or was never registered).
        """
        return self._pending.pop(req_id, None) is not None
