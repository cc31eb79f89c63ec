"""Server-coordinated Era operations: the SE and SD placements.

The four Era placements (Section IV-B) differ only in which side runs
the Reed-Solomon encode and decode.  :class:`~repro.resilience.erasure.
ErasureScheme` has one chunk-set fan-out and one chunk gather, and they
run on whatever *coordinator* they are passed: the
:class:`~repro.store.client.KVClient` when the client codes, or a
:class:`ServerCoordinator` when a server encodes (SE) or decodes (SD).

A client offloads such an op to the first live placement server
(:func:`offload`); that server's handler (:func:`handle_se_set`,
:func:`handle_sd_get`) runs the scheme's own set or gather code with
itself as the coordinator.
"""

from __future__ import annotations

from typing import Generator, Optional

from repro.common.payload import Payload
from repro.obs.trace import NULL_TRACER
from repro.resilience.base import T_CHECK, ErrorCode, OpResult
from repro.store import protocol
from repro.store.arpe import OpMetrics
from repro.store.policy import DEFAULT_POLICY, RetryPolicy
from repro.store.protocol import Response
from repro.store.server import COPY_CPU_PER_BYTE

#: a server coordinating a durable Set: all n chunks, relocated when a
#: holder fails, and still no in-place retry
_DURABLE = RetryPolicy(durable_writes=True)


class ServerCoordinator:
    """One server as the coordinator of one SE Set or SD Get.

    It settles only where a server differs from a client:

    - requests go out on the server's embedded request path, with its
      ``PendingTable``, ``Arrivals`` and ``peer_timeout``;
    - coding compute occupies one of the server's worker threads under
      an ``encode``/``decode`` span (:meth:`charge`);
    - a server pays no per-request post charge;
    - its own chunk (``local``) is stored or read in place.

    Its policy is a constant: no in-place retries, no hedging, no
    overload guard and no read-repair queue; only ``durable`` comes
    from the request.
    """

    guard = None
    read_repair = None
    #: a server traces its encode/decode spans, not a client's post and
    #: wait phases
    tracer = NULL_TRACER

    def __init__(self, server, ring, durable: bool = False):
        self.server = server
        self.ring = ring
        #: the chunk holder reached in place (a client coordinator has none)
        self.local = server.name
        self.policy = _DURABLE if durable else DEFAULT_POLICY
        self.sim = server.sim
        self.fabric = server.fabric
        self.metrics = server.metrics
        self.cost_model = server.cost_model

    def request(
        self, dst, op, key, value=None, meta=None, span=None, arrivals=None
    ):
        """Send one request to a peer server (``span`` is a client's)."""
        return self.server.send_request(
            dst, op, key, value=value, meta=meta, arrivals=arrivals
        )

    def charge(self, phase: str, key: str, seconds: float) -> Generator:
        """Occupy one worker thread for ``seconds`` of ``phase`` compute."""
        server = self.server
        with server.tracer.span(server.name, phase, category=phase, key=key):
            yield from server.cpu(seconds)

    def store_local(self, key: str, chunk: Payload, meta: dict) -> Generator:
        """Store this server's own chunk: the slab copy's CPU, then the
        stale-write guard a remote ``set`` applies.  Returns the
        :class:`Response` a remote holder would have sent."""
        server = self.server
        copy = chunk.size * COPY_CPU_PER_BYTE / server.cpu_speed
        yield from server.cpu(copy)
        if server.is_stale_write(key, meta):
            server.metrics.counter("writes.stale_dropped").inc()
            return Response(0, True, server.name, meta={"stale": True})
        if server.store_item(key, chunk, meta):
            return Response(0, True, server.name)
        return Response(
            0, False, server.name, error=protocol.ERR_OUT_OF_MEMORY
        )

    def read_local(self, key: str, arrivals: protocol.Arrivals) -> int:
        """Read this server's own chunk, with no CPU charge.

        The answer is queued on the gather's ``arrivals`` at once, as a
        fetch that already came back, and its request id is returned.  A
        chunk that no longer matches its stored CRC (bit rot in DRAM: a
        remote fetch catches it by the response check) answers as
        missing, so other chunks cover the decode.
        """
        server = self.server
        req_id = server.next_req_id()
        response = Response(
            req_id, False, server.name, error=protocol.ERR_NOT_FOUND
        )
        item = server.cache.get(key)
        if item is not None:
            payload = item.payload()
            expected = item.meta.get("crc")
            if (
                item.data is not None
                and expected is not None
                and payload.checksum() != expected
            ):
                server.corruption_detected += 1
                server.metrics.counter("reads.local_corrupt").inc()
            else:
                response = Response(
                    req_id, True, server.name, payload, meta=item.meta
                )
        arrivals.succeed(response)
        return req_id


# -- the client's side: pick a coordinator ------------------------------------
def offload(
    scheme,
    client,
    key: str,
    op: str,
    value: Optional[Payload],
    metrics: OpMetrics,
) -> Generator:
    """Send one request to the first live placement server, failing over.

    Fails over on ``UNREACHABLE`` *and* ``TIMEOUT`` — a coordinator
    that crashed mid-operation never answers, and the next placement
    server can coordinate just as well.
    """
    servers = scheme.placement(client.ring, key)
    last_error = protocol.ERR_UNREACHABLE
    # The *client* stamps the write version, once per logical op: a
    # slow coordinator finishing after a newer overwrite must carry
    # an older version, not draw a newer one at the server, or its
    # ghost chunks would shadow the acknowledged value.
    op_ver = next(scheme._ver_seq) if op == "se_set" else None
    for server in servers:
        if not scheme._alive(client.fabric, server):
            metrics.wait_time += T_CHECK
            yield client.compute(T_CHECK)
            continue
        size = value.size if value is not None else 0
        yield scheme.charge_post(client, metrics, size)
        meta = {"data_len": size}
        if op_ver is not None:
            meta["ver"] = op_ver
            if value is not None and value.has_data:
                # end-to-end: the coordinator must reject a value
                # mangled on the client->coordinator hop *before*
                # encoding it into validly-checksummed chunks
                meta["crc"] = value.checksum()
            if client.policy.durable_writes:
                meta["durable"] = True
        event = client.request(
            server, op, key, value=value, meta=meta, span=metrics.span
        )
        (response,) = yield from scheme.wait_each(client, metrics, [event])
        if response.ok:
            return OpResult.success(response.value)
        last_error = response.error
        code = ErrorCode.from_wire(response.error)
        if code not in (ErrorCode.UNREACHABLE, ErrorCode.TIMEOUT):
            return OpResult.failure(response.error)
    return OpResult.failure(last_error)


def encode_on_server(scheme, client, key, value, metrics) -> Generator:
    """An SE scheme's ``set``."""
    return offload(scheme, client, key, "se_set", value, metrics)


def decode_on_server(scheme, client, key, metrics) -> Generator:
    """An SD scheme's ``get``."""
    return offload(scheme, client, key, "sd_get", None, metrics)


# -- the server's side: coordinate --------------------------------------------
def handle_se_set(scheme, server, request) -> Generator:
    """Server-side encode: this server coordinates the Set."""
    value = request.value or Payload.sized(0)
    if value.has_data:
        expected = request.meta.get("crc")
        if expected is not None and value.checksum() != expected:
            # In-flight corruption on the way in: refuse before the
            # mangled bytes get encoded into valid-looking chunks.
            server.corruption_detected += 1
            return Response(
                request.req_id, False, server.name, error=protocol.ERR_CORRUPT
            )
    coordinator = ServerCoordinator(
        server, scheme.cluster.ring, bool(request.meta.get("durable"))
    )
    metrics = OpMetrics(server.sim.now)
    chunks, servers, events, meta = yield from scheme._post_set(
        coordinator, request.key, value, metrics, request.meta.get("ver")
    )
    responses = []
    for event in events:
        if not isinstance(event, Response):  # the local chunk's already is
            event = yield event
        responses.append(event)
    result = yield from scheme._finish_set(
        coordinator, request.key, chunks, servers, responses, meta, metrics
    )
    if result.ok:
        return Response(request.req_id, True, server.name)
    # Never the joined chunk errors: a TIMEOUT or UNREACHABLE answer
    # would make the client fail over to a second coordinator.
    return Response(
        request.req_id, False, server.name, error=protocol.ERR_SERVER
    )


def handle_sd_get(scheme, server, request) -> Generator:
    """Server-side decode: this server gathers and decodes the value and
    replies with it and its CRC, or with a miss."""
    coordinator = ServerCoordinator(server, scheme.cluster.ring)
    result = yield from scheme._decode_get(
        coordinator, request.key, OpMetrics(server.sim.now)
    )
    if not result.ok:
        # A miss, whatever failed: a TIMEOUT or UNREACHABLE answer would
        # make the client fail over to a coordinator that gathers again.
        return Response(
            request.req_id, False, server.name, error=protocol.ERR_NOT_FOUND
        )
    value = result.value
    meta = {"data_len": value.size}
    if value.has_data:
        # lets the requester detect in-flight corruption of the decoded
        # value (client._on_message verifies response CRCs)
        meta["crc"] = value.checksum()
    return Response(request.req_id, True, server.name, value=value, meta=meta)
