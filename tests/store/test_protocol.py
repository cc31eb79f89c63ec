"""Wire records and pending-request routing."""

import pytest

from repro.common.payload import Payload
from repro.network.fabric import FAILURE_DETECT_DELAY, Fabric
from repro.network.profiles import profile_by_name
from repro.simulation import Simulator
from repro.store.protocol import (
    ERR_UNREACHABLE,
    PendingTable,
    REQUEST_HEADER,
    RESPONSE_HEADER,
    Request,
    Response,
    issue_request,
)


@pytest.fixture
def sim():
    return Simulator()


class TestWireSizes:
    def test_request_without_value(self):
        req = Request(op="get", key="abcd", req_id=1, reply_to="c")
        assert req.wire_size() == REQUEST_HEADER + 4

    def test_request_with_value(self):
        req = Request(
            op="set", key="abcd", req_id=1, reply_to="c",
            value=Payload.sized(1000),
        )
        assert req.wire_size() == REQUEST_HEADER + 4 + 1000

    def test_response_sizes(self):
        small = Response(req_id=1, ok=True, server="s")
        big = Response(req_id=1, ok=True, server="s", value=Payload.sized(500))
        assert small.wire_size() == RESPONSE_HEADER
        assert big.wire_size() == RESPONSE_HEADER + 500


class TestPendingTable:
    def test_register_and_complete(self, sim):
        table = PendingTable(sim)
        event = table.register(7)
        response = Response(req_id=7, ok=True, server="s")
        assert table.complete(response)
        assert event.triggered
        assert len(table) == 0

    def test_complete_unknown_response_dropped(self, sim):
        table = PendingTable(sim)
        assert not table.complete(Response(req_id=9, ok=True, server="s"))

    def test_duplicate_registration_rejected(self, sim):
        table = PendingTable(sim)
        table.register(1)
        with pytest.raises(ValueError):
            table.register(1)

    def test_waiter_receives_response_value(self, sim):
        table = PendingTable(sim)
        event = table.register(5)

        def waiter():
            response = yield event
            return response.server

        p = sim.process(waiter())
        table.complete(Response(req_id=5, ok=True, server="srv-2"))
        assert sim.run(p) == "srv-2"


class TestUnreachableRequests:
    """An unreachable destination answers the waiter with a typed
    ``ERR_UNREACHABLE`` response, whether it was dead when the request
    was sent or died while the request was on the wire."""

    def _issue(self, sim):
        fabric = Fabric(sim, profile_by_name("sdsc-comet"))
        fabric.add_node("c")
        server = fabric.add_node("s")
        server.on_message = lambda message: None
        table = PendingTable(sim)
        return fabric, server, table

    def test_dead_at_send(self, sim):
        fabric, server, table = self._issue(sim)
        server.fail()
        waiter = issue_request(fabric, table, Request("get", "k", 4, "c"), "s")
        response = sim.run(waiter)
        assert (response.req_id, response.ok, response.server) == (4, False, "s")
        assert response.error == ERR_UNREACHABLE
        assert sim.now == FAILURE_DETECT_DELAY
        assert len(table) == 0

    def test_died_in_flight(self, sim):
        fabric, server, table = self._issue(sim)
        waiter = issue_request(fabric, table, Request("get", "k", 6, "c"), "s")
        sim.run(until=1e-9)
        server.fail()
        response = sim.run(waiter)
        assert (response.req_id, response.ok, response.error) == (
            6, False, ERR_UNREACHABLE,
        )
        assert len(table) == 0
