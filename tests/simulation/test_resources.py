"""Tests for Resource, Store, and Gate primitives and run_window."""

import pytest

from repro.simulation import (
    Gate,
    Resource,
    SimulationError,
    Simulator,
    Store,
    run_window,
)


@pytest.fixture
def sim():
    return Simulator()


class TestResource:
    def test_capacity_validation(self, sim):
        with pytest.raises(SimulationError):
            Resource(sim, 0)

    def test_grants_up_to_capacity_immediately(self, sim):
        res = Resource(sim, 2)
        first, second, third = res.request(), res.request(), res.request()
        assert first.triggered and second.triggered
        assert not third.triggered
        assert res.in_use == 2
        assert res.queued == 1

    def test_release_grants_oldest_waiter(self, sim):
        res = Resource(sim, 1)
        held = res.request()
        waiter_a = res.request()
        waiter_b = res.request()
        res.release(held)
        assert waiter_a.triggered
        assert not waiter_b.triggered

    def test_release_without_request_raises(self, sim):
        res = Resource(sim, 1)
        req = res.request()
        res.release(req)
        with pytest.raises(SimulationError):
            res.release(req)

    def test_release_wrong_resource_raises(self, sim):
        res_a, res_b = Resource(sim, 1), Resource(sim, 1)
        req = res_a.request()
        with pytest.raises(SimulationError):
            res_b.release(req)

    def test_cancel_queued_request(self, sim):
        res = Resource(sim, 1)
        res.request()
        queued = res.request()
        res.cancel(queued)
        assert res.queued == 0

    def test_cancel_granted_request_raises(self, sim):
        res = Resource(sim, 1)
        granted = res.request()
        with pytest.raises(SimulationError):
            res.cancel(granted)

    def test_resize_up_grants_queued_waiters(self, sim):
        res = Resource(sim, 1)
        res.request()
        waiter_a = res.request()
        waiter_b = res.request()
        res.resize(3)
        assert waiter_a.triggered and waiter_b.triggered
        assert res.in_use == 3
        assert res.queued == 0

    def test_resize_down_never_revokes(self, sim):
        res = Resource(sim, 3)
        grants = [res.request() for _ in range(3)]
        res.resize(1)
        assert res.in_use == 3  # over the new capacity, nothing revoked
        waiter = res.request()
        res.release(grants[0])
        assert not waiter.triggered  # still not below the new capacity
        res.release(grants[1])
        res.release(grants[2])
        assert waiter.triggered
        assert res.in_use == 1

    def test_resize_below_one_raises(self, sim):
        res = Resource(sim, 2)
        with pytest.raises(SimulationError):
            res.resize(0)

    def test_mutual_exclusion_over_time(self, sim):
        res = Resource(sim, 1)
        active = []
        max_active = []

        def worker():
            req = res.request()
            yield req
            active.append(1)
            max_active.append(len(active))
            yield sim.timeout(1.0)
            active.pop()
            res.release(req)

        for _ in range(4):
            sim.process(worker())
        sim.run()
        assert max(max_active) == 1
        assert sim.now == 4.0  # fully serialized

    def test_parallelism_matches_capacity(self, sim):
        res = Resource(sim, 2)

        def worker():
            req = res.request()
            yield req
            yield sim.timeout(1.0)
            res.release(req)

        for _ in range(4):
            sim.process(worker())
        sim.run()
        assert sim.now == 2.0  # 4 jobs, 2 at a time

    def test_context_manager_releases(self, sim):
        res = Resource(sim, 1)

        def worker(log):
            with (yield res.request()):
                yield sim.timeout(1.0)
            log.append(res.in_use)

        log = []
        sim.process(worker(log))
        sim.run()
        assert log == [0]


class TestStore:
    def test_put_then_get(self, sim):
        store = Store(sim)

        def proc():
            store.put("item")
            value = yield store.get()
            return value

        assert sim.run(sim.process(proc())) == "item"

    def test_get_blocks_until_put(self, sim):
        store = Store(sim)

        def getter():
            value = yield store.get()
            return value, sim.now

        def putter():
            yield sim.timeout(3.0)
            store.put("late")

        p = sim.process(getter())
        sim.process(putter())
        assert sim.run(p) == ("late", 3.0)

    def test_fifo_item_order(self, sim):
        store = Store(sim)
        for i in range(3):
            store.put(i)

        def proc():
            out = []
            for _ in range(3):
                out.append((yield store.get()))
            return out

        assert sim.run(sim.process(proc())) == [0, 1, 2]

    def test_fifo_getter_order(self, sim):
        store = Store(sim)
        results = {}

        def getter(name):
            results[name] = yield store.get()

        sim.process(getter("first"))
        sim.process(getter("second"))

        def putter():
            yield sim.timeout(1.0)
            store.put("a")
            store.put("b")

        sim.process(putter())
        sim.run()
        assert results == {"first": "a", "second": "b"}

    def test_capacity_blocks_putter(self, sim):
        store = Store(sim, capacity=1)
        done_times = []

        def producer():
            yield store.put("one")
            yield store.put("two")  # blocks until consumer frees space
            done_times.append(sim.now)

        def consumer():
            yield sim.timeout(5.0)
            yield store.get()

        sim.process(producer())
        sim.process(consumer())
        sim.run()
        assert done_times == [5.0]

    def test_capacity_validation(self, sim):
        with pytest.raises(SimulationError):
            Store(sim, capacity=0)

    def test_try_get(self, sim):
        store = Store(sim)
        assert store.try_get() is None
        store.put("x")
        assert store.try_get() == "x"
        assert store.try_get() is None

    def test_len_and_items(self, sim):
        store = Store(sim)
        store.put(1)
        store.put(2)
        assert len(store) == 2
        assert store.items == (1, 2)

    def test_blocked_putter_admitted_after_get(self, sim):
        store = Store(sim, capacity=1)
        log = []

        def producer():
            yield store.put("a")
            log.append("a stored")
            yield store.put("b")
            log.append("b stored")

        def consumer():
            yield sim.timeout(1.0)
            first = yield store.get()
            yield sim.timeout(1.0)
            second = yield store.get()
            return [first, second]

        sim.process(producer())
        p = sim.process(consumer())
        assert sim.run(p) == ["a", "b"]
        assert log == ["a stored", "b stored"]


class TestGate:
    def test_wait_on_open_gate_fires_immediately(self, sim):
        gate = Gate(sim, opened=True)

        def proc():
            yield gate.wait()
            return sim.now

        assert sim.run(sim.process(proc())) == 0.0

    def test_open_wakes_all_waiters(self, sim):
        gate = Gate(sim)
        woken = []

        def waiter(name):
            yield gate.wait()
            woken.append((name, sim.now))

        for name in ("a", "b", "c"):
            sim.process(waiter(name))

        def opener():
            yield sim.timeout(2.0)
            gate.open()

        sim.process(opener())
        sim.run()
        assert woken == [("a", 2.0), ("b", 2.0), ("c", 2.0)]

    def test_reset_closes_for_future_waiters(self, sim):
        gate = Gate(sim, opened=True)
        gate.reset()
        assert not gate.is_open

    def test_double_open_is_idempotent(self, sim):
        gate = Gate(sim)
        gate.open()
        gate.open()
        assert gate.is_open


class TestRunWindow:
    def _trace(self, sim, durations, window):
        log, in_flight, peak = [], [0], [0]

        def work(item):
            in_flight[0] += 1
            peak[0] = max(peak[0], in_flight[0])
            log.append(("start", item, sim.now))
            yield sim.timeout(durations[item])
            in_flight[0] -= 1

        sim.run(sim.process(run_window(sim, range(len(durations)), work, window)))
        return log, peak[0]

    def test_items_start_in_order_at_most_window_at_once(self, sim):
        log, peak = self._trace(sim, [3.0, 1.0, 1.0, 2.0, 1.0], window=2)
        assert peak == 2
        assert [item for _, item, _ in log] == [0, 1, 2, 3, 4]
        # a worker takes the next item as soon as its own finishes
        assert [when for _, _, when in log] == [0.0, 0.0, 1.0, 2.0, 3.0]
        assert sim.now == 4.0

    def test_window_of_one_is_serial(self, sim):
        log, peak = self._trace(sim, [1.0, 2.0, 3.0], window=1)
        assert peak == 1
        assert sim.now == 6.0

    def test_no_items_finishes_at_once(self, sim):
        log, _ = self._trace(sim, [], window=4)
        assert log == [] and sim.now == 0.0

    def test_a_failing_item_fails_the_join(self, sim):
        def work(item):
            yield sim.timeout(1.0)
            if item == 1:
                raise ValueError("item %d" % item)

        def driver():
            try:
                yield from run_window(sim, [0, 1, 2], work, window=2)
            except ValueError as error:
                return str(error)

        assert sim.run(sim.process(driver())) == "item 1"
