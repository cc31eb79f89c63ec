"""AdmissionController: bounded lanes, CoDel shedding, retry-after."""

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.overload import (
    GRANTED,
    LANE_BG,
    LANE_FG,
    SHED,
    AdmissionController,
)
from repro.simulation import Simulator
from repro.store.plan import AdmissionConfig


@pytest.fixture
def sim():
    return Simulator()


#: every scenario passes all three knobs; none relies on a default
KNOBS = {"max_queue": 64, "bg_max_queue": 16, "sojourn_deadline": 0.02}


def controller(sim, slots, **kwargs):
    knobs = {name: kwargs.pop(name, value) for name, value in KNOBS.items()}
    return AdmissionController(
        sim, slots=slots, config=AdmissionConfig(**knobs), **kwargs
    )


def advance(sim, dt):
    def waiter():
        yield sim.timeout(dt)

    sim.run(sim.process(waiter()))


class TestFastPath:
    def test_uncontended_offer_granted_processed(self, sim):
        ctl = controller(sim, slots=2)
        ticket = ctl.offer()
        assert ticket is not None
        assert ticket.processed  # no heap event on the hot path
        assert ticket.value == GRANTED
        assert ctl.in_service == 1
        assert ctl.queued == 0
        assert ctl.admitted.value == 1

    def test_slots_validation(self, sim):
        with pytest.raises(ValueError):
            controller(sim, slots=0)

    def test_release_returns_slot_and_grants_fifo(self, sim):
        ctl = controller(sim, slots=1)
        ctl.offer()
        second = ctl.offer()
        third = ctl.offer()
        assert not second.triggered and not third.triggered
        ctl.release(0.001)
        assert second.triggered and second.value == GRANTED
        assert not third.triggered
        assert ctl.in_service == 1

    def test_release_without_grant_raises(self, sim):
        ctl = controller(sim, slots=1)
        with pytest.raises(RuntimeError):
            ctl.release()


class TestLanes:
    def test_foreground_granted_before_background(self, sim):
        ctl = controller(sim, slots=1)
        ctl.offer()  # occupy the slot
        bg = ctl.offer(lane=LANE_BG)
        fg = ctl.offer(lane=LANE_FG)
        ctl.release()
        assert fg.triggered and fg.value == GRANTED
        assert not bg.triggered  # bg waits even though it arrived first
        ctl.release()
        assert bg.triggered and bg.value == GRANTED

    def test_bg_lane_has_its_own_smaller_cap(self, sim):
        ctl = controller(sim, slots=1, max_queue=8, bg_max_queue=1)
        ctl.offer()
        assert ctl.offer(lane=LANE_BG) is not None
        assert ctl.offer(lane=LANE_BG) is None  # bg cap hit
        assert ctl.offer(lane=LANE_FG) is not None  # fg cap untouched
        assert ctl.rejected.value == 1


class TestRejectAtCap:
    def test_full_fg_queue_rejects_immediately(self, sim):
        ctl = controller(sim, slots=1, max_queue=2)
        ctl.offer()
        assert ctl.offer() is not None
        assert ctl.offer() is not None
        assert ctl.offer() is None
        assert ctl.rejected.value == 1
        assert ctl.queued == 2


class TestSojournShedding:
    def test_stale_request_shed_on_dequeue(self, sim):
        ctl = controller(sim, slots=1, sojourn_deadline=0.01)
        ctl.offer()
        stale = ctl.offer()
        advance(sim, 0.05)  # far past the sojourn deadline
        ctl.release(0.001)
        sim.run()
        assert stale.triggered and stale.value == SHED
        assert ctl.shed.value == 1
        # the shed ticket holds no slot: a fresh offer is granted now
        assert ctl.in_service == 0
        fresh = ctl.offer()
        assert fresh.processed and fresh.value == GRANTED

    def test_fresh_request_survives_dequeue(self, sim):
        ctl = controller(sim, slots=1, sojourn_deadline=0.01)
        ctl.offer()
        fresh = ctl.offer()
        advance(sim, 0.005)  # under the deadline
        ctl.release(0.001)
        sim.run()
        assert fresh.triggered and fresh.value == GRANTED
        assert ctl.shed.value == 0


class TestRetryAfter:
    def test_floored_at_sojourn_deadline(self, sim):
        ctl = controller(sim, slots=4, sojourn_deadline=0.02)
        assert ctl.retry_after() == pytest.approx(0.02)

    def test_scales_with_backlog_and_service_time(self, sim):
        ctl = controller(
            sim, slots=1, sojourn_deadline=0.001, service_estimate=0.01
        )
        ctl.offer()
        ctl.offer()
        ctl.offer()
        # backlog = 3 (one in service, two queued): drain estimate 4 * ema
        assert ctl.retry_after() == pytest.approx(0.04)

    def test_ema_tracks_observed_service_times(self, sim):
        ctl = controller(
            sim, slots=1, sojourn_deadline=1e-6, service_estimate=0.001
        )
        ctl.offer()
        ctl.release(0.101)
        # EMA alpha 0.2: 0.001 + 0.2 * (0.101 - 0.001) = 0.021
        assert ctl.retry_after() == pytest.approx(0.021, rel=1e-6)


class TestDepthObservation:
    def test_every_enqueue_and_dequeue_observed(self, sim):
        registry = MetricsRegistry()
        hist = registry.histogram("server.s.queue_depth")
        ctl = controller(sim, slots=1, depth_histogram=hist)
        ctl.offer()  # fast path: no queue transition, no sample
        assert hist.count == 0
        ctl.offer()
        ctl.offer()
        assert hist.count == 2  # two enqueues
        assert hist.maximum == 2
        ctl.release()
        ctl.release()
        sim.run()
        assert hist.count == 4  # plus two dequeues
