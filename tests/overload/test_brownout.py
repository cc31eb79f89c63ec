"""BrownoutController: level transitions, hysteresis, shed gates."""

import pytest

from repro.overload import BrownoutController, LoadLevel, brownout
from repro.simulation import Simulator


@pytest.fixture
def sim():
    return Simulator()


def advance(sim, dt):
    def waiter():
        yield sim.timeout(dt)

    sim.run(sim.process(waiter()))


def make(sim):
    return BrownoutController(sim)


def warm_up(ctl, latency=1e-3):
    """Feed the warmup samples that freeze the baseline p99."""
    for _ in range(50):
        ctl.note_latency(latency)


class TestSignals:
    def test_starts_normal(self, sim):
        ctl = make(sim)
        assert ctl.level == LoadLevel.NORMAL

    def test_few_signals_never_escalate(self, sim):
        ctl = make(sim)
        for _ in range(10):  # below the minimum signal count
            ctl.note_signal(True)
        assert ctl.level == LoadLevel.NORMAL

    def test_busy_ratio_steps_to_elevated(self, sim):
        ctl = make(sim)
        for i in range(16):
            ctl.note_signal(i < 2)  # 12.5% busy: past 10%, under 30%
        assert ctl.level == LoadLevel.ELEVATED

    def test_heavy_busy_ratio_jumps_straight_to_overload(self, sim):
        ctl = make(sim)
        seen = []
        ctl.on_transition.append(lambda old, new: seen.append((old, new)))
        for i in range(16):
            ctl.note_signal(i < 8)  # 50% busy
        assert ctl.level == LoadLevel.OVERLOAD
        # one transition, straight up: no intermediate ELEVATED dwell
        assert [(int(o), int(n)) for o, n in seen] == [(0, 2)]

    def test_queue_depth_ema_steps_up(self, sim):
        ctl = make(sim)
        for _ in range(20):
            ctl.note_queue_depth(100.0)  # EMA climbs past OVERLOAD_QUEUE
        assert ctl.level == LoadLevel.OVERLOAD

    def test_latency_p99_ratio_steps_up(self, sim):
        ctl = make(sim)
        warm_up(ctl, latency=1e-3)
        for _ in range(8):
            ctl.note_latency(1e-3 * brownout.OVERLOAD_P99 * 2)
        assert ctl.level == LoadLevel.OVERLOAD

    def test_baseline_samples_do_not_trigger(self, sim):
        ctl = make(sim)
        for _ in range(49):
            ctl.note_latency(10.0)  # warmup: defines normal, however slow
        assert ctl.level == LoadLevel.NORMAL


class TestHysteresis:
    def overloaded(self, sim):
        ctl = make(sim)
        for _ in range(16):
            ctl.note_signal(True)
        assert ctl.level == LoadLevel.OVERLOAD
        return ctl

    def flush_healthy(self, ctl):
        for _ in range(64):  # push every busy outcome out of the window
            ctl.note_signal(False)

    def test_no_step_down_before_dwell(self, sim):
        ctl = self.overloaded(sim)
        self.flush_healthy(ctl)
        assert ctl.level == LoadLevel.OVERLOAD  # dwell not yet elapsed

    def test_steps_down_one_level_per_dwell(self, sim):
        ctl = self.overloaded(sim)
        self.flush_healthy(ctl)
        advance(sim, brownout.DWELL * 1.2)
        ctl.note_signal(False)
        assert ctl.level == LoadLevel.ELEVATED  # not straight to NORMAL
        ctl.note_signal(False)
        assert ctl.level == LoadLevel.ELEVATED  # second dwell not elapsed
        advance(sim, brownout.DWELL * 1.2)
        ctl.note_signal(False)
        assert ctl.level == LoadLevel.NORMAL

    def test_transition_callbacks_and_counters(self, sim):
        ctl = make(sim)
        seen = []
        ctl.on_transition.append(lambda old, new: seen.append((old, new)))
        for _ in range(16):
            ctl.note_signal(True)
        assert seen == [(LoadLevel.NORMAL, LoadLevel.OVERLOAD)]
        assert ctl.metrics.counter("client.brownout.overloaded").value == 1


class TestShedGates:
    def at_level(self, sim, level):
        ctl = make(sim)
        ctl._set_level(level)
        return ctl

    def test_normal_allows_everything(self, sim):
        ctl = self.at_level(sim, LoadLevel.NORMAL)
        assert ctl.hedge_allowed
        assert not ctl.defer_repair
        assert not ctl.shed_repair
        assert not ctl.shed_retries
        assert not ctl.first_k_reads
        assert not ctl.async_ack_writes

    def test_elevated_disables_hedges_and_defers_repair(self, sim):
        ctl = self.at_level(sim, LoadLevel.ELEVATED)
        assert not ctl.hedge_allowed
        assert ctl.defer_repair
        assert not ctl.shed_repair
        assert not ctl.shed_retries
        assert not ctl.first_k_reads

    def test_overload_sheds_everything_optional(self, sim):
        ctl = self.at_level(sim, LoadLevel.OVERLOAD)
        assert not ctl.hedge_allowed
        assert ctl.defer_repair
        assert ctl.shed_repair
        assert ctl.shed_retries
        assert ctl.first_k_reads
        assert ctl.async_ack_writes
