"""The per-cluster event log: emission, queries, determinism, export."""

import json

from repro.common.payload import Payload
from repro.core.cluster import build_cluster
from repro.faults import ChaosEngine, FaultProfile
from repro.obs.events import Event, EventLog
from repro.obs.export import chrome_trace_events, write_chrome_trace
from repro.simulation import Simulator


class TestEventLog:
    def test_query_by_kind_keeps_emission_order(self):
        sim = Simulator()
        log = EventLog(sim)
        log.emit("chaos.fault", fault="drop", detail="a->b")
        sim.run(sim.timeout(1.0))
        log.emit("swim.dead", member="server-1", by="server-2")
        log.emit("chaos.fault", fault="heal", detail="server-0")
        assert log.query("chaos.fault") == [
            Event(0.0, "chaos.fault", {"fault": "drop", "detail": "a->b"}),
            Event(1.0, "chaos.fault", {"fault": "heal", "detail": "server-0"}),
        ]
        assert [e.kind for e in log.query()] == [
            "chaos.fault", "swim.dead", "chaos.fault",
        ]
        assert log.query("scrub.audit") == []


#: crashes, drops and rot, dense enough to land within 0.25 s
_STORM = FaultProfile(
    name="storm", drop_rate=0.01, crash_rate=20.0, crash_downtime=0.05,
    bitrot_rate=20.0,
)


def _chaos_run(seed, trace=False):
    """A small SWIM cluster under a fault storm, with traffic."""
    cluster = build_cluster(servers=8, trace=trace)
    cluster.config.with_membership(period=0.01, seed=seed)
    cluster.detector.start(0.3)
    ChaosEngine(cluster, _STORM, seed=seed).start(0.25)
    client = cluster.add_client()

    def work():
        for i in range(60):
            yield cluster.sim.timeout(4e-3)
            try:
                value = Payload.from_bytes(bytes([i]) * 2048)
                yield from client.set("k%02d" % (i % 20), value)
            except Exception:
                pass

    cluster.sim.process(work())
    cluster.run()
    return cluster


class TestDeterminism:
    def test_same_seed_same_event_stream(self):
        first = _chaos_run(seed=3).events.query()
        assert first == _chaos_run(seed=3).events.query()
        kinds = {event.kind for event in first}
        assert {"chaos.fault", "chaos.rot", "swim.suspect"} <= kinds

    def test_untraced_runs_still_log(self):
        cluster = _chaos_run(seed=3)
        assert not cluster.tracer.enabled
        assert cluster.events.query("chaos.fault")


class TestChromeExport:
    def test_every_fault_is_an_instant_on_the_chaos_track(self, tmp_path):
        cluster = _chaos_run(seed=3, trace=True)
        exported = chrome_trace_events(cluster.tracer)
        tracks = {
            e["args"]["name"]: e["tid"] for e in exported if e["ph"] == "M"
        }
        faults = cluster.events.query("chaos.fault")
        instants = [
            e for e in exported if e["ph"] == "i" and e["cat"] == "fault"
        ]
        # "<fault> <detail>" at the fault's time: the instants a traced
        # chaos run has always carried (a crash is its injector's "fail")
        assert [(e["ts"], e["name"]) for e in instants] == [
            (f.time * 1e6, "%s %s" % (f.fields["fault"], f.fields["detail"]))
            for f in faults
        ]
        assert {e["tid"] for e in instants} == {tracks["chaos"]}
        assert {"drop", "fail"} <= {f.fields["fault"] for f in faults}
        # the SWIM verdicts ride along on their own track
        swim = {
            e["cat"] for e in exported
            if e["ph"] == "i" and e["tid"] == tracks["swim"]
        }
        assert "suspect" in swim and swim <= {"suspect", "dead"}
        path = write_chrome_trace(
            cluster.tracer, str(tmp_path / "chaos.json"), cluster.metrics
        )
        with open(path) as fh:
            assert len(json.load(fh)["traceEvents"]) == len(exported)
