"""The flight recorder: bounded ring, triggered dumps, replayable postmortems.

Covers the recorder half of the trace plane: the lock-guarded ring and
its triggers (verdict burst with cooldown, queue saturation, worker
exception), the boundary observer behind ``enable_flight_recorder``
(default-off hot paths stay byte-identical), and the acceptance criterion — a triggered dump on a durable engine
carries WAL refs from which :func:`replay_dump_verdict` reproduces the
triggering verdict through ``repro.obs.provenance``.
"""

from __future__ import annotations

import pytest

from repro.core.errors import ReproError, ServiceError
from repro.obs.recorder import FlightRecorder, replay_dump_verdict
from repro.persist.recovery import DurableEngine
from repro.properties import UNSAFEITER
from repro.runtime.engine import MonitoringEngine
from repro.service import MonitorService

from ..conftest import Obj
from .test_attribution import emit_triples


class FakeClock:
    def __init__(self, now=100.0):
        self.now = now

    def __call__(self):
        return self.now


class TestRing:
    def test_ring_is_bounded_oldest_first(self):
        recorder = FlightRecorder(capacity=4, clock=FakeClock())
        for k in range(10):
            recorder.record("event", k=k)
        assert len(recorder) == 4
        assert [entry["k"] for entry in recorder.snapshot()] == [6, 7, 8, 9]

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            FlightRecorder(capacity=0)

    def test_record_event_makes_params_json_safe(self):
        recorder = FlightRecorder(clock=FakeClock())
        recorder.record_event("create", {"c": Obj("c0"), "n": 3}, wal={"seq": 7})
        (entry,) = recorder.snapshot()
        assert entry["kind"] == "event"
        assert entry["params"]["n"] == 3
        assert isinstance(entry["params"]["c"], str)  # repr stand-in, not the object
        assert entry["wal"] == {"seq": 7}


class _Prop:
    spec_name = "UnsafeIter"
    formalism = "ere"


class TestTriggers:
    def test_manual_trigger_dumps_ring_and_context(self):
        clock = FakeClock()
        recorder = FlightRecorder(clock=clock)
        recorder.record("event", k=1)
        dump = recorder.trigger("queue-saturation", shard=2)
        assert dump["reason"] == "queue-saturation"
        assert dump["at"] == clock.now
        assert dump["context"] == {"shard": 2}
        assert [e["kind"] for e in dump["entries"]] == ["event"]
        assert recorder.dumps == [dump]

    def test_cooldown_suppresses_repeat_dumps_per_reason(self):
        clock = FakeClock()
        recorder = FlightRecorder(clock=clock, cooldown=5.0)
        assert recorder.trigger("queue-saturation") is not None
        assert recorder.trigger("queue-saturation") is None  # inside cooldown
        assert recorder.trigger("worker-exception") is not None  # other reason
        clock.now += 5.0
        assert recorder.trigger("queue-saturation") is not None
        assert len(recorder.dumps) == 3

    def test_verdict_burst_trigger_and_on_dump_hook(self):
        clock = FakeClock()
        seen = []
        recorder = FlightRecorder(
            clock=clock, burst_count=3, burst_window=1.0, on_dump=seen.append
        )
        prop = _Prop()

        class _Mon:
            provenance = {"property": "UnsafeIter", "slot": 0, "seq": 3}

            def binding(self):
                return {"c": Obj("c0")}

        dumps = []
        for k in range(3):
            clock.now += 0.1  # three verdicts inside one second
            dumps.append(recorder.record_verdict(prop, "match", _Mon()))
        assert dumps[0] is None and dumps[1] is None
        burst = dumps[2]
        assert burst is not None and burst["reason"] == "verdict-burst"
        assert burst["context"]["verdict"]["category"] == "match"
        assert seen == [burst]

    def test_slow_verdicts_never_burst(self):
        clock = FakeClock()
        recorder = FlightRecorder(clock=clock, burst_count=3, burst_window=1.0)
        prop = _Prop()

        class _Mon:
            provenance = None

            def binding(self):
                return {}

        for _ in range(10):
            clock.now += 2.0  # always outside the window
            assert recorder.record_verdict(prop, "match", _Mon()) is None
        assert recorder.dumps == []

    def test_wal_refs_deduplicate_across_entries(self):
        recorder = FlightRecorder(clock=FakeClock())
        recorder.record_event("a", {}, wal={"segment": 0, "seq": 1, "first_seq": 0})
        recorder.record_event("b", {}, wal={"segment": 0, "seq": 1, "first_seq": 0})
        recorder.record_event("c", {}, wal={"segment": 0, "seq": 2, "first_seq": 0})
        dump = recorder.trigger("test")
        assert [ref["seq"] for ref in dump["wal_refs"]] == [1, 2]


class TestEngineIntegration:
    def test_wrappers_record_events_deaths_and_registry_ops(self):
        engine = MonitoringEngine(UNSAFEITER.make().silence(), gc="coenable")
        recorder = engine.enable_flight_recorder()
        keepalive = emit_triples(engine, 2)
        engine.detach_property(0)
        kinds = [entry["kind"] for entry in recorder.snapshot()]
        assert kinds.count("event") == 6
        assert "registry-op" in kinds
        verdicts = [e for e in recorder.snapshot() if e["kind"] == "verdict"]
        assert len(verdicts) == 2
        assert all(v["property"] == "UnsafeIter" for v in verdicts)
        del keepalive

    def test_default_off_installs_nothing(self):
        engine = MonitoringEngine(UNSAFEITER.make().silence())
        assert engine.flight_recorder is None
        assert "emit" not in vars(engine)

    def test_double_enable_raises(self):
        engine = MonitoringEngine(UNSAFEITER.make().silence())
        engine.enable_flight_recorder()
        with pytest.raises(ValueError):
            engine.enable_flight_recorder()


class TestDurableReplay:
    def test_triggered_dump_replays_through_provenance(self, tmp_path):
        """The acceptance path: burst dump -> WAL refs -> replayed verdict."""
        directory = tmp_path / "wal"
        durable = DurableEngine(
            UNSAFEITER.make().silence(),
            directory,
            gc="coenable",
            checkpoint_every=10_000,
        )
        recorder = durable.enable_flight_recorder(
            FlightRecorder(burst_count=2, burst_window=60.0)
        )
        keepalive = emit_triples(durable, 3)
        durable.close()  # syncs the WAL the dump's refs point into
        del keepalive

        assert recorder.dumps, "burst trigger never fired"
        dump = recorder.dumps[0]
        assert dump["reason"] == "verdict-burst"
        # Dumped events and verdicts carry durable WAL coordinates.
        assert dump["wal_refs"]
        triggering = dump["context"]["verdict"]
        assert triggering["provenance"]["seq"] in {ref["seq"] for ref in dump["wal_refs"]}

        replayed = replay_dump_verdict(
            directory, dump, UNSAFEITER.make().silence(), gc="coenable"
        )
        # The burst fires on the 2nd verdict (seq 6), whose triple bound the
        # WAL symbols (o3, o4); replay reports WAL-symbolic bindings.
        assert triggering["provenance"]["seq"] == 6
        assert ("UnsafeIter", "ere", "match", {"c": "o3", "i": "o4"}) in replayed

    def test_replay_refuses_dumps_without_wal_coordinates(self, tmp_path):
        engine = MonitoringEngine(UNSAFEITER.make().silence(), gc="coenable")
        recorder = engine.enable_flight_recorder(FlightRecorder(burst_count=1))
        keepalive = emit_triples(engine, 1)
        assert recorder.dumps
        with pytest.raises(ValueError, match="WAL"):
            replay_dump_verdict(
                tmp_path, recorder.dumps[0], UNSAFEITER.make().silence()
            )
        del keepalive

    def test_replay_requires_a_verdict_entry(self, tmp_path):
        recorder = FlightRecorder(clock=FakeClock())
        recorder.record("event", k=1)
        dump = recorder.trigger("queue-saturation")
        with pytest.raises(ValueError, match="no verdict"):
            replay_dump_verdict(tmp_path, dump, UNSAFEITER.make().silence())


class TestServiceTriggers:
    @pytest.mark.parametrize("mode", ("thread", "process"))
    def test_queue_saturation_dump_in_thread_mode(self, mode):
        service = MonitorService(
            UNSAFEITER.make().silence(),
            shards=1,
            mode=mode,
            queue_capacity=1,
            flight_recorder=True,
        )
        keepalive = emit_triples(service, 100)
        service.drain()
        service.close()
        reasons = {d["reason"] for d in service.flight_recorder_dumps()}
        assert "queue-saturation" in reasons
        del keepalive

    def test_worker_exception_dump_in_thread_mode(self):
        # A raising property handler runs in the shard worker and kills it.
        def explode(_spec_name, _category, _binding):
            raise RuntimeError("boom in property handler")

        spec = UNSAFEITER.make().silence()
        spec.on("match", explode)
        service = MonitorService(spec, shards=1, flight_recorder=True)
        keepalive = []
        with pytest.raises(ServiceError):
            keepalive += emit_triples(service, 2)
            service.drain()
        dumps = service.flight_recorder_dumps()
        assert any(d["reason"] == "worker-exception" for d in dumps)
        crash = next(d for d in dumps if d["reason"] == "worker-exception")
        assert "boom" in crash["context"]["error"]
        with pytest.raises(ServiceError):
            service.close()

        # A raising on_verdict runs in the parent's verdict drainer; it
        # still surfaces as a ServiceError at drain().
        def explode_record(record):
            raise RuntimeError("boom in verdict callback")

        service = MonitorService(
            UNSAFEITER.make().silence(), shards=1, on_verdict=explode_record
        )
        with pytest.raises(ServiceError, match="boom in verdict callback"):
            keepalive += emit_triples(service, 2)
            service.drain()
        with pytest.raises(ServiceError):
            service.close()
        del keepalive


class TestLiveSession:
    def test_session_forwards_to_a_capable_sink(self):
        from repro.instrument.live import LiveSession

        session = LiveSession(
            properties=UNSAFEITER.make().silence(), gc="coenable"
        )
        recorder = session.enable_flight_recorder()
        with session:
            c, i = Obj("c0"), Obj("i0")
            session.emit("create", c=c, i=i)
            session.emit("update", c=c)
            session.emit("next", i=i)
        assert any(e["kind"] == "verdict" for e in recorder.snapshot())

    def test_session_rejects_incapable_sinks(self):
        from repro.instrument.live import LiveSession

        class _Sink:
            def emit(self, event, **params):
                pass

        session = LiveSession(sink=_Sink())
        with pytest.raises(ReproError, match="flight recorder"):
            session.enable_flight_recorder()
