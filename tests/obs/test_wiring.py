"""Per-layer telemetry wiring: the right series move by the right amounts.

Each layer's instrumentation is interposed per instance when (and only
when) a ``Telemetry`` is passed; these tests pin the observable contract
per layer — exact counters exact, sampled timers firing at interval 1,
and ``telemetry=None`` leaving the registry out of the picture entirely.
"""

from __future__ import annotations

import pytest

from repro.obs.telemetry import Telemetry
from repro.persist.recovery import DurableEngine
from repro.properties import UNSAFEITER
from repro.runtime.engine import MonitoringEngine

from ..conftest import Obj


def series_sum(snapshot, name):
    return sum(value for _, value in snapshot.get(name, {"series": []})["series"])


def series(snapshot, name, *labels):
    for key, value in snapshot[name]["series"]:
        if tuple(key) == labels:
            return value
    raise AssertionError(f"{name}{labels!r} not in snapshot")


def emit_triples(target, n):
    """Drive n UnsafeIter create/update/next triples; returns keepalives."""
    keepalive = []
    for k in range(n):
        c, i = Obj(f"c{k}"), Obj(f"i{k}")
        keepalive.append((c, i))
        target.emit("create", c=c, i=i)
        target.emit("update", c=c)
        target.emit("next", i=i)
    return keepalive


def sample_everything():
    """A telemetry plane whose samplers fire on every tick."""
    return Telemetry(sample_interval=1)


class TestEngineWiring:
    def test_handled_counter_is_exact(self):
        telemetry = sample_everything()
        engine = MonitoringEngine(UNSAFEITER.make().silence(), telemetry=telemetry)
        keepalive = emit_triples(engine, 25)
        snap = telemetry.snapshot()
        assert series(snap, "repro_engine_handled_total", "UnsafeIter/ere") == 75
        del keepalive

    def test_sampled_latency_labels_property_and_event(self):
        telemetry = sample_everything()
        engine = MonitoringEngine(UNSAFEITER.make().silence(), telemetry=telemetry)
        keepalive = emit_triples(engine, 10)
        snap = telemetry.snapshot()
        by_event = {
            tuple(key): value["count"]
            for key, value in snap["repro_engine_event_seconds"]["series"]
        }
        assert by_event == {
            ("UnsafeIter/ere", "create"): 10,
            ("UnsafeIter/ere", "update"): 10,
            ("UnsafeIter/ere", "next"): 10,
        }
        del keepalive

    def test_default_sampling_observes_one_in_n(self):
        telemetry = Telemetry(sample_interval=8)
        engine = MonitoringEngine(UNSAFEITER.make().silence(), telemetry=telemetry)
        keepalive = emit_triples(engine, 16)  # 48 events -> 6 sampled
        snap = telemetry.snapshot()
        assert series(snap, "repro_engine_handled_total", "UnsafeIter/ere") == 48
        assert (
            sum(
                value["count"]
                for _, value in snap["repro_engine_event_seconds"]["series"]
            )
            == 6
        )
        del keepalive

    def test_batch_paths_record_batch_sizes(self):
        telemetry = sample_everything()
        engine = MonitoringEngine(UNSAFEITER.make().silence(), telemetry=telemetry)
        c, i = Obj("c"), Obj("i")
        engine.emit_batch(
            [("create", {"c": c, "i": i}), ("update", {"c": c}), ("next", {"i": i})]
        )
        snap = telemetry.snapshot()
        emit_hist = series(snap, "repro_engine_batch_size", "emit")
        assert emit_hist["count"] == 1
        assert emit_hist["sum"] == 3.0
        del c, i

    def test_gc_purge_pause_observed_on_deaths(self):
        """The eager death step, ``reap``, is timed on either dispatch
        tier."""
        import gc as _gc

        for dispatch in ("codegen", "reference"):
            telemetry = sample_everything()
            engine = MonitoringEngine(
                UNSAFEITER.make().silence(),
                gc="coenable",
                propagation="eager",  # lazy GC has no death step
                dispatch=dispatch,
                telemetry=telemetry,
            )
            keepalive = emit_triples(engine, 4)
            del keepalive
            _gc.collect()
            engine.emit("update", c=Obj("fresh"))  # death boundary -> purge
            snap = telemetry.snapshot()
            phases = {
                tuple(key): value["count"]
                for key, value in snap["repro_engine_gc_pause_seconds"]["series"]
            }
            assert phases.get(("UnsafeIter/ere", "purge"), 0) >= 1, dispatch

    def test_telemetry_none_records_nothing(self):
        engine = MonitoringEngine(UNSAFEITER.make().silence())
        keepalive = emit_triples(engine, 5)
        assert engine.telemetry is None
        snap = engine.metrics_snapshot()
        # Only the stats-derived series exist; no live registry families.
        assert all(name.startswith("repro_monitor_") for name in snap)
        assert series(snap, "repro_monitor_events_total", "UnsafeIter/ere") == 15
        del keepalive

    def test_enable_telemetry_retrofits_a_running_engine(self):
        engine = MonitoringEngine(UNSAFEITER.make().silence())
        keepalive = emit_triples(engine, 3)
        telemetry = engine.enable_telemetry(sample_everything())
        keepalive += emit_triples(engine, 2)
        # Counts start at attachment time; stats cover the whole run.
        snap = engine.metrics_snapshot()
        assert series(snap, "repro_engine_handled_total", "UnsafeIter/ere") == 6
        assert series(snap, "repro_monitor_events_total", "UnsafeIter/ere") == 15
        with pytest.raises(ValueError):
            engine.enable_telemetry(telemetry)
        del keepalive


class TestPersistWiring:
    def _durable(self, tmp_path, telemetry, **kwargs):
        return DurableEngine(
            UNSAFEITER.make().silence(),
            tmp_path / "wal",
            gc="coenable",
            telemetry=telemetry,
            **kwargs,
        )

    def test_wal_appends_and_fsyncs_counted(self, tmp_path):
        telemetry = sample_everything()
        durable = self._durable(tmp_path, telemetry, fsync_interval=5)
        keepalive = emit_triples(durable, 10)
        durable.wal.sync()
        snap = telemetry.snapshot()
        assert series(snap, "repro_wal_appends_total") == 30
        assert series(snap, "repro_wal_append_seconds")["count"] == 30
        assert series(snap, "repro_wal_fsync_seconds")["count"] >= 6
        durable.close()
        del keepalive

    def test_rotation_and_checkpoint_timed(self, tmp_path):
        telemetry = sample_everything()
        durable = self._durable(
            tmp_path, telemetry, segment_events=7, checkpoint_every=12
        )
        keepalive = emit_triples(durable, 10)
        durable.checkpoint()
        snap = telemetry.snapshot()
        assert series(snap, "repro_wal_rotation_seconds")["count"] >= 3
        assert series(snap, "repro_persist_checkpoint_seconds")["count"] >= 2
        durable.close()
        del keepalive

    def test_recover_times_restore_and_rewires_engine(self, tmp_path):
        durable = self._durable(tmp_path, None)
        keepalive = emit_triples(durable, 6)
        durable.close()
        telemetry = sample_everything()
        recovered, _tokens = DurableEngine.recover(
            UNSAFEITER.make().silence(), tmp_path / "wal", telemetry=telemetry
        )
        keepalive += emit_triples(recovered, 2)
        snap = telemetry.snapshot()
        assert series(snap, "repro_persist_restore_seconds")["count"] == 1
        # The recovered engine is live-instrumented: 3 replayed + 3 fresh...
        assert series(snap, "repro_wal_appends_total") == 6
        assert series(snap, "repro_engine_handled_total", "UnsafeIter/ere") >= 6
        recovered.close()
        del keepalive


class TestLiveWiring:
    def test_live_event_counters_exact_and_engine_shares_registry(self):
        from repro.instrument.live import LiveSession

        telemetry = sample_everything()
        with LiveSession(
            properties=["unsafeiter"], telemetry=telemetry, system="rv"
        ) as session:
            keepalive = emit_triples(session, 8)
            snap = telemetry.snapshot()
        assert series(snap, "repro_live_events_total", "create") == 8
        assert series(snap, "repro_live_events_total", "update") == 8
        assert series(snap, "repro_live_events_total", "next") == 8
        # The session-built engine inherited the same telemetry plane.
        assert series(snap, "repro_engine_handled_total", "UnsafeIter/ere") == 24
        pointcut = sum(
            value["count"]
            for _, value in snap["repro_live_pointcut_seconds"]["series"]
        )
        assert pointcut == 24  # interval 1: every woven event timed
        del keepalive

    def test_live_sampling_defaults_leave_counters_exact(self):
        from repro.instrument.live import LiveSession

        telemetry = Telemetry(sample_interval=16)
        with LiveSession(
            properties=["unsafeiter"], telemetry=telemetry, system="rv"
        ) as session:
            keepalive = emit_triples(session, 8)
            snap = telemetry.snapshot()
        assert series_sum(snap, "repro_live_events_total") == 24  # exact
        timed = sum(
            value["count"]
            for _, value in snap.get(
                "repro_live_pointcut_seconds", {"series": []}
            )["series"]
        )
        assert timed == 2  # 24 events, 1-in-16 sampling
        del keepalive
