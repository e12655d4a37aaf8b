"""MonitorService lifecycle, ingestion, aggregation, and failure tests."""

from __future__ import annotations

import gc
import io
import weakref
from collections import Counter

import pytest

from repro.core.errors import ServiceError, UnknownEventError
from repro.properties import ALL_PROPERTIES
from repro.runtime.engine import MonitoringEngine
from repro.runtime.statistics import MonitorStats
from repro.runtime.tracelog import TraceRecorder, read_trace
from repro.service import MonitorService, ingest_symbolic
from repro.spec import compile_spec

from ..conftest import Obj

UNSAFEITER = """
UnsafeIter(c, i) {
  event create(c, i)
  event update(c)
  event next(i)
  ere: update* create next* update+ next
  @match
}
"""


def paper_trace():
    """Figure 3's scenario: two iterators over one collection, one update."""
    c1, i1, i2 = Obj("c1"), Obj("i1"), Obj("i2")
    events = [
        ("create", {"c": c1, "i": i1}),
        ("create", {"c": c1, "i": i2}),
        ("update", {"c": c1}),
        ("next", {"i": i1}),
    ]
    return events, (c1, i1, i2)


class TestIngestion:
    @pytest.mark.parametrize("mode", ("inline", "thread"))
    def test_paper_scenario_fires_once(self, mode):
        events, keep = paper_trace()
        with MonitorService(
            compile_spec(UNSAFEITER).silence(), shards=4, system="rv", mode=mode
        ) as service:
            for event, params in events:
                service.emit(event, **params)
            service.drain()
            verdicts = service.verdicts()
            assert [v.category for v in verdicts] == ["match"]
            assert verdicts[0].spec_name == "UnsafeIter"

    def test_emit_batch_counts_accepted(self):
        events, keep = paper_trace()
        with MonitorService(
            compile_spec(UNSAFEITER).silence(), shards=2, mode="inline"
        ) as service:
            accepted = service.emit_batch(events + [("nope", {})], _strict=False)
            assert accepted == len(events)

    def test_strict_unknown_event_raises(self):
        with MonitorService(compile_spec(UNSAFEITER), shards=2, mode="inline") as service:
            with pytest.raises(UnknownEventError):
                service.emit("nope")

    def test_on_verdict_callback_streams_records(self):
        events, keep = paper_trace()
        seen = []
        service = MonitorService(
            compile_spec(UNSAFEITER).silence(),
            shards=3,
            mode="inline",
            on_verdict=seen.append,
        )
        service.emit_batch(events)
        service.close()
        assert [record.category for record in seen] == ["match"]
        assert dict(seen[0].binding)["c"] is keep[0]

    def test_concurrent_emitters_preserve_per_slice_order(self):
        """Several producer threads share one service; each producer's
        slices must still see their events in that producer's order."""
        import threading

        producers = 4
        collections_each = 8
        engine = MonitoringEngine(compile_spec(UNSAFEITER).silence(), system="rv")
        keep: list[Obj] = []

        def slice_events(tag: str):
            out = []
            for serial in range(collections_each):
                collection, iterator = Obj(f"c{tag}.{serial}"), Obj(f"i{tag}.{serial}")
                keep.extend((collection, iterator))
                out.extend(
                    [
                        ("create", {"c": collection, "i": iterator}),
                        ("update", {"c": collection}),
                        ("next", {"i": iterator}),
                    ]
                )
            return out
        per_producer = [slice_events(str(n)) for n in range(producers)]
        for events in per_producer:
            for event, params in events:
                engine.emit(event, **params)

        with MonitorService(
            compile_spec(UNSAFEITER).silence(),
            shards=4,
            system="rv",
            mode="thread",
            queue_capacity=4,
        ) as service:
            def producer(events):
                # Event-by-event, so producers genuinely interleave at the
                # route+enqueue boundary.
                for event, params in events:
                    service.emit(event, **params)

            threads = [
                threading.Thread(target=producer, args=(events,))
                for events in per_producer
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            service.drain()
            stats = service.stats_for("UnsafeIter")
            assert stats.verdicts == engine.stats_for("UnsafeIter").verdicts
            assert stats.events == engine.stats_for("UnsafeIter").events

    def test_backpressure_with_tiny_queue(self):
        spec = compile_spec(UNSAFEITER).silence()
        with MonitorService(
            spec, shards=2, mode="thread", queue_capacity=1, batch_size=1
        ) as service:
            collections = [Obj(f"c{n}") for n in range(16)]
            for serial, collection in enumerate(collections):
                iterator = Obj(f"i{serial}")
                service.emit("create", c=collection, i=iterator)
                service.emit("update", c=collection)
                service.emit("next", i=iterator)
            service.drain()
            assert service.stats_for("UnsafeIter").events == 48


class TestReferences:
    @pytest.mark.parametrize("mode", ("inline", "thread", "process"))
    def test_drained_service_holds_no_parameter_object(self, mode):
        """After drain() the service keeps no strong reference to a routed
        parameter object: its death is the signal lazy GC runs on."""
        with MonitorService(
            ALL_PROPERTIES["hasnext"].make().silence(), shards=2, mode=mode
        ) as service:
            i = Obj("i")
            service.emit("hasnexttrue", i=i)
            service.emit("next", i=i)
            service.drain()
            ref = weakref.ref(i)
            del i
            gc.collect()
            assert ref() is None


class TestAggregation:
    def test_merged_stats_match_single_engine(self):
        events, keep = paper_trace()
        engine = MonitoringEngine(compile_spec(UNSAFEITER).silence(), system="rv")
        for event, params in events:
            engine.emit(event, **params)
        single = engine.stats_for("UnsafeIter")

        with MonitorService(
            compile_spec(UNSAFEITER).silence(), shards=4, system="rv", mode="inline"
        ) as service:
            service.emit_batch(events)
            merged = service.stats_for("UnsafeIter")
            assert merged.events == single.events
            assert merged.monitors_created == single.monitors_created
            assert merged.verdicts == single.verdicts

    def test_per_shard_stats_partition_the_events(self):
        events, keep = paper_trace()
        with MonitorService(
            compile_spec(UNSAFEITER).silence(), shards=4, mode="inline"
        ) as service:
            service.emit_batch(events)
            per_shard = [
                stats[("UnsafeIter", "ere")].events for stats in service.per_shard_stats()
            ]
            assert sum(per_shard) == service.stats_for("UnsafeIter").events

    def test_engine_stats_snapshot_is_json_serializable(self):
        import json

        events, keep = paper_trace()
        with MonitorService(
            compile_spec(UNSAFEITER).silence(), shards=2, mode="inline"
        ) as service:
            service.emit_batch(events)
            for engine in service.engines:
                payload = json.loads(json.dumps(engine.stats_snapshot()))
                assert set(payload) == {"UnsafeIter/ere"}
                rebuilt = MonitorStats.from_snapshot(payload["UnsafeIter/ere"])
                assert rebuilt.events == payload["UnsafeIter/ere"]["events"]

    def test_monitor_stats_merge_and_snapshot_roundtrip(self):
        first = MonitorStats(events=3, monitors_created=2, handler_fires=1)
        first.record_verdict("match")
        second = MonitorStats(events=5, monitors_collected=1, peak_live_monitors=4)
        second.record_verdict("match")
        second.record_verdict("fail")
        merged = MonitorStats.merged([first, second])
        assert merged.events == 8
        assert merged.verdicts == {"match": 2, "fail": 1}
        assert first.events == 3  # inputs untouched
        rebuilt = MonitorStats.from_snapshot(merged.snapshot())
        assert rebuilt.snapshot() == merged.snapshot()


class TestLifecycle:
    def test_close_is_idempotent_and_emit_after_close_raises(self):
        service = MonitorService(compile_spec(UNSAFEITER), shards=2, mode="thread")
        service.close()
        service.close()
        with pytest.raises(ServiceError):
            service.emit("update", c=Obj("c"))

    def test_worker_failure_surfaces_at_drain(self):
        spec = compile_spec(UNSAFEITER)

        def explode(_name, _category, _binding):
            raise RuntimeError("handler boom")

        spec.properties[0].on("match", explode)
        events, keep = paper_trace()
        service = MonitorService(spec, shards=2, mode="thread")
        with pytest.raises(ServiceError, match="boom"):
            service.emit_batch(events)
            service.drain()
        with pytest.raises(ServiceError):
            service.close()

    def test_context_manager_closes(self):
        with MonitorService(compile_spec(UNSAFEITER), shards=2, mode="thread") as service:
            pass
        with pytest.raises(ServiceError):
            service.emit("update", c=Obj("c"))

    def test_close_leaks_no_worker_threads(self):
        import threading

        before = {thread.name for thread in threading.enumerate()}
        with MonitorService(compile_spec(UNSAFEITER), shards=3, mode="thread") as service:
            events, keep = paper_trace()
            service.emit_batch(events)
            service.drain()
        service.close()  # second close: still no-op, still no leaks
        leaked = {
            thread.name
            for thread in threading.enumerate()
            if thread.name.startswith("repro-shard-")
        } - before
        assert not leaked

    def test_rejects_bad_configuration(self):
        with pytest.raises(ValueError):
            MonitorService(compile_spec(UNSAFEITER), shards=0)
        with pytest.raises(ValueError):
            MonitorService(compile_spec(UNSAFEITER), mode="carrier-pigeon")
        with pytest.raises(ValueError):
            MonitorService([])


class TestSymbolicIngestion:
    def test_recorded_trace_replays_into_service(self):
        spec = compile_spec(UNSAFEITER).silence()
        engine = MonitoringEngine(spec, gc="none")
        sink = io.StringIO()
        TraceRecorder(sink).attach(engine)
        events, keep = paper_trace()
        for event, params in events:
            engine.emit(event, **params)
        entries = [
            (entry["event"], entry["params"])
            for entry in read_trace(sink.getvalue().splitlines())
        ]
        with MonitorService(
            compile_spec(UNSAFEITER).silence(), shards=4, system="rv", mode="inline"
        ) as service:
            alive = ingest_symbolic(service, entries)
            assert Counter(v.category for v in service.verdicts()) == Counter(
                engine.stats_for("UnsafeIter").verdicts
            )
            assert set(alive) == {"o1", "o2", "o3"}

    def test_retire_after_last_use_drops_tokens(self):
        events, keep = paper_trace()
        entries = [
            (event, {name: f"t{id(value)}" for name, value in params.items()})
            for event, params in events
        ]
        with MonitorService(
            compile_spec(UNSAFEITER).silence(), shards=2, system="rv", mode="inline"
        ) as service:
            alive = ingest_symbolic(service, entries, retire_after_last_use=True)
            assert alive == {}
