"""Per-property stage attribution: where the sampled millisecond went.

Pins the tentpole contracts of ``repro.obs.attribution``:

* attribution off (the default) installs nothing — the engine carries no
  plane and no wrapped emit paths;
* at ``sample_interval=1`` every stage fills, and the attributed sums
  equal the measured emit wall time within 15% on the bloat workload
  (the acceptance bound — at interval 1 the sampled sums *are* the
  engine time);
* attribution never changes monitoring results (verdicts and monitors
  are identical on vs off);
* labels are slot-stable: detach + reattach starts a fresh series under
  the new slot instead of bleeding into the tombstoned one;
* forked shard workers sample on pairwise-distinct phases
  (``Telemetry.config(shard=k)``), and process-mode worker cells merge
  back into the parent snapshot.
"""

from __future__ import annotations

from time import perf_counter

import pytest

from repro.bench.workloads import WORKLOADS, record_workload_events
from repro.obs.attribution import ENGINE_LABEL, STAGES, prop_label, stage_table
from repro.obs.telemetry import SHARD_PHASE_STRIDE, Telemetry
from repro.properties import UNSAFEITER, UNSAFEMAPITER, UNSAFESYNCMAP
from repro.runtime.engine import MonitoringEngine
from repro.runtime.tracelog import replay_entries
from repro.service import MonitorService
from repro.service.service import ingest_symbolic

from ..conftest import Obj


def bloat_entries(scale=0.03):
    return record_workload_events(WORKLOADS["bloat"].scaled(scale), [UNSAFEITER])


def attributed_engine(interval=1, **kwargs):
    telemetry = Telemetry(sample_interval=interval, attribution=True)
    engine = MonitoringEngine(
        UNSAFEITER.make().silence(),
        gc="coenable",
        propagation="lazy",
        telemetry=telemetry,
        **kwargs,
    )
    return engine, telemetry


def emit_triples(target, n, start=0):
    keepalive = []
    for k in range(start, start + n):
        c, i = Obj(f"c{k}"), Obj(f"i{k}")
        keepalive.append((c, i))
        target.emit("create", c=c, i=i)
        target.emit("update", c=c)
        target.emit("next", i=i)
    return keepalive


class TestDefaultOff:
    def test_no_plane_and_no_wrappers_without_attribution(self):
        engine = MonitoringEngine(UNSAFEITER.make().silence())
        assert engine.attribution is None
        assert "emit" not in vars(engine)
        assert "emit_batch" not in vars(engine)

    def test_plain_telemetry_does_not_build_a_plane(self):
        engine = MonitoringEngine(
            UNSAFEITER.make().silence(), telemetry=Telemetry()
        )
        assert engine.attribution is None


class TestStageAccounting:
    def test_every_dispatch_stage_fills_at_interval_one(self):
        engine, telemetry = attributed_engine(interval=1)
        keepalive = emit_triples(engine, 30)
        table = stage_table(telemetry.snapshot())
        label = prop_label(0, "UnsafeIter", "ere")
        assert label in table
        for stage in ("dispatch", "tree-walk", "fsm-step"):
            assert table[label][stage] > 0.0, stage
        assert table[ENGINE_LABEL]["emit-batch"] > 0.0
        del keepalive

    def test_sampling_interval_thins_the_samples(self):
        engine, telemetry = attributed_engine(interval=64)
        keepalive = emit_triples(engine, 40)  # 120 emits -> ~2 sampled
        snap = telemetry.snapshot()
        samples = sum(
            value
            for _key, value in snap["repro_prop_stage_samples_total"]["series"]
        )
        assert 0 < samples < 120
        del keepalive

    def test_attributed_sum_matches_emit_wall_time_on_bloat(self):
        entries = bloat_entries()
        engine, telemetry = attributed_engine(interval=1)
        # Replay ingests through the repack-free ``emit_values`` entry,
        # whose boundary observers include the attribution plane — time
        # that exact entry.
        inner_emit_values = engine.emit_values
        wall = 0.0

        def timed_emit_values(event, values, _strict=True):
            nonlocal wall
            started = perf_counter()
            try:
                return inner_emit_values(event, values, _strict)
            finally:
                wall += perf_counter() - started

        engine.emit_values = timed_emit_values
        replay_entries(entries, engine, retire_after_last_use=True)
        attributed = sum(
            value
            for _key, value in telemetry.snapshot()[
                "repro_prop_stage_seconds_total"
            ]["series"]
        )
        assert wall > 0.0
        # The acceptance bound: at interval 1 the attributed decomposition
        # accounts for the engine's emit wall time within 15%.
        assert abs(attributed - wall) / wall <= 0.15, (attributed, wall)

    @pytest.mark.parametrize(
        "prop, workload, scale, retire",
        [
            pytest.param(UNSAFEITER, "bloat", 0.03, True, id="unsafeiter"),
            pytest.param(UNSAFEMAPITER, "pmd", 0.1, True, id="unsafemapiter"),
            # Without retirement: with it, every UNSAFESYNCMAP match on
            # this trace needs a join whose partner map is already dead,
            # and the join loops skip dead partners (the dead-join verdict
            # loss pinned in test_engine_vs_abstract.py), so the run would
            # have no verdicts to compare.
            pytest.param(UNSAFESYNCMAP, "pmd", 0.1, False, id="unsafesyncmap"),
        ],
    )
    def test_attribution_does_not_change_monitoring_results(
        self, prop, workload, scale, retire
    ):
        """On vs off, every observable matches: verdicts, E, M, FM, CM and
        the live peak.  Interval 3 mixes timed and plain kernels in one
        run, so the two variants must hand each other identical state."""
        entries = record_workload_events(WORKLOADS[workload].scaled(scale), [prop])
        spec_name = prop.make().properties[0].spec_name

        def run(attribution, interval):
            verdicts = []
            telemetry = Telemetry(sample_interval=interval, attribution=attribution)
            engine = MonitoringEngine(
                prop.make().silence(),
                gc="coenable",
                propagation="lazy",
                telemetry=telemetry,
                on_verdict=lambda prop, cat, mon: verdicts.append(
                    (cat, mon.serial)
                ),
            )
            replay_entries(entries, engine, retire_after_last_use=retire)
            stats = engine.stats_for(spec_name)
            return sorted(verdicts), tuple(
                getattr(stats, field) for field in (
                    "events", "monitors_created", "monitors_flagged",
                    "monitors_collected", "peak_live_monitors",
                )
            )

        for interval in (1, 3):
            plain = run(False, interval)
            assert plain[0], "the trace must produce verdicts"
            assert plain == run(True, interval), interval

    def test_engines_without_attribution_never_generate_timed_kernels(self):
        from repro.spec.codegen import shared_kernel_cache

        shared_kernel_cache.clear()
        for telemetry in (None, Telemetry(sample_interval=1)):
            engine = MonitoringEngine(UNSAFEITER.make().silence(), telemetry=telemetry)
            keepalive = emit_triples(engine, 5)
            fingerprint = engine.properties[0].fingerprint()
            assert fingerprint in shared_kernel_cache
            assert fingerprint + ":timed" not in shared_kernel_cache
            del keepalive
        engine, _telemetry = attributed_engine(interval=1)
        keepalive = emit_triples(engine, 1)
        assert fingerprint + ":timed" in shared_kernel_cache
        del keepalive


class TestSlotStability:
    def test_reload_starts_a_fresh_series_with_no_cross_slot_bleed(self):
        engine, telemetry = attributed_engine(interval=1)
        keepalive = emit_triples(engine, 10)
        old_label = prop_label(0, "UnsafeIter", "ere")
        first = stage_table(telemetry.snapshot())
        assert first[old_label]["total"] > 0.0

        engine.detach_property(0)
        frozen = stage_table(telemetry.snapshot())[old_label]["total"]
        slots = engine.attach_property(UNSAFEITER.make().silence())
        assert slots == [1]  # tombstoned slot 0 is never reused
        keepalive += emit_triples(engine, 10, start=10)

        table = stage_table(telemetry.snapshot())
        new_label = prop_label(1, "UnsafeIter", "ere")
        assert table[new_label]["total"] > 0.0
        # The tombstoned slot's history is frozen, not extended.
        assert table[old_label]["total"] == frozen
        del keepalive


class TestShardDecorrelation:
    def test_config_offsets_phases_pairwise_distinct(self):
        telemetry = Telemetry(sample_phase=3, attribution=True)
        phases = [telemetry.config(shard=s)["sample_phase"] for s in range(4)]
        assert len(set(phases)) == 4
        assert phases == [3 + SHARD_PHASE_STRIDE * s for s in range(4)]

    def test_from_config_round_trips_the_flags(self):
        telemetry = Telemetry(
            sample_interval=32, sample_phase=5, attribution=True, trace=True
        )
        rebuilt = Telemetry.from_config(telemetry.config(shard=2))
        assert rebuilt.sample_interval == 32
        assert rebuilt.sample_phase == 5 + 2 * SHARD_PHASE_STRIDE
        assert rebuilt.attribution is True
        assert rebuilt.tracer is not None


class TestServiceModes:
    @pytest.mark.parametrize("mode", ("thread", "process"))
    def test_thread_mode_adds_queue_wait_cells(self, mode):
        telemetry = Telemetry(sample_interval=1, attribution=True)
        service = MonitorService(
            UNSAFEITER.make().silence(), shards=2, mode=mode, telemetry=telemetry
        )
        keepalive = emit_triples(service, 40)
        service.drain()
        service.close()
        table = stage_table(service.metrics_snapshot())
        shard_labels = [label for label in table if label.startswith("shard:")]
        assert shard_labels
        assert all(
            set(table[label]) <= {"queue-wait", "total"} for label in shard_labels
        )
        del keepalive

    def test_process_mode_worker_cells_merge_into_the_parent_view(self):
        entries = bloat_entries(0.02)
        telemetry = Telemetry(sample_interval=1, attribution=True)
        service = MonitorService(
            UNSAFEITER.make().silence(),
            shards=2,
            mode="process",
            telemetry=telemetry,
        )
        try:
            ingest_symbolic(service, entries)
            service.drain()
            table = stage_table(service.metrics_snapshot())
        finally:
            service.close()
        prop_labels = [label for label in table if "UnsafeIter" in label]
        assert prop_labels
        assert sum(table[label]["total"] for label in prop_labels) > 0.0


def test_stage_universe_is_closed():
    assert STAGES == (
        "dispatch", "tree-walk", "fsm-step", "gc", "emit-batch", "queue-wait"
    )
