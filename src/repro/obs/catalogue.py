"""The metric catalogue: every metric the telemetry plane emits.

One :class:`MetricSpec` per metric name, declaring kind, labels, the
layer that emits it, and the bucket layout for histograms.  All wiring
sites declare their metrics through :func:`declare` so the catalogue
cannot drift from the code, and ``tests/docs/test_metric_catalogue.py``
asserts the table in ``docs/observability.md`` matches this module
exactly.

Metrics in the ``repro_monitor_*`` group are *derived*: they are not
updated on the hot path but synthesized from
:class:`~repro.runtime.statistics.MonitorStats` at snapshot time by
:func:`repro.obs.telemetry.stats_to_metrics` — these are the paper's
Figure 10 quantities (E/M/FM/CM) made live.
"""

from __future__ import annotations

from dataclasses import dataclass

from .metrics import LATENCY_BUCKETS, SIZE_BUCKETS, MetricFamily, MetricsRegistry

__all__ = ["MetricSpec", "METRICS", "declare"]


@dataclass(frozen=True)
class MetricSpec:
    """Declaration of one metric family."""

    name: str
    kind: str  # "counter" | "gauge" | "histogram"
    labels: tuple[str, ...]
    layer: str  # emitting layer: engine / service / persist / instrument / bench / stats
    help: str
    buckets: tuple[float, ...] = LATENCY_BUCKETS


def _spec(name, kind, labels, layer, help, buckets=LATENCY_BUCKETS):
    return MetricSpec(name, kind, tuple(labels), layer, help, tuple(buckets))


#: Every metric the plane emits, keyed by name.
METRICS: dict[str, MetricSpec] = {
    spec.name: spec
    for spec in (
        # -- engine (hot path; latency is 1-in-N sampled) -------------------
        _spec(
            "repro_engine_event_seconds", "histogram", ("property", "event"), "engine",
            "Sampled per-property per-event-kind dispatch latency",
        ),
        _spec(
            "repro_engine_handled_total", "counter", ("property",), "engine",
            "Exact count of events handled by each property runtime",
        ),
        _spec(
            "repro_engine_batch_size", "histogram", ("path",), "engine",
            "Events per emit_batch / emit_selected_batch call",
            SIZE_BUCKETS,
        ),
        _spec(
            "repro_engine_gc_pause_seconds", "histogram", ("property", "phase"), "engine",
            "GC purge (death-driven, sampled) and scan (budgeted sweep) pause durations",
        ),
        # -- service --------------------------------------------------------
        _spec(
            "repro_service_events_total", "counter", (), "service",
            "Deliveries accepted by MonitorService.emit/emit_batch",
        ),
        _spec(
            "repro_service_verdicts_total", "counter", ("shard",), "service",
            "Goal verdicts reported per shard",
        ),
        _spec(
            "repro_service_queue_depth", "gauge", ("shard",), "service",
            "Queued for each shard worker after every put (deliveries for threads, messages for processes)",
        ),
        _spec(
            "repro_service_backpressure_wait_seconds", "histogram", ("shard",), "service",
            "Producer blocking time when a bounded shard queue is full",
        ),
        _spec(
            "repro_service_drain_lag_seconds", "histogram", ("shard",), "service",
            "Queue-head wait: time the oldest pending delivery sat queued before a worker took it",
        ),
        _spec(
            "repro_service_drain_batch_seconds", "histogram", ("shard",), "service",
            "Per-shard worker drain-loop time spent dispatching one taken batch",
        ),
        _spec(
            "repro_service_roundtrip_seconds", "histogram", ("op",), "service",
            "Shard-pool control round trips (barrier / stats / checkpoint / close)",
        ),
        _spec(
            "repro_shard_restarts_total", "counter", ("shard", "reason"), "service",
            "Supervised shard restarts by failure reason (crash / exit / hang)",
        ),
        _spec(
            "repro_shard_alive", "gauge", ("shard",), "service",
            "Shard worker liveness as seen by the supervisor (1 alive, 0 down)",
        ),
        _spec(
            "repro_events_quarantined_total", "counter", ("shard",), "service",
            "Poison deliveries moved to the dead-letter sink after retries",
        ),
        _spec(
            "repro_quarantine_depth", "gauge", (), "service",
            "Records currently in the quarantine dead-letter sink",
        ),
        _spec(
            "repro_events_shed_total", "counter", ("policy",), "service",
            "Events dropped by load shedding (policy: property / sampled)",
        ),
        _spec(
            "repro_shed_level", "gauge", (), "service",
            "Current load-shedding ladder level (0 none, 1 property, 2 sampled)",
        ),
        # -- persist --------------------------------------------------------
        _spec(
            "repro_wal_appends_total", "counter", (), "persist",
            "Records appended to the write-ahead log",
        ),
        _spec(
            "repro_wal_append_seconds", "histogram", (), "persist",
            "Sampled WAL append latency (serialize + buffered write)",
        ),
        _spec(
            "repro_wal_fsync_seconds", "histogram", (), "persist",
            "WAL fsync durations",
        ),
        _spec(
            "repro_wal_rotation_seconds", "histogram", (), "persist",
            "WAL segment rotation durations (close + open next segment)",
        ),
        _spec(
            "repro_persist_checkpoint_seconds", "histogram", (), "persist",
            "DurableEngine snapshot (checkpoint) durations",
        ),
        _spec(
            "repro_persist_restore_seconds", "histogram", (), "persist",
            "DurableEngine recover durations (checkpoint load + WAL suffix replay)",
        ),
        # -- instrument -----------------------------------------------------
        _spec(
            "repro_live_events_total", "counter", ("event",), "instrument",
            "Events emitted through LiveSession.emit, per pointcut event name",
        ),
        _spec(
            "repro_live_pointcut_seconds", "histogram", ("event",), "instrument",
            "Sampled weave overhead per pointcut: emit-boundary time per woven event",
        ),
        # -- bench ----------------------------------------------------------
        _spec(
            "repro_bench_run_seconds", "histogram", ("cell",), "bench",
            "Wall-clock of each benchmark repeat fed by the shared best-of-N harness",
        ),
        # -- obs (attribution / spans / flight recorder) --------------------
        _spec(
            "repro_prop_stage_seconds_total", "counter", ("property", "stage"), "obs",
            "Sampled wall seconds attributed to one property and pipeline stage",
        ),
        _spec(
            "repro_prop_stage_samples_total", "counter", ("property", "stage"), "obs",
            "Attribution samples behind each property-stage seconds tally",
        ),
        _spec(
            "repro_trace_spans_total", "counter", ("site",), "obs",
            "Structured spans recorded per instrumentation site",
        ),
        _spec(
            "repro_recorder_dumps_total", "counter", ("trigger",), "obs",
            "Flight-recorder dumps taken, per trigger reason",
        ),
        # -- stats bridge (derived from MonitorStats at snapshot time) ------
        _spec(
            "repro_monitor_events_total", "counter", ("property",), "stats",
            "Paper counter E: events dispatched to the property",
        ),
        _spec(
            "repro_monitor_monitors_created_total", "counter", ("property",), "stats",
            "Paper counter M: monitor instances created",
        ),
        _spec(
            "repro_monitor_monitors_flagged_total", "counter", ("property",), "stats",
            "Paper counter FM: monitors flagged unnecessary by the coenable technique",
        ),
        _spec(
            "repro_monitor_monitors_collected_total", "counter", ("property",), "stats",
            "Paper counter CM: flagged monitors actually reclaimed",
        ),
        _spec(
            "repro_monitor_handler_fires_total", "counter", ("property",), "stats",
            "Goal-verdict handler invocations",
        ),
        _spec(
            "repro_monitor_verdicts_total", "counter", ("property", "category"), "stats",
            "Verdicts reported, per property and verdict category",
        ),
        _spec(
            "repro_monitor_live_monitors", "gauge", ("property",), "stats",
            "Monitors created and not yet reclaimed (M - CM)",
        ),
        _spec(
            "repro_monitor_peak_live_monitors", "gauge", ("property",), "stats",
            "Peak simultaneously-live monitors (upper bound after shard merge)",
        ),
    )
}


def declare(registry: MetricsRegistry, name: str) -> MetricFamily:
    """Declare catalogue metric ``name`` on ``registry`` and return its family.

    The single path wiring sites use, so kind/labels/buckets always come
    from the catalogue.
    """
    spec = METRICS[name]
    if spec.kind == "counter":
        return registry.counter(spec.name, spec.help, spec.labels)
    if spec.kind == "gauge":
        return registry.gauge(spec.name, spec.help, spec.labels)
    return registry.histogram(spec.name, spec.help, spec.labels, spec.buckets)
