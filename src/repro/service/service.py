"""`MonitorService` — batched, multi-engine event ingestion.

The service fronts N independent :class:`~repro.runtime.engine.MonitoringEngine`
shards behind one ``emit()`` interface:

* the :class:`~repro.service.router.ShardRouter` sends each event to the
  shard(s) owning the slices it belongs to (anchor-parameter routing;
  anchor-free events broadcast, pinned properties stay whole);
* **queued modes** — ``"thread"`` (the default) and ``"process"`` — run
  each shard engine in a worker fed through a bounded FIFO queue by one
  :class:`~repro.service.process_backend.ShardPool`; the modes differ
  only in the pool's transport (daemon threads, or forked processes for
  true multi-core execution).  Deliveries cross as symbols from the
  service's :class:`~repro.runtime.refs.SymbolRegistry`, parameter deaths
  follow as in-band retire markers, and verdicts come back through one
  parent-side drainer.  ``emit()`` blocks while a destination queue is
  full (backpressure);
* **inline mode** dispatches synchronously in the caller's thread on
  engines the service holds directly — fully deterministic and
  death-exact, the reference the replay-equivalence suites compare
  against (on one core the win of sharding is algorithmic: per-shard
  state, hence per-shard O(state) GC scans, shrinks by the shard count);
* shards are checkpointed and migrated via the :mod:`repro.persist`
  snapshot codec, and the whole service checkpoints/restores with
  :meth:`MonitorService.checkpoint` / :meth:`MonitorService.restore` (all
  modes);
* verdicts from all shards land in one merged
  :class:`~repro.service.aggregate.VerdictLog`; statistics aggregate
  exactly via :func:`~repro.service.aggregate.merge_stats`.

Per-slice event order is preserved: one emitter enqueues to each shard in
emission order, each shard processes its queue FIFO, and the router
guarantees a slice never spans shards — so verdict *multisets* equal the
single-engine run even though cross-shard interleaving is scheduling
dependent (queued modes) or trivially sequential (inline mode).

Shard engines share the caller's compiled properties: compiled artifacts
(templates, enable/coenable analyses) are immutable at runtime, and each
engine builds its own indexing trees and statistics.  Handlers attached to
the compiled properties fire in the shard workers under the queued modes.
"""

from __future__ import annotations

import threading
import time
from collections import Counter
from time import perf_counter
from typing import Any, Callable, Iterable, Mapping, Sequence

from ..core.errors import PersistError, RegistryError, ServiceError, UnknownEventError
from ..obs.catalogue import declare as _declare_metric
from ..obs.telemetry import Telemetry, as_telemetry
from ..runtime.engine import MonitoringEngine
from ..runtime.instance import MonitorInstance
from ..runtime.refs import SymbolRegistry
from ..runtime.statistics import MonitorStats
from ..spec.compiler import CompiledProperty
from ..spec.registry import (
    PORTABLE_ORIGIN_KINDS,
    PropertyRegistry,
    normalize_properties,
)
from .aggregate import StatsKey, VerdictLog, VerdictRecord, merge_stats
from .router import ShardRouter

__all__ = ["MonitorService", "ingest_symbolic"]

#: Service-checkpoint container identity (see :meth:`MonitorService.checkpoint`).
SERVICE_CHECKPOINT_FORMAT = "repro-service-checkpoint"
#: Version 2 added the dynamic property registry record.
SERVICE_CHECKPOINT_VERSION = 2

#: One routed delivery: the event, its binding (real objects inline,
#: symbols in the queued modes), and the router's per-shard
#: :data:`repro.service.router.Delivery` plan.
_Delivery = tuple[str, Mapping[str, Any], "tuple"]

#: Service-level verdict callback.
ServiceVerdictCallback = Callable[[VerdictRecord], None]


def _as_registry(specs: Any) -> PropertyRegistry:
    """Normalize the accepted spec forms into a property registry."""
    if isinstance(specs, PropertyRegistry):
        registry = specs.clone()
    else:
        registry = PropertyRegistry.from_specs(specs)
    if not any(True for _ in registry.loaded()):
        raise ValueError("MonitorService needs at least one property")
    return registry


def _check_service_checkpoint(checkpoint: Mapping[str, Any], shards: int) -> list:
    """Validate a service checkpoint container; returns the engine snapshots."""
    if checkpoint.get("format") != SERVICE_CHECKPOINT_FORMAT:
        raise PersistError(
            f"not a service checkpoint (format={checkpoint.get('format')!r})"
        )
    if checkpoint.get("version") != SERVICE_CHECKPOINT_VERSION:
        raise PersistError(
            f"unsupported service checkpoint version {checkpoint.get('version')!r}"
        )
    if checkpoint.get("shards") != shards:
        raise PersistError(
            f"checkpoint was taken with {checkpoint.get('shards')} shards, "
            f"restore target has {shards} (resharding is not supported yet)"
        )
    return checkpoint["engines"]


def _anchor_pin_assignments(
    checkpoint: Mapping[str, Any], router: ShardRouter
) -> dict[str, int]:
    """Which shard owns each anchor-position symbol of a checkpoint.

    A restored stand-in object's identity hash would route its events to
    an arbitrary shard; the checkpoint knows the truth — the shard whose
    engine snapshot holds the symbol's monitors (or touched bindings) for
    an anchored property.  The assignment is unique because the original
    placement came from one global identity hash.
    """
    pins: dict[str, int] = {}
    for route in router.routes:
        if route is None or route.anchor is None:
            continue
        for shard, snapshot in enumerate(checkpoint["engines"]):
            runtime = snapshot["runtimes"][route.index]
            if runtime is None:
                continue
            candidates = [
                payload["params"].get(route.anchor)
                for payload in runtime["monitors"]
            ] + [record["params"].get(route.anchor) for record in runtime["touched"]]
            for symbol in candidates:
                if symbol is None or symbol.startswith("!dead:"):
                    continue
                previous = pins.setdefault(symbol, shard)
                if previous != shard:
                    raise PersistError(
                        f"checkpoint is inconsistent: anchor symbol {symbol!r} "
                        f"appears on shards {previous} and {shard}"
                    )
    return pins


def _checkpoint_symbols(checkpoint: Mapping[str, Any]) -> set[str]:
    """Every live symbol a service checkpoint mentions (engines + router)."""
    symbols: set[str] = set()
    for snapshot in checkpoint["engines"]:
        for runtime in snapshot["runtimes"]:
            if runtime is None:
                continue
            for record in runtime["touched"]:
                symbols.update(record["params"].values())
            for monitor in runtime["monitors"]:
                symbols.update(
                    symbol
                    for symbol in monitor["params"].values()
                    if not symbol.startswith("!dead:")
                )
    for record in checkpoint.get("router", {}).get("sticky", {}).values():
        symbols.update(record.get("assoc", {}))
        for _domain, touch_symbols, _mask in record.get("touch_all", ()):
            symbols.update(touch_symbols)
    return symbols


class MonitorService:
    """A sharded online monitoring service over N engine shards.

    ``specs`` accepts specification source text, compiled specs/properties,
    or property providers with a ``make()`` method (the library's
    ``PaperProperty`` objects), singly or as a sequence.  ``system`` /
    ``gc`` / ``propagation`` / ``scan_budget`` configure every shard
    engine exactly as they configure :class:`MonitoringEngine`; each shard
    runs on generated kernels (process-mode workers regenerate them in
    their own interpreter; see ``docs/dispatch-kernels.md``).

    ``mode`` is ``"thread"`` (worker threads behind bounded queues),
    ``"process"`` (forked worker processes behind the same queues and
    protocol) or ``"inline"`` (synchronous dispatch, deterministic).  In
    the queued modes :attr:`engines` is empty (the engines live in the
    workers) and property handlers receive
    :class:`~repro.runtime.tracelog.ReplayToken` stand-ins for the
    parameter objects.  ``on_verdict`` receives every merged
    :class:`VerdictRecord` as it happens, bound to the live objects.

    ``queue_capacity`` bounds each shard queue: in deliveries for a
    thread worker, in messages of at most ``batch_size`` deliveries for
    a process worker.  A full queue blocks the emitter (backpressure).
    ``batch_size`` is also the largest engine batch a worker dispatches.

    ``telemetry`` turns on the observability plane (pass ``True`` for
    defaults or a configured :class:`repro.obs.telemetry.Telemetry`):
    shard queues, drain loops, engines, and control round trips feed the
    metric catalogue, :meth:`metrics_snapshot` merges every registry in
    play, and :meth:`serve_metrics` exposes it over HTTP.  Off (the
    default) the hot paths are exactly the un-instrumented ones.

    The verdict log retains every record — including strong references to
    the verdicts' parameter objects — for the service's lifetime.  For
    long-running, verdict-heavy deployments pass
    ``keep_verdict_log=False`` and consume verdicts through
    ``on_verdict``, or call ``verdict_log.clear()`` periodically.
    """

    def __init__(
        self,
        specs: Any,
        shards: int = 4,
        *,
        system: str | None = None,
        gc: str | None = None,
        propagation: str | None = None,
        scan_budget: int = 2,
        mode: str = "thread",
        backend: str | None = None,
        queue_capacity: int = 4096,
        batch_size: int = 256,
        on_verdict: ServiceVerdictCallback | None = None,
        keep_verdict_log: bool = True,
        telemetry: "Telemetry | bool | None" = None,
        flight_recorder: "bool | int | None" = None,
        _restore_from: "dict | None" = None,
        _fault_configs: "Sequence[dict | None] | None" = None,
        _quarantine: "dict | None" = None,
    ):
        if backend is not None:
            mode = backend
        if mode not in ("thread", "inline", "process"):
            raise ValueError(f"unknown service mode {mode!r}")
        if queue_capacity < 1 or batch_size < 1:
            raise ValueError("queue_capacity and batch_size must be >= 1")
        #: The authoritative dynamic property registry; shard engines hold
        #: independent clones mirroring every registry operation.
        self.registry = _as_registry(specs)
        self.properties: list[CompiledProperty | None] = self.registry.properties()
        self.router = ShardRouter(self.properties, shards)
        self.shards = shards
        self.mode = mode
        self.batch_size = batch_size
        self.verdict_log = VerdictLog()
        self._keep_verdict_log = keep_verdict_log
        self._on_verdict = on_verdict
        self._closed = False
        self._failure: BaseException | None = None
        self._failure_lock = threading.Lock()
        #: Serializes route+enqueue so per-shard delivery order equals
        #: routing order even with several emitter threads — the router's
        #: sticky state and the shard queues must advance in lock step.
        self._emit_lock = threading.Lock()
        self.restored_tokens: dict[str, Any] = {}

        # -- supervision hooks (installed by ShardSupervisor) --------------
        #: True once a ShardSupervisor owns this service: single-shard
        #: failures stay isolated (journal + replay recover them) instead
        #: of failing the whole service.
        self._supervised = False
        #: fn(shard, deliveries) — called under the emit lock before a
        #: shard's deliveries are enqueued (the supervisor's journal tap).
        self._delivery_tap: "Callable[[int, list], None] | None" = None
        #: fn(symbols) — called under the emit lock before a retire
        #: broadcast (the queued modes' death markers).
        self._retire_tap: "Callable[[list], None] | None" = None
        #: fn(record) — a worker quarantined a delivery.
        self._on_worker_quarantine: "Callable[[dict], None] | None" = None
        #: fn(event, params) -> bool — load shedding: True drops the event
        #: (counted by the supervisor, not delivered to any shard).
        self._shed_filter: "Callable[[str, Mapping[str, Any]], bool] | None" = None
        #: Worker incarnation per shard; verdicts from older epochs are
        #: stale (their replacement replays them) and must not re-admit.
        self._shard_epochs = [0] * shards
        #: Exactly-once verdict admission: the next global verdict ordinal
        #: each shard may admit.  A replayed worker regenerates ordinals
        #: below this floor; the drainer skips them.
        self._admitted = [0] * shards

        #: The service-level telemetry plane (``True`` means "defaults").
        #: Inline shard engines share this registry; queued workers build
        #: fresh registries from its config and their snapshots merge back
        #: at :meth:`metrics_snapshot` time.
        self.telemetry = as_telemetry(telemetry)
        self._exposition = None
        self._m_events = None
        self._m_roundtrip = None
        self._verdict_counters: list[Any] = []
        #: The parent's span buffer (None when the telemetry policy has
        #: tracing off); see :meth:`trace_spans`.
        self._tracer = self.telemetry.tracer if self.telemetry is not None else None
        self._batch_seq = 0
        #: Per-shard flight recorders (inline); queued workers hold their
        #: own and ship dumps back over the control channel.
        self.flight_recorders: list[Any] = []
        if flight_recorder is True:
            self._recorder_capacity: "int | None" = 0  # 0 → recorder default
        elif flight_recorder:
            self._recorder_capacity = int(flight_recorder)
        else:
            self._recorder_capacity = None
        self._final_worker_spans: "list[list[dict]] | None" = None
        #: Dumps shipped back from queued workers (at close).
        self._worker_dumps: list[dict] = []
        if self.telemetry is not None:
            obs_registry = self.telemetry.registry
            self._m_events = _declare_metric(
                obs_registry, "repro_service_events_total"
            ).labels()
            verdict_family = _declare_metric(
                obs_registry, "repro_service_verdicts_total"
            )
            self._verdict_counters = [
                verdict_family.labels(str(shard)) for shard in range(shards)
            ]
            self._m_roundtrip = _declare_metric(
                obs_registry, "repro_service_roundtrip_seconds"
            )

        engine_snapshots = None
        if _restore_from is not None:
            engine_snapshots = _check_service_checkpoint(_restore_from, shards)

        self.engines: list[MonitoringEngine] = []
        self._pool = None
        if mode != "inline":
            from ..persist.codec import materialize_tokens, trace_symbol_of
            from .process_backend import ShardPool

            # One symbol space for events, retires, verdicts and checkpoints.
            self._registry = SymbolRegistry(on_death=self._note_death)
            self._symbol_of = trace_symbol_of(self._registry)
            self._pending_retires: list[str] = []
            # Reentrant: the registry's death callbacks may fire from
            # cyclic GC in a thread already inside the retire flush.
            self._retire_lock = threading.RLock()
            self._control_lock = threading.Lock()
            self._final_shard_stats: "list[dict[StatsKey, MonitorStats]] | None" = None
            self._final_worker_telemetry: "list[dict] | None" = None
            self._verdict_cond = threading.Condition()
            #: Verdicts consumed per (shard, epoch): barrier counts are
            #: per-epoch, so waits stay exact across worker restarts.
            self._epoch_received: dict[tuple[int, int], int] = {}
            #: Global verdict ordinal each (shard, epoch) starts at — the
            #: admission floor covered by the epoch's starting snapshot.
            self._epoch_bases: dict[tuple[int, int], int] = {
                (shard, 0): 0 for shard in range(shards)
            }
            if engine_snapshots is not None:
                symbols = _checkpoint_symbols(_restore_from)
                materialize_tokens(symbols, self.restored_tokens)
                for symbol, token in self.restored_tokens.items():
                    if not symbol.startswith("v:"):
                        self._registry.register(token, symbol)
                self.router.restore_sticky(
                    _restore_from["router"], self.restored_tokens
                )
                self._apply_shard_pins(_restore_from)
            self._pool = ShardPool(
                self.registry,
                shards,
                {
                    "system": system,
                    "gc": gc,
                    "propagation": propagation,
                    "scan_budget": scan_budget,
                },
                transport=mode,
                snapshots=engine_snapshots,
                queue_capacity=queue_capacity,
                batch_size=batch_size,
                telemetry=self.telemetry,
                flight_recorder_capacity=self._recorder_capacity,
                fault_configs=_fault_configs,
                quarantine_config=_quarantine,
            )
            self._drainer = threading.Thread(
                target=self._verdict_drain_loop, name="repro-verdicts", daemon=True
            )
            self._drainer.start()
            return

        self.engines = [
            MonitoringEngine(
                self.registry,
                system=system,
                gc=gc,
                propagation=propagation,
                scan_budget=scan_budget,
                on_verdict=self._verdict_callback(shard),
                telemetry=self.telemetry,
            )
            for shard in range(shards)
        ]
        if engine_snapshots is not None:
            from ..persist.codec import restore_into

            for engine, snapshot in zip(self.engines, engine_snapshots):
                restore_into(engine, snapshot, self.restored_tokens)
            self.router.restore_sticky(_restore_from["router"], self.restored_tokens)
            self._apply_shard_pins(_restore_from)

        if self._recorder_capacity is not None:
            from ..obs.recorder import FlightRecorder

            for engine in self.engines:
                recorder = (
                    FlightRecorder()
                    if self._recorder_capacity == 0
                    else FlightRecorder(capacity=self._recorder_capacity)
                )
                self.flight_recorders.append(engine.enable_flight_recorder(recorder))

    def _apply_shard_pins(self, checkpoint: Mapping[str, Any]) -> None:
        for symbol, shard in _anchor_pin_assignments(checkpoint, self.router).items():
            token = self.restored_tokens.get(symbol)
            if token is not None:
                self.router.pin_shard(token, shard)

    # -- verdict plumbing ----------------------------------------------------

    def _merge_verdict(
        self,
        shard: int,
        spec_name: str,
        formalism: str,
        category: str,
        binding: Any,
        provenance: "dict | None",
    ) -> None:
        """Admit one verdict into the merged views (both dispatch paths)."""
        record = VerdictRecord(
            shard=shard,
            spec_name=spec_name,
            formalism=formalism,
            category=category,
            binding=binding,
            provenance=(
                {"shard": shard, **provenance} if provenance is not None else None
            ),
        )
        if self._verdict_counters:
            self._verdict_counters[shard].inc()
        if self._keep_verdict_log:
            self.verdict_log.append(record)
        if self._tracer is not None:
            self._tracer.record(
                "service.verdict_merge", "service",
                start=time.time(), duration=0.0,
                shard=shard, property=spec_name, category=category,
            )
        if self._on_verdict is not None:
            self._on_verdict(record)

    def _verdict_callback(self, shard: int):
        """Inline shard engine verdict sink."""

        def on_verdict(
            prop: CompiledProperty, category: str, monitor: MonitorInstance
        ) -> None:
            self._merge_verdict(
                shard, prop.spec_name, prop.formalism, category,
                monitor.binding().items(), monitor.provenance,
            )

        return on_verdict

    # -- queued-mode plumbing ------------------------------------------------

    def _note_death(self, symbol: str) -> None:
        """Registry death callback: queue a retire for the next flush.

        Runs in whatever thread drops the last reference to a parameter
        object, so it only appends under a dedicated lock — the actual
        send happens at the next emit/drain, preserving the
        events-before-retire order on every shard queue.
        """
        with self._retire_lock:
            self._pending_retires.append(symbol)

    def _flush_retires(self) -> None:
        if not self._pending_retires:
            return  # a death recorded concurrently rides the next flush
        with self._retire_lock:
            pending, self._pending_retires = self._pending_retires, []
        if pending:
            tap = self._retire_tap
            if tap is not None:
                tap(pending)
            try:
                self._pool.send_retires(pending, lossy=self._supervised)
            except ServiceError:
                if not self._supervised:
                    raise

    def _record_failure(self, exc: BaseException) -> None:
        with self._failure_lock:
            if self._failure is None:
                self._failure = exc

    def _verdict_drain_loop(self) -> None:
        """Parent-side consumer of the shared worker verdict queue.

        Exceptions from the user's ``on_verdict`` callback are recorded as
        a service failure (surfaced by the next drain/emit) but never kill
        the drainer — the received counters must keep advancing or
        :meth:`drain` would wait forever.
        """
        while True:
            item = self._pool.verdict_q.get()
            if item is None:
                return
            if item[0] == "qa":
                # A worker quarantined a poisoned delivery: hand the
                # dead-letter record to the supervisor, not the verdict log.
                try:
                    sink = self._on_worker_quarantine
                    if sink is not None:
                        sink(item[1])
                except BaseException as exc:
                    self._record_failure(exc)
                continue
            _kind, shard, epoch, first, verdicts = item
            for offset, verdict in enumerate(verdicts):
                try:
                    self._admit_verdict(shard, epoch, first + offset, verdict)
                except BaseException as exc:
                    self._record_failure(exc)
            with self._verdict_cond:
                key = (shard, epoch)
                self._epoch_received[key] = (
                    self._epoch_received.get(key, 0) + len(verdicts)
                )
                self._verdict_cond.notify_all()

    def _admit_verdict(self, shard: int, epoch: int, index: int, verdict: tuple) -> None:
        """Exactly-once admission across worker restarts: a replayed
        worker regenerates verdicts the old incarnation already delivered;
        their ordinals fall below the shard's floor."""
        ordinal = self._epoch_bases.get((shard, epoch), 0) + index
        if ordinal < self._admitted[shard]:
            return
        self._admitted[shard] = ordinal + 1
        spec_name, formalism, category, symbol_binding, provenance = verdict
        pairs = []
        for name, symbol in symbol_binding:
            value = self._registry.resolve(symbol)
            if value is None:
                # The parent-side object died (or was a symbolic stream's
                # immortal literal, whose text *is* the value): keep the
                # symbol string — it keys identically under symbolic
                # comparison, and a GC race between the worker's send and
                # this resolve must not change the binding shape.
                value = symbol
            pairs.append((name, value))
        self._merge_verdict(
            shard, spec_name, formalism, category, tuple(pairs), provenance
        )

    def _await_verdicts(
        self, counts: "list[tuple[int, int]]", workers_exited: bool = False
    ) -> None:
        """Block until the drainer consumed each worker's reported
        ``(verdicts sent, epoch)`` — counts are per worker incarnation, so
        waits stay exact across supervised restarts.

        ``workers_exited`` marks the clean-close path: the workers already
        sent every verdict before acking close and have legitimately
        exited, so their death is not a failure — the backlog just needs
        draining.
        """

        def lagging() -> bool:
            return any(
                self._epoch_received.get((shard, epoch), 0) < wanted
                for shard, (wanted, epoch) in enumerate(counts)
            )

        def voided() -> bool:
            # A supervisor restart bumps the shard's epoch; the crashed
            # incarnation's remaining verdicts died with its queue feeder,
            # so a barrier against the old epoch can never fill.
            return any(
                self._shard_epochs[shard] != epoch
                and self._epoch_received.get((shard, epoch), 0) < wanted
                for shard, (wanted, epoch) in enumerate(counts)
            )

        with self._verdict_cond:
            while lagging():
                self._verdict_cond.wait(timeout=1.0)
                if workers_exited or not lagging():
                    continue
                if voided():
                    raise ServiceError("a shard worker restarted mid-drain")
                # Supervised or not, a barrier cannot complete past a dead
                # worker: its backlog needs a respawn + replay first (the
                # supervisor catches this and heals the shard).
                self._pool.check_alive()

    def _pool_roundtrip(self, op: str, call: Callable[[], Any]) -> Any:
        """Run one shard-pool control round trip, timed when telemetry is
        on (``repro_service_roundtrip_seconds{op=...}``)."""
        if self._m_roundtrip is None:
            return call()
        started = perf_counter()
        try:
            return call()
        finally:
            self._m_roundtrip.labels(op).observe(perf_counter() - started)

    def _check_failure(self) -> None:
        with self._failure_lock:
            failure = self._failure
        if failure is not None:
            raise ServiceError(
                f"a shard worker died while monitoring: {failure!r}"
            ) from failure

    # -- ingestion -----------------------------------------------------------

    def emit(self, event: str, _strict: bool = True, **params: Any) -> None:
        """Route one parametric event to its shard(s).

        Mirrors :meth:`MonitoringEngine.emit`: with ``_strict=False`` an
        event no property declares is dropped silently.  In the queued
        modes the call blocks while a destination shard queue is full
        (backpressure); processing is asynchronous — use :meth:`drain` for
        a happens-before edge to the verdict log and statistics.
        """
        self.emit_batch([(event, params)], _strict=_strict)

    def emit_batch(
        self,
        events: Iterable[tuple[str, Mapping[str, Any]]],
        _strict: bool = True,
    ) -> int:
        """Route a batch of ``(event, params)`` pairs; returns how many were
        delivered to at least one shard.

        Routing happens up front and deliveries are grouped per shard, so
        each shard receives one message (or one engine call) per batch
        rather than one per event.
        """
        if self._closed:
            raise ServiceError("emit on a closed MonitorService")
        self._check_failure()
        per_shard: list[list[_Delivery]] = [[] for _ in range(self.shards)]
        route = self.router.route
        accepted = 0
        pool = self._pool
        symbol_of = self._symbol_of if pool is not None else None
        tracer = self._tracer
        batch_id = None
        if tracer is not None:
            span_wall = time.time()
            span_started = perf_counter()
        # Route and enqueue under one lock: per-shard delivery order must
        # equal routing order (the sticky state assumes it), so concurrent
        # emitters may not interleave between routing and enqueueing.
        with self._emit_lock:
            if tracer is not None:
                self._batch_seq += 1
                batch_id = self._batch_seq
            if pool is not None:
                # Deaths recorded since the last batch precede these events
                # on every shard queue (their objects died, so no event in
                # this batch can mention them).
                self._flush_retires()
            shed = self._shed_filter
            for event, params in events:
                if not self.router.declared(event):
                    if _strict:
                        raise UnknownEventError(
                            f"no monitored specification declares event {event!r}"
                        )
                    continue
                if shed is not None and shed(event, params):
                    # Load shedding: the supervisor counted the drop; the
                    # event reaches no shard and no statistics.
                    continue
                accepted += 1
                # Routing reads the real objects; queues carry symbols.
                payload = (
                    params
                    if symbol_of is None
                    else {name: symbol_of(value) for name, value in params.items()}
                )
                for shard, delivery in route(event, params):
                    per_shard[shard].append((event, payload, delivery))
            tap = self._delivery_tap
            for shard, deliveries in enumerate(per_shard):
                if not deliveries:
                    continue
                if pool is None:
                    self.engines[shard].emit_selected_batch(deliveries)
                    continue
                if tap is not None:
                    tap(shard, deliveries)
                try:
                    pool.send_events(shard, deliveries, batch_id)
                except ServiceError:
                    # Supervised: the journal holds these deliveries; the
                    # respawned worker replays them.
                    if not self._supervised:
                        raise
        if tracer is not None and accepted:
            tracer.record(
                "service.emit_batch", "service",
                start=span_wall, duration=perf_counter() - span_started,
                batch=batch_id, events=accepted,
            )
        if self._m_events is not None and accepted:
            self._m_events.inc(accepted)
        if pool is not None and not self._supervised:
            pool.check_alive()
        return accepted

    # -- dynamic property registry -------------------------------------------

    @property
    def registry_epoch(self) -> int:
        """Monotonic version of the property set (bumped by every hot op)."""
        return self.registry.epoch

    def _quiesce_locked(self) -> None:
        """Shard barrier under the emit lock.

        Every event routed before now is fully processed on every shard,
        and no emitter can interleave (the emit lock is held) — so a
        registry operation applied next switches all shards between the
        same two events, keeping the determinism suite's verdict-multiset
        equality valid across hot load/unload.
        """
        if self._pool is not None:
            self._flush_retires()
            with self._control_lock:
                counts = self._pool_roundtrip("barrier", self._pool.barrier)
            self._await_verdicts(counts)

    def register_property(self, item: Any, name: str | None = None) -> list[int]:
        """Hot-load properties into the running service; returns new slots.

        ``item`` is anything the constructor accepts.  The service drains
        in-flight events behind a barrier, attaches the new properties to
        every shard engine (thread workers share the compiled property;
        process workers re-compile it from source text or a paper-property
        key), verifies every worker's fingerprint against the parent's,
        extends the routing table, and
        bumps the registry epoch — all between two event sequence numbers.
        """
        if self._closed:
            raise ServiceError("register_property on a closed MonitorService")
        self._check_failure()
        normalized = normalize_properties(item)
        if name is not None and len(normalized) != 1:
            raise RegistryError(
                f"cannot register {len(normalized)} properties under one "
                f"name {name!r}"
            )
        if self._pool is not None and not self._pool.transport.shares_objects:
            for _prop, origin in normalized:
                if origin.get("kind") not in PORTABLE_ORIGIN_KINDS:
                    raise ServiceError(
                        "process mode can only hot-load properties that are "
                        "re-materializable from data: pass specification "
                        "source text or a PaperProperty"
                    )
        with self._emit_lock:
            if name is not None and self.registry.has_name(name):
                raise RegistryError(f"property name {name!r} is already registered")
            self._quiesce_locked()
            indexes: list[int] = []
            for prop, origin in normalized:
                # Fallible work first (worker broadcasts can fail), the
                # registry/router bookkeeping only once it succeeded —
                # otherwise a failure would leave the registry one slot
                # ahead of the router and misroute the next registration.
                entry_name = (
                    name
                    if name is not None
                    else self.registry.unique_name(
                        f"{prop.spec_name}/{prop.formalism}"
                    )
                )
                want_fingerprint = prop.fingerprint()
                if self._pool is not None:
                    with self._control_lock:
                        fingerprints = self._pool.register_property(
                            {"name": entry_name, "origin": dict(origin)}, prop
                        )
                    for shard, fingerprint in enumerate(fingerprints):
                        if fingerprint != want_fingerprint:
                            # The workers now hold a slot the parent will
                            # not commit: unrecoverable divergence.
                            failure = ServiceError(
                                f"shard {shard} compiled {entry_name!r} to "
                                f"fingerprint {fingerprint}, parent has "
                                f"{want_fingerprint}"
                            )
                            self._record_failure(failure)
                            raise failure
                else:
                    for engine in self.engines:
                        engine.attach_property(
                            prop, name=entry_name, origin=origin
                        )
                self.router.add_property(prop)
                entry = self.registry.add(prop, name=entry_name, origin=origin)
                self.properties.append(prop)
                indexes.append(entry.index)
            return indexes

    def unregister_property(self, ref: Any) -> None:
        """Hot-unload one property (by name, slot index, or object).

        Behind the same barrier as :meth:`register_property`: every shard
        quiesces the property's runtime, folds its final statistics into
        the shard totals (so :meth:`stats` keeps reporting it), and drops
        its indexing state; the router stops delivering its events.
        """
        if self._closed:
            raise ServiceError("unregister_property on a closed MonitorService")
        self._check_failure()
        with self._emit_lock:
            entry = self.registry.entry(ref)
            if entry.removed:
                # Validate before broadcasting: a worker-side RegistryError
                # would kill every shard process over a caller mistake.
                raise RegistryError(
                    f"property {entry.name!r} is already removed"
                )
            self._quiesce_locked()
            if self._pool is not None:
                with self._control_lock:
                    self._pool.unregister_property(entry.index)
            else:
                for engine in self.engines:
                    engine.detach_property(entry.index)
            self.router.remove_property(entry.index)
            self.registry.remove(entry.index)
            self.properties[entry.index] = None

    def set_property_enabled(self, ref: Any, enabled: bool) -> None:
        """Pause or resume one property on every shard, state intact.

        A disabled property receives no events (they are dropped at the
        shard engines, uncounted) but keeps its monitors, statistics, and
        routing slot for a later :meth:`set_property_enabled` resume.
        """
        if self._closed:
            raise ServiceError("set_property_enabled on a closed MonitorService")
        self._check_failure()
        with self._emit_lock:
            entry = self.registry.entry(ref)
            if entry.removed:
                raise RegistryError(f"property {entry.name!r} has been removed")
            self._quiesce_locked()
            if self._pool is not None:
                with self._control_lock:
                    self._pool.set_property_enabled(entry.index, enabled)
            else:
                for engine in self.engines:
                    engine.set_property_enabled(entry.index, enabled)
            if enabled:
                self.registry.enable(entry.index)
            else:
                self.registry.disable(entry.index)

    # -- lifecycle -----------------------------------------------------------

    def drain(self) -> None:
        """Block until every enqueued event has been fully processed.

        In the queued modes this is a barrier round trip through every
        shard queue, and it also waits for every verdict those events
        produced to land in the merged log.
        """
        if self._pool is not None and not self._closed:
            with self._emit_lock:
                self._flush_retires()
            with self._control_lock:
                counts = self._pool_roundtrip("barrier", self._pool.barrier)
            self._await_verdicts(counts)
        self._check_failure()

    def close(self) -> None:
        """Drain, stop the workers, and run end-of-run GC accounting.

        Idempotent.  After closing, :meth:`emit` raises
        :class:`~repro.core.errors.ServiceError`; statistics and the
        verdict log remain readable (the queued modes cache the workers'
        final statistics before they exit).
        """
        if self._closed:
            return
        if self._exposition is not None:
            self._exposition.close()
            self._exposition = None
        failure_seen = None
        try:
            self.drain()
        except ServiceError as exc:
            failure_seen = exc
        self._closed = True
        if self._pool is not None:
            try:
                if failure_seen is None:
                    with self._control_lock:
                        (
                            snapshots,
                            counts,
                            worker_telemetry,
                            worker_spans,
                            worker_dumps,
                        ) = self._pool_roundtrip("close", self._pool.close)
                    self._final_shard_stats = [
                        _stats_from_snapshot(snapshot) for snapshot in snapshots
                    ]
                    self._final_worker_telemetry = [
                        snap for snap in worker_telemetry if snap is not None
                    ]
                    self._final_worker_spans = [
                        spans for spans in worker_spans if spans
                    ]
                    self._worker_dumps.extend(worker_dumps)
                    self._await_verdicts(counts, workers_exited=True)
                else:
                    self._pool.abort()
            finally:
                self._pool.verdict_q.put(None)  # stop the drainer thread
                self._drainer.join(timeout=10.0)
        for engine in self.engines:
            engine.flush_gc()
        if failure_seen is not None:
            raise failure_seen

    def __enter__(self) -> "MonitorService":
        return self

    def __exit__(self, *_exc: Any) -> None:
        self.close()

    # -- checkpoint & migration ---------------------------------------------

    def checkpoint(self) -> dict:
        """Serialize the whole service: every shard engine + routing state.

        Drains first.  Engine states are captured with the
        :mod:`repro.persist.codec` snapshot format under one symbol
        namespace shared with the router's sticky-state snapshot, so a
        restored service (:meth:`restore`) routes and monitors exactly as
        this one would.  JSON-safe; wrap with
        :func:`repro.persist.snapshot_to_bytes` for storage.
        """
        if self._closed:
            raise ServiceError("checkpoint on a closed MonitorService")
        self.drain()
        if self._pool is not None:
            with self._emit_lock:
                with self._control_lock:
                    engines = self._pool_roundtrip(
                        "checkpoint", self._pool.checkpoints
                    )
                router = self.router.snapshot_sticky(self._symbol_of)
        else:
            from ..persist.codec import snapshot_engine, trace_symbol_of
            from ..runtime.tracelog import ReplayToken

            # Hold the emit lock across the snapshot: an emitter thread
            # dispatching inline would mutate engines mid-serialization.
            with self._emit_lock:
                # Seed the snapshot namespace with every replay token the
                # engines hold (including restore()-produced ones) before
                # any fresh `oN` minting — adoption-after-minting could
                # alias two objects under one symbol.
                registry = SymbolRegistry()
                for symbol, token in self.restored_tokens.items():
                    if not symbol.startswith("v:"):
                        registry.register(token, symbol)
                for engine in self.engines:
                    for runtime in engine.runtimes:
                        if runtime is None:
                            continue
                        for monitor in runtime.iter_reachable_instances():
                            for entry in monitor.params.values():
                                value = entry()
                                if isinstance(value, ReplayToken):
                                    registry.register(value, value.symbol)
                symbol_of = trace_symbol_of(registry)
                engines = [
                    snapshot_engine(engine, symbol_of) for engine in self.engines
                ]
                router = self.router.snapshot_sticky(symbol_of)
        return {
            "format": SERVICE_CHECKPOINT_FORMAT,
            "version": SERVICE_CHECKPOINT_VERSION,
            "shards": self.shards,
            "registry": self.registry.snapshot(),
            "engines": engines,
            "router": router,
        }

    @classmethod
    def restore(
        cls, checkpoint: Mapping[str, Any], specs: Any, **kwargs: Any
    ) -> "MonitorService":
        """Rebuild a service from a :meth:`checkpoint` payload.

        ``specs`` must compile to the same properties (fingerprints are
        verified); ``kwargs`` are the usual constructor options — the
        shard count comes from the checkpoint, and the engine
        configuration defaults to the snapshot's.  Properties that were
        hot-loaded from source text or a paper key before the checkpoint
        are re-materialized from the recorded registry automatically;
        removed slots are restored as tombstones.  Restored parameter
        objects are fresh tokens: feed the service through
        :attr:`restored_tokens` (e.g. ``ingest_symbolic(service, entries,
        start=..., tokens=service.restored_tokens)``).
        """
        engines = checkpoint.get("engines") or ()
        if engines:
            config = engines[0]["engine"]
            kwargs.setdefault("gc", config["gc"])
            kwargs.setdefault("propagation", config["propagation"])
            kwargs.setdefault("scan_budget", config["scan_budget"])
        kwargs.pop("shards", None)
        registry_payload = checkpoint.get("registry")
        if registry_payload is None:
            raise PersistError("service checkpoint lacks a registry record")
        registry = PropertyRegistry.from_snapshot(
            registry_payload, normalize_properties(specs)
        )
        return cls(
            registry,
            shards=checkpoint.get("shards", 0),
            _restore_from=dict(checkpoint),
            **kwargs,
        )

    def restart_shard(self, shard: int) -> None:
        """Migrate one queued shard: checkpoint it, stop the worker, start
        a replacement from the snapshot.  The replacement carries the full
        monitor state and statistics; event flow resumes seamlessly (the
        service drains first)."""
        if self._pool is None:
            raise ServiceError("restart_shard requires a queued mode (thread or process)")
        if not 0 <= shard < self.shards:
            raise ServiceError(f"no shard {shard}")
        self.drain()
        with self._emit_lock:
            with self._control_lock:
                snapshot, sent = self._pool_roundtrip(
                    "checkpoint",
                    lambda: self._pool.checkpoint_shard_counted(shard),
                )
                # The fresh worker counts verdicts from zero in a new
                # epoch whose admission floor covers everything the old
                # incarnation sent — barrier counts and dedup stay exact.
                old = self._shard_epochs[shard]
                new = old + 1
                with self._verdict_cond:
                    self._epoch_bases[(shard, new)] = (
                        self._epoch_bases.get((shard, old), 0) + sent
                    )
                    self._shard_epochs[shard] = new
                self._pool.restart_shard(shard, snapshot, epoch=new)

    # -- telemetry exposure ----------------------------------------------------

    def metrics_snapshot(self) -> dict[str, Any]:
        """The whole service's metrics as one merged registry snapshot.

        Folds the parent registry (service + inline engine metrics),
        every queued worker's registry (fetched live, or the finals cached
        at close), and the ``repro_monitor_*`` series
        derived from the merged per-property statistics — the paper's
        Figure 10 counters.  Works with telemetry off too (statistics
        only).  JSON-safe; render with
        :func:`repro.obs.metrics.render_prometheus`.
        """
        from ..obs.metrics import merge_snapshots
        from ..obs.telemetry import stats_to_metrics

        snapshots: list[dict[str, Any]] = []
        if self.telemetry is not None:
            snapshots.append(self.telemetry.snapshot())
            if self._pool is not None:
                snapshots.extend(snap for snap in self._worker_telemetry() if snap)
        stats_view = {
            f"{name}/{formalism}": stats.snapshot()
            for (name, formalism), stats in self.stats().items()
        }
        snapshots.append(stats_to_metrics(stats_view))
        return merge_snapshots(*snapshots)

    def _worker_telemetry(self) -> "list[dict | None]":
        if self._final_worker_telemetry is not None:
            return list(self._final_worker_telemetry)
        with self._control_lock:
            return self._pool_roundtrip("stats", self._pool.telemetry_snapshots)

    def trace_spans(self) -> list[dict[str, Any]]:
        """Every structured span the service has recorded, merged in time.

        Inline shards record into the parent tracer directly; queued
        workers keep per-worker buffers that ship back over the snapshot
        channel (live polls while running, the final buffers at close) and
        are stitched into one stream here — the span analog of
        ``merge_snapshots``.  Export with
        :func:`repro.obs.trace.spans_to_chrome` or
        :func:`repro.obs.trace.write_spans_ndjson`.
        """
        from ..obs.trace import merge_spans

        if self._tracer is None:
            return []
        buffers = [self._tracer.snapshot()]
        if self._pool is not None:
            if self._final_worker_spans is not None:
                buffers.extend(self._final_worker_spans)
            else:
                with self._control_lock:
                    buffers.extend(
                        self._pool_roundtrip("stats", self._pool.trace_snapshots)
                    )
        return merge_spans(*buffers)

    def flight_recorder_dumps(self) -> list[dict[str, Any]]:
        """Every flight-recorder dump taken so far, across all shards.

        Inline mode reads the per-shard recorders directly; the queued
        modes return the dumps workers shipped back (on a worker crash,
        and the remainder when the pool closes).
        """
        dumps = [
            dump for recorder in self.flight_recorders for dump in recorder.dumps
        ]
        dumps.extend(self._worker_dumps)
        if self._pool is not None:
            dumps.extend(self._pool.crash_dumps)
        return dumps

    def serve_metrics(self, host: str = "127.0.0.1", port: int = 0):
        """Start (or return) the Prometheus exposition endpoint.

        Serves :meth:`metrics_snapshot` over stdlib HTTP —
        ``/metrics`` (text format), ``/metrics.json`` (raw snapshot),
        ``/healthz`` — on a daemon thread; an OS-assigned port by
        default.  Returns the :class:`repro.obs.http.ExpositionServer`
        (``.url`` has the address); :meth:`close` shuts it down.
        """
        from ..obs.http import ExpositionServer

        if self._closed:
            raise ServiceError("serve_metrics on a closed MonitorService")
        if self._exposition is None:
            self._exposition = ExpositionServer(
                self.metrics_snapshot, host=host, port=port
            )
        return self._exposition

    # -- aggregate results ---------------------------------------------------

    def stats(self) -> dict[StatsKey, MonitorStats]:
        """Merged per-property statistics across every shard."""
        return merge_stats(self.per_shard_stats())

    def per_shard_stats(self) -> list[dict[StatsKey, MonitorStats]]:
        """Each shard engine's statistics, indexed by shard number."""
        if self._pool is not None:
            if self._final_shard_stats is not None:
                return [dict(shard_stats) for shard_stats in self._final_shard_stats]
            with self._control_lock:
                snapshots = self._pool_roundtrip("stats", self._pool.stats_snapshots)
            return [_stats_from_snapshot(snapshot) for snapshot in snapshots]
        return [engine.stats() for engine in self.engines]

    def stats_for(self, spec_name: str, formalism: str | None = None) -> MonitorStats:
        """One property's merged counters across every shard."""
        for (name, form), stats in self.stats().items():
            if name == spec_name and (formalism is None or form == formalism):
                return stats
        raise KeyError(f"no property {spec_name}/{formalism}")

    def verdicts(self) -> list[VerdictRecord]:
        """Chronological snapshot of the merged verdict stream."""
        return self.verdict_log.snapshot()

    def verdict_multiset(self) -> Counter:
        """Order/shard-independent verdict multiset (determinism checks)."""
        return self.verdict_log.multiset()

    def describe_routing(self) -> list[dict[str, Any]]:
        """The router's anchor/pinning table for every property."""
        return self.router.describe()

    def total_live_monitors(self) -> int:
        """Created-minus-collected, summed over shards and properties."""
        if self._pool is not None:
            return sum(
                stats.live_monitors
                for shard_stats in self.per_shard_stats()
                for stats in shard_stats.values()
            )
        return sum(engine.total_live_monitors() for engine in self.engines)


def _stats_key(label: str) -> StatsKey:
    spec_name, _, formalism = label.rpartition("/")
    return (spec_name, formalism)


def _stats_from_snapshot(snapshot: Mapping[str, Mapping]) -> dict[StatsKey, MonitorStats]:
    """One worker's ``stats_snapshot()`` dict as ``{(spec, formalism): stats}``."""
    return {
        _stats_key(label): MonitorStats.from_snapshot(record)
        for label, record in snapshot.items()
    }




def ingest_symbolic(
    target: Any,
    entries: Sequence[tuple[str, Mapping[str, str]]],
    retire_after_last_use: bool = False,
    *,
    start: int = 0,
    stop: int | None = None,
    tokens: "dict[str, Any] | None" = None,
) -> dict[str, Any]:
    """Feed a symbolic event stream into a service or engine.

    ``entries`` is a sequence of ``(event, {param: symbol})`` pairs — the
    shape :func:`repro.bench.workloads.record_workload_events` produces and
    :mod:`repro.runtime.tracelog` records.  A thin alias for
    :func:`repro.runtime.tracelog.replay_entries`, re-exported here because
    it is the service benchmarks' ingestion path.  ``start``/``stop`` and
    ``tokens`` resume a stream across a checkpoint/restore boundary (pass
    ``service.restored_tokens``).
    """
    from ..runtime.tracelog import replay_entries

    return replay_entries(
        list(entries),
        target,
        retire_after_last_use,
        start=start,
        stop=stop,
        tokens=tokens,
    )
