"""The shard pool: one worker per engine shard, as a thread or a process.

Both queued service modes run the same worker loop (:func:`_worker_main`)
over the same message protocol; they differ only in the *transport* that
carries it:

* ``thread`` — each worker is a daemon thread fed through ``queue.Queue``
  objects.  Compiled properties are shared by reference, so a hot-load
  may carry the compiled object itself.  A thread cannot be killed: the
  supervisor reports a hung thread worker instead of restarting it.
* ``process`` — each worker is a forked process fed through
  multiprocessing queues, for true multi-core execution of CPU-bound
  monitoring.  Compiled properties (including registered handler
  closures) are inherited at fork, never pickled, so this transport
  requires the ``fork`` start method (POSIX; guarded at construction),
  and a hot-load must be re-materializable from its portable origin.

Every queued shard sees one delivery format:

* the parent routes events on the real objects (the
  :class:`~repro.service.router.ShardRouter` works on identities), then
  ships ``(event, {param: symbol}, delivery)`` tuples — the symbols come
  from the service's :class:`~repro.runtime.refs.SymbolRegistry` — so no
  queue ever holds a parameter object;
* each worker materializes one :class:`~repro.runtime.tracelog.ReplayToken`
  per symbol, so engine-side identity semantics (weak-keyed RVMaps, GC
  strategies) are preserved across the queue;
* parameter **deaths propagate** in-band: when a parent-side object is
  reclaimed, the registry reports its symbol and the service queues a
  retire marker behind the events already sent; the worker drops its
  token and its weakref machinery drives monitor GC as a live death would;
* verdicts stream back on one shared queue, once per dispatched batch
  (bindings as symbols, resolved to the live parent objects on arrival);
  statistics cross as
  :meth:`~repro.runtime.engine.MonitoringEngine.stats_snapshot` dicts;
* workers are **checkpointed and migrated** via the
  :mod:`repro.persist.codec` snapshot format — a checkpoint request makes
  the worker serialize its engine under the parent's symbol namespace
  (worker tokens carry the parent-minted symbols), and a new worker can
  start from such a snapshot (:meth:`ShardPool.restart_shard`);
* each worker owns its telemetry registry, span buffer and flight
  recorder; their snapshots merge into the parent's views at
  snapshot/close time.  The pool instruments its queues itself (depth
  gauge, backpressure wait) and stamps each event message so the worker
  can charge drain lag.

Handlers attached to compiled properties fire inside the workers.
"""

from __future__ import annotations

import multiprocessing
import os
import queue as queue_module
import threading
import time
import traceback
from time import perf_counter
from typing import Any, Callable, Mapping, Sequence

from ..core.errors import ServiceError
from ..faults import (
    InjectedCrash,
    QuarantinePolicy,
    WorkerFaultState,
    supervised_dispatch,
)
from ..obs.catalogue import declare as _declare_metric
from ..obs.telemetry import Telemetry
from ..persist.codec import restore_into, snapshot_engine, trace_symbol_of
from ..runtime.engine import MonitoringEngine
from ..runtime.tracelog import ReplayToken
from ..spec.registry import materialize_origin

__all__ = ["ShardPool", "CRASH_EXIT_CODE"]

#: One routed, symbolized delivery: (event, {param: symbol}, delivery plan).
SymbolicDelivery = tuple[str, "dict[str, str]", tuple]

#: Exit code of a worker killed by an injected crash fault — lets the
#: supervisor (and tests) tell engineered kills from real failures.
CRASH_EXIT_CODE = 70

_POLL_SECONDS = 0.1
_CONTROL_TIMEOUT = 60.0


def _worker_main(
    shard: int,
    properties: Sequence[Any],
    engine_kwargs: Mapping[str, Any],
    telemetry_config: "Mapping[str, Any] | None",
    recorder_capacity: "int | None",
    batch_size: int,
    snapshot: "dict | None",
    epoch: int,
    fault_config: "Mapping[str, Any] | None",
    quarantine_config: "Mapping[str, Any] | None",
    in_q: Any,
    resp_q: Any,
    verdict_q: Any,
    crash_exit: Callable[[Any, int], None],
) -> None:
    """One shard worker: an engine driven by queue messages.

    ``crash_exit(verdict_q, code)`` ends the worker the way a real crash
    does (no unwinding, no ack); the loop returns right after it, for
    transports whose crash exit does return.
    """
    verdicts_sent = 0
    #: Verdicts of the batch being dispatched; shipped once per batch.
    outbox: list[tuple] = []

    def on_verdict(prop, category, monitor) -> None:
        nonlocal verdicts_sent
        binding = tuple(
            (name, getattr(value, "symbol", value) if not isinstance(value, str) else value)
            for name, value in monitor.binding().items()
        )
        outbox.append(
            (prop.spec_name, prop.formalism, category, binding, monitor.provenance)
        )
        verdicts_sent += 1

    def flush() -> None:
        # Epoch + per-worker ordinal make parent-side admission exactly
        # once across worker restarts (replays regenerate low ordinals).
        if outbox:
            verdict_q.put(
                ("vd", shard, epoch, verdicts_sent - len(outbox), outbox[:])
            )
            outbox.clear()

    def reply(message: tuple) -> None:
        # Verdicts first: a barrier count must never run ahead of them.
        flush()
        resp_q.put(message)

    recorder = None
    try:
        telemetry = (
            Telemetry.from_config(telemetry_config)
            if telemetry_config is not None
            else None
        )
        tracer = telemetry.tracer if telemetry is not None else None
        engine = MonitoringEngine(
            properties, on_verdict=on_verdict, telemetry=telemetry, **engine_kwargs
        )
        batch_timer = lag_timer = wait_cell = None
        if telemetry is not None:
            batch_timer = _declare_metric(
                telemetry.registry, "repro_service_drain_batch_seconds"
            ).labels(str(shard))
            lag_timer = _declare_metric(
                telemetry.registry, "repro_service_drain_lag_seconds"
            ).labels(str(shard))
            if engine.attribution is not None:
                wait_cell = engine.attribution.cell(f"shard:{shard}", "queue-wait")
        if recorder_capacity is not None:
            from ..obs.recorder import FlightRecorder

            recorder = engine.enable_flight_recorder(
                FlightRecorder()
                if recorder_capacity == 0
                else FlightRecorder(capacity=recorder_capacity)
            )
        tokens: dict[str, Any] = {}
        if snapshot is not None:
            restore_into(engine, snapshot, tokens)
        fault_state = (
            WorkerFaultState(fault_config) if fault_config is not None else None
        )
        quarantine = QuarantinePolicy.from_config(quarantine_config)
        supervised = fault_state is not None or quarantine is not None

        def quarantine_record(item: tuple, failure: BaseException, attempts: int) -> None:
            event, params, _delivery = item
            record = {
                "shard": shard,
                "event": event,
                "params": {
                    name: getattr(value, "symbol", value)
                    for name, value in params.items()
                },
                "error": repr(failure),
                "attempts": attempts,
                "position": (fault_state.count + 1) if fault_state is not None else None,
            }
            if recorder is not None:
                try:
                    dump = recorder.trigger(
                        "poison-event", shard=shard, event=event,
                        error=record["error"],
                    )
                    if dump is not None:
                        record["dump"] = dump
                except BaseException:  # pragma: no cover - best effort
                    pass
            verdict_q.put(("qa", record))

        def dispatch(messages: list) -> bool:
            """Materialize and dispatch coalesced ``ev`` messages as one
            engine batch; False when an injected crash ended the worker.

            A function of its own so the batch (and with it every token
            it holds) is released on return: a retire marker queued next
            must find the worker's table the only owner of its token.
            """
            batch = []
            for message in messages:
                if message[4] and recorder is not None:
                    # The parent's put of this message blocked on a full queue.
                    recorder.trigger("queue-saturation", shard=shard)
                for event, symbols, delivery in message[1]:
                    params: dict[str, Any] = {}
                    for name, symbol in symbols.items():
                        token = tokens.get(symbol)
                        if token is None:
                            token = (
                                symbol
                                if symbol.startswith("v:")
                                else ReplayToken(symbol)
                            )
                            tokens[symbol] = token
                        params[name] = token
                    batch.append((event, params, delivery))
            if lag_timer is not None:
                # Queue-head wait: how long the oldest message sat queued
                # (perf_counter is system-wide monotonic, so a parent-side
                # stamp reads correctly in a forked worker too).
                lag = perf_counter() - messages[0][3]
                lag_timer.observe(lag)
                if wait_cell is not None:
                    wait_cell.add(lag)
            if supervised:
                # Per-delivery guarded dispatch: faults fire at exact
                # ordinals, poison deliveries quarantine individually.
                try:
                    supervised_dispatch(
                        engine, batch,
                        state=fault_state,
                        quarantine=quarantine,
                        on_quarantine=quarantine_record,
                    )
                except InjectedCrash:
                    flush()
                    crash_exit(verdict_q, CRASH_EXIT_CODE)
                    return False
            elif batch_timer is None and tracer is None:
                engine.emit_selected_batch(batch)
            else:
                wall = time.time()
                started = perf_counter()
                engine.emit_selected_batch(batch)
                elapsed = perf_counter() - started
                if batch_timer is not None:
                    batch_timer.observe(elapsed)
                if tracer is not None:
                    # The worker half of the service's batch span: the
                    # parent's emit_batch span carries the same batch id,
                    # so the stitched timeline shows enqueue → drain.
                    tracer.record(
                        "shard.drain", "service",
                        start=wall, duration=elapsed,
                        shard=shard, events=len(batch), batch=messages[0][2],
                    )
            flush()
            return True

        held = None
        while True:
            message = held if held is not None else in_q.get()
            held = None
            kind = message[0]
            if kind == "ev":
                # Coalesce what is already queued into one engine batch
                # of at most batch_size deliveries (the parent sends no
                # larger message): the per-batch costs (dispatch setup,
                # the verdict send) are paid once, not per emit() call.
                messages = [message]
                size = len(message[1])
                while size < batch_size:
                    try:
                        following = in_q.get_nowait()
                    except queue_module.Empty:
                        break
                    if following[0] != "ev" or size + len(following[1]) > batch_size:
                        held = following
                        break
                    messages.append(following)
                    size += len(following[1])
                if not dispatch(messages):
                    return
            elif kind == "rt":
                for symbol in message[1]:
                    tokens.pop(symbol, None)
            elif kind == "rg":
                # Hot-load: the transport either shares the compiled
                # property or sends its portable origin (source text /
                # paper key) to re-compile here; ack with the fingerprint
                # so the parent can verify both sides hold the same
                # semantics.
                payload = message[2]
                prop = payload.get("prop") or materialize_origin(payload["origin"])
                indexes = engine.attach_property(
                    prop, name=payload.get("name"), origin=payload["origin"]
                )
                reply(("rg", message[1], engine.properties[indexes[0]].fingerprint()))
            elif kind == "ur":
                engine.detach_property(message[2])
                reply(("ur", message[1]))
            elif kind == "en":
                index, enabled = message[2]
                engine.set_property_enabled(index, enabled)
                reply(("en", message[1]))
            elif kind == "ba":
                reply(("ba", message[1], verdicts_sent, epoch))
            elif kind == "hb":
                # Heartbeat: FIFO behind every queued event batch, so the
                # ack proves the worker is draining, not merely alive.
                reply(("hb", message[1]))
            elif kind == "st":
                reply(("st", message[1], engine.stats_snapshot()))
            elif kind == "tl":
                reply(
                    (
                        "tl",
                        message[1],
                        telemetry.snapshot() if telemetry is not None else None,
                        tracer.snapshot() if tracer is not None else [],
                    )
                )
            elif kind == "ck":
                reply(
                    (
                        "ck",
                        message[1],
                        snapshot_engine(engine, trace_symbol_of()),
                        verdicts_sent,
                    )
                )
            elif kind == "cl":
                engine.flush_gc()
                reply(
                    (
                        "cl",
                        message[1],
                        engine.stats_snapshot(),
                        verdicts_sent,
                        telemetry.snapshot() if telemetry is not None else None,
                        tracer.snapshot() if tracer is not None else [],
                        list(recorder.dumps) if recorder is not None else [],
                        epoch,
                    )
                )
                return
            else:  # pragma: no cover - protocol misuse
                raise ServiceError(f"unknown worker message {kind!r}")
    except BaseException:
        # Dying with context: a recorder-equipped worker dumps its ring so
        # the parent can see the shard's last moments alongside the
        # traceback (and replay the most recent verdict when durable).
        dump = None
        if recorder is not None:
            try:
                dump = recorder.trigger(
                    "worker-exception", shard=shard, error=traceback.format_exc()
                )
            except BaseException:  # pragma: no cover - best effort
                dump = None
        resp_q.put(("err", traceback.format_exc(), dump))


# -- transports ------------------------------------------------------------------


class _ThreadWorker(threading.Thread):
    """A shard worker thread with a process-style ``exitcode``."""

    exitcode: "int | None" = None

    def run(self) -> None:
        try:
            super().run()
        finally:
            if self.exitcode is None:
                self.exitcode = 0


def _end_thread(_verdict_q: Any, code: int) -> None:
    """A thread worker's crash exit: record the code; the loop returns."""
    threading.current_thread().exitcode = code


def _end_process(verdict_q: Any, code: int) -> None:
    """A process worker's crash exit.

    One concession to simulation: flush the verdict queue's feeder before
    exiting.  The queue's write lock is shared by every shard; dying while
    the feeder holds it would poison the channel for all replacement
    workers (their verdicts would sit in feeder buffers forever).
    Already-sent verdicts are harmless — parent-side epoch/ordinal
    admission dedups the replay.
    """
    try:
        verdict_q.close()
        verdict_q.join_thread()
    except BaseException:
        pass
    os._exit(code)


class _DeliveryQueue(queue_module.Queue):
    """A thread worker's input queue, bounded in deliveries: an event
    message weighs its delivery count, any other message one.  A put
    blocks while ``maxsize`` deliveries are queued, and ``qsize()`` (the
    depth gauge, the saturation watch) reads deliveries."""

    def _init(self, maxsize: int) -> None:
        super()._init(maxsize)
        self._weight = 0

    def _qsize(self) -> int:
        return self._weight

    def _put(self, item: tuple) -> None:
        self._weight += len(item[1]) if item[0] == "ev" else 1
        self.queue.append(item)

    def _get(self) -> tuple:
        item = self.queue.popleft()
        self._weight -= len(item[1]) if item[0] == "ev" else 1
        return item


class _ThreadTransport:
    """Workers are daemon threads sharing the parent's objects."""

    shares_objects = True
    can_terminate = False

    def queue(self) -> Any:
        return queue_module.Queue()

    def shard_queue(self, capacity: int) -> Any:
        return _DeliveryQueue(capacity)

    def start(self, args: tuple, name: str) -> Any:
        worker = _ThreadWorker(
            target=_worker_main, args=(*args, _end_thread), name=name, daemon=True
        )
        worker.start()
        return worker

    def discard(self, _queue: Any) -> None:
        pass

    def repair_after_kill(self, _verdict_q: Any) -> None:
        pass


class _ProcessTransport:
    """Workers are forked processes; messages are pickled across pipes."""

    shares_objects = False
    can_terminate = True

    def __init__(self) -> None:
        try:
            self._ctx = multiprocessing.get_context("fork")
        except ValueError as exc:  # pragma: no cover - non-POSIX platforms
            raise ServiceError(
                "the process shard backend requires the fork start method "
                "(POSIX); use mode='thread' on this platform"
            ) from exc

    def queue(self) -> Any:
        return self._ctx.Queue()

    def shard_queue(self, capacity: int) -> Any:
        # Bounded in messages: the pipe's semaphore counts puts.
        return self._ctx.Queue(capacity)

    def start(self, args: tuple, name: str) -> Any:
        process = self._ctx.Process(
            target=_worker_main, args=(*args, _end_process), name=name, daemon=True
        )
        process.start()
        return process

    def discard(self, old: Any) -> None:
        try:
            old.cancel_join_thread()
            old.close()
        except (OSError, EOFError):  # pragma: no cover - teardown races
            pass

    def repair_after_kill(self, verdict_q: Any) -> None:
        # A hard kill can land while the worker's feeder thread holds the
        # verdict queue's shared write lock, wedging every other shard's
        # verdict sends.  Probe it: a live holder writes a small message
        # in microseconds, so a timeout means the lock died with the
        # worker — release it on the dead holder's behalf.
        wlock = getattr(verdict_q, "_wlock", None)
        if wlock is not None:
            try:
                if wlock.acquire(timeout=0.25):
                    wlock.release()
                else:
                    wlock.release()
            except (OSError, ValueError):  # pragma: no cover - teardown races
                pass


_TRANSPORTS = {"thread": _ThreadTransport, "process": _ProcessTransport}


class ShardPool:
    """Parent-side handle on N shard workers over one transport.

    All control interactions (barrier / stats / checkpoint / close /
    restart) are serialized by the caller (:class:`MonitorService` holds a
    control lock); event and retire sends only require the caller's emit
    ordering guarantees.
    """

    def __init__(
        self,
        properties: Sequence[Any],
        shards: int,
        engine_kwargs: Mapping[str, Any],
        *,
        transport: str = "process",
        snapshots: "Sequence[dict | None] | None" = None,
        queue_capacity: int = 0,
        batch_size: int = 256,
        telemetry: "Telemetry | None" = None,
        flight_recorder_capacity: "int | None" = None,
        fault_configs: "Sequence[dict | None] | None" = None,
        quarantine_config: "dict | None" = None,
    ):
        #: What carries the protocol: ``shares_objects`` (workers see the
        #: parent's objects) and ``can_terminate`` (a hung worker can be
        #: killed) are the only differences the service layer observes.
        self.transport = _TRANSPORTS[transport]()
        #: Whatever :class:`MonitoringEngine` accepts — the service passes
        #: its live :class:`~repro.spec.registry.PropertyRegistry`, so a
        #: worker started later (restart/migration) starts from the
        #: current property set, not the construction-time one.  Threads
        #: share the object and fork inherits it; nothing is pickled.
        self._properties = properties
        self._engine_kwargs = dict(engine_kwargs)
        #: Per-shard telemetry configs (shard-offset sampler phases, so
        #: sampled ticks do not phase-align across shards and bias
        #: attribution toward co-routed events); a restarted worker
        #: rebuilds from its own shard's config.
        self._telemetry_configs = (
            [telemetry.config(shard=shard) for shard in range(shards)]
            if telemetry is not None
            else None
        )
        self._depth = self._wait = None
        if telemetry is not None:
            self._depth = [
                _declare_metric(telemetry.registry, "repro_service_queue_depth")
                .labels(str(shard))
                for shard in range(shards)
            ]
            self._wait = [
                _declare_metric(
                    telemetry.registry, "repro_service_backpressure_wait_seconds"
                ).labels(str(shard))
                for shard in range(shards)
            ]
        self._recorder_capacity = flight_recorder_capacity
        self._batch_size = batch_size
        self.shards = shards
        self.queue_capacity = queue_capacity
        #: Fault-injection hooks, one per shard: seconds to stall the next
        #: event put (``queue`` faults; installed by the supervisor).
        self.queue_delays: "list[Callable[[], float] | None]" = [None] * shards
        #: Telemetry snapshots of workers migrated away by restart_shard —
        #: their counts would otherwise vanish with the old worker.
        self.retired_telemetry: list[dict] = []
        #: Span buffers and flight-recorder dumps of migrated-away workers.
        self.retired_spans: list[list[dict]] = []
        self.retired_dumps: list[dict] = []
        #: Dumps shipped with "err" responses — a crashing worker's last
        #: flight-recorder ring, captured before the error surfaces.
        self.crash_dumps: list[dict] = []
        #: Per-shard worker fault configs (plain dicts); the supervisor
        #: replaces a shard's slot when respawning it mid-plan.
        self._fault_configs: "list[dict | None]" = (
            [dict(c) if c is not None else None for c in fault_configs]
            if fault_configs is not None
            else [None] * shards
        )
        self._quarantine_config = (
            dict(quarantine_config) if quarantine_config is not None else None
        )
        self.verdict_q = self.transport.queue()
        self._in_qs: list[Any] = []
        self._resp_qs: list[Any] = []
        self._workers: list[Any] = []
        self._token = 0
        for shard in range(shards):
            snapshot = snapshots[shard] if snapshots is not None else None
            self._spawn(shard, snapshot)

    def _spawn(self, shard: int, snapshot: "dict | None", epoch: int = 0) -> None:
        # Bounded queues give backpressure: a put blocks while the shard
        # is `queue_capacity` behind (deliveries for a thread worker,
        # messages of at most batch_size deliveries for a process).
        in_q = self.transport.shard_queue(self.queue_capacity)
        resp_q = self.transport.queue()
        worker = self.transport.start(
            (
                shard,
                self._properties,
                self._engine_kwargs,
                (
                    self._telemetry_configs[shard]
                    if self._telemetry_configs is not None
                    else None
                ),
                self._recorder_capacity,
                self._batch_size,
                snapshot,
                epoch,
                self._fault_configs[shard],
                self._quarantine_config,
                in_q,
                resp_q,
                self.verdict_q,
            ),
            f"repro-shard-{shard}",
        )
        if shard < len(self._workers):
            self._in_qs[shard] = in_q
            self._resp_qs[shard] = resp_q
            self._workers[shard] = worker
        else:
            self._in_qs.append(in_q)
            self._resp_qs.append(resp_q)
            self._workers.append(worker)

    # -- sends ---------------------------------------------------------------

    def _put(self, shard: int, message: tuple) -> None:
        """Enqueue with liveness checks: a dead worker never drains its
        bounded queue, so a plain blocking put would hang the service.

        A put that had to block is timed into the backpressure histogram;
        with a flight recorder, a blocked event message carries the flag
        that makes the worker fire its ``queue-saturation`` trigger."""
        in_q = self._in_qs[shard]
        try:
            in_q.put_nowait(message)
        except queue_module.Full:
            waited_from = perf_counter()
            if message[0] == "ev" and self._recorder_capacity is not None:
                message = (*message[:4], True)
            self._put_blocking(shard, message)
            if self._wait is not None:
                self._wait[shard].observe(perf_counter() - waited_from)
        if self._depth is not None:
            self._depth[shard].set(in_q.qsize())

    def _put_blocking(self, shard: int, message: tuple) -> None:
        while True:
            try:
                self._in_qs[shard].put(message, timeout=_POLL_SECONDS)
                return
            except queue_module.Full:
                if not self._workers[shard].is_alive():
                    raise ServiceError(
                        f"shard worker {shard} died (exitcode "
                        f"{self._workers[shard].exitcode}) with a full queue"
                    ) from None

    def send_events(
        self,
        shard: int,
        deliveries: "list[SymbolicDelivery]",
        batch_id: "int | None" = None,
    ) -> None:
        """Queue deliveries for one shard, in messages of at most
        ``batch_size`` deliveries (the largest batch a worker dispatches)."""
        delay = self.queue_delays[shard]
        if delay is not None:
            pause = delay()
            if pause > 0:
                time.sleep(pause)
        step = self._batch_size
        for start in range(0, len(deliveries), step):
            # Stamped for the worker's drain-lag accounting; the last
            # field is the saturation flag (set by a put that blocked).
            self._put(
                shard,
                ("ev", deliveries[start : start + step], batch_id, perf_counter(), False),
            )

    def send_retires_to(self, shard: int, symbols: "list[str]") -> None:
        """Retire broadcast to a single shard (supervised journal replay
        re-sends deaths at their original positions)."""
        self._put(shard, ("rt", symbols))

    def send_retires(self, symbols: "list[str]", lossy: bool = False) -> None:
        for shard in range(self.shards):
            try:
                self._put(shard, ("rt", symbols))
            except ServiceError:
                # Supervised mode: the dead shard's journal recorded the
                # deaths; its replacement replays them.  The remaining
                # shards must still hear about the retires.
                if not lossy:
                    raise

    # -- registry operations -------------------------------------------------

    def register_property(self, payload: Mapping[str, Any], prop: Any) -> list[str]:
        """Broadcast a hot-load; returns each worker's compiled fingerprint.

        ``payload`` carries the registry entry's name and portable origin.
        Thread workers attach the compiled ``prop`` itself; process
        workers re-compile it from the origin.  Every worker acks with the
        fingerprint (the caller verifies they all match the parent's).
        """
        message = dict(payload)
        if self.transport.shares_objects:
            message["prop"] = prop
        return [reply[2] for reply in self._round_trip("rg", message)]

    def unregister_property(self, index: int) -> None:
        self._round_trip("ur", index)

    def set_property_enabled(self, index: int, enabled: bool) -> None:
        self._round_trip("en", (index, enabled))

    # -- control round-trips -------------------------------------------------
    #
    # Every control request carries a fresh token and its reply echoes it.
    # A round trip abandoned mid-read (a timeout, a sibling shard's death)
    # or a heartbeat that missed its deadline leaves a reply queued behind
    # it; the next read skips every reply with an older token, so a stale
    # answer (a snapshot, a barrier count) can never satisfy a new request.

    def _next_token(self) -> int:
        self._token += 1
        return self._token

    def _next_response(self, shard: int) -> "tuple | None":
        """The shard's next response, or None after a quiet poll interval.

        A worker that has exited counts as dead only once its response
        queue reads empty: a worker may answer and exit between our poll
        timing out and the liveness check (a thread worker exits right
        after it acks close)."""
        resp_q = self._resp_qs[shard]
        try:
            return resp_q.get(timeout=_POLL_SECONDS)
        except queue_module.Empty:
            pass
        if self._workers[shard].is_alive():
            return None
        try:
            return resp_q.get(timeout=_POLL_SECONDS)
        except (queue_module.Empty, OSError, EOFError):
            raise ServiceError(
                f"shard worker {shard} died (exitcode "
                f"{self._workers[shard].exitcode})"
            ) from None

    def _raise_failure(self, shard: int, message: tuple) -> None:
        if message[2] is not None:
            self.crash_dumps.append(message[2])
        raise ServiceError(f"shard worker {shard} failed:\n{message[1]}")

    def _response(self, shard: int, expected: str, token: int) -> tuple:
        deadline = time.monotonic() + _CONTROL_TIMEOUT
        while True:
            message = self._next_response(shard)
            if message is None:
                if time.monotonic() > deadline:
                    raise ServiceError(
                        f"shard worker {shard} did not answer a {expected!r} "
                        "request in time"
                    )
                continue
            if message[0] == "err":
                self._raise_failure(shard, message)
            if message[1] < token:
                continue  # stale: the answer to an abandoned request
            if message[0] != expected or message[1] != token:  # pragma: no cover
                raise ServiceError(
                    f"shard worker {shard}: expected {expected!r} response "
                    f"{token}, got {message[0]!r} {message[1]}"
                )
            return message

    def _request(self, shard: int, kind: str, *args: Any) -> tuple:
        """One control round trip with one shard."""
        token = self._next_token()
        self._put(shard, (kind, token, *args))
        return self._response(shard, kind, token)

    def _round_trip(self, kind: str, *args: Any) -> list[tuple]:
        """Send one control request to every shard; each shard's answer,
        in shard order."""
        token = self._next_token()
        for shard in range(self.shards):
            self._put(shard, (kind, token, *args))
        return [self._response(shard, kind, token) for shard in range(self.shards)]

    def check_alive(self) -> None:
        """Raise :class:`ServiceError` for the first exited worker — with
        its traceback when it reported one before exiting."""
        for shard, worker in enumerate(self._workers):
            if worker.is_alive():
                continue
            while True:  # _next_response raises once the queue reads empty
                message = self._next_response(shard)
                if message is not None and message[0] == "err":
                    self._raise_failure(shard, message)

    def barrier(self) -> "list[tuple[int, int]]":
        """Ack from every shard; returns per-shard ``(verdicts sent, epoch)``.

        Because each shard queue is FIFO with a single consumer, the ack
        proves every previously sent event batch was fully processed.
        """
        return [(reply[2], reply[3]) for reply in self._round_trip("ba")]

    def heartbeat(self, shard: int, timeout: float = 5.0) -> bool:
        """Send + await one heartbeat; False when the worker missed the
        deadline (the supervisor treats that as a hang).  Must be called
        under the service's control lock — the response queue is shared
        with control round trips.

        The probe is non-blocking on the input side: a saturated queue
        returns True (backlog is not evidence of a hang — queue-depth
        progress tracking covers that case)."""
        token = self._next_token()
        try:
            self._in_qs[shard].put_nowait(("hb", token))
        except queue_module.Full:
            return True
        except (ValueError, OSError):  # queue torn down under us
            return False
        deadline = time.monotonic() + timeout
        while True:
            try:
                message = self._next_response(shard)
            except ServiceError:
                return False
            if message is None:
                if time.monotonic() > deadline:
                    return False
                continue
            if message[0] == "err":
                if message[2] is not None:
                    self.crash_dumps.append(message[2])
                return False
            if message[0] == "hb" and message[1] == token:
                return True
            # Stale response from an abandoned request: drop it.

    def stats_snapshots(self) -> list[dict]:
        return [reply[2] for reply in self._round_trip("st")]

    def telemetry_snapshots(self) -> "list[dict | None]":
        """Each live worker's registry snapshot (None when telemetry is off),
        plus whatever migrated-away workers left behind."""
        replies = self._round_trip("tl")
        return [reply[2] for reply in replies] + list(self.retired_telemetry)

    def trace_snapshots(self) -> "list[list[dict]]":
        """Each live worker's span buffer (empty when tracing is off),
        plus the buffers of migrated-away workers."""
        replies = self._round_trip("tl")
        return [reply[3] for reply in replies] + list(self.retired_spans)

    def checkpoints(self) -> list[dict]:
        return [reply[2] for reply in self._round_trip("ck")]

    def checkpoint_shard_counted(self, shard: int) -> "tuple[dict, int]":
        """One shard's snapshot plus its verdicts-sent count at the
        checkpoint — the admission floor a replacement epoch starts at."""
        message = self._request(shard, "ck")
        return message[2], message[3]

    def restart_shard(self, shard: int, snapshot: "dict | None", epoch: int = 0) -> None:
        """Migrate one shard: stop its worker, start a fresh one from a
        snapshot.  The caller must have drained first (queued work on the
        old worker would be lost)."""
        message = self._request(shard, "cl")
        if message[4] is not None:
            self.retired_telemetry.append(message[4])
        if message[5]:
            self.retired_spans.append(message[5])
        self.retired_dumps.extend(message[6])
        self._workers[shard].join(timeout=10.0)
        self._spawn(shard, snapshot, epoch)

    def respawn_dead(
        self,
        shard: int,
        snapshot: "dict | None",
        epoch: int,
        fault_config: "dict | None" = None,
    ) -> None:
        """Replace a dead (or killed) worker without a close handshake.

        Tears down the old incarnation's queues — anything still on its
        input queue is lost here and recovered from the supervisor's
        journal — drains stale responses (keeping any crash dump),
        installs the replacement fault config, and starts the new worker
        from ``snapshot`` in ``epoch``.
        """
        self.terminate_shard(shard)
        self._workers[shard].join(timeout=10.0)
        self.transport.repair_after_kill(self.verdict_q)
        # Stale control responses (e.g. a missed heartbeat ack racing the
        # kill) must not satisfy the replacement's round trips.
        while True:
            try:
                message = self._resp_qs[shard].get_nowait()
            except (queue_module.Empty, OSError, EOFError):
                break
            if message[0] == "err" and message[2] is not None:
                self.crash_dumps.append(message[2])
        self.transport.discard(self._in_qs[shard])
        self._fault_configs[shard] = fault_config
        self._spawn(shard, snapshot, epoch)

    def terminate_shard(self, shard: int) -> bool:
        """Kill one live worker; False when the transport cannot."""
        worker = self._workers[shard]
        if not worker.is_alive():
            return True
        if not self.transport.can_terminate:
            return False
        worker.terminate()
        return True

    def shard_alive(self, shard: int) -> bool:
        return self._workers[shard].is_alive()

    def shard_exitcode(self, shard: int) -> "int | None":
        return self._workers[shard].exitcode

    def queue_depth(self, shard: int) -> "int | None":
        """What one shard has queued — deliveries for a thread worker,
        messages for a process (racy by nature; None when the
        platform cannot tell)."""
        try:
            return self._in_qs[shard].qsize()
        except (NotImplementedError, OSError):  # pragma: no cover
            return None

    def close(
        self,
    ) -> tuple[
        list[dict],
        "list[tuple[int, int]]",
        "list[dict | None]",
        "list[list[dict]]",
        list[dict],
    ]:
        """Stop all workers; returns (final stats snapshots, per-shard
        ``(verdict count, epoch)`` pairs, final telemetry snapshots, final
        span buffers, flight-recorder dumps) — all including migrated-away
        workers' contributions."""
        replies = self._round_trip("cl")
        for worker in self._workers:
            worker.join(timeout=10.0)
        return (
            [reply[2] for reply in replies],
            [(reply[3], reply[7]) for reply in replies],
            [reply[4] for reply in replies] + list(self.retired_telemetry),
            [reply[5] for reply in replies] + list(self.retired_spans),
            [dump for reply in replies for dump in reply[6]]
            + list(self.retired_dumps),
        )

    def abort(self) -> None:
        """Stop every worker without a handshake (failure paths): kill
        what the transport can kill, ask the rest to close."""
        stopping = []
        for shard, worker in enumerate(self._workers):
            if not self.terminate_shard(shard):
                try:
                    self._in_qs[shard].put_nowait(("cl", self._next_token()))
                except queue_module.Full:
                    continue  # a daemon thread: left to the interpreter
            stopping.append(worker)
        for worker in stopping:
            worker.join(timeout=5.0)
