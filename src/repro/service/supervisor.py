"""`ShardSupervisor` — the fault-tolerance plane over a sharded service.

A :class:`~repro.service.service.MonitorService` survives a shard failure
only if something outside the failed worker can rebuild its state and
re-feed the events it lost.  The supervisor is that something:

* **journal** — every routed (symbolized) delivery and every retire
  broadcast is appended to a per-shard write-ahead journal *before* it is
  handed to the shard, under the service's emit lock; the journal's
  delivery plans are recorded verbatim so recovery replays them without
  consulting the router (whose sticky state has moved on);
* **checkpoints** — every ``checkpoint_interval`` deliveries a shard's
  engine is snapshotted over the worker control channel, FIFO behind the
  event stream, together with its journal position and
  verdict-admission floor;
* **supervision loop** — a health thread watches worker liveness (exit
  codes) and progress (heartbeats FIFO behind the event queue,
  queue-depth movement); a dead shard (or a hung process) is restarted
  from its last checkpoint plus the journal suffix, with capped
  exponential backoff and a restart budget.  Verdict
  **epochs** keep admission exactly-once across restarts: a replayed
  worker regenerates verdicts the old incarnation already delivered, and
  the per-shard ordinal floor drops them — the merged verdict multiset
  equals the unfaulted run's (the chaos benchmark
  ``benchmarks/bench_faults.py`` asserts exactly this);
* **quarantine** — a delivery whose dispatch raises (injected poison or a
  real bug) is retried with exponential backoff, then moved to an NDJSON
  dead-letter sink with full provenance, and monitoring continues;
* **load shedding** — under sustained queue saturation the supervisor
  walks a shed ladder: first dropping events that only designated
  sheddable properties declare (disabling those properties), then
  deterministic 1-in-N sampling; every drop is counted exactly
  (``repro_events_shed_total``).

Both queued modes run their shards in the same
:class:`~repro.service.process_backend.ShardPool` worker loop, so the
supervisor has one code path for them; only the pool's transport differs
(a hung process is killed and restarted, a hung thread is reported).

Deterministic fault injection (:class:`~repro.faults.FaultPlan`) threads
through the same seams the real failures use, so every recovery path here
is exercised by replayable tests rather than luck.
"""

from __future__ import annotations

import json
import os
import threading
import time
from typing import Any, Callable, Mapping, Sequence

from ..core.errors import PersistError, ServiceError, SupervisionError, WalWriteError
from ..faults import FaultPlan, QuarantinePolicy
from ..obs.catalogue import declare as _declare_metric
from ..persist.recovery import write_checkpoint_file
from ..persist.wal import WalWriter, iter_wal_records
from .process_backend import CRASH_EXIT_CODE
from .service import MonitorService

__all__ = ["ShardSupervisor", "supervise"]

#: Shed ladder levels.
SHED_NONE, SHED_PROPERTY, SHED_SAMPLED = 0, 1, 2


def _encode_plan(plan: tuple) -> list:
    """The router's per-shard delivery plan as a JSON-safe value.

    Plan shape (see :data:`repro.service.router.Delivery`):
    ``(prop_indexes, recording indexes | None, {prop: pretouched domain
    sets} | None, count-only indexes)``.
    """
    props, records, pretouched, count_only = plan
    return [
        list(props),
        None if records is None else sorted(records),
        (
            None
            if pretouched is None
            else {
                str(index): sorted(sorted(domain) for domain in domains)
                for index, domains in pretouched.items()
            }
        ),
        list(count_only),
    ]


def _decode_plan(encoded: Sequence) -> tuple:
    props, records, pretouched, count_only = encoded
    return (
        tuple(props),
        None if records is None else frozenset(records),
        (
            None
            if pretouched is None
            else {
                int(index): frozenset(
                    frozenset(domain) for domain in domains
                )
                for index, domains in pretouched.items()
            }
        ),
        tuple(count_only),
    )


class _ShardState:
    """The supervisor's per-shard book: journal, checkpoint, failures."""

    __slots__ = (
        "journal", "journal_dir", "checkpoint", "checkpoint_seq", "deliveries",
        "restarts", "last_failure", "last_progress", "last_queue_depth",
        "journal_error", "hung",
    )

    def __init__(self, journal: WalWriter, journal_dir: str):
        self.journal = journal
        self.journal_dir = journal_dir
        #: Last checkpoint: {"count", "journal_seq", "admitted", "epoch",
        #: "registry_epoch", "engine"} — None until the first one is taken.
        self.checkpoint: "dict | None" = None
        self.checkpoint_seq = 0
        #: Deliveries journaled for this shard (absolute ordinal space).
        self.deliveries = 0
        self.restarts = 0
        self.last_failure: "str | None" = None
        self.last_progress = time.monotonic()
        self.last_queue_depth = 0
        self.journal_error: "str | None" = None
        #: The worker stopped draining for ``ipc_deadline``: a thread is
        #: reported until its queue moves again, a process is killed and
        #: restarted (the flag then names the restart's reason).
        self.hung = False


class ShardSupervisor:
    """Supervises a :class:`MonitorService`'s shards: journal every
    delivery, checkpoint periodically, restart failed shards from
    checkpoint + journal suffix, quarantine poison events, and shed load
    under saturation.

    ``service`` must be in ``thread`` or ``process`` mode (inline dispatch
    runs in the caller's thread — there is nothing to supervise).  The
    supervisor installs itself into the service's supervision hooks at
    construction; build both together with :func:`supervise` when using a
    :class:`~repro.faults.FaultPlan` or a quarantine policy (workers
    receive their fault configs when they start).

    ``directory`` holds the per-shard journals (``shard-N/journal/``),
    checkpoint files (``shard-N/checkpoint-*.ckpt``) and the quarantine
    sink (``quarantine.ndjson``).
    """

    def __init__(
        self,
        service: MonitorService,
        directory: str,
        *,
        plan: "FaultPlan | None" = None,
        quarantine: "QuarantinePolicy | None" = None,
        checkpoint_interval: int = 256,
        restart_budget: int = 8,
        restart_backoff: float = 0.02,
        backoff_cap: float = 1.0,
        ipc_deadline: float = 5.0,
        poll_interval: float = 0.05,
        shed_high: float = 0.9,
        shed_low: float = 0.5,
        shed_sample: int = 10,
        sheddable: Sequence[Any] = (),
        fsync_interval: int = 64,
        start: bool = True,
    ):
        if service._pool is None:
            raise SupervisionError(
                f"cannot supervise a mode={service.mode!r} service: inline "
                "dispatch runs in the caller's thread"
            )
        if checkpoint_interval < 1:
            raise ValueError("checkpoint_interval must be >= 1")
        self.service = service
        self.directory = directory
        self.plan = plan
        self.quarantine_policy = (
            quarantine if quarantine is not None else QuarantinePolicy()
        )
        self.checkpoint_interval = checkpoint_interval
        self.restart_budget = restart_budget
        self.restart_backoff = restart_backoff
        self.backoff_cap = backoff_cap
        self.ipc_deadline = ipc_deadline
        self.poll_interval = poll_interval
        self.shed_high = shed_high
        self.shed_low = shed_low
        self.shed_sample = max(2, int(shed_sample))
        self._sheddable_refs = list(sheddable)
        os.makedirs(directory, exist_ok=True)
        self.quarantine_path = os.path.join(directory, "quarantine.ndjson")
        self._quarantine_lock = threading.Lock()
        self._quarantine_depth = 0
        #: Serializes restarts/health checks across the health thread and
        #: explicit ensure_healthy()/drain() callers.
        self._restart_lock = threading.RLock()
        self._fatal: "SupervisionError | None" = None
        #: Wall-clock seconds per completed restart (detection → healthy).
        self._restart_durations: list[float] = []
        self._closed = False
        self._stop = threading.Event()

        self._shards: list[_ShardState] = []
        for shard in range(service.shards):
            shard_dir = os.path.join(directory, f"shard-{shard}")
            journal_dir = os.path.join(shard_dir, "journal")
            journal = WalWriter(
                journal_dir,
                fsync_interval=fsync_interval,
                on_write_error=self._journal_error_cb(shard),
                fault_hook=(
                    plan.wal_fault_hook(shard) if plan is not None else None
                ),
            )
            self._shards.append(_ShardState(journal, journal_dir))

        if plan is not None:
            for shard in range(service.shards):
                service._pool.queue_delays[shard] = plan.queue_delay_hook(shard)

        # -- load shedding state -------------------------------------------
        self.shed_level = SHED_NONE
        self._shed_counts = {"property": 0, "sampled": 0}
        self._shed_seq = 0
        self._shed_indexes: frozenset[int] = frozenset()

        # -- metrics --------------------------------------------------------
        self._m_restarts = self._m_alive = None
        self._m_quarantined = self._m_quarantine_depth = None
        self._m_shed = self._m_shed_level = None
        if service.telemetry is not None:
            registry = service.telemetry.registry
            self._m_restarts = _declare_metric(registry, "repro_shard_restarts_total")
            self._m_alive = _declare_metric(registry, "repro_shard_alive")
            self._m_quarantined = _declare_metric(
                registry, "repro_events_quarantined_total"
            )
            self._m_quarantine_depth = _declare_metric(
                registry, "repro_quarantine_depth"
            ).labels()
            self._m_shed = _declare_metric(registry, "repro_events_shed_total")
            self._m_shed_level = _declare_metric(registry, "repro_shed_level").labels()
            for shard in range(service.shards):
                self._m_alive.labels(str(shard)).set(1)
            self._m_shed_level.set(0)

        # -- install the service hooks -------------------------------------
        service._supervised = True
        service._delivery_tap = self._tap_delivery
        service._on_worker_quarantine = self._sink_quarantine
        service._retire_tap = self._tap_retires

        self._health_thread: "threading.Thread | None" = None
        if start:
            self.start()

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> None:
        if self._health_thread is None or not self._health_thread.is_alive():
            self._stop.clear()
            self._health_thread = threading.Thread(
                target=self._health_loop, name="repro-supervisor", daemon=True
            )
            self._health_thread.start()

    def close(self) -> None:
        """Heal, drain, stop supervision, close the service and journals."""
        if self._closed:
            return
        self._stop.set()
        if self._health_thread is not None:
            self._health_thread.join(timeout=10.0)
        try:
            self.drain()
        finally:
            self._closed = True
            self.service.close()
            for state in self._shards:
                try:
                    state.journal.close()
                except PersistError:
                    pass

    def __enter__(self) -> "ShardSupervisor":
        return self

    def __exit__(self, *_exc: Any) -> None:
        self.close()

    def drain(self, timeout: float = 60.0) -> None:
        """Drain the service, healing any shard that fails along the way.

        A drain barrier racing an injected crash raises out of the
        service; the supervisor restarts the shard (replaying the journal
        suffix) and retries until a barrier completes with every shard
        healthy.
        """
        deadline = time.monotonic() + timeout
        while True:
            self.ensure_healthy()
            try:
                self.service.drain()
            except ServiceError:
                if time.monotonic() > deadline:
                    raise
                continue
            if self._all_alive():
                return
            if time.monotonic() > deadline:
                raise SupervisionError("drain could not reach a healthy barrier")

    def ensure_healthy(self) -> None:
        """Restart every dead shard now; raise once the budget is blown."""
        with self._restart_lock:
            if self._fatal is not None:
                raise self._fatal
            for shard in range(self.service.shards):
                if not self._shard_alive(shard):
                    self._restart(shard)

    def checkpoint_now(self) -> None:
        """Checkpoint every live shard immediately (shrinks the journal
        suffix a later recovery must replay — call before risky windows)."""
        with self.service._emit_lock:
            for shard in range(self.service.shards):
                if self._shard_alive(shard):
                    self._take_checkpoint(shard)

    # -- taps (run under the service's emit lock) ----------------------------

    def _tap_delivery(self, shard: int, deliveries: "list[tuple]") -> None:
        state = self._shards[shard]
        if self._checkpoint_due(state):
            try:
                self._take_checkpoint(shard)
            except (ServiceError, PersistError):
                # A dead worker can't checkpoint; recovery replays more
                # journal instead.  The next healthy delivery retries.
                pass
        for event, symbols, plan in deliveries:
            try:
                state.journal.append_delivery(event, symbols, _encode_plan(plan))
            except WalWriteError:
                self._recover_journal(shard, event, symbols, plan)
            state.deliveries += 1

    def _tap_retires(self, symbols: "list[str]") -> None:
        for state in self._shards:
            try:
                state.journal.append_deaths(symbols)
            except WalWriteError:
                # The error callback recorded the signal; deaths for a
                # broken journal are re-derived from the next checkpoint.
                pass

    def _journal_error_cb(self, shard: int) -> Callable[[WalWriteError], None]:
        def on_error(error: WalWriteError) -> None:
            self._shards[shard].journal_error = (
                f"errno={error.errno}: {error}"
            )

        return on_error

    def _recover_journal(
        self, shard: int, event: str, symbols: Mapping[str, str], plan: tuple
    ) -> None:
        """A journal write failed (ENOSPC/EACCES/...): re-establish a
        recovery point without the broken suffix.

        An immediate checkpoint makes the journal suffix empty, a fresh
        writer (picking up the directory's segment numbering) takes over,
        and the delivery that hit the failure is re-journaled — so the
        failure window costs durability for zero deliveries unless the
        checkpoint itself fails too (then the shard keeps running
        unjournaled and :meth:`health` shows the standing error).
        """
        state = self._shards[shard]
        try:
            self._take_checkpoint(shard)
            old_seq = state.journal.seq
            try:
                state.journal.close()
            except PersistError:
                pass
            state.journal = WalWriter(
                state.journal_dir,
                fsync_interval=state.journal.fsync_interval,
                start_seq=old_seq,
                on_write_error=self._journal_error_cb(shard),
                fault_hook=(
                    self.plan.wal_fault_hook(shard)
                    if self.plan is not None
                    else None
                ),
            )
            state.journal.append_delivery(event, symbols, _encode_plan(plan))
        except (ServiceError, PersistError, WalWriteError):
            return

    # -- checkpoints ---------------------------------------------------------

    def _checkpoint_due(self, state: _ShardState) -> bool:
        checkpoint = state.checkpoint
        if checkpoint is None:
            return state.deliveries >= self.checkpoint_interval
        if checkpoint["registry_epoch"] != self.service.registry.epoch:
            # A hot registry op happened since: the old snapshot can no
            # longer restore into an engine built over the new registry.
            return True
        return state.deliveries - checkpoint["count"] >= self.checkpoint_interval

    def _take_checkpoint(self, shard: int) -> None:
        """Snapshot one shard consistently with its journal position.

        Caller holds the emit lock, so the journal cannot advance while
        the position is read.  No drain is needed: the "ck" message is
        FIFO behind every previously sent event batch, so the returned
        snapshot covers exactly the deliveries journaled so far.
        """
        service = self.service
        state = self._shards[shard]
        state.journal.sync()
        journal_seq = state.journal.seq
        with service._control_lock:
            snapshot, sent = service._pool.checkpoint_shard_counted(shard)
        epoch = service._shard_epochs[shard]
        admitted = service._epoch_bases.get((shard, epoch), 0) + sent
        payload = {
            "kind": "shard-supervisor",
            "shard": shard,
            "count": state.deliveries,
            "journal_seq": journal_seq,
            "admitted": admitted,
            "epoch": epoch,
            "registry_epoch": service.registry.epoch,
            "engine": snapshot,
        }
        state.checkpoint_seq += 1
        write_checkpoint_file(
            os.path.join(self.directory, f"shard-{shard}"),
            state.checkpoint_seq,
            payload,
        )
        state.checkpoint = payload

    # -- quarantine ----------------------------------------------------------

    def _sink_quarantine(self, record: Mapping[str, Any]) -> None:
        """Append one dead-letter record (worker- or parent-originated)."""
        with self._quarantine_lock:
            self._quarantine_depth += 1
            with open(self.quarantine_path, "a", encoding="utf-8") as handle:
                handle.write(json.dumps(record, sort_keys=True) + "\n")
        if self._m_quarantined is not None:
            self._m_quarantined.labels(str(record.get("shard", "?"))).inc()
        if self._m_quarantine_depth is not None:
            self._m_quarantine_depth.set(self._quarantine_depth)

    def quarantined(self) -> list[dict]:
        """Every dead-letter record written so far, oldest first."""
        try:
            with open(self.quarantine_path, encoding="utf-8") as handle:
                return [json.loads(line) for line in handle if line.strip()]
        except FileNotFoundError:
            return []

    # -- health / supervision loop -------------------------------------------

    def _shard_alive(self, shard: int) -> bool:
        return self.service._pool.shard_alive(shard)

    def _all_alive(self) -> bool:
        return all(
            self._shard_alive(shard) for shard in range(self.service.shards)
        )

    def _health_loop(self) -> None:
        while not self._stop.wait(self.poll_interval):
            try:
                self.ensure_healthy()
                self._watch_progress()
                self._shed_tick()
            except SupervisionError:
                return  # _fatal is set; emitters see the service failure
            except BaseException:  # pragma: no cover - never kill the loop
                continue

    def _watch_progress(self) -> None:
        """Hang detection: a live worker must drain its queue within
        ``ipc_deadline``.  One that can be killed gets a last chance, a
        heartbeat, before it is killed and restarted; one that cannot (a
        thread) is reported hung until its queue moves again."""
        service = self.service
        pool = service._pool
        now = time.monotonic()
        for shard in range(service.shards):
            state = self._shards[shard]
            if not self._shard_alive(shard):
                continue
            depth = pool.queue_depth(shard) or 0
            if depth == 0 or depth < state.last_queue_depth:
                state.last_progress = now
                state.hung = False
            state.last_queue_depth = depth
            if now - state.last_progress < self.ipc_deadline:
                continue
            if not pool.transport.can_terminate:
                state.hung = True
                continue
            if not service._control_lock.acquire(blocking=False):
                continue  # a control round trip is in flight: not a hang
            try:
                ok = pool.heartbeat(shard, timeout=self.ipc_deadline)
            finally:
                service._control_lock.release()
            if ok:
                state.last_progress = time.monotonic()
            else:
                # Kill the hung worker; the next ensure_healthy pass
                # restarts it from checkpoint + journal.
                state.hung = True
                pool.terminate_shard(shard)

    # -- restart --------------------------------------------------------------

    def _count_restart(self, shard: int, reason: str) -> None:
        state = self._shards[shard]
        state.restarts += 1
        state.last_failure = reason
        if self._m_restarts is not None:
            self._m_restarts.labels(str(shard), reason).inc()
        if state.restarts > self.restart_budget:
            fatal = SupervisionError(
                f"shard {shard} exceeded its restart budget "
                f"({self.restart_budget}); last failure: {reason}"
            )
            self._fatal = fatal
            self.service._record_failure(fatal)
            raise fatal

    def _backoff(self, shard: int) -> None:
        state = self._shards[shard]
        if state.restarts <= 1:
            return
        delay = min(
            self.restart_backoff * (2 ** (state.restarts - 1)), self.backoff_cap
        )
        time.sleep(delay)

    def _restart(self, shard: int) -> None:
        service = self.service
        started = time.perf_counter()
        if self._m_alive is not None:
            self._m_alive.labels(str(shard)).set(0)
        pool = service._pool
        if pool.shard_exitcode(shard) == CRASH_EXIT_CODE:
            reason = "crash"
        elif self._shards[shard].hung and pool.transport.can_terminate:
            reason = "hang"  # _watch_progress killed it
        else:
            reason = "exit"
        if self.plan is not None and reason in ("crash", "hang"):
            # The worker died without reporting which fault killed it;
            # faults fire in position order, so the earliest armed one of
            # the matching kind on this shard is the one that fired (a
            # stall the worker outlived stays armed before it).
            self.plan.disarm_earliest(
                shard, kinds=("crash",) if reason == "crash" else ("stall",)
            )
        self._count_restart(shard, reason)
        self._backoff(shard)
        self._respawn(shard)
        state = self._shards[shard]
        state.hung = False  # a new worker, its progress watched afresh
        state.last_progress = time.monotonic()
        if self._m_alive is not None:
            self._m_alive.labels(str(shard)).set(1)
        # Detection-to-healthy latency (includes backoff + replay); the
        # chaos benchmark reports these per run.
        self._restart_durations.append(time.perf_counter() - started)

    def _journal_suffix(self, shard: int) -> "list[tuple[str, Any]]":
        """The (kind, payload) records recovery must replay."""
        state = self._shards[shard]
        try:
            state.journal.sync()
        except (PersistError, WalWriteError):
            pass
        after = state.checkpoint["journal_seq"] if state.checkpoint else 0
        return [
            (kind, payload)
            for _seq, kind, payload in iter_wal_records(
                state.journal_dir, after_seq=after
            )
            if kind in ("delivery", "deaths")
        ]

    def _respawn(self, shard: int) -> None:
        """Respawn a dead worker from checkpoint and replay its journal.

        Under the emit lock no emitter can interleave, so the replayed
        suffix lands on the fresh worker's queue in original order; the
        new verdict epoch's admission floor is the checkpoint's, and the
        worker's deterministic re-execution regenerates already-delivered
        verdicts below the service's floor — dropped on arrival.
        """
        service = self.service
        pool = service._pool
        state = self._shards[shard]
        with service._emit_lock:
            with service._control_lock:
                checkpoint = state.checkpoint
                new_epoch = service._shard_epochs[shard] + 1
                base = checkpoint["admitted"] if checkpoint else 0
                start_count = checkpoint["count"] if checkpoint else 0
                with service._verdict_cond:
                    service._epoch_bases[(shard, new_epoch)] = base
                    service._shard_epochs[shard] = new_epoch
                fault_config = (
                    self.plan.worker_config(shard, start_count=start_count)
                    if self.plan is not None
                    else None
                )
                pool.respawn_dead(
                    shard,
                    checkpoint["engine"] if checkpoint else None,
                    new_epoch,
                    fault_config,
                )
                batch: list[tuple] = []
                for kind, payload in self._journal_suffix(shard):
                    if kind == "delivery":
                        event, symbols, encoded = payload
                        batch.append((event, symbols, _decode_plan(encoded)))
                    else:  # deaths: retire at the original stream position
                        if batch:
                            pool.send_events(shard, batch)
                            batch = []
                        pool.send_retires_to(shard, list(payload))
                if batch:
                    pool.send_events(shard, batch)

    # -- load shedding ---------------------------------------------------------

    def _saturation(self) -> float:
        """Worst shard queue fill fraction (0.0 when unbounded/empty)."""
        pool = self.service._pool
        if pool.queue_capacity < 1:
            return 0.0
        return max(
            (pool.queue_depth(shard) or 0) / pool.queue_capacity
            for shard in range(pool.shards)
        )

    def _shed_tick(self) -> None:
        saturation = self._saturation()
        if saturation >= self.shed_high and self.shed_level < SHED_SAMPLED:
            self._escalate_shed()
        elif saturation <= self.shed_low and self.shed_level > SHED_NONE:
            self._deescalate_shed()

    def _shed_filter(self, event: str, _params: Mapping[str, Any]) -> bool:
        """Installed as the service's shed filter (runs under the emit
        lock).  Returns True to drop; every drop is counted exactly."""
        if (
            self.shed_level >= SHED_PROPERTY
            and self._shed_indexes
            and self.service.router.declaring_indexes(event) <= self._shed_indexes
        ):
            self._shed_counts["property"] += 1
            if self._m_shed is not None:
                self._m_shed.labels("property").inc()
            return True
        if self.shed_level >= SHED_SAMPLED:
            self._shed_seq += 1
            if self._shed_seq % self.shed_sample != 0:
                self._shed_counts["sampled"] += 1
                if self._m_shed is not None:
                    self._m_shed.labels("sampled").inc()
                return True
        return False

    def _escalate_shed(self) -> None:
        self.shed_level += 1
        if self.shed_level == SHED_PROPERTY:
            indexes = set()
            for ref in self._sheddable_refs:
                try:
                    entry = self.service.registry.entry(ref)
                except Exception:
                    continue
                if not entry.removed:
                    indexes.add(entry.index)
                    try:
                        self.service.set_property_enabled(entry.index, False)
                    except Exception:
                        continue
            self._shed_indexes = frozenset(indexes)
            self.service._shed_filter = self._shed_filter
        if self._m_shed_level is not None:
            self._m_shed_level.set(self.shed_level)

    def _deescalate_shed(self) -> None:
        self.shed_level = SHED_NONE
        self.service._shed_filter = None
        for index in self._shed_indexes:
            try:
                self.service.set_property_enabled(index, True)
            except Exception:
                continue
        self._shed_indexes = frozenset()
        if self._m_shed_level is not None:
            self._m_shed_level.set(0)

    # -- introspection ---------------------------------------------------------

    def shed_counts(self) -> dict[str, int]:
        """Exact events dropped so far, by shed policy."""
        return dict(self._shed_counts)

    def restarts(self) -> int:
        """Total supervised restarts across all shards."""
        return sum(state.restarts for state in self._shards)

    def restart_latencies(self) -> list[float]:
        """Seconds each completed restart took, in completion order."""
        return list(self._restart_durations)

    def health(self) -> dict[str, Any]:
        """The supervision plane's live state (the obs ``health`` view)."""
        service = self.service
        shards = []
        for shard in range(service.shards):
            state = self._shards[shard]
            shards.append(
                {
                    "shard": shard,
                    "alive": self._shard_alive(shard),
                    "hung": state.hung,
                    "epoch": service._shard_epochs[shard],
                    "restarts": state.restarts,
                    "last_failure": state.last_failure,
                    "deliveries": state.deliveries,
                    "checkpoint": (
                        {
                            "count": state.checkpoint["count"],
                            "journal_seq": state.checkpoint["journal_seq"],
                        }
                        if state.checkpoint is not None
                        else None
                    ),
                    "queue_depth": service._pool.queue_depth(shard),
                    "queue_capacity": service._pool.queue_capacity,
                    "journal_error": state.journal_error,
                }
            )
        return {
            "mode": service.mode,
            "shards": shards,
            "quarantine": {
                "depth": self._quarantine_depth,
                "path": self.quarantine_path,
            },
            "shed": {
                "level": self.shed_level,
                "counts": dict(self._shed_counts),
            },
            "restart_budget": self.restart_budget,
            "fatal": str(self._fatal) if self._fatal is not None else None,
        }


def supervise(
    specs: Any,
    directory: str,
    *,
    plan: "FaultPlan | None" = None,
    quarantine: "QuarantinePolicy | None" = None,
    supervisor_options: "Mapping[str, Any] | None" = None,
    **service_kwargs: Any,
) -> ShardSupervisor:
    """Build a :class:`MonitorService` and its :class:`ShardSupervisor`
    together (``supervisor.service`` holds the service).

    This is the right constructor when using a fault plan or a
    quarantine policy: worker fault configs and the quarantine policy are
    handed to the shard workers when they start, at service construction,
    before the supervisor exists.
    """
    quarantine = quarantine if quarantine is not None else QuarantinePolicy()
    shards = service_kwargs.get("shards", 4)
    service_kwargs["_fault_configs"] = (
        [plan.worker_config(shard) for shard in range(shards)]
        if plan is not None
        else None
    )
    service_kwargs["_quarantine"] = quarantine.to_config()
    service = MonitorService(specs, **service_kwargs)
    options = dict(supervisor_options or {})
    return ShardSupervisor(
        service, directory, plan=plan, quarantine=quarantine, **options
    )
