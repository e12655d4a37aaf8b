"""Deterministic fault injection for the sharded monitoring service.

Chaos testing a monitoring engine only proves something when the chaos is
*replayable*: the same :class:`FaultPlan` must produce the same worker
crash at the same delivery ordinal, the same torn WAL tail, the same
stalled queue — run after run, thread or process mode.  This module is
the single source of injected failure for the fault-tolerance plane
(:mod:`repro.service.supervisor`):

* :class:`FaultPlan` — a seeded, explicit schedule of faults.  Positions
  are **absolute per-shard delivery ordinals** (1-based), so a plan means
  the same thing before and after a recovery replay; the supervisor
  disarms each one-shot crash/stall fault when it handles the resulting
  restart, which is what makes "crash at delivery k" fire exactly once.
* :class:`WorkerFaultState` — the per-worker runtime: counts deliveries
  (resuming from the recovering checkpoint's count) and surfaces due
  faults.  Picklable-free: workers receive plain dict configs, so the
  state crosses the fork boundary untouched.
* :func:`supervised_dispatch` — the guarded dispatch loop of the shard
  workers (thread and process alike): per-delivery dispatch, injected
  crash/stall/poison faults, and poison-event quarantine with retry +
  backoff.
* WAL corruption helpers (:func:`tear_wal_tail`,
  :func:`corrupt_checkpoint`) for recovery-edge tests and the chaos
  benchmark.

Injected errors derive from :class:`~repro.core.errors.ReproError` so the
supervision machinery can tell engineered failure from real bugs.
"""

from __future__ import annotations

import errno as errno_module
import os
import threading
import time
from typing import Any, Callable, Iterable, Mapping

from .core.errors import ReproError

__all__ = [
    "FAULT_KINDS",
    "FaultPlan",
    "WorkerFaultState",
    "QuarantinePolicy",
    "InjectedFault",
    "InjectedCrash",
    "InjectedPoison",
    "supervised_dispatch",
    "tear_wal_tail",
    "corrupt_checkpoint",
]

#: Every fault kind a plan may schedule.
#:
#: ``crash``     — kill the shard worker just before delivery ``at``
#:                 (:class:`InjectedCrash` ends the worker loop: a thread
#:                 returns, a process ``os._exit``\ s);
#: ``stall``     — sleep ``duration`` seconds before delivery ``at``
#:                 (slow-worker delay; past the supervisor's IPC deadline
#:                 it reads as a hang and triggers a restart);
#: ``poison``    — delivery ``at`` raises on dispatch (every retry too) —
#:                 the quarantine path's deterministic trigger;
#: ``serialize`` — like ``poison`` but labelled as a serialization
#:                 failure (the process boundary's decode-error analog);
#: ``queue``     — delay the ``at``-th producer put to the shard's queue
#:                 by ``duration`` seconds (queue-full stall);
#: ``wal``       — the ``at``-th journal write on the shard raises
#:                 ``ENOSPC`` (exercises the typed WAL failure signal).
FAULT_KINDS = ("crash", "stall", "poison", "serialize", "queue", "wal")


class InjectedFault(ReproError):
    """Base class for engineered failures raised by the fault layer."""

    def __init__(self, fault_id: int, kind: str = "fault"):
        super().__init__(f"injected {kind} (fault #{fault_id})")
        self.fault_id = fault_id
        self.kind = kind


class InjectedCrash(InjectedFault):
    """A scheduled worker crash: kills the shard, recovery takes over."""

    def __init__(self, fault_id: int):
        super().__init__(fault_id, "crash")


class InjectedPoison(InjectedFault):
    """A scheduled poison delivery: dispatch raises, quarantine handles."""

    def __init__(self, fault_id: int, kind: str = "poison"):
        super().__init__(fault_id, kind)


class FaultPlan:
    """A seeded, deterministic schedule of injected faults.

    Build one explicitly with :meth:`add`, or derive a kill campaign from
    a seed with :meth:`crash_campaign`.  The plan is shared between the
    supervisor (which disarms crash/stall faults as it recovers from
    them) and the workers (which receive per-shard dict configs at spawn
    time) — replaying the same plan over the same trace reproduces the
    same failure sequence.
    """

    def __init__(self, seed: int = 0):
        self.seed = int(seed)
        self._faults: list[dict[str, Any]] = []
        self._lock = threading.Lock()

    @classmethod
    def crash_campaign(
        cls,
        seed: int,
        shards: int,
        deliveries: int,
        crashes: int = 3,
        kind: str = "crash",
        duration: float = 0.0,
    ) -> "FaultPlan":
        """A seeded campaign of ``crashes`` faults spread over the run.

        Positions are drawn without a PRNG dependency: a multiplicative
        hash of ``(seed, n)`` picks shard and delivery ordinal, so the
        same arguments always produce the same schedule.  Positions land
        in the middle 80% of ``deliveries`` (a crash before the first
        checkpoint or after the last delivery proves nothing).
        """
        plan = cls(seed)
        span = max(1, deliveries)
        low = max(1, span // 10)
        width = max(1, span - 2 * low)
        for n in range(crashes):
            h = (seed * 0x9E3779B1 + (n + 1) * 0x85EBCA77) & 0xFFFFFFFF
            shard = h % max(1, shards)
            at = low + ((h >> 8) % width)
            plan.add(kind, shard=shard, at=at, duration=duration)
        return plan

    def add(
        self,
        kind: str,
        *,
        shard: int,
        at: int | None = None,
        duration: float = 0.0,
        op: str | None = None,
    ) -> int:
        """Schedule one fault; returns its id (used for disarming)."""
        if kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {kind!r}")
        if kind != "wal" and (at is None or at < 1):
            raise ValueError(f"fault kind {kind!r} needs a 1-based position")
        with self._lock:
            fault_id = len(self._faults) + 1
            self._faults.append(
                {
                    "id": fault_id,
                    "kind": kind,
                    "shard": int(shard),
                    "at": None if at is None else int(at),
                    "duration": float(duration),
                    "op": op,
                    "armed": True,
                }
            )
        return fault_id

    def disarm(self, fault_id: int) -> bool:
        """Mark one fault fired; returns whether it was still armed."""
        with self._lock:
            for fault in self._faults:
                if fault["id"] == fault_id:
                    was_armed = fault["armed"]
                    fault["armed"] = False
                    return was_armed
        return False

    def disarm_earliest(
        self, shard: int, kinds: Iterable[str] = ("crash", "stall")
    ) -> "dict[str, Any] | None":
        """Disarm the earliest-positioned armed fault of ``kinds`` on a shard.

        The supervisor calls this when a worker dies without reporting
        which fault killed it (process crashes exit hard): faults fire in
        position order, so the earliest armed one is the one that fired.
        """
        kinds = tuple(kinds)
        with self._lock:
            candidates = [
                fault
                for fault in self._faults
                if fault["armed"]
                and fault["shard"] == shard
                and fault["kind"] in kinds
            ]
            if not candidates:
                return None
            earliest = min(candidates, key=lambda fault: fault["at"] or 0)
            earliest["armed"] = False
            return dict(earliest)

    def armed(self, shard: int | None = None, kind: str | None = None) -> list[dict]:
        """Copies of the still-armed faults, optionally filtered."""
        with self._lock:
            return [
                dict(fault)
                for fault in self._faults
                if fault["armed"]
                and (shard is None or fault["shard"] == shard)
                and (kind is None or fault["kind"] == kind)
            ]

    def worker_config(self, shard: int, start_count: int = 0) -> "dict | None":
        """The plain-dict fault config one worker needs, or ``None``.

        Only dispatch-level kinds cross into workers (``queue``/``wal``
        faults live in parent-side hooks).  ``start_count`` is the
        recovering checkpoint's delivery count, so replayed workers keep
        counting absolute ordinals.
        """
        faults = [
            fault
            for fault in self.armed(shard=shard)
            if fault["kind"] in ("crash", "stall", "poison", "serialize")
        ]
        if not faults:
            return None
        return {"faults": faults, "start_count": int(start_count)}

    # -- parent-side hooks ----------------------------------------------------

    def queue_delay_hook(self, shard: int) -> "Callable[[], float] | None":
        """A per-put delay callable for one shard's queue, or ``None``.

        Counts producer puts; when the count hits an armed ``queue``
        fault's position, disarms it and returns its duration (the queue
        sleeps while holding no locks, simulating a saturation stall).
        """
        if not self.armed(shard=shard, kind="queue"):
            return None
        puts = [0]

        def delay() -> float:
            puts[0] += 1
            for fault in self.armed(shard=shard, kind="queue"):
                if fault["at"] == puts[0]:
                    self.disarm(fault["id"])
                    return fault["duration"]
            return 0.0

        return delay

    def wal_fault_hook(self, shard: int) -> "Callable[[str], None] | None":
        """A ``WalWriter`` fault hook for one shard's journal, or ``None``.

        Counts append operations; an armed ``wal`` fault at that count
        (or with no position: the next write) raises ``ENOSPC``, which
        the hardened writer converts into a typed
        :class:`~repro.core.errors.WalWriteError`.
        """
        if not self.armed(shard=shard, kind="wal"):
            return None
        writes = [0]

        def hook(op: str) -> None:
            if op != "append":
                return
            writes[0] += 1
            for fault in self.armed(shard=shard, kind="wal"):
                if fault["op"] not in (None, op):
                    continue
                if fault["at"] in (None, writes[0]):
                    self.disarm(fault["id"])
                    raise OSError(errno_module.ENOSPC, "injected: no space left")

        return hook


class WorkerFaultState:
    """Per-worker fault runtime: absolute delivery counting + due faults.

    Built from :meth:`FaultPlan.worker_config` (a plain dict, safe across
    the fork boundary).  ``count`` is the number of fully dispatched
    deliveries; fault positions are checked against ``count + 1`` — the
    ordinal of the delivery about to dispatch.
    """

    __slots__ = ("count", "faults", "quarantined")

    def __init__(self, config: "Mapping[str, Any] | None"):
        config = config or {}
        self.count = int(config.get("start_count", 0))
        self.faults = [dict(fault) for fault in config.get("faults", ())]
        self.quarantined = 0

    def due(self, position: int) -> "dict[str, Any] | None":
        for fault in self.faults:
            if fault["armed"] and fault["at"] == position:
                return fault
        return None

    def consume(self, fault: Mapping[str, Any]) -> None:
        for candidate in self.faults:
            if candidate["id"] == fault["id"]:
                candidate["armed"] = False
                return


class QuarantinePolicy:
    """Retry-then-quarantine parameters for poison deliveries."""

    __slots__ = ("retries", "backoff")

    def __init__(self, retries: int = 2, backoff: float = 0.01):
        self.retries = int(retries)
        self.backoff = float(backoff)

    def to_config(self) -> dict:
        return {"retries": self.retries, "backoff": self.backoff}

    @classmethod
    def from_config(cls, config: "Mapping[str, Any] | None") -> "QuarantinePolicy | None":
        if config is None:
            return None
        return cls(config.get("retries", 2), config.get("backoff", 0.01))


def supervised_dispatch(
    engine: Any,
    items: Iterable[tuple],
    state: "WorkerFaultState | None" = None,
    quarantine: "QuarantinePolicy | None" = None,
    on_quarantine: "Callable[[tuple, BaseException, int], None] | None" = None,
) -> int:
    """Dispatch routed deliveries one at a time under fault supervision.

    Per-delivery dispatch keeps quarantine exact: when a delivery raises,
    every earlier delivery has fully dispatched and no later one has
    started, so retrying or skipping the poisoned delivery never double-
    steps its neighbours.  (``emit_selected_batch`` iterates deliveries
    independently, so per-delivery calls are semantically identical to
    one batched call — the batch only amortizes call overhead.)

    Behaviour per delivery, in order: a due ``crash`` fault raises
    :class:`InjectedCrash` *before* dispatch (the delivery replays after
    recovery); a due ``stall`` sleeps its duration, then dispatch
    proceeds; a due ``poison``/``serialize`` fault — or a real dispatch
    exception — is retried ``quarantine.retries`` times with exponential
    backoff, then handed to ``on_quarantine`` (without it, re-raised).

    Returns the number of deliveries consumed (dispatched or
    quarantined).  ``state.count`` advances per consumed delivery.
    """
    consumed = 0
    for item in items:
        poison = None
        if state is not None:
            fault = state.due(state.count + 1)
            if fault is not None:
                kind = fault["kind"]
                if kind == "crash":
                    raise InjectedCrash(fault["id"])
                if kind == "stall":
                    state.consume(fault)
                    if fault["duration"] > 0:
                        time.sleep(fault["duration"])
                else:  # poison / serialize: armed through every retry
                    poison = fault
        try:
            if poison is not None:
                raise InjectedPoison(poison["id"], poison["kind"])
            engine.emit_selected_batch([item])
        except InjectedCrash:
            raise
        except BaseException as exc:
            attempts = 1
            failure = exc
            handled = False
            retries = quarantine.retries if quarantine is not None else 0
            backoff = quarantine.backoff if quarantine is not None else 0.0
            while attempts <= retries:
                if backoff > 0:
                    time.sleep(backoff * (2 ** (attempts - 1)))
                attempts += 1
                try:
                    if poison is not None:
                        raise InjectedPoison(poison["id"], poison["kind"])
                    engine.emit_selected_batch([item])
                except InjectedCrash:
                    raise
                except BaseException as retry_exc:
                    failure = retry_exc
                else:
                    handled = True
                    break
            if poison is not None and state is not None:
                state.consume(poison)
            if not handled:
                if on_quarantine is None:
                    raise
                on_quarantine(item, failure, attempts)
                if state is not None:
                    state.quarantined += 1
        if state is not None:
            state.count += 1
        consumed += 1
    return consumed


# -- WAL / checkpoint corruption helpers --------------------------------------


def tear_wal_tail(directory: str, keep_fraction: float = 0.5) -> int:
    """Tear the last WAL segment: truncate mid-record, leaving a torn tail.

    Cuts the final record line down to ``keep_fraction`` of its bytes (no
    trailing newline), exactly what a crash mid-``write`` leaves behind.
    Returns how many bytes were removed; 0 when the segment has no
    records to tear.
    """
    from .persist.wal import wal_segments

    segments = wal_segments(directory)
    if not segments:
        return 0
    path = segments[-1][1]
    with open(path, "rb") as handle:
        lines = handle.readlines()
    if len(lines) < 2:  # header only: nothing to tear
        return 0
    last = lines[-1]
    keep = max(1, int(len(last) * keep_fraction))
    size = os.path.getsize(path)
    with open(path, "r+b") as handle:
        handle.truncate(size - len(last) + keep)
    return len(last) - keep


def corrupt_checkpoint(path: str, offset: int = -2) -> None:
    """Flip one byte of a checkpoint body so its CRC check rejects it."""
    with open(path, "r+b") as handle:
        handle.seek(offset, os.SEEK_END)
        byte = handle.read(1)
        handle.seek(offset, os.SEEK_END)
        handle.write(bytes([byte[0] ^ 0xFF]))
