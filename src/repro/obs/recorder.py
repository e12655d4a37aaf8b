"""The flight recorder: a bounded ring of recent history, dumped on trigger.

A :class:`FlightRecorder` keeps the last *N* interesting moments of one
engine shard — events (with their WAL coordinates when the engine writes
a write-ahead log), injected deaths, registry operations, and verdicts
(with full provenance) — in a lock-guarded ``deque``.  Nothing is ever
written anywhere until a **trigger** fires:

* ``verdict-burst`` — more than ``burst_count`` verdicts inside
  ``burst_window`` seconds (detected by the recorder itself);
* ``queue-saturation`` — a bounded shard queue forced the producer to
  block (the shard pool sends the trigger in-band, behind the put);
* ``worker-exception`` — a shard worker died with an unhandled
  exception (the worker dumps and ships the payload back in its error
  message).

A dump is a plain-JSON dict: the trigger reason and context, the ring
contents, and the deduplicated WAL references of everything in it.
Because verdict entries carry the engine's full provenance stamps,
:func:`replay_dump_verdict` can hand the triggering verdict straight to
``repro.obs.provenance.replay_verdict`` for a time-travel postmortem.

Attaching a recorder is opt-in (``engine.enable_flight_recorder()``):
the recorder registers on the engine's ordered boundary observer list
(``after_event``, ``on_deaths``, ``on_registry_op``, ``on_verdict``
hooks), so an engine without observers runs its plain hot paths.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Any, Callable, Mapping

__all__ = ["FlightRecorder", "replay_dump_verdict"]

#: Default bounded capacity of the ring buffer.
DEFAULT_CAPACITY = 512

#: Default verdict-burst trigger: more than this many verdicts ...
DEFAULT_BURST_COUNT = 32
#: ... within this many seconds.
DEFAULT_BURST_WINDOW = 1.0

#: Minimum seconds between two dumps for the same trigger reason.
DEFAULT_COOLDOWN = 1.0


def _safe(value: Any) -> Any:
    """A JSON-safe stand-in for an arbitrary monitored parameter value."""
    symbol = getattr(value, "symbol", None)
    if symbol is not None:
        return symbol
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return f"{type(value).__name__}@{id(value):#x}"


class FlightRecorder:
    """Bounded ring buffer of recent engine history with triggered dumps."""

    def __init__(
        self,
        capacity: int = DEFAULT_CAPACITY,
        *,
        burst_count: int = DEFAULT_BURST_COUNT,
        burst_window: float = DEFAULT_BURST_WINDOW,
        cooldown: float = DEFAULT_COOLDOWN,
        clock: Callable[[], float] = time.time,
        on_dump: "Callable[[dict[str, Any]], None] | None" = None,
    ) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self._ring: deque[dict[str, Any]] = deque(maxlen=int(capacity))
        self._lock = threading.Lock()
        self._clock = clock
        self._burst_count = int(burst_count)
        self._burst_window = float(burst_window)
        self._burst_times: deque[float] = deque(maxlen=max(1, self._burst_count))
        self._cooldown = float(cooldown)
        self._last_dump: dict[str, float] = {}
        self.on_dump = on_dump
        self.dumps: list[dict[str, Any]] = []
        self.dump_counter: Any = None  # optional repro_recorder_dumps_total family
        self._engine: Any = None

    def attach(self, engine: Any) -> "FlightRecorder":
        """Register on ``engine``'s boundary observer list; returns self.

        One engine per recorder: events are stamped with that engine's
        ``provenance_source`` coordinates.
        """
        self._engine = engine
        engine.add_observer(self)
        return self

    # -- recording -----------------------------------------------------

    def record(self, kind: str, **fields: Any) -> dict[str, Any]:
        """Append one entry to the ring (oldest entries fall off)."""
        entry = {"kind": kind, "at": self._clock(), **fields}
        with self._lock:
            self._ring.append(entry)
        return entry

    def record_event(
        self,
        event: str,
        params: Mapping[str, Any],
        wal: "Mapping[str, Any] | None" = None,
    ) -> None:
        """Record one dispatched event, with WAL coordinates when durable."""
        self.record(
            "event",
            event=event,
            params={name: _safe(value) for name, value in params.items()},
            wal=dict(wal) if wal is not None else None,
        )

    def after_event(self, event: str, params: Mapping[str, Any]) -> None:
        """Boundary hook: record the event with its own WAL coordinates
        (a write-ahead log appended it before dispatch)."""
        source = self._engine.provenance_source
        self.record_event(event, params, source() if source is not None else None)

    def record_deaths(self, dead: Any) -> None:
        """Record the parameter names of one eager death boundary's
        ``on_deaths`` mapping (parameter name -> dead ledger serials)."""
        self.record("deaths", params=sorted(dead))

    def record_registry_op(self, op: str, **fields: Any) -> None:
        """Record a dynamic-registry operation (attach/detach/enable)."""
        self.record("registry-op", op=op, **fields)

    def record_verdict(
        self,
        prop: Any,
        category: str,
        monitor: Any,
        wal: "Mapping[str, Any] | None" = None,
    ) -> "dict[str, Any] | None":
        """Record one verdict; returns a dump if it tripped the burst trigger.

        The entry keeps the monitor's full provenance stamp (property,
        slot, and — on durable engines — WAL segment/seq coordinates),
        which is what makes dumps replayable.
        """
        provenance = getattr(monitor, "provenance", None)
        try:
            binding = {
                name: _safe(value) for name, value in monitor.binding().items()
            }
        except Exception:
            binding = None
        entry = self.record(
            "verdict",
            property=prop.spec_name,
            formalism=prop.formalism,
            category=str(category),
            binding=binding,
            provenance=dict(provenance) if provenance is not None else None,
            wal=dict(wal) if wal is not None else None,
        )
        now = entry["at"]
        self._burst_times.append(now)
        if (
            len(self._burst_times) >= self._burst_count
            and now - self._burst_times[0] <= self._burst_window
        ):
            return self.trigger("verdict-burst", verdict=entry)
        return None

    on_deaths = record_deaths
    on_registry_op = record_registry_op
    on_verdict = record_verdict

    # -- dumping -------------------------------------------------------

    def trigger(self, reason: str, **context: Any) -> "dict[str, Any] | None":
        """Take a dump now (subject to the per-reason cooldown).

        Returns the dump dict, also appended to :attr:`dumps` and passed
        to :attr:`on_dump` when set; ``None`` when the cooldown ate it.
        """
        now = self._clock()
        last = self._last_dump.get(reason)
        if last is not None and now - last < self._cooldown:
            return None
        self._last_dump[reason] = now
        dump = {
            "reason": reason,
            "at": now,
            "context": context,
            "entries": self.snapshot(),
        }
        dump["wal_refs"] = _wal_refs(dump["entries"])
        self.dumps.append(dump)
        if self.dump_counter is not None:
            self.dump_counter.labels(reason).inc()
        if self.on_dump is not None:
            self.on_dump(dump)
        return dump

    def snapshot(self) -> list[dict[str, Any]]:
        """Point-in-time copy of the ring contents (oldest first)."""
        with self._lock:
            return [dict(entry) for entry in self._ring]

    def __len__(self) -> int:
        with self._lock:
            return len(self._ring)


def _wal_refs(entries: list[dict[str, Any]]) -> list[dict[str, Any]]:
    """Deduplicated WAL coordinates referenced by the dumped entries."""
    refs: dict[tuple[Any, Any], dict[str, Any]] = {}
    for entry in entries:
        for source in (entry.get("wal"), entry.get("provenance")):
            if source and source.get("seq") is not None:
                key = (source.get("segment"), source.get("seq"))
                refs.setdefault(
                    key,
                    {
                        "segment": source.get("segment"),
                        "seq": source.get("seq"),
                        "first_seq": source.get("first_seq"),
                    },
                )
    return [refs[key] for key in sorted(refs, key=lambda k: (str(k[0]), k[1]))]


def replay_dump_verdict(
    directory: Any,
    dump: Mapping[str, Any],
    specs: Any,
    **engine_kwargs: Any,
) -> list[tuple]:
    """Replay the dump's triggering verdict through ``repro.obs.provenance``.

    Picks the verdict that triggered the dump (the ``verdict`` context of
    a burst dump, else the newest verdict entry in the ring), requires it
    to carry WAL coordinates, and hands it to ``replay_verdict`` — the
    same time-travel path the provenance suite proves deterministic.
    """
    from .provenance import replay_verdict

    verdict = dump.get("context", {}).get("verdict")
    if verdict is None:
        candidates = [e for e in dump.get("entries", ()) if e.get("kind") == "verdict"]
        if not candidates:
            raise ValueError("dump contains no verdict entries")
        verdict = candidates[-1]
    provenance = verdict.get("provenance")
    if not provenance or provenance.get("seq") is None:
        raise ValueError("triggering verdict carries no WAL coordinates")
    return replay_verdict(directory, provenance, specs, **engine_kwargs)
