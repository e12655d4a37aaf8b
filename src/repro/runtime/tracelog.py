"""Recording and replaying parametric event traces.

A :class:`TraceRecorder` taps a :class:`~repro.runtime.engine.MonitoringEngine`
and writes every emitted parametric event as one JSON line — the event name
plus a *symbolic identity* per parameter object (``c0``, ``i17``, ...).
Identities preserve the aliasing structure of the run (two events binding
the same object record the same symbol) without holding the objects alive:
the registry keys symbols by the objects' weak ledger entries.

:func:`replay` reads the log back, materializes one fresh token object per
symbol, and re-emits the events into a new engine — so a production trace
can be re-monitored offline under a different property, GC strategy, or
engine configuration.

Object deaths can be represented two ways:

* **Implicitly** — ``replay(..., retire_after_last_use=True)`` drops each
  token right after its final occurrence: a faithful stand-in for the
  common pattern where objects die as soon as the program stops
  mentioning them (the paper's short-lived iterators), though not a
  reconstruction of the original collection points.
* **Explicitly** — a recorder constructed with ``record_deaths=True``
  interleaves ``{"die": [symbol, ...]}`` marker lines with the event
  lines: whenever the interpreter reclaims a recorded parameter object,
  the death is buffered and written out at the next safe boundary
  (before the next event line), exactly where the engine's own coalesced
  death propagation observes it.  :func:`replay` honors the markers by
  dropping the named tokens between the same two events, so a replayed
  trace reproduces the original run's monitor GC behavior — the
  equivalence the live instrumentation layer
  (:mod:`repro.instrument.live`) is tested against.
"""

from __future__ import annotations

import json
import threading
from typing import Any, Iterable, TextIO

from .engine import MonitoringEngine
from .refs import SymbolRegistry

__all__ = [
    "TraceRecorder",
    "replay",
    "replay_entries",
    "split_death_markers",
    "ReplayToken",
]


class ReplayToken:
    """A fresh weak-referenceable stand-in for one recorded object."""

    __slots__ = ("symbol", "__weakref__")

    def __init__(self, symbol: str):
        self.symbol = symbol

    def __repr__(self) -> str:
        return f"ReplayToken({self.symbol})"


class TraceRecorder:
    """Tap an engine and write its parametric events as JSON lines.

    Symbol minting lives in :class:`~repro.runtime.refs.SymbolRegistry`;
    pass ``registry`` to share one symbol space with other consumers (the
    write-ahead log and checkpoint codec of :mod:`repro.persist` do this so
    snapshots and trace suffixes name objects consistently).

    With ``record_deaths=True`` the recorder additionally registers as the
    registry's death callback and interleaves ``{"die": [symbols]}`` marker
    lines with the events.  Death callbacks run in whatever thread drops
    the last strong reference (possibly mid-dispatch), so they only buffer;
    the coalesced markers are written at the next :meth:`record` call —
    i.e. between the two events the death actually fell between — or at an
    explicit :meth:`flush_deaths`.
    """

    def __init__(
        self,
        sink: TextIO,
        registry: SymbolRegistry | None = None,
        record_deaths: bool = False,
    ):
        self._sink = sink
        self.registry = registry if registry is not None else SymbolRegistry()
        self.events_recorded = 0
        self.deaths_recorded = 0
        self._pending_deaths: list[str] = []
        #: Guards the buffer swap against a death callback appending from
        #: another thread mid-flush (a lost append would drop a marker and
        #: break the live-vs-replay equivalence).
        self._deaths_lock = threading.Lock()
        if record_deaths:
            if self.registry.on_death is not None:
                raise ValueError(
                    "the symbol registry already has a death callback; "
                    "record_deaths needs exclusive ownership of it"
                )
            self.registry.on_death = self._note_death

    def attach(self, engine: MonitoringEngine) -> "TraceRecorder":
        """Register on the engine's boundary observer list: every event is
        recorded before dispatch, next to any other observer."""
        engine.add_observer(self)
        return self

    def record(self, event: str, params: dict[str, Any]) -> None:
        """Write one event line (flushing any buffered death markers)."""
        if self._pending_deaths:
            self.flush_deaths()
        symbol_for = self.registry.symbol_for
        entry = {
            "event": event,
            "params": {name: symbol_for(value) for name, value in params.items()},
        }
        self._sink.write(json.dumps(entry) + "\n")
        self.events_recorded += 1

    def _note_death(self, symbol: str) -> None:
        # Always appends through the attribute (never a captured bound
        # method): flush_deaths swaps the buffer list out.
        with self._deaths_lock:
            self._pending_deaths.append(symbol)

    def flush_deaths(self) -> None:
        """Write buffered parameter deaths as one coalesced ``die`` marker."""
        with self._deaths_lock:
            pending, self._pending_deaths = self._pending_deaths, []
        if pending:
            self._sink.write(json.dumps({"die": pending}) + "\n")
            self.deaths_recorded += len(pending)

    before_event = record


def read_trace(lines: Iterable[str]) -> list[dict]:
    """Parse a recorded trace (skipping blank lines)."""
    return [json.loads(line) for line in lines if line.strip()]


def replay_entries(
    entries: "list[tuple[str, dict[str, str]]]",
    target: Any,
    retire_after_last_use: bool = False,
    *,
    start: int = 0,
    stop: int | None = None,
    tokens: "dict[str, Any] | None" = None,
    batch_size: int | None = None,
    deaths: "dict[int, list[str]] | None" = None,
) -> dict[str, Any]:
    """Re-emit pre-parsed ``(event, {param: symbol})`` pairs into ``target``.

    ``target`` is anything with the engine ``emit`` signature — a
    :class:`MonitoringEngine` or a :class:`~repro.service.MonitorService`.
    One fresh identity token is materialized per symbol; with
    ``retire_after_last_use`` each token is dropped right after its final
    occurrence, so parameter deaths (and the monitor GC they drive) happen
    during the replay, as in live traffic.  Immortal ``v:...`` symbols are
    canonicalized to one value object per symbol, matching the identity
    structure a live run would have.

    ``start``/``stop`` replay only the slice ``entries[start:stop]`` while
    computing retirement points over the *whole* trace — the checkpoint
    subsystem replays a prefix, snapshots, and later resumes the suffix
    (passing the restored ``tokens`` table) with retirements landing at
    exactly the same entries as an uninterrupted replay.

    ``batch_size`` switches ingestion to the target's ``emit_batch``,
    flushing a pending chunk whenever it is full *or* the next retirement
    point is reached — so token deaths still land between exactly the same
    two events as the per-event replay, and verdicts/creation counts are
    identical while the per-call overhead amortizes over the chunk.

    ``deaths`` carries *explicit death markers* (see
    :class:`TraceRecorder` with ``record_deaths=True``): ``deaths[i]`` is
    the list of symbols whose objects died after entry ``i - 1`` and
    before entry ``i`` — those tokens are dropped right before entry ``i``
    is emitted (``deaths[len(entries)]`` drops after the final entry), so
    the replayed engine observes each death between exactly the same two
    events as the recorded run.

    Returns the symbol -> token table of objects still alive at the end
    (with ``retire_after_last_use`` the retired ones are absent).  The
    ``tokens`` argument, when given, is used as that table and mutated in
    place.
    """
    retire_at: dict[int, list[str]] = {}
    if retire_after_last_use:
        last_use: dict[str, int] = {}
        for index, (_event, symbols) in enumerate(entries):
            for symbol in symbols.values():
                if not symbol.startswith("v:"):
                    last_use[symbol] = index
        for symbol, index in last_use.items():
            retire_at.setdefault(index, []).append(symbol)
    if tokens is None:
        tokens = {}
    stop = len(entries) if stop is None else min(stop, len(entries))
    tokens_get = tokens.get
    pending: list[tuple[str, dict[str, Any]]] = []
    emit_batch = target.emit_batch if batch_size else None
    # Mapping-taking fast entry: skips the per-event keyword repack of
    # ``emit(event, **params)``.  Engine observers see both entries alike;
    # but a caller that wraps ``emit`` in the target's instance dict (a
    # tracer, a test probe) must see every event, so the fast entry is
    # skipped then, unless ``emit_values`` was wrapped as well.
    emit_values = getattr(target, "emit_values", None)
    if (
        emit_values is not None
        and "emit" in vars(target)
        and "emit_values" not in vars(target)
    ):
        emit_values = None
    if deaths is None and emit_batch is None and emit_values is not None:
        # Dedicated hot loop for the common bench/replay shape (no death
        # markers, per-event ingestion, unwrapped emit): identical per-event
        # semantics to the general loop below, minus its branch overhead.
        retire_get = retire_at.get
        for index in range(start, stop):
            event, symbols = entries[index]
            params: dict[str, Any] = {}
            for name, symbol in symbols.items():
                token = tokens_get(symbol)
                if token is None:
                    token = symbol if symbol.startswith("v:") else ReplayToken(symbol)
                    tokens[symbol] = token
                params[name] = token
            emit_values(event, params, _strict=False)
            retiring = retire_get(index)
            if retiring is not None:
                for symbol in retiring:
                    tokens.pop(symbol, None)
                del params
        return tokens
    for index in range(start, stop):
        if deaths is not None:
            dying = deaths.get(index)
            if dying is not None:
                if pending:
                    # The marked deaths fell *before* this entry: the batched
                    # prefix must be dispatched first so the engine observes
                    # the deaths at the recorded boundary.
                    emit_batch(pending, _strict=False)
                    pending = []
                for symbol in dying:
                    tokens.pop(symbol, None)
        event, symbols = entries[index]
        params: dict[str, Any] = {}
        for name, symbol in symbols.items():
            token = tokens_get(symbol)
            if token is None:
                # Immortal literal: identity is per-symbol, value is the
                # symbol text itself (canonicalized through the table).
                token = symbol if symbol.startswith("v:") else ReplayToken(symbol)
                tokens[symbol] = token
            params[name] = token
        retiring = retire_at.get(index)
        if emit_batch is not None:
            pending.append((event, params))
            if retiring is not None or len(pending) >= batch_size:
                emit_batch(pending, _strict=False)
                pending = []
        elif emit_values is not None:
            emit_values(event, params, _strict=False)
        else:
            target.emit(event, _strict=False, **params)
        if retiring is not None:
            for symbol in retiring:
                tokens.pop(symbol, None)
            del params
    if pending:
        emit_batch(pending, _strict=False)
    if deaths is not None:
        trailing = deaths.get(stop)
        if trailing is not None:
            for symbol in trailing:
                tokens.pop(symbol, None)
    return tokens


def split_death_markers(
    records: Iterable[dict],
) -> tuple[list[tuple[str, dict[str, str]]], dict[int, list[str]]]:
    """Separate parsed trace records into entries and a death map.

    ``records`` is :func:`read_trace` output possibly containing
    ``{"die": [symbols]}`` markers.  Returns ``(entries, deaths)`` in the
    shapes :func:`replay_entries` consumes: ``deaths[i]`` lists the
    symbols that died right before entry ``i`` (``i == len(entries)`` for
    deaths after the final event).
    """
    entries: list[tuple[str, dict[str, str]]] = []
    deaths: dict[int, list[str]] = {}
    for record in records:
        dying = record.get("die")
        if dying is not None:
            deaths.setdefault(len(entries), []).extend(dying)
        else:
            entries.append((record["event"], record["params"]))
    return entries, deaths


def replay(
    lines: Iterable[str],
    engine: MonitoringEngine,
    retire_after_last_use: bool = False,
) -> dict[str, ReplayToken]:
    """Re-emit a recorded trace into ``engine`` (see :func:`replay_entries`).

    Traces recorded with death markers (``TraceRecorder(record_deaths=
    True)``) have their markers honored: each marked token is dropped
    between the same two events the original object died between.
    """
    entries, deaths = split_death_markers(read_trace(lines))
    return replay_entries(
        entries, engine, retire_after_last_use, deaths=deaths or None
    )
