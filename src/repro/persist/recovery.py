"""Durable monitoring: checkpoints + write-ahead log = crash recovery.

:class:`DurableEngine` wraps a :class:`~repro.runtime.engine.MonitoringEngine`
with the two persistence halves of this package:

* every emitted event is appended to the :class:`~repro.persist.wal.WalWriter`
  *before* dispatch (write-ahead: a crash mid-dispatch replays the event);
* :meth:`checkpoint` writes a CRC-guarded snapshot file
  (``checkpoint-<seq>.ckpt``) of the engine at the current WAL sequence,
  then prunes fully covered segments.

Recovery (:meth:`DurableEngine.recover`) = **last intact snapshot +
suffix replay**: load the newest checkpoint whose CRC verifies (a crash
mid-checkpoint-write leaves a torn file, which is skipped), restore the
engine, then re-emit every WAL entry after the checkpoint's sequence.  The
restored parameter objects are fresh
:class:`~repro.runtime.tracelog.ReplayToken` stand-ins registered under
their original symbols, so the continued log stays consistent.  By the
codec's replay-equivalence guarantee, the recovered engine's verdict
multiset and E/M/CM accounting equal an uninterrupted run over the same
events (flag counts can differ by lazy-scan phase).
"""

from __future__ import annotations

import json
import os
import re
import zlib
from time import perf_counter
from typing import Any

from ..core.errors import PersistError, RegistryError
from ..obs.catalogue import declare as _declare_metric
from ..obs.telemetry import as_telemetry
from ..runtime.engine import MonitoringEngine, VerdictCallback
from ..runtime.refs import SymbolRegistry
from ..runtime.tracelog import replay_entries
from ..spec.registry import (
    PORTABLE_ORIGIN_KINDS,
    materialize_origin,
    normalize_properties,
)
from .codec import restore_engine, snapshot_engine, trace_symbol_of
from .wal import WalWriter, _cut_tail, _records

__all__ = [
    "CHECKPOINT_VERSION",
    "DurableEngine",
    "latest_checkpoint",
    "checkpoint_files",
    "write_checkpoint_file",
    "read_checkpoint_file",
]

CHECKPOINT_VERSION = 1

_CHECKPOINT_RE = re.compile(r"^checkpoint-(\d{12})\.ckpt$")


def _checkpoint_name(seq: int) -> str:
    return f"checkpoint-{seq:012d}.ckpt"


def checkpoint_files(directory: str) -> list[tuple[int, str]]:
    """Sorted ``(seq, path)`` pairs of the checkpoints in ``directory``."""
    found = []
    try:
        names = os.listdir(directory)
    except FileNotFoundError:
        return []
    for name in names:
        match = _CHECKPOINT_RE.match(name)
        if match:
            found.append((int(match.group(1)), os.path.join(directory, name)))
    found.sort()
    return found


def _write_checkpoint(path: str, payload: dict) -> None:
    body = json.dumps(payload, separators=(",", ":"), sort_keys=True).encode("utf-8")
    record = json.dumps({"crc": zlib.crc32(body)}).encode("utf-8") + b"\n" + body
    tmp = path + ".tmp"
    with open(tmp, "wb") as handle:
        handle.write(record)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)  # atomic publish: readers see whole files only


def _read_checkpoint(path: str) -> dict | None:
    """The checkpoint payload, or ``None`` when torn/corrupt (skippable)."""
    try:
        with open(path, "rb") as handle:
            header_line = handle.readline()
            body = handle.read()
        header = json.loads(header_line)
        if zlib.crc32(body) != header["crc"]:
            return None
        payload = json.loads(body)
    except (OSError, ValueError, KeyError):
        return None
    if payload.get("checkpoint_version") != CHECKPOINT_VERSION:
        return None
    return payload


def write_checkpoint_file(directory: str, seq: int, payload: dict) -> str:
    """Write one CRC-guarded checkpoint file; returns its path.

    The public form of the :class:`DurableEngine` checkpoint write — the
    shard supervisor stores its per-shard checkpoints in the same torn-
    tolerant format.  ``payload`` gains ``checkpoint_version`` so
    :func:`read_checkpoint_file` / :func:`latest_checkpoint` accept it.
    """
    payload = {"checkpoint_version": CHECKPOINT_VERSION, **payload}
    path = os.path.join(directory, _checkpoint_name(seq))
    _write_checkpoint(path, payload)
    return path


def read_checkpoint_file(path: str) -> dict | None:
    """The checkpoint payload at ``path``, or ``None`` when torn/corrupt."""
    return _read_checkpoint(path)


def latest_checkpoint(directory: str) -> tuple[int, dict] | None:
    """The newest *intact* checkpoint as ``(seq, payload)``, or ``None``."""
    for seq, path in reversed(checkpoint_files(directory)):
        payload = _read_checkpoint(path)
        if payload is not None:
            return seq, payload
    return None


class DurableEngine:
    """A monitoring engine whose state survives process death.

    ``specs`` is anything :class:`MonitoringEngine` accepts.  All events
    must flow through :meth:`emit` (or any of the engine's own emit entry
    points — the durable engine is a boundary observer of its engine, so
    every path logs).

    ``checkpoint_every`` (optional) auto-checkpoints after that many
    events; explicit :meth:`checkpoint` calls are always allowed.
    """

    def __init__(
        self,
        specs: Any,
        directory: str,
        *,
        gc: str | None = None,
        propagation: str | None = None,
        system: str | None = None,
        scan_budget: int = 2,
        on_verdict: VerdictCallback | None = None,
        segment_events: int = 10_000,
        fsync_interval: int = 256,
        checkpoint_every: int | None = None,
        prune_on_checkpoint: bool = True,
        telemetry: Any = None,
        _engine: MonitoringEngine | None = None,
        _registry: SymbolRegistry | None = None,
        _start_seq: int = 0,
        _repaired: bool = False,
    ):
        self.telemetry = as_telemetry(telemetry)
        if _engine is not None:
            self.engine = _engine
        else:
            self.engine = MonitoringEngine(
                specs,
                gc=gc,
                propagation=propagation,
                system=system,
                scan_budget=scan_budget,
                on_verdict=on_verdict,
                telemetry=self.telemetry,
            )
        self.directory = directory
        self.registry = _registry if _registry is not None else SymbolRegistry()
        self.wal = WalWriter(
            directory,
            self.registry,
            segment_events=segment_events,
            fsync_interval=fsync_interval,
            start_seq=_start_seq,
            telemetry=self.telemetry,
            _repaired=_repaired,
        )
        self.checkpoint_every = checkpoint_every
        self.prune_on_checkpoint = prune_on_checkpoint
        self._events_since_checkpoint = 0
        self._closed = False
        self.engine.add_observer(self)
        #: Checkpoint floor carried in verdict provenance (0 = the whole
        #: log reproduces the verdict without restoring a snapshot first).
        self._provenance_floor = 0
        # Verdicts fired under this engine carry the WAL coordinates of
        # the triggering event: the WAL is write-ahead, so at dispatch
        # time ``wal.seq`` IS the current event's sequence number.
        self.engine.provenance_source = self._provenance_coords
        if self.telemetry is not None:
            self._m_checkpoint = _declare_metric(
                self.telemetry.registry, "repro_persist_checkpoint_seconds"
            ).labels()
        else:
            self._m_checkpoint = None

    def _provenance_coords(self) -> dict[str, int]:
        """WAL coordinates of the event currently being dispatched."""
        return {
            "segment": self.wal.segment_index,
            "seq": self.wal.seq,
            "first_seq": self._provenance_floor,
        }

    # -- ingestion -----------------------------------------------------------

    def before_event(self, event: str, params: dict[str, Any]) -> None:
        """Boundary hook: write-ahead log the event before dispatch."""
        self.wal.append(event, params)
        self._events_since_checkpoint += 1

    def emit(self, event: str, _strict: bool = True, **params: Any) -> None:
        """Log, dispatch, and auto-checkpoint when the interval elapses.

        The keyword binding goes on to the engine as the one dict it
        already is (:meth:`MonitoringEngine.emit_values`, which observers
        see exactly as :meth:`MonitoringEngine.emit`), not repacked."""
        if self._closed:
            raise PersistError("emit on a closed DurableEngine")
        self.engine.emit_values(event, params, _strict)
        if (
            self.checkpoint_every is not None
            and self._events_since_checkpoint >= self.checkpoint_every
        ):
            self.checkpoint()

    def enable_flight_recorder(self, recorder: Any = None) -> Any:
        """Attach a flight recorder to the inner engine.

        On a durable engine the recorder's entries carry WAL coordinates
        (via ``provenance_source``), so a triggered dump is replayable:
        hand it to :func:`repro.obs.recorder.replay_dump_verdict` with
        this engine's directory after a :meth:`repro.persist.wal.WalWriter.sync`.
        """
        return self.engine.enable_flight_recorder(recorder)

    # -- dynamic property registry -------------------------------------------

    def register_property(self, item: Any, name: str | None = None) -> list[int]:
        """Hot-load properties durably: write-ahead log the registry op,
        then attach at the current event boundary.

        Only properties re-materializable from data (specification source
        text or a paper-property key) can be registered on a durable
        engine — recovery must be able to re-compile them from the log
        alone.  Returns the new slot indexes.

        Every precondition is validated *before* the op is logged: a
        failing operation must never reach the WAL, or recovery would
        replay the failure and refuse the whole log suffix.
        """
        if self._closed:
            raise PersistError("register_property on a closed DurableEngine")
        normalized = normalize_properties(item)
        if name is not None and len(normalized) != 1:
            raise RegistryError(
                f"cannot register {len(normalized)} properties under one "
                f"name {name!r}"
            )
        if name is not None and self.engine.registry.has_name(name):
            raise RegistryError(f"property name {name!r} is already registered")
        for _prop, origin in normalized:
            if origin.get("kind") not in PORTABLE_ORIGIN_KINDS:
                raise PersistError(
                    "a durable engine can only register properties that are "
                    "re-materializable from data: pass specification source "
                    "text or a PaperProperty"
                )
        indexes: list[int] = []
        for prop, origin in normalized:
            self.wal.append_registry_op(
                {"op": "add", "name": name, "origin": origin}
            )
            indexes.extend(
                self.engine.attach_property(prop, name=name, origin=origin)
            )
        return indexes

    def unregister_property(self, ref: Any) -> None:
        """Durably hot-unload one property (validated, logged, detached)."""
        if self._closed:
            raise PersistError("unregister_property on a closed DurableEngine")
        entry = self.engine.registry.entry(ref)
        if entry.removed:
            raise RegistryError(f"property {entry.name!r} is already removed")
        self.wal.append_registry_op({"op": "remove", "index": entry.index})
        self.engine.detach_property(entry.index)

    def set_property_enabled(self, ref: Any, enabled: bool) -> None:
        """Durably pause/resume one property (validated, logged, applied)."""
        if self._closed:
            raise PersistError("set_property_enabled on a closed DurableEngine")
        entry = self.engine.registry.entry(ref)
        if entry.removed:
            raise RegistryError(f"property {entry.name!r} has been removed")
        self.wal.append_registry_op(
            {"op": "enable" if enabled else "disable", "index": entry.index}
        )
        self.engine.set_property_enabled(entry.index, enabled)

    @staticmethod
    def _apply_registry_op(engine: MonitoringEngine, op: "dict") -> None:
        kind = op.get("op")
        if kind == "add":
            prop = materialize_origin(op["origin"])
            engine.attach_property(prop, name=op.get("name"), origin=op["origin"])
        elif kind == "remove":
            engine.detach_property(op["index"])
        elif kind == "enable":
            engine.set_property_enabled(op["index"], True)
        elif kind == "disable":
            engine.set_property_enabled(op["index"], False)
        else:
            raise PersistError(f"unknown WAL registry op {kind!r}")

    # -- checkpointing -------------------------------------------------------

    def checkpoint(self) -> str:
        """Write a durable snapshot at the current WAL sequence.

        Returns the checkpoint path.  The WAL is fsynced first, so the
        snapshot never claims a sequence the log has not persisted; crash
        mid-write leaves a torn ``.tmp`` the recovery scan ignores.
        """
        if self._closed:
            raise PersistError("checkpoint on a closed DurableEngine")
        start = perf_counter()
        self.wal.sync()
        seq = self.wal.seq
        payload = {
            "checkpoint_version": CHECKPOINT_VERSION,
            "seq": seq,
            "registry_counter": self.registry.counter,
            "engine": snapshot_engine(self.engine, trace_symbol_of(self.registry)),
        }
        path = os.path.join(self.directory, _checkpoint_name(seq))
        _write_checkpoint(path, payload)
        if self.prune_on_checkpoint:
            self.wal.prune(seq)
        self._events_since_checkpoint = 0
        self._provenance_floor = seq
        if self._m_checkpoint is not None:
            self._m_checkpoint.observe(perf_counter() - start)
        return path

    def close(self) -> None:
        """Idempotent: final fsync, then release the log handle."""
        if not self._closed:
            self._closed = True
            self.wal.close()

    def __enter__(self) -> "DurableEngine":
        return self

    def __exit__(self, *_exc: Any) -> None:
        self.close()

    # -- recovery ------------------------------------------------------------

    @classmethod
    def recover(
        cls,
        specs: Any,
        directory: str,
        *,
        on_verdict: VerdictCallback | None = None,
        gc: str | None = None,
        propagation: str | None = None,
        system: str | None = None,
        scan_budget: int = 2,
        segment_events: int = 10_000,
        fsync_interval: int = 256,
        checkpoint_every: int | None = None,
        telemetry: Any = None,
    ) -> tuple["DurableEngine", dict[str, Any]]:
        """Rebuild from ``directory``: last intact snapshot + WAL suffix.

        Returns ``(durable, tokens)`` — ``tokens`` maps every symbol that
        is still live after the replay to its restored stand-in object
        (callers that keep feeding real traffic can ignore it; callers
        resuming a symbolic stream route through it).  With no checkpoint
        on disk the whole log is replayed into a fresh engine built from
        the ``gc``/``propagation``/``system`` arguments; with a checkpoint
        the engine configuration comes from the snapshot.
        """
        start = perf_counter()
        telemetry = as_telemetry(telemetry)
        found = latest_checkpoint(directory)
        registry = SymbolRegistry()
        if found is None:
            engine = MonitoringEngine(
                specs,
                gc=gc,
                propagation=propagation,
                system=system,
                scan_budget=scan_budget,
                on_verdict=on_verdict,
                telemetry=telemetry,
            )
            tokens: dict[str, Any] = {}
            after = 0
        else:
            seq, payload = found
            engine, tokens = restore_engine(
                payload["engine"], specs, on_verdict=on_verdict
            )
            if telemetry is not None:
                engine.enable_telemetry(telemetry)
            after = payload["seq"]
        # One pass over the log: collect the replay suffix (events *and*
        # registry ops, in sequence order), the last durable sequence, the
        # highest numeric symbol ever used (so post-recovery minting
        # cannot collide with pre-crash names), and the intact length of
        # the last segment, whose torn tail is cut here rather than by a
        # second decoding pass in the new writer.
        records: list[tuple[str, Any]] = []
        last_seq = after
        highest = registry.counter
        tail: list = []
        for seq2, kind, payload in _records(directory, 0, tail):
            last_seq = max(last_seq, seq2)
            if kind == "event":
                for symbol in payload[1].values():
                    if symbol.startswith("o") and symbol[1:].isdigit():
                        highest = max(highest, int(symbol[1:]))
            if seq2 > after:
                records.append((kind, payload))
        if tail:
            _cut_tail(*tail)
        # Replay the suffix with registry ops applied at exactly the trace
        # positions they originally happened — a property hot-loaded at
        # event k sees events k..n and nothing earlier, as in the original
        # run.  The token table is shared across chunks so identities are
        # continuous.
        pending: list[tuple[str, dict[str, str]]] = []
        for kind, payload in records:
            if kind == "event":
                pending.append(payload)
                continue
            if pending:
                replay_entries(pending, engine, tokens=tokens)
                pending = []
            cls._apply_registry_op(engine, payload)
        replay_entries(pending, engine, tokens=tokens)
        for symbol, token in tokens.items():
            registry.register(token, symbol)
        if found is not None:
            highest = max(highest, int(found[1].get("registry_counter", 0)))
        registry.ensure_counter(highest)
        durable = cls(
            None,
            directory,
            _engine=engine,
            _registry=registry,
            _start_seq=last_seq,
            _repaired=True,
            segment_events=segment_events,
            fsync_interval=fsync_interval,
            checkpoint_every=checkpoint_every,
            telemetry=telemetry,
        )
        durable._provenance_floor = after
        if telemetry is not None:
            _declare_metric(
                telemetry.registry, "repro_persist_restore_seconds"
            ).labels().observe(perf_counter() - start)
        return durable, tokens
