"""The engine snapshot codec: serialize/restore a full ``MonitoringEngine``.

A snapshot captures everything that determines an engine's future behavior:

* **compiled-property identity** — per-property fingerprints
  (:meth:`~repro.spec.compiler.CompiledProperty.fingerprint`); restore
  refuses a property set whose semantics differ from the snapshot's;
* **monitor instances** — FSM state / Earley chart / raw state via the
  formalism ``snapshot_state`` hooks, plus each instance's parameter
  binding as symbolic ref IDs (live objects) or ``!dead:`` markers (bound
  parameters whose object died before the snapshot);
* **disable knowledge** — the per-leaf *touched* serials driving the
  creation-validity check, with the runtimes' event/creation serials;
* **statistics** — full :class:`~repro.runtime.statistics.MonitorStats`
  snapshots, so E/M/FM/CM accounting continues exactly.

Snapshotting **flushes the engine first** (full dead-key scan): flushing
delivers every pending parameter-death notification and physically removes
flagged instances — both semantically invisible operations (flagged
instances are skipped everywhere and flag decisions are deterministic in
the monitor's last event and parameter liveness), after which the
remaining structures are exactly the behavior-determining state.  The
guarantee is **verdict equivalence**: snapshot at event *k*, restore into
a fresh engine, replay the suffix (via
:func:`repro.runtime.tracelog.replay_entries` with the restored token
table) — the verdict multiset and the final E/M/FM/CM row equal an
uninterrupted run's.

Restored parameter objects are fresh
:class:`~repro.runtime.tracelog.ReplayToken` stand-ins — a snapshot names
objects symbolically; it cannot resurrect application objects.  The
returned token table is therefore part of the restore result: whatever
feeds the restored engine must map symbols through it.
"""

from __future__ import annotations

import json
import zlib
from typing import Any, Callable, Iterable, Mapping, Sequence

from ..core.errors import PersistError
from ..runtime.engine import MonitoringEngine, VerdictCallback
from ..runtime.refs import SymbolRegistry
from ..runtime.statistics import MonitorStats
from ..runtime.tracelog import ReplayToken
from ..spec.compiler import CompiledProperty
from ..spec.registry import PropertyRegistry, normalize_properties

__all__ = [
    "SNAPSHOT_FORMAT",
    "SNAPSHOT_VERSION",
    "trace_symbol_of",
    "materialize_tokens",
    "snapshot_engine",
    "restore_engine",
    "restore_into",
    "snapshot_to_bytes",
    "snapshot_from_bytes",
]

SNAPSHOT_FORMAT = "repro-engine-snapshot"
#: Version 2 added the dynamic property registry: epoch, per-slot
#: fingerprints/enabled state/origins, tombstoned (removed) slots, and the
#: retired statistics folded into the engine totals at detach time.
SNAPSHOT_VERSION = 2

#: Binary container magic: ``RPSNAP`` + 2-digit container version + newline.
_MAGIC = b"RPSNAP01\n"


def trace_symbol_of(registry: SymbolRegistry | None = None) -> Callable[[Any], str]:
    """A ``symbol_of`` function that preserves trace identities.

    Objects that *are* replay/trace stand-ins keep their existing names —
    a :class:`~repro.runtime.tracelog.ReplayToken` is named by its own
    symbol and a canonicalized ``v:`` literal by its text — so an engine
    fed from a symbolic trace snapshots under the trace's namespace and
    the suffix replay lines up with the restored tokens.

    :meth:`SymbolRegistry.symbol_for` itself implements this adoption (so
    the write-ahead log and every other consumer of one registry agree);
    this helper just supplies a fresh registry when the caller has none.
    """
    if registry is None:
        registry = SymbolRegistry()
    return registry.symbol_for


def snapshot_engine(
    engine: MonitoringEngine,
    symbol_of: Callable[[Any], str] | None = None,
) -> dict:
    """Serialize ``engine`` into a versioned, JSON-safe snapshot dict.

    Flushes the engine first (see module docstring); the engine remains
    fully usable afterwards.  ``symbol_of`` supplies symbolic ref IDs for
    live parameter objects — pass one registry's ``symbol_for`` (or
    :func:`trace_symbol_of` over one registry) when snapshotting several
    engines (service shards) whose states share objects, so a given object
    is named consistently; the default is a fresh :func:`trace_symbol_of`.
    """
    if symbol_of is None:
        symbol_of = trace_symbol_of()
    engine.flush_gc()
    try:
        runtimes = [
            None if runtime is None else runtime.export_persist_state(symbol_of)
            for runtime in engine.runtimes
        ]
    except PersistError:
        raise
    except TypeError as exc:
        raise PersistError(f"engine state is not snapshot-serializable: {exc}") from exc
    snapshot = {
        "format": SNAPSHOT_FORMAT,
        "version": SNAPSHOT_VERSION,
        "engine": engine.config(),
        "registry": engine.registry.snapshot(),
        "properties": [
            {
                "spec": entry.spec_name,
                "formalism": entry.formalism,
                "fingerprint": entry.fingerprint,
                "removed": entry.removed,
            }
            for entry in engine.registry.entries
        ],
        "runtimes": runtimes,
        # Final statistics of detached slots, folded into the totals at
        # detach time — E/M/FM/CM accounting must survive the snapshot.
        "retired": {
            str(index): stats.snapshot()
            for index, (_spec, _formalism, stats) in engine._retired.items()
        },
        # The ledger's event ordinal, so a death after restore is stamped
        # as it would have been in the uninterrupted run.
        "clock": engine.ledger.clock,
    }
    # Fail at snapshot time, not restore time, on non-JSON monitor state.
    try:
        json.dumps(snapshot)
    except (TypeError, ValueError) as exc:
        raise PersistError(f"snapshot payload is not JSON-serializable: {exc}") from exc
    return snapshot


def _check_header(snapshot: Mapping[str, Any]) -> None:
    if snapshot.get("format") != SNAPSHOT_FORMAT:
        raise PersistError(
            f"not an engine snapshot (format={snapshot.get('format')!r})"
        )
    version = snapshot.get("version")
    if version != SNAPSHOT_VERSION:
        raise PersistError(
            f"unsupported snapshot version {version!r} (this build reads "
            f"version {SNAPSHOT_VERSION})"
        )


def _check_registry(snapshot: Mapping[str, Any], engine: MonitoringEngine) -> None:
    """The restore target's registry must mean what the snapshot's meant:
    same slot count, same removal tombstones, same per-slot fingerprints."""
    recorded = snapshot.get("registry", {}).get("entries", ())
    entries = engine.registry.entries
    if len(recorded) != len(entries):
        raise PersistError(
            f"snapshot holds {len(recorded)} properties, restore target has "
            f"{len(entries)}"
        )
    for index, (record, entry) in enumerate(zip(recorded, entries)):
        if bool(record.get("removed")) != entry.removed:
            raise PersistError(
                f"property slot {index} ({record.get('name')!r}) "
                f"{'is' if record.get('removed') else 'is not'} removed in "
                "the snapshot but the restore target disagrees"
            )
        if record["fingerprint"] != entry.fingerprint:
            raise PersistError(
                f"property {index} ({record['spec']}/{record['formalism']}) does "
                f"not match the snapshot: fingerprint {entry.fingerprint} != "
                f"{record['fingerprint']} — the specification semantics changed"
            )


def _collect_symbols(snapshot: Mapping[str, Any]) -> set[str]:
    symbols: set[str] = set()
    for runtime in snapshot["runtimes"]:
        if runtime is None:
            continue
        for record in runtime["touched"]:
            symbols.update(record["params"].values())
        for monitor in runtime["monitors"]:
            for symbol in monitor["params"].values():
                if not symbol.startswith("!dead:"):
                    symbols.add(symbol)
    return symbols


def materialize_tokens(
    symbols: Iterable[str], tokens: "dict[str, Any] | None" = None
) -> dict[str, Any]:
    """Fresh stand-in objects for ``symbols``, merged into ``tokens``.

    ``oN`` symbols get :class:`~repro.runtime.tracelog.ReplayToken`
    identities; ``v:`` symbols canonicalize to their own text (immortal
    literals compare by value).  Existing entries are kept, so several
    restores can share one table.
    """
    if tokens is None:
        tokens = {}
    for symbol in symbols:
        if symbol not in tokens:
            tokens[symbol] = symbol if symbol.startswith("v:") else ReplayToken(symbol)
    return tokens


def restore_into(
    engine: MonitoringEngine,
    snapshot: Mapping[str, Any],
    tokens: "dict[str, Any] | None" = None,
) -> dict[str, Any]:
    """Populate a **virgin** engine from a snapshot; returns the token table.

    The engine must have been built over the same compiled properties (by
    fingerprint) and the same configuration the snapshot records, and must
    not have processed any events.  Service restore uses this form to fill
    shard engines it already constructed; ``tokens`` lets shards share one
    symbol table.
    """
    _check_header(snapshot)
    _check_registry(snapshot, engine)
    config = engine.config()
    if config != snapshot["engine"]:
        raise PersistError(
            f"engine configuration {config} does not match snapshot "
            f"{snapshot['engine']}"
        )
    for runtime in engine.runtimes:
        if runtime is not None and (runtime._event_serial or runtime._serial):
            raise PersistError("restore target engine has already processed events")
    tokens = materialize_tokens(_collect_symbols(snapshot), tokens)
    registry_payload = snapshot.get("registry", {})
    for runtime, payload in zip(engine.runtimes, snapshot["runtimes"]):
        if runtime is None or payload is None:
            continue  # removed slot (tombstone alignment checked above)
        runtime.import_persist_state(payload, tokens)
    # Per-slot enabled state, the retired-slot statistics, and the registry
    # epoch round-trip with the snapshot.
    enabled_changed = False
    for record, entry in zip(registry_payload.get("entries", ()), engine.registry.entries):
        if entry.removed:
            continue
        enabled = record.get("enabled", True)
        if entry.enabled != enabled:
            entry.enabled = enabled
            engine.runtimes[entry.index].enabled = enabled
            enabled_changed = True
    if enabled_changed:
        engine._rebuild_event_index()
    for key, stats_payload in snapshot.get("retired", {}).items():
        index = int(key)
        entry = engine.registry.entries[index]
        engine._retired[index] = (
            entry.spec_name,
            entry.formalism,
            MonitorStats.from_snapshot(stats_payload),
        )
    engine.registry.restore_epoch(registry_payload.get("epoch", engine.registry.epoch))
    # Snapshots written before the clock was recorded restore it as 0.
    engine.ledger.clock = snapshot.get("clock", 0)
    return tokens


def restore_engine(
    snapshot: Mapping[str, Any],
    properties: Sequence[CompiledProperty] | Any,
    on_verdict: VerdictCallback | None = None,
    tokens: "dict[str, Any] | None" = None,
) -> tuple[MonitoringEngine, dict[str, Any]]:
    """Build a fresh engine from ``snapshot`` over ``properties``.

    ``properties`` is anything :class:`MonitoringEngine` accepts (compiled
    specs/properties or sequences thereof) — snapshots store no code, so
    the caller must supply the same compiled semantics; fingerprints are
    verified.  Slots the caller does not cover are re-materialized from
    the registry's recorded origins (hot-loaded source text / paper keys),
    and removed slots are restored as tombstones carrying their retired
    statistics.  Returns ``(engine, tokens)`` where ``tokens`` maps every
    live symbol in the snapshot to its restored stand-in object.
    """
    _check_header(snapshot)
    config = snapshot["engine"]
    registry = PropertyRegistry.from_snapshot(
        snapshot.get("registry", {}),
        normalize_properties(properties) if properties is not None else None,
    )
    engine = MonitoringEngine(
        registry,
        gc=config["gc"],
        propagation=config["propagation"],
        scan_budget=config["scan_budget"],
        on_verdict=on_verdict,
    )
    tokens = restore_into(engine, snapshot, tokens)
    return engine, tokens


def snapshot_to_bytes(snapshot: Mapping[str, Any]) -> bytes:
    """Encode a snapshot dict as compressed, magic-tagged bytes."""
    payload = json.dumps(snapshot, separators=(",", ":"), sort_keys=True)
    return _MAGIC + zlib.compress(payload.encode("utf-8"), level=6)


def snapshot_from_bytes(data: bytes) -> dict:
    """Decode :func:`snapshot_to_bytes` output (with integrity checks)."""
    if not data.startswith(_MAGIC):
        raise PersistError("not a repro snapshot (bad magic)")
    try:
        payload = zlib.decompress(data[len(_MAGIC):])
        snapshot = json.loads(payload)
    except (zlib.error, ValueError) as exc:
        raise PersistError(f"corrupt snapshot payload: {exc}") from exc
    _check_header(snapshot)
    return snapshot
