"""Parameter identities: one ledger entry per parameter object.

The monitor GC technique hinges on observing the *death* of parameter
objects without keeping them alive.  Java uses ``WeakReference``; CPython's
:mod:`weakref` plays the same role here.  A :class:`ParamLedger` gives each
parameter object one :class:`ParamEntry` the first time any structure
keys it: a weak reference carrying the ledger's serial for the object and
the event ordinal of its death.  Every structure of an engine — RVMap
keys, monitor parameters, eager death propagation — shares that one
entry, so an object carries one weak reference per ledger however many
maps and monitors hold it, and a recycled ``id()`` can never alias a dead
object's entry: the ledger's ``id()`` index is the only place an ``id``
appears, and it is checked against the live referent.

Some Python values (``int``, ``str``, ``tuple`` ...) are not
weak-referenceable.  Their entries hold the value strongly and never die,
which is also semantically right: an interned value never "dies" in a way
a monitor should react to.  Such an entry lives only as long as the
structures holding it, and entries of one value compare equal, so a map
keyed by one is found through another.

CPython's reference counting makes death *deterministic* (the weakref goes
dead the moment the last strong reference drops), which this reproduction
exploits for reproducible GC tests; reference cycles additionally need
``gc.collect()``, which the benchmark harness invokes explicitly.  This is
the GC-semantics substitution recorded in DESIGN.md.
"""

from __future__ import annotations

import weakref
from json.encoder import encode_basestring_ascii as _quote
from typing import Any, Callable

__all__ = ["ParamEntry", "ParamLedger", "SymbolRegistry"]


class ParamEntry(weakref.ref):
    """One parameter object's identity: a weak reference to it.

    Calling the entry returns the object, or ``None`` once it is dead.
    ``serial`` numbers the object within its ledger, ``died`` is the
    ledger's event ordinal at its death (``None`` while alive) and ``key``
    its ``id()`` in the ledger's index.  ``links`` lists the maps that key
    the entry, as weak back-links an eager engine records (``None`` until
    one does; see :func:`repro.runtime.rvmap.link_key`).  Entries hash and
    compare by identity, never through the referent.
    """

    __slots__ = ("serial", "died", "key", "links")

    __hash__ = object.__hash__
    __eq__ = object.__eq__
    __ne__ = object.__ne__

    def __repr__(self) -> str:
        referent = self()
        if referent is None:
            return f"ParamEntry(<dead #{self.serial}>)"
        return f"ParamEntry({type(referent).__name__} #{self.serial})"


class _ImmortalEntry:
    """The entry of a non-weak-referenceable value: held strongly, never dead.

    Not indexed by the ledger, so the value lives only as long as the
    structures holding an entry for it; entries of one value are equal.
    """

    __slots__ = ("value",)

    serial = 0
    died = None

    def __init__(self, value: Any):
        self.value = value

    def __call__(self) -> Any:
        return self.value

    def __hash__(self) -> int:
        return id(self.value)

    def __eq__(self, other: object) -> bool:
        return type(other) is _ImmortalEntry and other.value is self.value


class ParamLedger:
    """One entry per parameter object, minted on first sight.

    ``entry(value)`` returns the object's entry, creating it (with the next
    ``serial``) the first time.  When an object dies, its entry's ``died``
    is stamped with :attr:`clock` (the owner's event ordinal; an engine
    advances it per event), the entry leaves the index, and ``on_death``
    (optional) is called with it.  The callback runs in whatever thread
    drops the last reference, possibly mid-dispatch; it must not block.
    Entries held by other structures stay behind as tombstones.
    """

    __slots__ = ("_by_id", "_serial", "_callback", "clock", "on_death")

    def __init__(self, on_death: Callable[[ParamEntry], None] | None = None):
        #: id -> entry of every live object this ledger has seen.
        self._by_id: dict[int, ParamEntry] = {}
        self._serial = 0
        self._callback = self._died
        self.clock = 0
        self.on_death = on_death

    def entry(self, value: Any) -> Any:
        """The entry of ``value``, minted on first sight."""
        key = id(value)
        entry = self._by_id.get(key)
        if entry is not None and entry() is value:
            return entry
        try:
            entry = ParamEntry(value, self._callback)
        except TypeError:
            return _ImmortalEntry(value)
        self._serial += 1
        entry.serial = self._serial
        entry.died = None
        entry.key = key
        entry.links = None
        self._by_id[key] = entry
        return entry

    def tombstone(self, serial: int) -> ParamEntry:
        """An entry whose object is already dead (not indexed).

        Restores use it for parameters that died before the snapshot: the
        restored monitor must report them bound-but-dead, as the live one
        did.  The referent is a temporary freed on return.
        """
        entry = ParamEntry(set())
        entry.serial = serial
        entry.died = self.clock
        entry.key = 0
        entry.links = None
        return entry

    def __len__(self) -> int:
        """How many live objects have an entry."""
        return len(self._by_id)

    def _died(self, entry: ParamEntry) -> None:
        entry.died = self.clock
        if self._by_id.get(entry.key) is entry:
            del self._by_id[entry.key]
        if self.on_death is not None:
            self.on_death(entry)


class SymbolRegistry:
    """Stable *symbolic ref IDs* for parameter objects.

    The tracelog, the checkpoint codec, and the multiprocess shard backend
    all need to name parameter objects across a serialization boundary
    without keeping them alive.  A registry mints one symbol per object
    identity (``o1``, ``o2``, ...), keyed by the object's entry in the
    registry's :class:`ParamLedger`, so a recycled ``id`` after death mints
    a fresh symbol instead of inheriting a dead object's name.
    Non-weak-referenceable (immortal) values are named by their ``repr``
    (``v:...``), so equal immortals share a symbol.

    ``on_death`` (optional) is invoked with the symbol whenever a
    registered weak-referenceable object is reclaimed — the process shard
    backend uses it to propagate parameter deaths to worker processes.
    The callback runs in whatever thread drops the last reference; it must
    not block and must tolerate reentrancy.
    """

    __slots__ = ("_ledger", "_symbols", "_quoted", "_by_symbol", "_counter", "on_death")

    def __init__(self, start: int = 0, on_death: Callable[[str], None] | None = None):
        self._ledger = ParamLedger(on_death=self._on_entry_death)
        self._symbols: dict[Any, str] = {}
        #: entry -> its symbol as a JSON string literal (see quoted_symbol).
        self._quoted: dict[Any, str] = {}
        self._by_symbol: dict[str, Any] = {}
        self._counter = start
        self.on_death = on_death

    @property
    def counter(self) -> int:
        """Highest numeric symbol minted so far (recovery seeds from it)."""
        return self._counter

    def ensure_counter(self, value: int) -> None:
        """Never mint ``oN`` with ``N <= value`` from here on.

        Recovery raises the floor past every symbol a write-ahead log has
        ever used, so post-recovery objects cannot collide with pre-crash
        names."""
        if value > self._counter:
            self._counter = value

    def symbol_for(self, value: Any) -> str:
        """The symbol naming ``value``, minting one on first sight.

        Values that already carry a trace identity keep it: a
        :class:`~repro.runtime.tracelog.ReplayToken`-style object (any
        object exposing a string ``symbol`` attribute) is adopted under
        its own name, and a canonicalized ``v:`` literal string is its own
        symbol.  This keeps every consumer of one registry — tracelog,
        write-ahead log, checkpoint codec, process shard backend —
        agreeing on one name per object.
        """
        entry = self._ledger.entry(value)
        symbol = self._symbols.get(entry)
        if symbol is not None:
            return symbol
        if isinstance(value, str) and value.startswith("v:"):
            return value
        existing = getattr(value, "symbol", None)
        if isinstance(existing, str) and existing:
            self.register(value, existing)
            return existing
        if type(entry) is not ParamEntry:
            symbol = f"v:{value!r}"
        else:
            self._counter += 1
            symbol = f"o{self._counter}"
        self._symbols[entry] = symbol
        self._by_symbol[symbol] = entry
        return symbol

    def quoted_symbol(self, value: Any) -> str:
        """:meth:`symbol_for` as a JSON string literal, the bytes
        ``json.dumps`` writes for it (the write-ahead log's encoding).

        Cached per registered object until it dies or is re-registered; a
        ``v:`` literal string, which names itself, is quoted every time.
        """
        entry = self._ledger.entry(value)
        quoted = self._quoted.get(entry)
        if quoted is None:
            quoted = _quote(self.symbol_for(value))
            if entry in self._symbols:
                self._quoted[entry] = quoted
        return quoted

    def register(self, value: Any, symbol: str) -> None:
        """Adopt an externally chosen symbol for ``value``.

        Recovery uses this to re-associate restored tokens with the symbols
        recorded in a snapshot, so continued tracing reuses their names.
        Adopting a symbol already naming a *different* live object would
        silently alias two identities; that is refused loudly.
        """
        entry = self._ledger.entry(value)
        holder = self._by_symbol.get(symbol)
        if holder is not None and holder != entry and holder() is not None:
            from ..core.errors import PersistError

            raise PersistError(f"symbol {symbol!r} already names a different live object")
        previous = self._symbols.get(entry)
        if previous is not None and self._by_symbol.get(previous) == entry:
            del self._by_symbol[previous]
        self._symbols[entry] = symbol
        self._quoted.pop(entry, None)
        self._by_symbol[symbol] = entry
        match = _NUMERIC_SYMBOL(symbol)
        if match is not None and match > self._counter:
            self._counter = match

    def resolve(self, symbol: str) -> Any | None:
        """The live object a symbol names, or ``None`` (dead or unknown)."""
        entry = self._by_symbol.get(symbol)
        return None if entry is None else entry()

    def __len__(self) -> int:
        return len(self._symbols)

    def _on_entry_death(self, entry: ParamEntry) -> None:
        self._quoted.pop(entry, None)
        symbol = self._symbols.pop(entry, None)
        if symbol is None:
            return
        if self._by_symbol.get(symbol) is entry:
            del self._by_symbol[symbol]
        if self.on_death is not None:
            self.on_death(symbol)


def _NUMERIC_SYMBOL(symbol: str) -> int | None:
    """The numeric part of an ``oN`` symbol, or ``None``."""
    if symbol.startswith("o") and symbol[1:].isdigit():
        return int(symbol[1:])
    return None
