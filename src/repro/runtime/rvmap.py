"""RVMap — the weak-keyed map of Section 4.2.1.

An ``RVMap`` maps *parameter objects* to indexing-tree values: deeper maps
or leaves.  It is keyed by the objects' entries in the engine's
:class:`~repro.runtime.refs.ParamLedger` — one weak reference per object,
shared by every map and monitor — so a dead key is an entry whose object
is gone.  Faithful to the paper:

* whenever an operation (``put``/``get``) is performed, the map "looks
  through a subset of its entries" for dead keys (an incremental rotating
  scan bounded by ``scan_budget`` keys per operation);
* a dead key triggers the ``on_dead_value`` callback — the engine uses it to
  notify every monitor instance below the broken mapping (Figure 7A) — and
  the broken mapping is then removed (Figure 7B);
* while scanning, *live* entries' values are offered to ``inspect_value``,
  which may clean them up (compact sets, drop flagged monitors, remove
  empty substructures) and returns whether the mapping should be kept
  (Section 5.1.1).

A recycled ``id()`` gets a fresh ledger entry, so a new object never
shares a key with a dead one: the scan order depends only on the order in
which objects were first keyed, not on the allocator.

Under eager propagation an engine's maps are :class:`LinkedRVMap` objects:
each key's entry gets a *weak* back-link to the map, so a death reaches
exactly the maps that key the dead object instead of a walk over every
map.  A back-linked map never scans incrementally: it hears of a death
only when the engine's boundary step hands it the dead key
(``PropertyRuntime.reap``), and its only full pass is an explicit
``scan_all``.  An empty leaf or submap under a live key therefore stays
until that key dies, where a lazy scan would have dropped it; it is
reused if the key is seen again.  An *immortal* key (a value that cannot
be weakly referenced, such as an int) never dies, so the boundary step
drops what it empties under one: a map that ``reap`` leaves without keys
(:meth:`LinkedRVMap.drop_if_empty`), and a leaf or set the eviction of
flagged monitors leaves empty.  Otherwise each distinct immortal value
ever seen would keep one empty structure for good.
"""

from __future__ import annotations

import weakref
from typing import Any, Callable, Iterator

from .refs import ParamEntry

__all__ = ["RVMap", "LinkedRVMap", "link_key"]

#: Kept-entry decision returned by ``inspect_value``.
KEEP, DROP = True, False


class RVMap:
    """A weak-keyed identity map with lazy dead-key scanning.

    Keys are ledger entries (see :mod:`repro.runtime.refs`); callers
    resolve objects to entries first.
    """

    __slots__ = ("_buckets", "_scan_keys", "_scan_pos", "on_dead_value", "inspect_value", "scan_budget")

    def __init__(
        self,
        on_dead_value: Callable[[Any], None] | None = None,
        inspect_value: Callable[[Any], bool] | None = None,
        scan_budget: int = 2,
    ):
        #: entry -> value, in first-keyed order.
        self._buckets: dict[Any, Any] = {}
        self._scan_keys: list[Any] = []
        self._scan_pos = 0
        self.on_dead_value = on_dead_value
        self.inspect_value = inspect_value
        self.scan_budget = scan_budget

    # -- basic operations ---------------------------------------------------

    def __len__(self) -> int:
        return len(self._buckets)

    def __bool__(self) -> bool:
        return bool(self._buckets)

    def get(self, entry: Any) -> Any | None:
        """The value mapped to ``entry``, or ``None``."""
        self.scan_some()
        return self._buckets.get(entry)

    def put(self, entry: Any, value: Any) -> None:
        """Map ``entry`` to ``value``, replacing any existing mapping."""
        self.scan_some()
        self._buckets[entry] = value

    def put_fresh(self, entry: Any, value: Any) -> None:
        """Insert a mapping the caller just proved absent (via ``get``),
        skipping the incremental scan the ``get`` already paid for."""
        self._buckets[entry] = value

    def remove(self, entry: Any) -> bool:
        """Remove the mapping for ``entry``; returns whether one existed."""
        return self._buckets.pop(entry, self) is not self

    def items(self) -> Iterator[tuple[Any, Any]]:
        """Iterate (live referent, value) pairs over a snapshot."""
        for entry, value in tuple(self._buckets.items()):
            referent = entry()
            if referent is not None:
                yield referent, value

    def values(self) -> Iterator[Any]:
        for _referent, value in self.items():
            yield value

    def all_values(self) -> Iterator[Any]:
        """Every stored value, including those under already-dead keys."""
        return iter(tuple(self._buckets.values()))

    # -- lazy scanning (Sections 4.2.1 and 5.1.1) ----------------------------

    def scan_some(self) -> int:
        """Scan up to ``scan_budget`` keys for dead ones; returns how many
        entries were cleaned."""
        buckets = self._buckets
        if not buckets:
            return 0
        # Rotating cursor over the keys: this runs on every map operation,
        # so per-step call overhead matters.
        keys = self._scan_keys
        pos = self._scan_pos
        inspect = self.inspect_value
        cleaned = 0
        for _step in range(self.scan_budget):
            if pos >= len(keys):
                keys = self._scan_keys = list(buckets)
                pos = 0
                if not keys:
                    break
            key = keys[pos]
            pos += 1
            value = buckets.get(key)
            if value is None:
                continue
            if key() is None or (inspect is not None and inspect(value) is DROP):
                cleaned += self._scan_bucket(key, known_dirty=True)
        self._scan_pos = pos
        return cleaned

    def scan_all(self) -> int:
        """Scan every key (used by ``flush_gc`` and by tests)."""
        cleaned = 0
        for key in list(self._buckets):
            cleaned += self._scan_bucket(key)
        return cleaned

    def _scan_bucket(self, key: Any, known_dirty: bool = False) -> int:
        """Clean one mapping: drop it (notifying the monitors below, when
        its key is dead) unless its key is alive and its value survives
        inspection.  ``known_dirty`` skips the inspection a caller already
        made."""
        value = self._buckets.get(key)
        if value is None:
            return 0
        if key() is None:
            # Figure 7A: notify the monitors below the broken mapping...
            del self._buckets[key]
            if self.on_dead_value is not None:
                self.on_dead_value(value)
            # ...and Figure 7B: it is removed.
            return 1
        if known_dirty or (self.inspect_value is not None and self.inspect_value(value) is DROP):
            del self._buckets[key]
            return 1
        return 0

    def release(self) -> None:
        """Drop all entries and the owner callbacks.

        ``on_dead_value`` / ``inspect_value`` are bound methods of the
        owning indexing structure, making every level a reference cycle
        with its owner; a property being detached must break those cycles
        explicitly so its monitors are reclaimed by plain reference
        counting instead of waiting for a cyclic-GC pass that a long-lived
        worker process may never run.
        """
        self._buckets.clear()
        self._scan_keys.clear()
        self.on_dead_value = None
        self.inspect_value = None

    def __repr__(self) -> str:
        return f"RVMap({len(self)} entries)"


class LinkedRVMap(RVMap):
    """An :class:`RVMap` whose keys' ledger entries link back to it.

    ``link`` is the map's back-link, ``(weakref to the map, parameter name,
    depth, owner slot)``: the parameter its keys bind, its level in the
    owning tree, and the slot of the runtime that owns the tree.  Every
    entry keyed here gets the link (:func:`link_key`); the weak reference
    keeps nothing alive, so a dropped submap dies with its last strong
    reference as a plain map does.

    Deaths arrive through the links, so the map has no incremental scan:
    ``get`` and ``put`` only probe and store, ``scan_some`` does nothing,
    and the scan cursor and budget are never set.  ``scan_all`` and
    ``_scan_bucket`` work as on a plain map.  ``up`` is ``(weakref to the
    parent map, the key this map sits under)`` when that key is immortal,
    the way out that :meth:`drop_if_empty` takes; it is ``None`` for a
    root and under a mortal key, whose death takes the map along.
    """

    __slots__ = ("__weakref__", "link", "up")

    def __init__(
        self,
        param: str,
        depth: int,
        slot: int,
        on_dead_value: Callable[[Any], None] | None = None,
        inspect_value: Callable[[Any], bool] | None = None,
        up: tuple | None = None,
    ):
        self._buckets: dict[Any, Any] = {}
        self.on_dead_value = on_dead_value
        self.inspect_value = inspect_value
        self.link = (weakref.ref(self), param, depth, slot)
        self.up = up

    def get(self, entry: Any) -> Any | None:
        return self._buckets.get(entry)

    def put(self, entry: Any, value: Any) -> None:
        buckets = self._buckets
        if entry not in buckets:
            link_key(entry, self.link)
        buckets[entry] = value

    def put_fresh(self, entry: Any, value: Any) -> None:
        self._buckets[entry] = value
        link_key(entry, self.link)

    def scan_some(self) -> int:
        return 0

    def release(self) -> None:
        self._buckets.clear()
        self.on_dead_value = None
        self.inspect_value = None

    def drop_if_empty(self) -> None:
        """Remove this map from its parent if it keys nothing and has a
        way ``up`` (it sits under an immortal key), then each ancestor
        that this empties in turn on the same terms.  The death step calls
        it where it removed keys, as a scan would drop an empty submap
        (Section 5.1.1); under a mortal key the map stays until the key
        dies, and is reused meanwhile."""
        node = self
        while not node._buckets and node.up is not None:
            parent_ref, key = node.up
            parent = parent_ref()
            if parent is None or parent._buckets.get(key) is not node:
                return
            del parent._buckets[key]
            node = parent


def link_key(entry: Any, link: tuple) -> None:
    """Record that the map of ``link`` keys ``entry``.

    Immortal entries never die, so they get no links.  A link already
    present is not repeated; when the list reaches a power of two (from 8
    on) it drops links to maps that died or no longer key the entry, so a
    long-lived object re-keyed across many short-lived maps keeps a list
    proportional to where it is keyed now.
    """
    if type(entry) is not ParamEntry:
        return
    links = entry.links
    if links is None:
        entry.links = [link]
        return
    if link in links:
        return
    links.append(link)
    count = len(links)
    if count >= 8 and not count & (count - 1):
        links[:] = [
            kept
            for kept in links
            if (node := kept[0]()) is not None and entry in node._buckets
        ]
