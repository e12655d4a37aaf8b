"""Indexing trees (Section 4.1, Figure 6).

One tree exists per parameter subset of interest.  A tree for domain
``<c, i>`` is a two-level nest of :class:`~repro.runtime.rvmap.RVMap`s —
first keyed by the ``c`` object, then by the ``i`` object — whose leaves
carry:

* ``own``        — the monitor instance whose binding is *exactly* the leaf's
  binding (the ``Delta`` table entry);
* ``extensions`` — an :class:`~repro.runtime.rvset.RVSet` of every monitor
  *more informative* than the leaf's binding (what event dispatch iterates;
  only maintained for trees whose domain is some event's ``D(e)``);
* ``touched``    — whether any event with exactly this binding was ever
  received (the "disable" knowledge JavaMOP tracks with timestamps, used to
  keep skipped-creation semantics sound — see
  :meth:`repro.runtime.engine.PropertyRuntime._creation_is_valid`).

Every level is keyed by the parameter objects' entries in the engine's
:class:`~repro.runtime.refs.ParamLedger`, which each tree holds.  The
generated dispatch kernels resolve an event's values to entries once and
walk trees with them in the tree's parameter order
(:meth:`_TreeBase.lookup_entries`, inlined) — no per-event dict
construction; the mapping-keyed :meth:`_TreeBase.lookup` remains for the
reference path, restores and tests.  Each level's incremental scan uses an
``inspect_value`` callback specialized at construction to the kind of value
that level holds (submap / leaf / bucket), so the per-operation cleanup of
Section 5.1.1 costs no dynamic type dispatch.

A :class:`JoinIndex` is the auxiliary structure for cross-binding joins: for
a statically-determined pair (event domain ``J``, enable domain ``K``) with
``K ⊄ J ⊅ K``, it indexes the domain-``K`` monitor instances by their
``K ∩ J`` sub-binding so the engine can find join candidates without
scanning ``Theta``.
"""

from __future__ import annotations

from typing import Any, Callable, Iterator, Mapping, Sequence

from .instance import MonitorInstance
from .refs import ParamEntry, ParamLedger
from .rvmap import DROP, KEEP, LinkedRVMap, RVMap
from .rvset import RVSet

__all__ = ["Leaf", "IndexingTree", "JoinIndex"]


class Leaf:
    """The record at the bottom of an indexing tree.

    ``touched`` is the serial number of the *first* event that carried
    exactly this leaf's binding, or ``None``.  The engine stamps it at the
    start of event processing, which both records the disable knowledge
    (validity checks compare serials: only strictly-earlier touches
    invalidate a creation) and keeps the fresh leaf non-empty so a
    concurrent lazy scan cannot reclaim it mid-dispatch.
    """

    __slots__ = ("own", "extensions", "touched")

    def __init__(self, tracks_extensions: bool):
        self.own: MonitorInstance | None = None
        self.extensions: RVSet | None = RVSet() if tracks_extensions else None
        self.touched: int | None = None

    def is_empty(self) -> bool:
        # Hand-rolled (no generator allocation): this predicate runs inside
        # every incremental scan, i.e. on nearly every map operation.
        if self.touched is not None:
            return False
        own = self.own
        if own is not None and not own.flagged:
            return False
        extensions = self.extensions
        if extensions is not None:
            for monitor in extensions._items:
                if not monitor.flagged:
                    return False
        return True

    def monitors(self) -> Iterator[MonitorInstance]:
        if self.own is not None:
            yield self.own
        if self.extensions is not None:
            yield from self.extensions


class _TreeBase:
    """Shared machinery: nested RVMap levels with notification plumbing."""

    def __init__(
        self,
        params: tuple[str, ...],
        notify: Callable[[MonitorInstance], None],
        ledger: ParamLedger,
        scan_budget: int = 2,
        link_slot: int | None = None,
    ):
        self.params = params
        self._notify = notify
        self._entry = ledger.entry
        self._scan_budget = scan_budget
        #: The owner's slot when the levels are back-linking maps (eager
        #: propagation), else ``None``.
        self._link_slot = link_slot
        self._root: Any = self._new_node(depth=0)

    # -- node construction ---------------------------------------------------

    def _new_node(self, depth: int, parent: Any = None, key: Any = None) -> Any:
        """A new level at ``depth``, to be keyed by ``key`` in ``parent``
        (which a back-linked map records as its way up when ``key`` is
        immortal)."""
        if depth == len(self.params):
            return self._new_leaf()
        # A map at this depth holds leaves when the next depth is the last;
        # binding the matching inspector here removes isinstance dispatch
        # from the per-operation scan path.
        holds_leaves = depth + 1 == len(self.params)
        inspect = self._inspect_leaf if holds_leaves else self._inspect_map
        if self._link_slot is not None:
            return LinkedRVMap(
                self.params[depth],
                depth,
                self._link_slot,
                on_dead_value=self._notify_subtree,
                inspect_value=inspect,
                up=None if parent is None or type(key) is ParamEntry else (parent.link[0], key),
            )
        return RVMap(
            on_dead_value=self._notify_subtree,
            inspect_value=inspect,
            scan_budget=self._scan_budget,
        )

    def _new_leaf(self) -> Any:
        raise NotImplementedError

    # -- GC plumbing -----------------------------------------------------------

    def _notify_subtree(self, node: Any) -> None:
        """Figure 7A: a key died — notify every monitor under ``node``.

        Leaves and sets are matched by exact type first (the common case
        below a dying key, on every eager death); ``notify`` only flags, so
        their member lists are iterated in place."""
        notify = self._notify
        kind = type(node)
        if kind is Leaf:
            own = node.own
            if own is not None:
                notify(own)
            extensions = node.extensions
            if extensions is not None:
                for monitor in extensions._items:
                    notify(monitor)
        elif kind is RVSet:
            for monitor in node._items:
                notify(monitor)
        elif isinstance(node, RVMap):
            for value in node.all_values():
                self._notify_subtree(value)

    def _inspect_map(self, node: RVMap) -> bool:
        """Section 5.1.1: drop empty submaps during scans."""
        return KEEP if node._buckets else DROP

    def _inspect_leaf(self, node: Any) -> bool:
        raise NotImplementedError

    # -- traversal ---------------------------------------------------------------

    def lookup_entries(self, entries: Sequence[Any], create: bool) -> Any | None:
        """Walk the levels with ledger entries in tree-parameter order.

        Returns the leaf (creating the spine if ``create``), or ``None``.
        On a plain ``RVMap`` every step performs the incremental dead-key
        scan — this is what makes collection *lazy*: detection happens on
        access.  A back-linked map (eager propagation) only probes.  The
        generated kernels inline this walk.
        """
        node = self._root
        for depth, entry in enumerate(entries):
            child = node.get(entry)
            if child is None:
                if not create:
                    return None
                child = self._new_node(depth + 1, node, entry)
                node.put_fresh(entry, child)
            node = child
        return node

    def drop_emptied(self, entries: Sequence[Any]) -> None:
        """Drop the leaf or set at the key path ``entries`` (tree-parameter
        order, every entry alive, the last one immortal) if a scan's
        inspection would (``_inspect_leaf``), with each map this empties
        above it (:meth:`~repro.runtime.rvmap.LinkedRVMap.drop_if_empty`).
        Eager eviction calls it after cleaning the structure: an immortal
        key never dies to take its structure along."""
        node = self._root
        *path, key = entries
        for entry in path:
            node = node._buckets.get(entry)
            if node is None:
                return
        buckets = node._buckets
        value = buckets.get(key)
        if value is not None and self._inspect_leaf(value) is DROP:
            del buckets[key]
            node.drop_if_empty()

    def lookup(self, values: Mapping[str, Any], create: bool) -> Any | None:
        """:meth:`lookup_entries` over a ``{param: object}`` binding
        (reference path, restores, tests)."""
        entry = self._entry
        return self.lookup_entries([entry(values[param]) for param in self.params], create)

    def walk_leaves(self) -> Iterator[Any]:
        """Every leaf currently in the tree (live keys only)."""

        def walk(node: Any) -> Iterator[Any]:
            if isinstance(node, RVMap):
                for value in node.values():
                    yield from walk(value)
            else:
                yield node

        yield from walk(self._root)

    def walk_items(self) -> Iterator[tuple[dict[str, Any], Any]]:
        """Every leaf with its (all-live) key path as a ``{param: object}``
        dict — the checkpoint codec's view of the tree.  Leaves whose spine
        contains a dead key are unreachable by lookup (lookups always carry
        live objects) and are skipped, exactly as a lazy scan would
        eventually purge them."""

        def walk(node: Any, depth: int, values: dict[str, Any]) -> Iterator:
            if isinstance(node, RVMap):
                for referent, value in node.items():
                    yield from walk(
                        value, depth + 1, {**values, self.params[depth]: referent}
                    )
            else:
                yield values, node

        yield from walk(self._root, 0, {})

    def scan_all(self) -> None:
        """Full dead-key scan of every level (``flush_gc`` / tests).

        A zero-parameter structure degenerates to a bare root leaf (e.g. a
        join index with an empty key domain); there is no RVMap above it to
        compact it during scans, so flagged instances are swept here.
        """

        def walk(node: Any) -> None:
            if isinstance(node, RVMap):
                node.scan_all()
                for value in node.values():
                    walk(value)
            elif isinstance(node, RVSet):
                node.compact()
            elif isinstance(node, Leaf):
                if node.own is not None and node.own.flagged:
                    node.own = None
                if node.extensions is not None:
                    node.extensions.compact()

        walk(self._root)

    def release(self) -> None:
        """Tear the structure down for property detach.

        Recursively empties every level and severs the bound-method
        callbacks that tie the RVMaps back to this tree (see
        :meth:`RVMap.release`), so the whole structure — and every monitor
        it holds — becomes reclaimable by reference counting the moment
        the runtime lets go.
        """

        def walk(node: Any) -> None:
            if isinstance(node, RVMap):
                for value in node.all_values():
                    walk(value)
                node.release()

        walk(self._root)


class IndexingTree(_TreeBase):
    """A per-domain tree with :class:`Leaf` bottoms (Figure 6)."""

    def __init__(
        self,
        params: tuple[str, ...],
        tracks_extensions: bool,
        notify: Callable[[MonitorInstance], None],
        ledger: ParamLedger,
        scan_budget: int = 2,
        link_slot: int | None = None,
    ):
        self.tracks_extensions = tracks_extensions
        super().__init__(params, notify, ledger, scan_budget, link_slot)

    def _new_leaf(self) -> Leaf:
        return Leaf(self.tracks_extensions)

    def _inspect_leaf(self, node: Leaf) -> bool:
        """Section 5.1.1: clean a live entry's leaf during scans.

        Fused with the emptiness decision so the common clean leaf costs a
        single pass over its extension set instead of compact + is_empty.
        """
        own = node.own
        if own is not None and own.flagged:
            node.own = own = None
        extensions = node.extensions
        live_extension = False
        if extensions is not None:
            for monitor in extensions._items:
                if monitor.flagged:
                    extensions.compact()
                    live_extension = bool(extensions._items)
                    break
                live_extension = True
        if node.touched is not None or own is not None or live_extension:
            return KEEP
        return DROP


class JoinIndex(_TreeBase):
    """Index of domain-``K`` instances by their ``K ∩ J`` sub-binding.

    With an empty key domain (``K ∩ J = ∅``) the index degenerates to the
    single set of *all* domain-``K`` instances.
    """

    def __init__(
        self,
        key_params: tuple[str, ...],
        notify: Callable[[MonitorInstance], None],
        ledger: ParamLedger,
        scan_budget: int = 2,
        link_slot: int | None = None,
    ):
        super().__init__(key_params, notify, ledger, scan_budget, link_slot)

    def _new_leaf(self) -> RVSet:
        return RVSet()

    def _inspect_leaf(self, node: RVSet) -> bool:
        node.compact()
        return KEEP if node else DROP

    def add(self, values: Mapping[str, Any], monitor: MonitorInstance) -> None:
        bucket = self.lookup(values, create=True)
        bucket.add(monitor)

    def add_entries(self, entries: Sequence[Any], monitor: MonitorInstance) -> None:
        bucket = self.lookup_entries(entries, create=True)
        bucket.add(monitor)

    def candidates(self, values: Mapping[str, Any]) -> Iterator[MonitorInstance]:
        bucket = self.lookup(values, create=False)
        if bucket is None:
            return iter(())
        return iter(bucket.iter_active())
