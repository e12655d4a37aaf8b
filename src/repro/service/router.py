"""Anchor-parameter routing: partitioning parametric events across shards.

The single-engine runtime already partitions monitor state by parameter
object — the indexing trees of Figure 6 fan out on the *first* parameter
of each domain.  The sharded service lifts the same idea one level up:
each compiled property designates an **anchor parameter**, and the object
bound to the anchor decides which :class:`~repro.runtime.engine.MonitoringEngine`
shard owns every slice involving it.

Soundness.  A parameter ``a`` is a *valid anchor* for a property iff it
occurs in **every realizable monitor domain** (the closure
:meth:`~repro.spec.compiler.CompiledProperty.monitor_domains` computes from
the enable sets).  Then:

* every monitor instance binds the anchor, so "the shard of a monitor" is
  well defined — ``shard(θ) = hash(id(θ(a))) mod N``;
* an event carrying the anchor is routed to exactly that shard, where every
  monitor it can update or create lives (creation targets contain the event
  binding, so they agree on the anchor value);
* an event *not* carrying the anchor reaches the owning shard of every
  slice it belongs to (see the delivery strategies below).  It cannot
  create monitors on wrong shards — a fresh creation would need ``∅`` in
  its enable set, which would put an anchor-free domain into
  ``monitor_domains()`` and disqualify the anchor; defineTo/join creations
  need a source instance, which exists only on the owning shard.

A property with **no** valid anchor (``monitor_domains()`` intersect to
``∅``) is *pinned*: all its events go to one designated shard, which runs
it exactly as a single engine would.

Anchor-free delivery strategies
-------------------------------

*Broadcast* (always sound): the event goes to every shard.  The "touched
bindings" record behind the creation-validity check (JavaMOP's disable
timestamps) stays complete on every shard, but the hottest events of the
paper's workloads (UNSAFEITER's ``next``) are anchor-free, so broadcasting
makes total work grow with the shard count.

*Sticky association* (the scaling path): for properties whose every
monitor creation copies the binding of a single anchor-carrying event —
statically: the enable sets induce **no join plans** — the router learns,
per parameter object, the set of shards that have received events carrying
it.  An anchor-free event is delivered only to the union of its
parameters' associated shards; an object never seen with an anchor is
delivered nowhere (there is provably no monitor to step).  What broadcast
provided implicitly — the *touched* knowledge that suppresses unsound
creations — is reconstructed exactly: the router tracks, per anchor-free
event binding, the shards that received **all** of its touch events, and
flags later anchor-carrying deliveries with the event domains whose
touches the destination shard missed (*pretouch*).  The engine treats a
pretouched domain as a touched binding in its creation-validity check, so
suppressed creations match the single-engine run one for one.

Sticky soundness sketch (no-join properties): every creation target equals
the domain of the anchor-carrying event that triggers it, so all of a
monitor's parameter values were carried by that one routed event — hence
each parameter's association contains the monitor's shard before any
anchor-free event must step it; stepping is complete.  Creation validity
is complete because anchor-carrying sub-bindings are shard-consistent by
hashing, and anchor-free sub-bindings are covered by pretouch.

Routing hashes parameter objects by identity (``id``), matching the
identity semantics of bindings and of the weak-keyed RVMaps; a bit mixer
spreads CPython's 16-byte-aligned addresses across shards.  Association
tables hold weak guards (strong for immortal values, as the engine's
:class:`~repro.runtime.refs.ParamLedger` does) so dead objects cannot leak or —
worse — let a recycled ``id`` inherit stale routing state.
"""

from __future__ import annotations

import threading
import weakref
from dataclasses import dataclass
from typing import Any, Iterator, Mapping, Sequence

from ..spec.compiler import CompiledProperty

__all__ = [
    "choose_anchor",
    "valid_anchors",
    "has_join_plans",
    "PropertyRoute",
    "Delivery",
    "ShardRouter",
]

_MASK64 = (1 << 64) - 1


def _mix(value: int) -> int:
    """SplitMix64 finalizer — spreads aligned ``id()`` values uniformly."""
    value &= _MASK64
    value = ((value ^ (value >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    value = ((value ^ (value >> 27)) * 0x94D049BB133111EB) & _MASK64
    return value ^ (value >> 31)


def valid_anchors(prop: CompiledProperty) -> frozenset[str]:
    """Parameters occurring in every realizable monitor domain."""
    domains = prop.monitor_domains()
    if not domains:
        return frozenset()
    valid = set(next(iter(domains)))
    for domain in domains:
        valid &= domain
    return frozenset(valid)


def choose_anchor(prop: CompiledProperty) -> str | None:
    """The anchor the router uses for ``prop``, or ``None`` (pinned).

    Among the valid anchors, prefer the one carried by the most events —
    that minimizes anchor-free traffic — breaking ties alphabetically so
    the choice is deterministic across runs and processes.
    """
    candidates = valid_anchors(prop)
    if not candidates:
        return None
    coverage = {
        param: sum(
            1
            for event in prop.definition.alphabet
            if param in prop.definition.params_of(event)
        )
        for param in candidates
    }
    return min(coverage, key=lambda param: (-coverage[param], param))


def has_join_plans(prop: CompiledProperty) -> bool:
    """Whether any event's enable set induces a cross-instance join.

    Mirrors the engine's creation-plan construction: a join exists when an
    enable domain ``K`` is realizable and incomparable with the event's
    ``D(e)``.  Join-free properties qualify for sticky routing: every
    creation target is exactly one event's binding.
    """
    domains = prop.monitor_domains()
    for event in prop.definition.alphabet:
        event_domain = prop.definition.params_of(event)
        for enable_domain in prop.param_enable.get(event, ()):
            if not enable_domain:
                continue
            if enable_domain <= event_domain or event_domain <= enable_domain:
                continue
            if enable_domain in domains:
                return True
    return False


@dataclass(frozen=True)
class PropertyRoute:
    """How one property's events travel across shards."""

    index: int
    prop: CompiledProperty
    anchor: str | None
    pinned_shard: int | None
    sticky: bool

    @property
    def is_pinned(self) -> bool:
        return self.pinned_shard is not None


#: One per-shard delivery: (property indexes, recording indexes or None for
#: "all of them", per-property pretouched domains or None, count-only
#: property indexes).
Delivery = tuple[
    tuple[int, ...],
    "frozenset[int] | None",
    "dict[int, frozenset[frozenset[str]]] | None",
    tuple[int, ...],
]


class _StickyState:
    """Per-property association and touch tracking for sticky routing."""

    __slots__ = ("assoc", "touch_all", "touch_index", "guards")

    def __init__(self) -> None:
        #: id(obj) -> bitmask of shards that received events carrying obj.
        self.assoc: dict[int, int] = {}
        #: (domain key, id tuple) -> bitmask of shards that received EVERY
        #: anchor-free touch event for that exact binding (AND of masks).
        self.touch_all: dict[tuple, int] = {}
        #: id(obj) -> touch_all keys involving obj (for purge on death).
        self.touch_index: dict[int, list[tuple]] = {}
        #: id(obj) -> weak guard (or the object itself when immortal);
        #: keeps entries valid across CPython id reuse.
        self.guards: dict[int, Any] = {}


class _PropPlan:
    """Static routing decision for (event, property)."""

    __slots__ = ("index", "kind", "anchor", "params", "free_key", "pretouch_candidates")

    def __init__(self, index: int, kind: str):
        self.index = index
        #: "anchored" | "sticky_free" | "broadcast" | "pinned"
        self.kind = kind
        self.anchor: str | None = None
        #: The property's parameters of this event (sticky bookkeeping).
        self.params: tuple[str, ...] = ()
        #: (domain frozenset, sorted params) — the touch key of a
        #: sticky anchor-free event.
        self.free_key: tuple[frozenset[str], tuple[str, ...]] | None = None
        #: Anchor-free domains ⊆ D(e) whose missed touches an anchored
        #: delivery must report: (domain frozenset, sorted params).
        self.pretouch_candidates: tuple[tuple[frozenset[str], tuple[str, ...]], ...] = ()


class ShardRouter:
    """Routes parametric events over ``shards`` engine shards.

    :meth:`route` maps one event to per-shard :data:`Delivery` lists.
    Routing mutates sticky-association state, so the router serializes
    itself with an internal lock — safe to call from multiple emitters.
    """

    def __init__(self, properties: "Sequence[CompiledProperty | None]", shards: int):
        if shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards}")
        self.shards = shards
        #: Slot-aligned with the owning service's registry: removed slots
        #: hold ``None`` and are never routed to.
        self.properties: list[CompiledProperty | None] = list(properties)
        self._full_mask = (1 << shards) - 1
        self._lock = threading.RLock()
        self.routes: list[PropertyRoute | None] = [
            None if prop is None else self._route_for(index, prop)
            for index, prop in enumerate(self.properties)
        ]
        self._sticky: dict[int, _StickyState] = {
            route.index: _StickyState()
            for route in self.routes
            if route is not None and route.sticky
        }
        #: id(obj) -> (shard, guard): restored objects whose monitors already
        #: live on a specific shard (their new ``id`` would hash elsewhere).
        self._pins: dict[int, tuple[int, Any]] = {}
        self._plans: dict[str, list[_PropPlan]] = {}
        for route in self.routes:
            if route is not None:
                self._install_plans(route)

    # -- dynamic property set ----------------------------------------------

    def add_property(self, prop: CompiledProperty) -> int:
        """Route a hot-loaded property; returns its (appended) slot index.

        The caller (the service, under its emit lock and after a shard
        barrier) guarantees no event is in flight across the switch, so
        the new plans take effect between two routed events on every
        shard simultaneously.
        """
        with self._lock:
            index = len(self.properties)
            route = self._route_for(index, prop)
            self.properties.append(prop)
            self.routes.append(route)
            if route.sticky:
                self._sticky[index] = _StickyState()
            self._install_plans(route)
            return index

    def remove_property(self, index: int) -> None:
        """Stop routing one slot: drop its plans and sticky state."""
        with self._lock:
            route = self.routes[index]
            if route is None:
                raise ValueError(f"property slot {index} is not routed")
            for event in route.prop.definition.alphabet:
                plans = self._plans.get(event)
                if plans is None:
                    continue
                remaining = [plan for plan in plans if plan.index != index]
                if remaining:
                    self._plans[event] = remaining
                else:
                    del self._plans[event]
            self._sticky.pop(index, None)
            self.routes[index] = None
            self.properties[index] = None

    def _install_plans(self, route: PropertyRoute) -> None:
        definition = route.prop.definition
        free_domains = [
            (definition.params_of(event), tuple(sorted(definition.params_of(event))))
            for event in sorted(definition.alphabet)
            if route.anchor is not None
            and route.anchor not in definition.params_of(event)
        ]
        # Distinct anchor-free domains (several events may share one).
        seen: set[frozenset[str]] = set()
        distinct_free = []
        for domain, params in free_domains:
            if domain not in seen:
                seen.add(domain)
                distinct_free.append((domain, params))
        for event in definition.alphabet:
            event_domain = definition.params_of(event)
            plan = _PropPlan(route.index, "pinned")
            if route.is_pinned:
                pass
            elif route.anchor in event_domain:
                plan.kind = "anchored"
                plan.anchor = route.anchor
                plan.params = tuple(sorted(event_domain))
                if route.sticky:
                    plan.pretouch_candidates = tuple(
                        (domain, params)
                        for domain, params in distinct_free
                        if domain <= event_domain
                    )
            elif route.sticky:
                plan.kind = "sticky_free"
                plan.params = tuple(sorted(event_domain))
                plan.free_key = (event_domain, plan.params)
            else:
                plan.kind = "broadcast"
            self._plans.setdefault(event, []).append(plan)

    def _route_for(self, index: int, prop: CompiledProperty) -> PropertyRoute:
        anchor = choose_anchor(prop)
        if anchor is None:
            # No parameter pins every slice: run the property whole on one
            # shard (spread pinned properties round-robin by index).
            return PropertyRoute(index, prop, None, index % self.shards, False)
        return PropertyRoute(index, prop, anchor, None, not has_join_plans(prop))

    # -- sticky state -------------------------------------------------------

    def _guard(self, state: _StickyState, value: Any) -> None:
        key = id(value)
        guard = state.guards.get(key)
        if guard is not None:
            # Live guard for the same object, or an immortal held strongly.
            if guard is value or (isinstance(guard, weakref.ref) and guard() is value):
                return
            self._purge(state, key)  # stale entry from a recycled id
        try:
            state.guards[key] = weakref.ref(value, lambda _ref, key=key: self._on_death(state, key))
        except TypeError:
            state.guards[key] = value  # immortal: hold strongly, never purge

    def _on_death(self, state: _StickyState, key: int) -> None:
        with self._lock:
            self._purge(state, key)

    @staticmethod
    def _purge(state: _StickyState, key: int) -> None:
        state.guards.pop(key, None)
        state.assoc.pop(key, None)
        for touch_key in state.touch_index.pop(key, ()):
            state.touch_all.pop(touch_key, None)

    # -- the hot path -------------------------------------------------------

    def shard_of(self, value: Any) -> int:
        """The shard owning slices anchored at ``value`` (by identity).

        Checkpoint-restored objects are *pinned* to the shard whose engine
        snapshot holds their state (see :meth:`pin_shard`); everything else
        hashes."""
        if self._pins:
            pinned = self._pins.get(id(value))
            if pinned is not None:
                shard, guard = pinned
                if guard is value or (
                    isinstance(guard, weakref.ref) and guard() is value
                ):
                    return shard
        return _mix(id(value)) % self.shards

    def pin_shard(self, value: Any, shard: int) -> None:
        """Permanently route slices anchored at ``value`` to ``shard``.

        Service restore pins every anchor object named by a checkpoint:
        its monitors were restored into a specific shard engine, and the
        identity hash of the fresh stand-in object would send future
        events elsewhere.  Pins hold weak guards (strong for immortals)
        and vanish with the object."""
        key = id(value)
        try:
            guard: Any = weakref.ref(
                value, lambda _ref, key=key: self._unpin(key)
            )
        except TypeError:
            guard = value
        with self._lock:
            self._pins[key] = (shard, guard)

    def _unpin(self, key: int) -> None:
        with self._lock:
            self._pins.pop(key, None)

    def route(self, event: str, params: Mapping[str, Any]) -> Iterator[tuple[int, Delivery]]:
        """Yield ``(shard, delivery)`` pairs for one event.

        Unknown events yield nothing — the caller decides strictness.
        """
        plans = self._plans.get(event)
        if plans is None:
            return iter(())
        if self.shards == 1:
            members = tuple(plan.index for plan in plans)
            return iter([(0, (members, None, None, ()))])
        return self._route_multi(plans, params)

    def _route_multi(
        self, plans: list[_PropPlan], params: Mapping[str, Any]
    ) -> Iterator[tuple[int, Delivery]]:
        props_at: dict[int, list[int]] = {}
        records_at: dict[int, list[int]] = {}
        pretouch_at: dict[int, dict[int, frozenset[frozenset[str]]]] = {}
        count_only: list[int] = []
        with self._lock:
            for plan in plans:
                if plan.kind == "anchored":
                    shard = self.shard_of(params[plan.anchor])
                    props_at.setdefault(shard, []).append(plan.index)
                    records_at.setdefault(shard, []).append(plan.index)
                    state = self._sticky.get(plan.index)
                    if state is not None:
                        self._note_anchored(state, plan, params, shard, pretouch_at)
                elif plan.kind == "sticky_free":
                    state = self._sticky[plan.index]
                    mask = 0
                    for name in plan.params:
                        mask |= state.assoc.get(id(params[name]), 0)
                    self._note_free(state, plan, params, mask)
                    if mask == 0:
                        # No shard holds a slice for these objects: the event
                        # steps nothing and (per enable sets) creates nothing;
                        # only the event count survives, on shard 0.
                        count_only.append(plan.index)
                        continue
                    recorded = False
                    for shard in range(self.shards):
                        if (mask >> shard) & 1:
                            props_at.setdefault(shard, []).append(plan.index)
                            if not recorded:
                                records_at.setdefault(shard, []).append(plan.index)
                                recorded = True
                elif plan.kind == "broadcast":
                    for shard in range(self.shards):
                        props_at.setdefault(shard, []).append(plan.index)
                    records_at.setdefault(0, []).append(plan.index)
                else:  # pinned
                    route = self.routes[plan.index]
                    props_at.setdefault(route.pinned_shard, []).append(plan.index)
                    records_at.setdefault(route.pinned_shard, []).append(plan.index)
        for shard, members in props_at.items():
            recording_list = records_at.get(shard, [])
            recording = None if len(recording_list) == len(members) else frozenset(recording_list)
            pretouched = pretouch_at.get(shard)
            extra = tuple(count_only) if shard == 0 else ()
            yield shard, (tuple(members), recording, pretouched, extra)
        if count_only and 0 not in props_at:
            yield 0, ((), frozenset(), None, tuple(count_only))

    def _note_anchored(
        self,
        state: _StickyState,
        plan: _PropPlan,
        params: Mapping[str, Any],
        shard: int,
        pretouch_at: dict[int, dict[int, frozenset[frozenset[str]]]],
    ) -> None:
        bit = 1 << shard
        for name in plan.params:
            value = params[name]
            self._guard(state, value)
            state.assoc[id(value)] = state.assoc.get(id(value), 0) | bit
        missed: list[frozenset[str]] = []
        for domain, names in plan.pretouch_candidates:
            touch_key = (domain, tuple(id(params[name]) for name in names))
            mask = state.touch_all.get(touch_key)
            if mask is not None and not (mask >> shard) & 1:
                missed.append(domain)
        if missed:
            pretouch_at.setdefault(shard, {})[plan.index] = frozenset(missed)

    def _note_free(
        self,
        state: _StickyState,
        plan: _PropPlan,
        params: Mapping[str, Any],
        mask: int,
    ) -> None:
        domain, names = plan.free_key
        ids = []
        for name in names:
            value = params[name]
            self._guard(state, value)
            ids.append(id(value))
            if mask:
                state.assoc[id(value)] = state.assoc.get(id(value), 0) | mask
        touch_key = (domain, tuple(ids))
        previous = state.touch_all.get(touch_key)
        if previous is None:
            for key in ids:
                state.touch_index.setdefault(key, []).append(touch_key)
            state.touch_all[touch_key] = mask
        else:
            state.touch_all[touch_key] = previous & mask

    # -- persistence --------------------------------------------------------

    def snapshot_sticky(self, symbol_of) -> dict:
        """Serialize the sticky association/touch state (JSON-safe).

        Part of a service checkpoint: without it, a restored service would
        re-learn associations from scratch and could deliver anchor-free
        events to too few shards (missed steps) or miss pretouch flags
        (unsound creations).  Entries whose guard object died are skipped —
        they cannot influence future routing (lookups carry live objects).
        """
        state_payload: dict[str, dict] = {}
        with self._lock:
            for prop_index, state in self._sticky.items():
                assoc: dict[str, int] = {}
                for key, mask in state.assoc.items():
                    value = self._guarded_value(state, key)
                    if value is not None:
                        assoc[symbol_of(value)] = mask
                touches = []
                for (domain, ids), mask in state.touch_all.items():
                    symbols = []
                    for key in ids:
                        value = self._guarded_value(state, key)
                        if value is None:
                            break
                        symbols.append(symbol_of(value))
                    else:
                        touches.append([sorted(domain), symbols, mask])
                state_payload[str(prop_index)] = {"assoc": assoc, "touch_all": touches}
        return {"shards": self.shards, "sticky": state_payload}

    def restore_sticky(self, payload: Mapping[str, Any], tokens: Mapping[str, Any]) -> None:
        """Rebuild sticky state from :meth:`snapshot_sticky` over restored
        token objects (symbols missing from ``tokens`` are skipped — the
        object did not survive the checkpoint)."""
        if payload.get("shards") != self.shards:
            from ..core.errors import ServiceError

            raise ServiceError(
                f"sticky snapshot was taken with {payload.get('shards')} shards, "
                f"router has {self.shards}"
            )
        with self._lock:
            for prop_key, record in payload.get("sticky", {}).items():
                state = self._sticky.get(int(prop_key))
                if state is None:
                    continue
                for symbol, mask in record.get("assoc", {}).items():
                    value = tokens.get(symbol)
                    if value is None:
                        continue
                    self._guard(state, value)
                    state.assoc[id(value)] = mask
                for domain_list, symbols, mask in record.get("touch_all", ()):
                    values = [tokens.get(symbol) for symbol in symbols]
                    if any(value is None for value in values):
                        continue
                    ids = []
                    for value in values:
                        self._guard(state, value)
                        ids.append(id(value))
                    touch_key = (frozenset(domain_list), tuple(ids))
                    if touch_key not in state.touch_all:
                        for key in ids:
                            state.touch_index.setdefault(key, []).append(touch_key)
                    state.touch_all[touch_key] = mask

    @staticmethod
    def _guarded_value(state: _StickyState, key: int) -> Any | None:
        guard = state.guards.get(key)
        if isinstance(guard, weakref.ref):
            return guard()
        return guard

    # -- introspection ------------------------------------------------------

    def declared(self, event: str) -> bool:
        """Whether any routed property declares ``event``."""
        return event in self._plans

    def declaring_indexes(self, event: str) -> frozenset[int]:
        """Property slots declaring ``event`` (load-shedding's drop test:
        an event only sheddable properties declare can be dropped whole)."""
        return frozenset(plan.index for plan in self._plans.get(event, ()))

    def describe(self) -> list[dict[str, Any]]:
        """Human-readable routing table (examples / debugging)."""
        table = []
        for route in self.routes:
            if route is None:
                continue
            free_events = sorted(
                event
                for event in route.prop.definition.alphabet
                if route.anchor is not None
                and route.anchor not in route.prop.definition.params_of(event)
            )
            table.append(
                {
                    "property": f"{route.prop.spec_name}/{route.prop.formalism}",
                    "anchor": route.anchor,
                    "pinned_shard": route.pinned_shard,
                    "anchor_free_events": free_events,
                    "anchor_free_delivery": (
                        "sticky" if route.sticky else "broadcast"
                    ) if free_events else "none",
                }
            )
        return table
