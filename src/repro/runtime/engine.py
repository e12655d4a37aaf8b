"""The monitoring engine: event dispatch, monitor creation, and lazy GC.

This is the production counterpart of the abstract Algorithm MONITOR
(Figure 5), engineered as in Section 4 of the paper:

* **Indexing trees** (Figure 6): per event-parameter-subset trees locate, in
  a couple of weak-map lookups, every monitor instance more informative
  than the event's binding.
* **Generated dispatch**: every ``(property, event)`` pair is
  specialized at property-compile time into a
  :class:`~repro.spec.dispatch.DispatchPlan` — interned event ids, slot
  indices so hot-path bindings are plain value tuples in tree order, the
  complete creation/join strategy, and validity checks as static
  ``(tree, extraction)`` lists.  Finite-state formalisms step through flat
  :class:`~repro.formalism.fsm.FSMTable` rows.  Rich
  :class:`~repro.core.params.Binding` objects appear only at creation and
  verdict boundaries.  The default ``dispatch="codegen"`` runs each plan
  entry as generated straight-line code (:mod:`repro.spec.codegen`);
  ``"reference"`` selects the retained dict-based interpretation of the
  same semantics.  The dispatch-equivalence suite asserts both produce
  identical verdicts, and pins codegen's monitor lifetimes to a recorded
  table.
* **Enable-set creation pruning** (Chen et al., ASE'09; the companion of
  coenable sets): a monitor for a new parameter instance is created only if
  the *knowledge* it would start from — the maximal defined sub-instance,
  or a compatible instance found through a join index — has a parameter
  domain in the event's ENABLE set.  A "touched bindings" record (the
  role JavaMOP's disable timestamps play) makes skipping sound: a creation
  that would silently lose previously-skipped events is suppressed, because
  such a slice provably cannot reach the goal.
* **Lazy monitor GC** (Section 4.2): RVMaps detect dead parameter keys
  while being accessed, notify the monitors below, the GC strategy decides
  necessity via ALIVENESS/state formulas, unnecessary monitors are flagged,
  and flagged monitors are physically dropped when the structures holding
  them are next touched.  A monitor is reclaimed by the host GC when the
  last structure lets go — counted via ``weakref.finalize`` as the paper's
  CM column.

Every parameter object the engine keys has one entry in the engine's
:class:`~repro.runtime.refs.ParamLedger`, shared by every indexing
structure and monitor of every property.  ``propagation="eager"``
switches to the eager scheme the paper warns about (Section 4.2: "eager
garbage collection ... introduces a very large amount of runtime
overhead"): the ledger's death callback queues each dead entry, and the
deaths are coalesced per event boundary and propagated *before* the next
event.  The propagation is targeted on both dispatch tiers — each dead
entry carries weak back-links to the maps that key it, so only those maps
are touched (:meth:`PropertyRuntime.reap`), and no map of an eager engine
scans incrementally on access; monitors flagged by the
propagation are evicted from every remaining structure immediately (the
Tracematches cost profile, minus the full-scan pathology), by a generated
eviction step on codegen and by :meth:`PropertyRuntime._evict_flagged` on
the reference tier.  Under lazy propagation the callback only stamps the
death.  A full scan of every structure is not a propagation regime: it is
:meth:`MonitoringEngine.flush_gc`, which the equivalence suites call at
each death boundary of a lazy engine as the oracle for eager propagation.

The property set is **dynamic**: the engine consumes a versioned
:class:`~repro.spec.registry.PropertyRegistry` (built implicitly from the
constructor's specs) and supports hot load/unload at event boundaries —
:meth:`MonitoringEngine.attach_property` compiles a fresh dispatch plan
into a fresh slot, :meth:`MonitoringEngine.detach_property` quiesces a
runtime, folds its statistics into the engine totals, and releases its
indexing structures; removal tombstones the slot so indexes held by the
sharded service's routing layer stay valid.
"""

from __future__ import annotations

import threading
import weakref
from functools import partial
from time import perf_counter
from typing import Any, Callable, Iterable, Mapping, Sequence

from ..core.errors import InconsistentEventError, RegistryError, UnknownEventError
from ..core.params import Binding
from ..obs.catalogue import declare as _declare_metric
from ..obs.telemetry import Telemetry, as_telemetry
from ..spec.compiler import CompiledProperty, CompiledSpec
from ..spec.dispatch import _domain_sort_key
from ..spec.registry import PropertyRegistry, normalize_properties
from .gc_strategies import GcStrategy, make_strategy
from .indexing import IndexingTree, JoinIndex, Leaf
from .instance import MonitorInstance
from .refs import ParamEntry, ParamLedger
from .statistics import MonitorStats

__all__ = ["MonitoringEngine", "PropertyRuntime", "SYSTEMS"]

#: Named system presets mapping to (gc strategy, propagation) — the three
#: systems of the paper's evaluation (Section 5).
SYSTEMS: dict[str, tuple[str, str]] = {
    "rv": ("coenable", "lazy"),
    "mop": ("alldead", "lazy"),
    "tm": ("statebased", "eager"),
    "none": ("none", "lazy"),
}

#: Propagation regimes: the paper's lazy design and targeted eager.
PROPAGATIONS = ("lazy", "eager")

#: Verdict callback signature: (property, category, monitor instance).
VerdictCallback = Callable[[CompiledProperty, str, MonitorInstance], None]


def _undeclared(event: str) -> UnknownEventError:
    return UnknownEventError(f"no monitored specification declares event {event!r}")


def _pair_depth(pair: tuple[tuple, Any]) -> int:
    """The depth of a ``(back-link, entry)`` pair's map (see
    :meth:`PropertyRuntime.reap`)."""
    return pair[0][2]


def _fan_out(targets: list[Callable[[Mapping[str, Any]], Any]]) -> Callable:
    """One route over several receiving runtimes, entered in slot order."""
    targets = tuple(targets)

    def route(params: Mapping[str, Any]) -> None:
        for target in targets:
            target(params)

    return route


class _CreationPlan:
    """Static per-event creation strategy for the *reference* dispatch path.

    ``self_domains`` — enable domains ``K ⊊ D(e)``, largest first: the
    defineTo sources among sub-instances of the event binding.
    ``allows_fresh`` — whether ``∅`` is an enable domain (the event can open
    a goal trace, so it may create a monitor from scratch).
    ``joins`` — ``(K, key_domain, index)`` triples for enable domains
    incomparable with ``D(e)``: instances of domain ``K`` compatible with
    the event join into instances of domain ``K ∪ D(e)``.

    The generated kernels bake in the same strategy (plus slot
    extractions), precomputed in :mod:`repro.spec.dispatch`.
    """

    __slots__ = ("self_domains", "allows_fresh", "joins")

    def __init__(self) -> None:
        self.self_domains: list[frozenset[str]] = []
        self.allows_fresh = False
        self.joins: list[tuple[frozenset[str], tuple[str, ...], JoinIndex]] = []


class PropertyRuntime:
    """Everything the engine maintains for one compiled property."""

    #: Disabled runtimes keep their state but receive no events (the engine
    #: drops them from its event index and the selected-dispatch paths).
    enabled = True

    def __init__(
        self,
        prop: CompiledProperty,
        gc: str,
        scan_budget: int,
        on_verdict: VerdictCallback | None,
        ledger: ParamLedger,
        dispatch: str = "codegen",
        slot: int = -1,
        telemetry: "Telemetry | None" = None,
        provenance_get: Callable[[], Any] | None = None,
        attribution: Any = None,
        propagation: str = "lazy",
    ):
        self.prop = prop
        self.slot = slot
        self._provenance_get = provenance_get
        self.stats = MonitorStats()
        self.strategy: GcStrategy = make_strategy(gc, prop)
        self._on_verdict = on_verdict
        #: The engine's identity ledger: every structure keys its entries.
        self.ledger = ledger
        self._serial = 0
        self._event_serial = 0
        #: Collector of monitors flagged during an eager death step (None
        #: outside :meth:`reap`).
        self._flag_sink: list[MonitorInstance] | None = None
        #: Eager propagation: the structures are built of back-linking
        #: maps and deaths arrive through :meth:`reap` (see
        #: :meth:`MonitoringEngine._propagate_deaths`).
        self._eager = propagation == "eager"
        link_slot = slot if self._eager else None

        definition = prop.definition
        self.event_domains: dict[str, frozenset[str]] = {
            event: definition.params_of(event) for event in definition.alphabet
        }
        #: The distinct event domains, in the dispatch plan's fixed order
        #: (every loop over them, and so every checkpoint, is
        #: independent of string hashing).
        self._event_domain_list = prop.dispatch_plan().event_domains
        self._enable_domains: dict[str, frozenset[frozenset[str]]] = dict(
            prop.param_enable
        )
        self.monitor_domains = prop.monitor_domains()
        # One tree per domain of interest; extensions are tracked only where
        # dispatch needs them (domains that are some event's D(e)).
        self.trees: dict[frozenset[str], IndexingTree] = {}
        for domain in sorted(
            self.monitor_domains.union(self._event_domain_list), key=_domain_sort_key
        ):
            self.trees[domain] = IndexingTree(
                params=tuple(sorted(domain)),
                tracks_extensions=domain in self._event_domain_list,
                notify=self._notify_monitor,
                ledger=ledger,
                scan_budget=scan_budget,
                link_slot=link_slot,
            )
        # Join indices are statically known (the dispatch plan lists them);
        # both dispatch paths share the same structures.
        self._join_indices: dict[tuple[frozenset[str], frozenset[str]], JoinIndex] = {
            (join_domain, key_domain): JoinIndex(
                key_params=tuple(sorted(key_domain)),
                notify=self._notify_monitor,
                ledger=ledger,
                scan_budget=scan_budget,
                link_slot=link_slot,
            )
            for join_domain, key_domain in prop.dispatch_plan().join_index_keys
        }
        self._plans: dict[str, _CreationPlan] = {
            event: self._build_plan(event) for event in definition.alphabet
        }
        # Flat-table stepping for finite-state formalisms (two array reads
        # per monitor per event); None → virtual BaseMonitor.step.
        fsm = prop.fsm_dispatch()
        if fsm is not None:
            self._fsm_rows, self._fsm_goal, self._fsm_verdicts = fsm
        else:
            self._fsm_rows = self._fsm_goal = self._fsm_verdicts = None
        #: Keeps the generated kernels' collection-watch weak references
        #: alive until their monitors are reclaimed (the codegen stand-in
        #: for ``weakref.finalize``'s global registry).
        self._collection_refs: set[Any] = set()
        #: Generated per-event kernels (codegen dispatch only; empty dicts
        #: until the first event binds them, see :meth:`_handle_codegen`).
        self._kernels: dict[str, Any] = {}
        #: Timed kernel variants, bound on the first attributed sample.
        self._timed_kernels: dict[str, Any] = {}
        self._kernel_module = None
        #: The eviction step of :meth:`reap`, bound on first use.
        self._evict: Callable[[list[MonitorInstance]], None] | None = None
        #: Called once kernels are bound (the engine re-resolves its routes).
        self._on_kernels_bound: Callable[[], None] | None = None
        if dispatch == "codegen":
            from ..spec.codegen import shared_kernel_cache

            self._kernel_module = shared_kernel_cache.module_for(prop, eager=self._eager)
            self.handle = self._handle_codegen  # type: ignore[method-assign]
        else:
            self.handle = self._handle_reference  # type: ignore[method-assign]
        #: The raw (unwrapped) handle: :meth:`target` hands out kernels
        #: only while ``handle`` is still this object — the instrument
        #: wrapper must not be bypassed.
        self._unwrapped_handle = self.handle
        # Telemetry interposes on the per-instance entry points only when
        # enabled: with telemetry=None (the default) every hot path above
        # is byte-identical to the un-instrumented build.
        if telemetry is not None:
            self._wire_instruments(telemetry, attribution)

    def _wire_instruments(self, telemetry: "Telemetry", plane: Any = None) -> None:
        """Wrap the hot entry points with telemetry and, given ``plane``,
        per-stage attribution (see docs/observability.md).

        ``handle`` gains an exact per-property handled counter (riding the
        sampler tick through :meth:`Counter.add_pull`, no lock) and a
        1-in-N sampled latency histogram labelled (property, event); the
        eager death step ``reap`` gains a sampled purge timer (death
        boundaries can be per-event under retire-on-last-use, so they are
        gated like a hot path) and
        ``scan_all`` an unsampled one (budgeted sweeps are rare; sampling
        them would record nothing).

        Inside an attributed event (``plane.active``, set by the plane's
        boundary observer hooks) a codegen ``handle`` runs the timed
        variant of the generated kernel, which returns the seconds of its
        tree walk and its stepping loop; the rest of the call is charged
        to ``dispatch``.  The GC entry points charge ``gc``.  Every
        attributed slice is added to ``plane.charged`` so the boundary can
        attribute the remainder of the event to ``emit-batch``.
        """
        registry = telemetry.registry
        # Label with spec/formalism, matching the stats bridge: two
        # formalisms compiled from one spec are distinct properties.
        spec = f"{self.prop.spec_name}/{self.prop.formalism}"
        latency = _declare_metric(registry, "repro_engine_event_seconds")
        handled = _declare_metric(registry, "repro_engine_handled_total").labels(spec)
        pause = _declare_metric(registry, "repro_engine_gc_pause_seconds")
        offset = self.slot if self.slot >= 0 else 0
        sampler = telemetry.sampler(offset)
        handled.add_pull(lambda: sampler.ticks)
        raw = self.handle
        children: dict[str, Any] = {}
        purge_pause = pause.labels(spec, "purge")
        scan_pause = pause.labels(spec, "scan")
        purge_sampler = telemetry.sampler(offset + 1)
        inner_scan = self.scan_all
        attributed = plane is not None
        timed = self._timed_kernels
        codegen = self._kernel_module is not None
        if attributed:
            from ..obs.attribution import prop_label

            label = prop_label(self.slot, self.prop.spec_name, self.prop.formalism)
            tree_cell = plane.cell(label, "tree-walk")
            fsm_cell = plane.cell(label, "fsm-step")
            dispatch_cell = plane.cell(label, "dispatch")
            gc_cell = plane.cell(label, "gc")

        def handle(event, values, record=True, pretouched=None):
            sampled = sampler.sample()
            active = attributed and plane.active
            if not (sampled or active):
                return raw(event, values, record, pretouched)
            walk = step = 0.0
            start = perf_counter()
            try:
                if active and codegen:
                    if not timed:
                        from ..spec.codegen import shared_kernel_cache

                        module = shared_kernel_cache.module_for(
                            self.prop, timed=True, eager=self._eager
                        )
                        timed.update(module.bind(self))
                    walk, step = timed[event](values, record, pretouched)
                else:
                    raw(event, values, record, pretouched)
            finally:
                elapsed = perf_counter() - start
                if sampled:
                    child = children.get(event)
                    if child is None:
                        child = children[event] = latency.labels(spec, event)
                    child.observe(elapsed)
                if active:
                    if codegen:
                        tree_cell.add(walk)
                        fsm_cell.add(step)
                    dispatch_cell.add(max(0.0, elapsed - walk - step))
                    plane.charged += elapsed

        def timed_gc(inner, args, timer):
            active = attributed and plane.active
            start = perf_counter()
            try:
                inner(*args)
            finally:
                elapsed = perf_counter() - start
                if timer is not None:
                    timer.observe(elapsed)
                if active:
                    gc_cell.add(elapsed)
                    plane.charged += elapsed

        def death_step(inner):
            def step(dead, found):
                if purge_sampler.sample():
                    return timed_gc(inner, (dead, found), purge_pause)
                if attributed and plane.active:
                    return timed_gc(inner, (dead, found), None)
                return inner(dead, found)

            return step

        def scan_all():
            timed_gc(inner_scan, (), scan_pause)

        self.handle = handle  # type: ignore[method-assign]
        self.reap = death_step(self.reap)  # type: ignore[method-assign]
        self.scan_all = scan_all  # type: ignore[method-assign]

    # -- static precomputation ---------------------------------------------

    def _build_plan(self, event: str) -> _CreationPlan:
        """Reference-path creation plan (mirrored by the dispatch plan)."""
        plan = _CreationPlan()
        event_domain = self.event_domains[event]
        seen_self: set[frozenset[str]] = set()
        for enable_domain in self._enable_domains.get(event, ()):
            if not enable_domain:
                plan.allows_fresh = True
            elif enable_domain < event_domain:
                # A sub-domain source can only hold instances if it is a
                # monitor or event domain (has a tree); the dispatch plan
                # applies the same filter, keeping both paths equivalent
                # even for plans with unrealizable enable domains.
                if enable_domain in self.trees:
                    seen_self.add(enable_domain)
            elif enable_domain <= event_domain or event_domain <= enable_domain:
                # K == D(e): the exact instance already exists if it ever will;
                # K ⊃ D(e): instances of domain K are updated, never created here.
                continue
            elif enable_domain in self.monitor_domains:
                key_domain = enable_domain & event_domain
                index = self._join_indices[(enable_domain, key_domain)]
                plan.joins.append((enable_domain, tuple(sorted(key_domain)), index))
        plan.self_domains = sorted(
            seen_self, key=lambda domain: (-len(domain), tuple(sorted(domain)))
        )
        plan.joins.sort(key=lambda item: (-len(item[0]), tuple(sorted(item[0]))))
        return plan

    # -- GC plumbing -----------------------------------------------------------

    def _notify_monitor(self, monitor: MonitorInstance) -> None:
        """Figure 7A notification: a parameter object below died."""
        if monitor.flagged:
            return
        if self.strategy.is_unnecessary(monitor):
            monitor.flagged = True
            self.stats.record_flag()
            sink = self._flag_sink
            if sink is not None:
                sink.append(monitor)

    def scan_all(self) -> None:
        """Full dead-key scan of every structure (one pass of
        :meth:`MonitoringEngine.flush_gc`)."""
        for tree in self.trees.values():
            tree.scan_all()
        for index in self._join_indices.values():
            index.scan_all()

    def release(self) -> None:
        """Drop every indexing structure this runtime owns.

        The trees' ``notify`` callbacks are bound methods, so runtime and
        trees form reference cycles; clearing the containers here lets
        plain reference counting reclaim the monitors the moment the
        engine detaches the runtime — a detach must not depend on the
        cyclic GC ever running (shard worker processes may not trigger
        it), or "unloaded" monitors would linger indefinitely.
        """
        for tree in self.trees.values():
            tree.release()
        for index in self._join_indices.values():
            index.release()
        self.trees.clear()
        self._join_indices.clear()
        self._plans.clear()
        # Generated kernels close over this runtime (and it over them, via
        # these dicts) — clear them for the same refcount-only guarantee.
        self._kernels.clear()
        self._timed_kernels.clear()
        self._evict = None

    def reap(self, pairs: list[tuple[tuple, Any]], found: list[tuple[str, Any]]) -> None:
        """Eager propagation of coalesced deaths through back-links.

        ``pairs`` lists ``(link, entry)`` for every back-link of a dead
        entry into this runtime's maps (see
        :class:`~repro.runtime.rvmap.LinkedRVMap`).  Shallow maps go first,
        as a walk from the roots would: removing a dead key drops the
        subtree below it, whose maps then never appear, since their weak
        back-links are dead.  A map scans the bucket only while the entry
        is still its key (an explicit ``scan_all`` may have removed it
        already), appending ``(parameter name, entry)`` to ``found``; a map
        that this leaves without keys under an immortal key, which no
        death will take along, leaves its parent (``drop_if_empty``).
        Monitors the notifications flag are then evicted: by the generated
        eviction step on codegen, by :meth:`_evict_flagged` on the
        reference tier.  Cost grows with where the dead objects were keyed, not with the
        number of structures or live keys.
        """
        if len(pairs) > 1:
            pairs.sort(key=_pair_depth)
        flagged: list[MonitorInstance] = []
        self._flag_sink = flagged
        try:
            for link, entry in pairs:
                node = link[0]()
                if node is not None and entry in node._buckets:
                    node._scan_bucket(entry)
                    found.append((link[1], entry))
                    if node.up is not None and not node._buckets:
                        node.drop_if_empty()
        finally:
            self._flag_sink = None
        if flagged:
            evict = self._evict
            if evict is None:
                module = self._kernel_module
                evict = self._evict = (
                    self._evict_flagged if module is None else module.evict_factory(self)
                )
            evict(flagged)

    def _evict_flagged(self, flagged: list[MonitorInstance]) -> None:
        """Drop freshly flagged monitors from every remaining structure.

        Structures whose key path contains a dead object were already
        reaped; the survivors are reachable through each monitor's
        still-live parameters, so eviction is a handful of direct lookups
        instead of a full second scan pass.  A structure whose last key is
        immortal, which no death will take along, is then dropped if the
        cleanup emptied it (``drop_emptied``).  Generated kernels run the
        same steps unrolled per monitor domain (``spec/codegen.py``'s
        eviction factory); the lockstep holds the two to each other.
        """
        for monitor in flagged:
            params = monitor.params
            live = {name for name, entry in params.items() if entry() is not None}
            domain = monitor.domain
            for event_domain in self._event_domain_list:
                if event_domain <= domain and event_domain <= live:
                    tree = self.trees[event_domain]
                    entries = [params[name] for name in tree.params]
                    leaf = tree.lookup_entries(entries, False)
                    if leaf is not None:
                        if leaf.own is monitor:
                            leaf.own = None
                        if leaf.extensions is not None:
                            leaf.extensions.compact()
                        if entries and type(entries[-1]) is not ParamEntry:
                            tree.drop_emptied(entries)
            if domain <= live and domain not in self._event_domain_list:
                tree = self.trees[domain]
                entries = [params[name] for name in tree.params]
                own_leaf = tree.lookup_entries(entries, False)
                if own_leaf is not None and own_leaf.own is monitor:
                    own_leaf.own = None
                    if entries and type(entries[-1]) is not ParamEntry:
                        tree.drop_emptied(entries)
            for (join_domain, key_domain), index in self._join_indices.items():
                if join_domain == domain and key_domain <= live:
                    entries = [params[name] for name in index.params]
                    bucket = index.lookup_entries(entries, False)
                    if bucket is not None:
                        bucket.compact()
                        if entries and type(entries[-1]) is not ParamEntry:
                            index.drop_emptied(entries)

    # -- event processing (generated kernels) -----------------------------------

    def _handle_codegen(
        self,
        event: str,
        values: Mapping[str, Any],
        record: bool = True,
        pretouched: frozenset[frozenset[str]] | None = None,
    ) -> None:
        """The codegen handle before (and under wrappers, after) binding.

        The first event binds every kernel of this runtime, so a runtime
        that never receives an event (a restored engine that is only
        inspected, a paused slot) never pays for its closures.  Binding is
        idempotent and replaces ``handle`` only while it is unwrapped: the
        instrument wrapper keeps calling this method, which then goes
        straight to the bound kernel.
        """
        kernels = self._kernels
        if not kernels:
            kernels = self._kernels = self._kernel_module.bind(self)

            def handle(event, values, record=True, pretouched=None, _kernels=kernels):
                return _kernels[event](values, record, pretouched)

            if self.handle is self._unwrapped_handle:
                self.handle = self._unwrapped_handle = handle  # type: ignore[method-assign]
            if self._on_kernels_bound is not None:
                self._on_kernels_bound()
        return kernels[event](values, record, pretouched)

    def target(self, event: str) -> Callable[[Mapping[str, Any]], Any]:
        """Where the engine's route for ``event`` enters this runtime.

        The bound kernel itself while ``handle`` is unwrapped; otherwise
        ``handle``: under the reference tier, before the first event binds
        the kernels (binding re-resolves the engine's routes), and under an
        instrument wrapper, which must see every call.
        """
        kernel = self._kernels.get(event)
        if kernel is not None and self.handle is self._unwrapped_handle:
            return kernel
        return partial(self.handle, event)

    # -- event processing (reference path) ----------------------------------------

    def _handle_reference(
        self,
        event: str,
        values: Mapping[str, Any],
        record: bool = True,
        pretouched: frozenset[frozenset[str]] | None = None,
    ) -> None:
        """Process one parametric event ``event<values>``.

        ``record=False`` processes without counting the event in the stats:
        the sharded service may deliver one event to several shards but
        designates exactly one to account for it, so merged statistics stay
        equal to a single engine's.

        ``pretouched`` names event domains whose sub-binding of this event
        must be treated as *touched before now* even though no local leaf
        says so — the sharded router's stand-in for touch stamps that were
        delivered to other shards (see ``repro.service.router``).
        """
        if record:
            self.stats.record_event()
        self._event_serial += 1
        event_domain = self.event_domains[event]
        try:
            jvalues = {param: values[param] for param in event_domain}
        except KeyError as exc:
            raise InconsistentEventError(
                f"event {event!r} of {self.prop.spec_name} requires parameter "
                f"{exc.args[0]!r}"
            ) from None
        tree = self.trees[event_domain]
        leaf = tree.lookup(jvalues, create=True)
        # Record that this exact binding has seen an event — the disable
        # knowledge used by the creation-validity check.  Stamping the
        # *first* touch serial up front also pins the fresh leaf against
        # concurrent lazy reclamation (see Leaf.touched).
        if leaf.touched is None:
            leaf.touched = self._event_serial
        # 1. Update every instance more informative than the event binding.
        if leaf.extensions is not None:
            for monitor in leaf.extensions.iter_active():
                self._step(monitor, event)
        # 2. Create newly-relevant instances (enable-pruned defineTo / joins).
        self._create_instances(event, event_domain, jvalues, leaf, pretouched)

    def _step(self, monitor: MonitorInstance, event: str) -> None:
        verdict = monitor.base.step(event)
        monitor.last_event = event
        if verdict in self.prop.goal:
            self._fire_goal(monitor, verdict)

    def _fire_goal(self, monitor: MonitorInstance, verdict: str) -> None:
        self.stats.record_verdict(verdict)
        self.stats.record_handler()
        # Stamp provenance before handlers run so both the property's own
        # handler and the service's verdict callback can read it.  Under a
        # DurableEngine the getter resolves to the WAL's current (segment,
        # seq) coordinates — the WAL is write-ahead, so that seq IS the
        # triggering event's sequence number (see repro.obs.provenance).
        provenance: dict[str, Any] = {
            "property": self.prop.spec_name,
            "formalism": self.prop.formalism,
            "slot": self.slot,
        }
        getter = self._provenance_get
        if getter is not None:
            source = getter()
            if source is not None:
                provenance.update(source())
        monitor.provenance = provenance
        self.prop.fire(verdict, monitor.binding())
        if self._on_verdict is not None:
            self._on_verdict(self.prop, verdict, monitor)

    # -- creation (reference path) -------------------------------------------------

    def _create_instances(
        self,
        event: str,
        event_domain: frozenset[str],
        jvalues: dict[str, Any],
        leaf: Leaf,
        pretouched: frozenset[frozenset[str]] | None = None,
    ) -> None:
        plan = self._plans[event]
        # Target = the event binding itself (defineTo from a sub-instance or
        # from scratch).
        own_alive = leaf.own is not None and not leaf.own.flagged
        if not own_alive and (plan.self_domains or plan.allows_fresh):
            source: MonitorInstance | None = None
            source_domain: frozenset[str] = frozenset()
            found = False
            for domain in plan.self_domains:
                sub_leaf = self.trees[domain].lookup(
                    {param: jvalues[param] for param in domain}, create=False
                )
                if sub_leaf is not None and sub_leaf.own is not None and not sub_leaf.own.flagged:
                    source, source_domain, found = sub_leaf.own, domain, True
                    break
            if found or plan.allows_fresh:
                if self._creation_is_valid(jvalues, source_domain, pretouched):
                    self._create(event, jvalues, source)
        # Join targets: compatible instances of incomparable enable domains.
        for join_domain, key_params, index in plan.joins:
            key_values = {param: jvalues[param] for param in key_params}
            for candidate in index.candidates(key_values):
                candidate_values: dict[str, Any] = {}
                dead = False
                for name, entry in candidate.params.items():
                    value = entry()
                    if value is None:
                        dead = True
                        break
                    candidate_values[name] = value
                if dead or candidate.domain != join_domain:
                    continue
                target_values = {**candidate_values, **jvalues}
                target_domain = frozenset(target_values)
                target_leaf = self.trees[target_domain].lookup(target_values, create=False)
                if (
                    target_leaf is not None
                    and target_leaf.own is not None
                    and not target_leaf.own.flagged
                ):
                    continue
                if self._creation_is_valid(target_values, join_domain):
                    self._create(event, target_values, candidate)

    def _creation_is_valid(
        self,
        target_values: Mapping[str, Any],
        source_domain: frozenset[str],
        pretouched: frozenset[frozenset[str]] | None = None,
    ) -> bool:
        """No past event would be silently lost by creating from the source.

        Invalid when some event binding ``theta_d ⊑ target`` with
        ``dom(theta_d) ⊄ source`` was *touched before the current event*:
        the target's true slice then contains events the source never saw,
        and — by the enable-set theorem — such a slice cannot reach the
        goal, so the instance must not be created at all (JavaMOP's
        disable-timestamp rule).  A touch stamped by the current event does
        not invalidate: the new monitor receives that event itself.
        """
        target_domain = frozenset(target_values)
        for event_domain in self._event_domain_list:
            if not event_domain or not event_domain <= target_domain:
                continue
            if event_domain <= source_domain:
                continue
            if pretouched is not None and event_domain in pretouched:
                # The router vouches that this sub-binding received events
                # on another shard before now (sticky routing's stand-in
                # for a local touch stamp).
                return False
            sub_leaf = self.trees[event_domain].lookup(
                {param: target_values[param] for param in event_domain}, create=False
            )
            if (
                sub_leaf is not None
                and sub_leaf.touched is not None
                and sub_leaf.touched < self._event_serial
            ):
                return False
        return True

    def _create(
        self,
        event: str,
        target_values: Mapping[str, Any],
        source: MonitorInstance | None,
    ) -> None:
        base = source.base.clone() if source is not None else self.prop.template.create()
        entry = self.ledger.entry
        params = {name: entry(value) for name, value in target_values.items()}
        self._serial += 1
        monitor = MonitorInstance(self.prop, base, params, self._serial)
        self._insert(monitor, target_values)
        self.stats.record_creation()
        weakref.finalize(monitor, self.stats.record_collection)
        self._step(monitor, event)

    def _insert(self, monitor: MonitorInstance, values: Mapping[str, Any]) -> None:
        domain = frozenset(values)
        own_leaf = self.trees[domain].lookup(values, create=True)
        own_leaf.own = monitor
        for event_domain in self._event_domain_list:
            if event_domain <= domain:
                leaf = self.trees[event_domain].lookup(
                    {param: values[param] for param in event_domain}, create=True
                )
                if leaf.extensions is not None:
                    leaf.extensions.add(monitor)
        for (join_domain, key_domain), index in self._join_indices.items():
            if join_domain == domain:
                index.add(
                    {param: values[param] for param in key_domain}, monitor
                )

    # -- introspection -------------------------------------------------------------

    def live_instances(self) -> list[MonitorInstance]:
        """Unflagged instances currently reachable through the trees."""
        seen: dict[MonitorInstance, None] = {}
        for tree in self.trees.values():
            for leaf in tree.walk_leaves():
                for monitor in leaf.monitors():
                    if not monitor.flagged:
                        seen[monitor] = None
        return list(seen)

    # -- persistence (the checkpoint codec's view) -------------------------------

    def iter_reachable_instances(self) -> Iterable[MonitorInstance]:
        """Every unflagged instance held by any structure, deduplicated.

        Beyond :meth:`live_instances` this walks the join indices too: an
        instance whose tree paths all died can survive in a join bucket
        under its live key sub-binding, and the codec must capture it there
        or the restored run would under-count its eventual collection.
        """
        seen: dict[MonitorInstance, None] = {}
        for tree in self.trees.values():
            for leaf in tree.walk_leaves():
                for monitor in leaf.monitors():
                    if not monitor.flagged:
                        seen[monitor] = None
        for index in self._join_indices.values():
            for bucket in index.walk_leaves():
                for monitor in bucket:
                    if not monitor.flagged:
                        seen[monitor] = None
        return list(seen)

    def export_persist_state(self, symbol_of: Callable[[Any], str]) -> dict:
        """Serialize this runtime's dynamic state (codec payload).

        Call only on a freshly flushed engine (see
        :func:`repro.persist.codec.snapshot_engine`): flushing delivers all
        pending dead-key notifications and physically removes flagged
        instances, so the remaining state is exactly the
        behavior-determining part.
        """
        monitors = sorted(
            self.iter_reachable_instances(), key=lambda monitor: monitor.serial
        )
        touched = []
        for domain, tree in self.trees.items():
            for values, leaf in tree.walk_items():
                if leaf.touched is not None:
                    touched.append(
                        {
                            "params": {
                                name: symbol_of(value) for name, value in values.items()
                            },
                            "serial": leaf.touched,
                        }
                    )
        return {
            "serial": self._serial,
            "event_serial": self._event_serial,
            "stats": self.stats.snapshot(),
            "monitors": [monitor.snapshot_payload(symbol_of) for monitor in monitors],
            "touched": touched,
        }

    def import_persist_state(self, payload: Mapping[str, Any], tokens: Mapping[str, Any]) -> None:
        """Rebuild dynamic state from :meth:`export_persist_state` output.

        Must run on a virgin runtime (no events processed).  ``tokens``
        maps live symbols to their restored stand-in objects; insertion
        order follows monitor serials, reproducing the live engine's
        creation-ordered set contents.
        """
        self._serial = payload["serial"]
        self._event_serial = payload["event_serial"]
        # In place: generated kernels and collection callbacks bound this
        # very stats object when the runtime was built.
        vars(self.stats).update(vars(MonitorStats.from_snapshot(payload["stats"])))
        for record in payload["touched"]:
            values = {name: tokens[symbol] for name, symbol in record["params"].items()}
            leaf = self.trees[frozenset(values)].lookup(values, create=True)
            leaf.touched = record["serial"]
        for monitor_payload in payload["monitors"]:
            monitor = MonitorInstance.from_payload(
                self.prop, monitor_payload, tokens, self.ledger
            )
            self._restore_insert(monitor)
            weakref.finalize(monitor, self.stats.record_collection)

    def _restore_insert(self, monitor: MonitorInstance) -> None:
        """Dead-aware :meth:`_insert`: entries are re-created only along
        all-live key paths — the paths a freshly flushed live engine still
        holds (dead-keyed entries were purged before the snapshot)."""
        live: dict[str, Any] = {}
        dead: set[str] = set()
        for name, entry in monitor.params.items():
            value = entry()
            if value is None:
                dead.add(name)
            else:
                live[name] = value
        domain = monitor.domain
        if not dead:
            own_leaf = self.trees[domain].lookup(live, create=True)
            own_leaf.own = monitor
        for event_domain in self._event_domain_list:
            if event_domain <= domain and not (event_domain & dead):
                leaf = self.trees[event_domain].lookup(
                    {name: live[name] for name in event_domain}, create=True
                )
                if leaf.extensions is not None:
                    leaf.extensions.add(monitor)
        for (join_domain, key_domain), index in self._join_indices.items():
            if join_domain == domain and not (key_domain & dead):
                index.add({name: live[name] for name in key_domain}, monitor)


class MonitoringEngine:
    """Hosts any number of compiled specifications over one event stream.

    ``gc`` selects the monitor-collection strategy (``none`` / ``alldead`` /
    ``coenable`` / ``statebased``), ``propagation`` is ``lazy`` (the paper's
    design) or ``eager`` (targeted boundary propagation — the Tracematches
    profile);
    ``system`` is a convenience preset: ``rv`` / ``mop`` / ``tm`` /
    ``none`` (see :data:`SYSTEMS`).  ``scan_budget`` bounds how many keys
    the incremental dead-key scan of each map access checks; it applies to
    lazy propagation only, since an eager engine's back-linked maps never
    scan incrementally.  ``dispatch`` selects ``"codegen"``
    (default) — per-(property, event) kernels generated and
    ``exec``-compiled from the dispatch plan (:mod:`repro.spec.codegen`),
    bound on each property's first event — or the retained ``"reference"``
    interpretation, the oracle the equivalence suites hold codegen to.
    Both produce bit-identical verdicts and creation counts.
    """

    def __init__(
        self,
        specs: Iterable[CompiledSpec | CompiledProperty] | CompiledSpec | CompiledProperty,
        gc: str | None = None,
        propagation: str | None = None,
        system: str | None = None,
        scan_budget: int = 2,
        on_verdict: VerdictCallback | None = None,
        dispatch: str = "codegen",
        telemetry: "Telemetry | bool | None" = None,
    ):
        if system is not None:
            if gc is not None or propagation is not None:
                raise ValueError("pass either system= or gc=/propagation=, not both")
            gc, propagation = SYSTEMS[system]
        gc = gc if gc is not None else "coenable"
        propagation = propagation if propagation is not None else "lazy"
        if propagation not in PROPAGATIONS:
            raise ValueError(f"unknown propagation {propagation!r}")
        if dispatch not in ("reference", "codegen"):
            raise ValueError(f"unknown dispatch {dispatch!r}")
        self.gc = gc
        self.propagation = propagation
        self.scan_budget = scan_budget
        self.dispatch = dispatch
        self._on_verdict = on_verdict
        #: Telemetry plane (None = off: hot paths identical to the
        #: un-instrumented build).  See :mod:`repro.obs`.
        self.telemetry: Telemetry | None = None
        #: Set by a persistence wrapper (DurableEngine) to a zero-argument
        #: callable returning the WAL coordinates of the event currently
        #: being dispatched; runtimes merge it into verdict provenance.
        self.provenance_source: Callable[[], Mapping[str, Any]] | None = None
        self._batch_emit = self._batch_selected = None
        #: Boundary observers in registration order (:meth:`add_observer`);
        #: :meth:`_refresh_hooks` caches one tuple per hook from them.
        self._observers: list[Any] = []
        self._refresh_hooks()
        #: Per-stage overhead attribution plane (``repro.obs.attribution``),
        #: built only when the telemetry policy asks for it; None otherwise
        #: (no wrappers installed, hot paths untouched).
        self.attribution = None
        #: Optional flight recorder (``enable_flight_recorder``); None by
        #: default, in which case nothing is recorded.
        self.flight_recorder = None

        #: The engine's own property registry.  A registry argument is
        #: cloned (shard engines mirror the service's registry operations
        #: on independent copies); any other accepted form builds a fresh
        #: one, so an engine constructed from a plain property list behaves
        #: exactly as before.
        if isinstance(specs, PropertyRegistry):
            self.registry = specs.clone()
        else:
            self.registry = PropertyRegistry.from_specs(specs)
        self.properties: list[CompiledProperty | None] = self.registry.properties()

        #: Ledger entries of objects that died since the last event
        #: boundary (eager propagation only).
        self._pending_dead: list[Any] = []
        #: Guards every _pending_dead mutation: the ledger's death callback
        #: (any thread) and the boundary swap in _propagate_deaths (shard
        #: worker threads) may touch it concurrently; an unguarded swap
        #: would strand appends on the orphaned list and leak their keys.
        self._dead_lock = threading.Lock()
        #: One entry per parameter object, shared by every runtime.  Its
        #: clock counts the events the engine has taken in, so each entry
        #: records the event ordinal of its object's death.
        self.ledger = ParamLedger(
            on_death=None if propagation == "lazy" else self._note_dead
        )
        #: Statistics of detached properties, folded into the engine totals
        #: (slot -> (spec name, formalism, final stats)).
        self._retired: dict[int, tuple[str, str, MonitorStats]] = {}
        self.runtimes: list[PropertyRuntime | None] = []
        for entry in self.registry.entries:
            if entry.removed:
                self.runtimes.append(None)
                self._retired[entry.index] = (
                    entry.spec_name, entry.formalism, MonitorStats()
                )
                continue
            runtime = self._build_runtime(entry.index, entry.prop)
            runtime.enabled = entry.enabled
            self.runtimes.append(runtime)
        self._rebuild_event_index()
        resolved = as_telemetry(telemetry)
        if resolved is not None:
            self.enable_telemetry(resolved)

    def enable_telemetry(self, telemetry: "Telemetry | bool") -> "Telemetry":
        """Attach a telemetry plane to an already-built engine.

        The constructor's ``telemetry`` argument comes through here too, as
        does a path that cannot thread it (checkpoint restore): every live
        runtime is wired, and the attribution plane, when the policy asks
        for one, joins the boundary observers.  Raises if telemetry is
        already attached.
        """
        if self.telemetry is not None:
            raise ValueError("telemetry is already attached to this engine")
        resolved = as_telemetry(telemetry)
        if resolved is None:
            raise ValueError("enable_telemetry requires a Telemetry (or True)")
        self.telemetry = resolved
        batch = _declare_metric(resolved.registry, "repro_engine_batch_size")
        self._batch_emit = batch.labels("emit")
        self._batch_selected = batch.labels("selected")
        if resolved.attribution:
            from ..obs.attribution import AttributionPlane

            self.attribution = AttributionPlane(resolved)
        for runtime in self.runtimes:
            if runtime is not None:
                runtime._wire_instruments(resolved, self.attribution)
        if self.attribution is not None:
            self.add_observer(self.attribution)
        # Wrapped handles must be routed through, not around.
        self._rebuild_event_index()
        return resolved

    # -- boundary observers ------------------------------------------------------

    def add_observer(self, observer: Any) -> Any:
        """Append ``observer`` to the engine's boundary observers.

        ``observer`` defines any subset of these hooks, each called in
        registration order: ``before_event(event, params)`` and
        ``after_event(event, params)`` around every event any emit entry
        point takes in (``after_event`` also when dispatch raises);
        ``on_deaths(dead)`` at each event boundary where eager
        propagation removed dead keys (``dead`` maps parameter names to
        the dead objects' ledger serials);
        ``on_registry_op(op, **fields)`` after every attach / detach /
        enable; and ``on_verdict(prop, category, monitor)`` per verdict,
        after the constructor's ``on_verdict`` callback.  The write-ahead
        log, trace recorder, flight recorder and attribution plane all
        attach this way.  Returns ``observer``.
        """
        if observer in self._observers:
            raise ValueError("observer is already registered on this engine")
        self._observers.append(observer)
        self._refresh_hooks()
        return observer

    def remove_observer(self, observer: Any) -> None:
        """Unregister an observer (``ValueError`` when it is not registered)."""
        self._observers.remove(observer)
        self._refresh_hooks()

    def _refresh_hooks(self) -> None:
        """Cache one tuple per hook, so an engine without observers pays a
        single falsy ``_tapped`` check per emit call."""

        def hooks(name: str) -> tuple[Callable[..., Any], ...]:
            found = (getattr(observer, name, None) for observer in self._observers)
            return tuple(hook for hook in found if hook is not None)

        self._before = hooks("before_event")
        self._after = hooks("after_event")
        self._tapped = bool(self._before or self._after)
        self._death_hooks = hooks("on_deaths")
        self._registry_hooks = hooks("on_registry_op")
        callback = () if self._on_verdict is None else (self._on_verdict,)
        self._verdict_hooks = callback + hooks("on_verdict")

    def _report_verdict(self, prop: CompiledProperty, category: str, monitor: Any) -> None:
        for hook in self._verdict_hooks:
            hook(prop, category, monitor)

    def enable_flight_recorder(self, recorder: Any = None) -> Any:
        """Attach a flight recorder (``repro.obs.recorder``) to this engine.

        The recorder registers as a boundary observer: it records every
        event after dispatch, eager death boundaries, registry operations
        and verdicts.  Events carry the WAL coordinates of
        ``provenance_source`` when a persistence wrapper set one.
        Returns the attached recorder.
        """
        from ..obs.recorder import FlightRecorder

        if self.flight_recorder is not None:
            raise ValueError("a flight recorder is already attached to this engine")
        if recorder is None:
            recorder = FlightRecorder()
        if self.telemetry is not None and recorder.dump_counter is None:
            recorder.dump_counter = _declare_metric(
                self.telemetry.registry, "repro_recorder_dumps_total"
            )
        self.flight_recorder = recorder.attach(self)
        return recorder

    def _build_runtime(self, index: int, prop: CompiledProperty) -> PropertyRuntime:
        runtime = PropertyRuntime(
            prop,
            gc=self.gc,
            scan_budget=self.scan_budget,
            on_verdict=self._report_verdict,
            ledger=self.ledger,
            dispatch=self.dispatch,
            slot=index,
            telemetry=self.telemetry,
            provenance_get=lambda: self.provenance_source,
            attribution=self.attribution,
            propagation=self.propagation,
        )
        runtime._on_kernels_bound = self._rebuild_event_index
        return runtime

    def _rebuild_event_index(self) -> None:
        """Recompute the route table over enabled slots.

        Runs only at registry boundaries (attach / detach / enable /
        disable), after telemetry wraps the runtimes, and when a runtime's
        first event binds its kernels, so the per-event hot path stays one
        dict lookup and one call.  ``_routes`` maps each event to the one
        receiving runtime's :meth:`PropertyRuntime.target`, or to a
        fan-out over several, in slot order.  Events declared only by
        *disabled* runtimes are remembered separately: a paused property's
        events are silently dropped, never reported as undeclared — pausing
        must be transparent to emitters.
        """
        receivers: dict[str, list[PropertyRuntime]] = {}
        declared: set[str] = set()
        for runtime in self.runtimes:
            if runtime is None:
                continue
            for event in runtime.prop.definition.alphabet:
                declared.add(event)
                if runtime.enabled:
                    receivers.setdefault(event, []).append(runtime)
        self._paused_events = declared - set(receivers)
        routes: dict[str, Callable[[Mapping[str, Any]], Any]] = {}
        for event, runtimes in receivers.items():
            targets = [runtime.target(event) for runtime in runtimes]
            routes[event] = _fan_out(targets) if len(targets) > 1 else targets[0]
        self._routes = routes

    # -- dynamic property lifecycle ----------------------------------------------

    @property
    def registry_epoch(self) -> int:
        """Monotonic version of the property set (bumped by every hot op)."""
        return self.registry.epoch

    def attach_property(
        self,
        item: Any,
        name: str | None = None,
        origin: "Mapping[str, Any] | None" = None,
        enabled: bool = True,
    ) -> list[int]:
        """Hot-load properties at the current event boundary.

        ``item`` is anything the constructor accepts (source text, compiled
        specs/properties, paper-property providers); each resulting
        property gets a fresh slot, a freshly compiled
        :class:`~repro.spec.dispatch.DispatchPlan` with new indexing trees
        and join indices, and re-interned event ids.  Returns the new slot
        indexes.  ``origin`` overrides the recorded re-materialization
        origin (the service passes its own through so process-mode workers
        and snapshots agree).
        """
        normalized = normalize_properties(item)
        if name is not None and len(normalized) != 1:
            raise RegistryError(
                f"cannot attach {len(normalized)} properties under one name "
                f"{name!r}"
            )
        indexes: list[int] = []
        for prop, derived_origin in normalized:
            entry = self.registry.add(
                prop,
                name=name,
                origin=origin if origin is not None else derived_origin,
                enabled=enabled,
            )
            runtime = self._build_runtime(entry.index, prop)
            runtime.enabled = enabled
            self.runtimes.append(runtime)
            self.properties.append(prop)
            indexes.append(entry.index)
        self._rebuild_event_index()
        for hook in self._registry_hooks:
            hook("attach", name=name, slots=list(indexes), enabled=enabled)
        return indexes

    def detach_property(self, ref: Any) -> MonitorStats:
        """Hot-unload one property at the current event boundary.

        The runtime is quiesced first: coalesced pending deaths are
        propagated (to every runtime: this is an event boundary), then a
        two-pass full scan flags and sweeps everything a boundary
        propagation would have.  Its final statistics are folded into the
        engine totals (and returned); dropping the runtime releases its
        indexing trees and join indices wholesale.
        """
        entry = self.registry.entry(ref)
        index = entry.index
        runtime = self.runtimes[index]
        if runtime is None:
            raise RegistryError(f"property {entry.name!r} is already detached")
        if self._pending_dead:
            self._propagate_deaths()
        for _pass in range(2):
            runtime.scan_all()
        stats = runtime.stats
        runtime.release()
        self.registry.remove(index)
        self.runtimes[index] = None
        self.properties[index] = None
        self._retired[index] = (entry.spec_name, entry.formalism, stats)
        self._rebuild_event_index()
        for hook in self._registry_hooks:
            hook("detach", ref=str(ref))
        return stats

    def set_property_enabled(self, ref: Any, enabled: bool) -> None:
        """Pause or resume one property without touching its state."""
        entry = (
            self.registry.enable(ref) if enabled else self.registry.disable(ref)
        )
        runtime = self.runtimes[entry.index]
        if runtime is None:  # pragma: no cover - registry refuses removed slots
            raise RegistryError(f"property {entry.name!r} is detached")
        if runtime.enabled != enabled:
            runtime.enabled = enabled
            self._rebuild_event_index()
        for hook in self._registry_hooks:
            hook("enable", ref=str(ref), enabled=enabled)

    # -- the public event interface ---------------------------------------------

    def emit(self, event: str, _strict: bool = True, **params: Any) -> None:
        """Emit one parametric event to every property that declares it.

        Each receiving property restricts the binding to its own ``D(e)``;
        a property missing a required parameter raises
        :class:`InconsistentEventError`.  With ``_strict=False`` an event no
        property declares is silently dropped — the instrumentation layer
        uses this because a woven program point may produce events for
        specifications that are not currently monitored.
        """
        self.ledger.clock += 1
        if self._tapped:
            self._emit_tapped(event, params, _strict)
            return
        if self._pending_dead:
            self._propagate_deaths()
        route = self._routes.get(event)
        if route is not None:
            route(params)
        elif _strict and event not in self._paused_events:
            raise _undeclared(event)

    def emit_values(
        self, event: str, values: Mapping[str, Any], _strict: bool = True
    ) -> None:
        """:meth:`emit` with the parameter binding as one mapping.

        Semantically identical to ``emit(event, **values)`` without the
        keyword repack — the replay hot loop already holds the dict.
        Boundary observers see it exactly as they see :meth:`emit`.
        """
        self.ledger.clock += 1
        if self._tapped:
            self._emit_tapped(event, values, _strict)
            return
        if self._pending_dead:
            self._propagate_deaths()
        route = self._routes.get(event)
        if route is not None:
            route(values)
        elif _strict and event not in self._paused_events:
            raise _undeclared(event)

    def emit_batch(
        self,
        events: Iterable[tuple[str, Mapping[str, Any]]],
        _strict: bool = True,
    ) -> int:
        """Emit a batch of ``(event, params)`` pairs; returns how many were
        dispatched to at least one property.

        Per-event semantics are identical to :meth:`emit` — eager death
        propagation still happens at every event boundary, and boundary
        observers see every event, each between its own hooks — but the
        per-call overhead (attribute lookups, the Python call itself) is
        amortized across the batch.  Events are dispatched in order, never
        grouped or reordered: lazy GC discovers deaths on access, so the
        exact operation order is part of the observable semantics the
        equivalence suite pins down.
        """
        if not isinstance(events, list):
            events = list(events)
        # Deaths inside a batch are stamped with its last event's ordinal.
        self.ledger.clock += len(events)
        if self._batch_emit is not None:
            self._batch_emit.observe(len(events))
        accepted = 0
        if self._tapped:
            for event, params in events:
                accepted += self._emit_tapped(event, params, _strict)
            return accepted
        for event, params in events:
            if self._pending_dead:
                self._propagate_deaths()
            route = self._routes.get(event)
            if route is not None:
                route(params)
                accepted += 1
            elif _strict and event not in self._paused_events:
                raise _undeclared(event)
        return accepted

    def _emit_tapped(
        self, event: str, params: Mapping[str, Any], _strict: bool
    ) -> int:
        """Dispatch one event between its ``before_event`` and
        ``after_event`` hooks; returns 1 when a property received it."""
        for hook in self._before:
            hook(event, params)
        try:
            if self._pending_dead:
                self._propagate_deaths()
            route = self._routes.get(event)
            if route is not None:
                route(params)
                return 1
            if _strict and event not in self._paused_events:
                raise _undeclared(event)
            return 0
        finally:
            for hook in self._after:
                hook(event, params)

    def emit_binding(self, event: str, binding: Binding) -> None:
        """Emit with an explicit :class:`Binding` (test/bench convenience)."""
        self.emit(event, **dict(binding.items()))

    def emit_selected_batch(
        self,
        deliveries: Sequence[tuple[str, Mapping[str, Any], tuple]],
    ) -> None:
        """Apply a batch of routed deliveries (the shard workers' hot loop).

        Each delivery is ``(event, params, (prop_indexes, record_indexes,
        pretouched, count_only))`` — the shape the service router emits and
        the shard queues/process pipes carry.

        The sharded service routes one emitted event to different shards
        per property (each property has its own anchor parameter), so a
        shard engine must dispatch to exactly the properties the router
        selected, never to every property declaring the event: each
        selected runtime is entered at its ``handle``, not through the
        event's route.  ``prop_indexes`` index into :attr:`properties`;
        ``record_indexes`` (``None``: all of them) name the subset for
        which this engine is the designated event-accountant (see
        ``PropertyRuntime.handle``); ``pretouched`` maps property indexes
        to the event domains the router's sticky state flags as touched
        elsewhere; ``count_only`` properties record the event without
        processing it (the router proved the event can do nothing on any
        shard).  Boundary observers and eager death propagation see each
        delivery as :meth:`emit` sees an event.  Batching amortizes the
        per-event call and attribute overhead at the queue-drain boundary.
        """
        self.ledger.clock += len(deliveries)
        if self._batch_selected is not None:
            self._batch_selected.observe(len(deliveries))
        before, after = self._before, self._after
        runtimes = self.runtimes
        for event, params, (prop_indexes, record_indexes, pretouched, count_only) in deliveries:
            for hook in before:
                hook(event, params)
            try:
                if self._pending_dead:
                    self._propagate_deaths()
                for index in count_only:
                    counter = runtimes[index]
                    if counter is not None and counter.enabled:
                        counter.stats.record_event()
                for index in prop_indexes:
                    runtime = runtimes[index]
                    if runtime is None or not runtime.enabled:
                        continue
                    if event in runtime.event_domains:
                        runtime.handle(
                            event,
                            params,
                            record=record_indexes is None or index in record_indexes,
                            pretouched=None if pretouched is None else pretouched.get(index),
                        )
            finally:
                for hook in after:
                    hook(event, params)

    # -- GC control -----------------------------------------------------------------

    def _note_dead(self, entry: Any) -> None:
        """The ledger's death callback under eager propagation."""
        with self._dead_lock:
            self._pending_dead.append(entry)

    def _propagate_deaths(self) -> None:
        """Eager boundary propagation of all deaths since the last event.

        Each dead entry's back-links name the maps that key it; they are
        grouped by owning runtime and handed to
        :meth:`PropertyRuntime.reap`, so the step touches only those maps.
        """
        with self._dead_lock:
            pending, self._pending_dead = self._pending_dead, []
        # Paused runtimes receive deaths too: a long-paused property must
        # not accumulate dead keys until it is resumed.
        by_slot: dict[int, list[tuple[tuple, Any]]] = {}
        for entry in pending:
            links = entry.links
            if links:
                for link in links:
                    pairs = by_slot.get(link[3])
                    if pairs is None:
                        by_slot[link[3]] = [(link, entry)]
                    else:
                        pairs.append((link, entry))
        found: list[tuple[str, Any]] = []
        runtimes = self.runtimes
        for slot in sorted(by_slot):
            runtime = runtimes[slot]
            if runtime is not None:
                runtime.reap(by_slot[slot], found)
        if found and self._death_hooks:
            dead: dict[str, set[int]] = {}
            for name, entry in found:
                dead.setdefault(name, set()).add(entry.serial)
            for hook in self._death_hooks:
                hook(dead)

    def flush_gc(self) -> None:
        """Fully scan every structure: purge dead keys, notify, compact.

        Neither propagation regime needs this (lazy detects on access,
        eager reaps through back-links); it exists for end-of-run
        accounting, checkpoints, and the equivalence suites, whose
        full-scan oracle is a lazy engine flushed at every death boundary.

        Two passes, mark-and-sweep style: the first pass may flag a monitor
        *after* some structure holding it was already scanned (scan order
        over the weak maps is arbitrary), so a second pass sweeps the
        now-flagged instances out of every remaining structure.
        """
        with self._dead_lock:
            del self._pending_dead[:]
        for _pass in range(2):
            for runtime in self.runtimes:
                if runtime is not None:
                    runtime.scan_all()

    # -- results ------------------------------------------------------------------------

    def _iter_stats(self) -> Iterable[tuple[str, str, MonitorStats]]:
        """Every stats record, live runtimes first, then retired slots."""
        for runtime in self.runtimes:
            if runtime is not None:
                yield runtime.prop.spec_name, runtime.prop.formalism, runtime.stats
        for spec_name, formalism, stats in self._retired.values():
            yield spec_name, formalism, stats

    def stats(self) -> dict[tuple[str, str], MonitorStats]:
        """Per-property statistics keyed by (spec name, formalism).

        Detached properties stay in the totals: their final statistics were
        folded into the engine at detach time.  When a detached slot shares
        its key with a live runtime (the property was re-registered), the
        records are merged into a fresh object, leaving the live counters
        untouched.
        """
        merged: dict[tuple[str, str], MonitorStats] = {}
        for spec_name, formalism, stats in self._iter_stats():
            key = (spec_name, formalism)
            previous = merged.get(key)
            if previous is None:
                merged[key] = stats
            else:
                merged[key] = MonitorStats.merged([previous, stats])
        return merged

    def stats_for(self, spec_name: str, formalism: str | None = None) -> MonitorStats:
        """One property's counters, merged over formalisms unless one is
        named; raises :class:`KeyError` for unknown properties."""
        matches = [
            stats
            for name, form, stats in self._iter_stats()
            if name == spec_name and (formalism is None or form == formalism)
        ]
        if not matches:
            raise KeyError(f"no runtime for {spec_name}/{formalism}")
        if len(matches) == 1:
            return matches[0]
        return MonitorStats.merged(matches)

    def config(self) -> dict[str, Any]:
        """The constructor knobs that must match across a snapshot/restore
        boundary (the codec records and verifies them)."""
        return {
            "gc": self.gc,
            "propagation": self.propagation,
            "scan_budget": self.scan_budget,
        }

    def stats_snapshot(self) -> dict[str, dict]:
        """Every property's counters as plain JSON-serializable dicts,
        keyed ``"<spec name>/<formalism>"`` — the shape shard workers (or
        operators' metric scrapers) ship across process boundaries.
        Includes retired properties' folded statistics."""
        return {
            f"{spec_name}/{formalism}": stats.snapshot()
            for (spec_name, formalism), stats in self.stats().items()
        }

    def total_live_monitors(self) -> int:
        """Created-minus-collected over every property (incl. retired)."""
        return sum(
            stats.live_monitors for _spec, _form, stats in self._iter_stats()
        )

    def metrics_snapshot(self) -> dict[str, Any]:
        """Live telemetry merged with the stats-derived ``repro_monitor_*``
        series (the paper's E/M/FM/CM counters) — the single-engine
        counterpart of ``MonitorService.metrics_snapshot``."""
        from ..obs.metrics import merge_snapshots
        from ..obs.telemetry import stats_to_metrics

        parts = []
        if self.telemetry is not None:
            parts.append(self.telemetry.snapshot())
        parts.append(stats_to_metrics(self.stats_snapshot()))
        return merge_snapshots(*parts)
