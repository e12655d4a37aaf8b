"""The monitoring engine: event dispatch, monitor creation, and lazy GC.

This is the production counterpart of the abstract Algorithm MONITOR
(Figure 5), engineered as in Section 4 of the paper:

* **Indexing trees** (Figure 6): per event-parameter-subset trees locate, in
  a couple of weak-map lookups, every monitor instance more informative
  than the event's binding.
* **Compiled dispatch** (the default): every ``(property, event)`` pair is
  specialized at property-compile time into a
  :class:`~repro.spec.dispatch.DispatchPlan` — interned event ids, slot
  indices so hot-path bindings are plain value tuples in tree order, the
  complete creation/join strategy, and validity checks as static
  ``(tree, extraction)`` lists.  Finite-state formalisms step through flat
  :class:`~repro.formalism.fsm.FSMTable` rows — two array reads per monitor
  per event.  Rich :class:`~repro.core.params.Binding` objects appear only
  at creation and verdict boundaries.  ``dispatch="reference"`` selects the
  retained dict-based interpretation of the same semantics; the
  dispatch-equivalence suite asserts both produce identical verdicts.
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

``propagation="eager"`` switches to the eager scheme the paper warns about
(Section 4.2: "eager garbage collection ... introduces a very large amount
of runtime overhead"): parameter deaths are coalesced per event boundary
and propagated *before* the next event.  The propagation is targeted — only
the indexing trees whose domain contains a dead parameter's position are
rescanned, and only the buckets of the known-dead ids; monitors flagged by
the propagation are evicted from every remaining structure immediately
(the Tracematches cost profile, minus the full-scan pathology).
``propagation="eager_full"`` keeps the historical full-scan-per-boundary
behavior for the ablation benchmark.

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
from time import perf_counter
from typing import Any, Callable, Iterable, Mapping, Sequence

from ..core.errors import InconsistentEventError, RegistryError, UnknownEventError
from ..core.params import Binding
from ..obs.catalogue import declare as _declare_metric
from ..obs.telemetry import Telemetry, as_telemetry
from ..spec.compiler import CompiledProperty, CompiledSpec
from ..spec.dispatch import DispatchPlan
from ..spec.registry import PropertyRegistry, normalize_properties
from .gc_strategies import GcStrategy, make_strategy
from .indexing import IndexingTree, JoinIndex, Leaf
from .instance import MonitorInstance
from .refs import ParamRef
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

#: Propagation regimes: the paper's lazy design, targeted eager, and the
#: historical full-scan eager (ablation only).
PROPAGATIONS = ("lazy", "eager", "eager_full")

#: Verdict callback signature: (property, category, monitor instance).
VerdictCallback = Callable[[CompiledProperty, str, MonitorInstance], None]


class _CreationPlan:
    """Static per-event creation strategy for the *reference* dispatch path.

    ``self_domains`` — enable domains ``K ⊊ D(e)``, largest first: the
    defineTo sources among sub-instances of the event binding.
    ``allows_fresh`` — whether ``∅`` is an enable domain (the event can open
    a goal trace, so it may create a monitor from scratch).
    ``joins`` — ``(K, key_domain, index)`` triples for enable domains
    incomparable with ``D(e)``: instances of domain ``K`` compatible with
    the event join into instances of domain ``K ∪ D(e)``.

    The compiled path precomputes the same strategy (plus slot extractions)
    in :mod:`repro.spec.dispatch`.
    """

    __slots__ = ("self_domains", "allows_fresh", "joins")

    def __init__(self) -> None:
        self.self_domains: list[frozenset[str]] = []
        self.allows_fresh = False
        self.joins: list[tuple[frozenset[str], tuple[str, ...], JoinIndex]] = []


class _ResolvedCheck:
    """A creation-validity probe bound to its tree."""

    __slots__ = ("domain", "tree", "extract")

    def __init__(self, domain: frozenset, tree: IndexingTree, extract: tuple[int, ...]):
        self.domain = domain
        self.tree = tree
        self.extract = extract


class _ResolvedSource:
    """A defineTo source domain bound to its tree."""

    __slots__ = ("tree", "extract", "checks")

    def __init__(self, tree, extract, checks):
        self.tree = tree
        self.extract = extract
        self.checks = checks


class _ResolvedInsert:
    """Registration schedule for freshly created monitors of one domain."""

    __slots__ = ("params", "own_tree", "own_is_event_domain", "ext_entries", "join_entries")

    def __init__(self, params, own_tree, own_is_event_domain, ext_entries, join_entries):
        self.params = params
        self.own_tree = own_tree
        self.own_is_event_domain = own_is_event_domain
        self.ext_entries = ext_entries
        self.join_entries = join_entries


class _ResolvedJoin:
    """A join plan bound to its index, target tree and insert schedule."""

    __slots__ = (
        "join_domain",
        "join_params",
        "index",
        "key_extract",
        "target_tree",
        "merge",
        "checks",
        "check_target",
        "insert",
    )

    def __init__(self, join_domain, join_params, index, key_extract, target_tree, merge, checks, check_target, insert):
        self.join_domain = join_domain
        self.join_params = join_params
        self.index = index
        self.key_extract = key_extract
        self.target_tree = target_tree
        self.merge = merge
        self.checks = checks
        self.check_target = check_target
        self.insert = insert


class _EventDispatch:
    """One event's fully resolved fast-path strategy."""

    __slots__ = (
        "event",
        "event_id",
        "domain",
        "params",
        "tree",
        "self_sources",
        "allows_fresh",
        "fresh_checks",
        "joins",
        "has_creation",
        "check_event_leaf",
        "insert",
    )

    def __init__(self, event, event_id, domain, params, tree):
        self.event = event
        self.event_id = event_id
        self.domain = domain
        self.params = params
        self.tree = tree
        self.self_sources: tuple[_ResolvedSource, ...] = ()
        self.allows_fresh = False
        self.fresh_checks: tuple[_ResolvedCheck, ...] = ()
        self.joins: tuple[_ResolvedJoin, ...] = ()
        self.has_creation = False
        self.check_event_leaf = True
        self.insert: _ResolvedInsert | None = None


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
        on_param_registered: Callable[[str, Any], None] | None,
        dispatch: str = "compiled",
        slot: int = -1,
        telemetry: "Telemetry | None" = None,
        provenance_get: Callable[[], Any] | None = None,
        attribution: Any = None,
    ):
        self.prop = prop
        self.slot = slot
        self._provenance_get = provenance_get
        self.stats = MonitorStats()
        self.strategy: GcStrategy = make_strategy(gc, prop)
        self._on_verdict = on_verdict
        self._on_param_registered = on_param_registered
        self._serial = 0
        self._event_serial = 0
        #: Collector of monitors flagged during a targeted eager purge
        #: (None outside :meth:`collect_deaths`).
        self._flag_sink: list[MonitorInstance] | None = None

        definition = prop.definition
        plan: DispatchPlan = prop.dispatch_plan()
        self.plan = plan
        self.event_domains: dict[str, frozenset[str]] = {
            event: definition.params_of(event) for event in definition.alphabet
        }
        self._event_domain_set = set(self.event_domains.values())
        self._enable_domains: dict[str, frozenset[frozenset[str]]] = dict(
            prop.param_enable
        )
        self.monitor_domains = prop.monitor_domains()
        # One tree per domain of interest; extensions are tracked only where
        # dispatch needs them (domains that are some event's D(e)).
        self.trees: dict[frozenset[str], IndexingTree] = {}
        for domain in self.monitor_domains | self._event_domain_set:
            self.trees[domain] = IndexingTree(
                params=tuple(sorted(domain)),
                tracks_extensions=domain in self._event_domain_set,
                notify=self._notify_monitor,
                scan_budget=scan_budget,
            )
        # Join indices are statically known (the compiled plan lists them);
        # both dispatch paths share the same structures.
        self._join_indices: dict[tuple[frozenset[str], frozenset[str]], JoinIndex] = {
            (join_domain, key_domain): JoinIndex(
                key_params=tuple(sorted(key_domain)),
                notify=self._notify_monitor,
                scan_budget=scan_budget,
            )
            for join_domain, key_domain in plan.join_index_keys
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
        self._dispatch = self._resolve_dispatch(plan)
        #: Keeps the generated kernels' collection-watch weak references
        #: alive until their monitors are reclaimed (the codegen stand-in
        #: for ``weakref.finalize``'s global registry).
        self._collection_refs: set[Any] = set()
        #: Generated per-event kernels (codegen dispatch only; empty dicts
        #: otherwise so the engine's batch fast path can probe cheaply).
        self._kernels: dict[str, Any] = {}
        self._batch_kernels: dict[str, Any] = {}
        self._kernel_module = None
        if dispatch == "compiled":
            self.handle = self._handle_compiled  # type: ignore[method-assign]
        elif dispatch == "codegen":
            from ..spec.codegen import bind_kernels

            kernels, batch_kernels, module = bind_kernels(self)
            self._kernels = kernels
            self._batch_kernels = batch_kernels
            self._kernel_module = module

            def _codegen_handle(
                event, values, record=True, pretouched=None, _kernels=kernels
            ):
                return _kernels[event](values, record, pretouched)

            self.handle = _codegen_handle  # type: ignore[method-assign]
        else:
            self.handle = self._handle_reference  # type: ignore[method-assign]
        #: The raw (unwrapped) handle: the engine's codegen batch fast path
        #: may only call kernels directly while ``handle`` is still this
        #: object — telemetry/attribution wrappers must not be bypassed.
        self._unwrapped_handle = self.handle
        # Telemetry interposes on the per-instance entry points only when
        # enabled: with telemetry=None (the default) every hot path above
        # is byte-identical to the un-instrumented build.  Attribution
        # wraps first (closest to the raw handle) so the sampled latency
        # timer above it still brackets the whole call.
        if attribution is not None:
            self._wire_attribution(attribution, dispatch in ("compiled", "codegen"))
        if telemetry is not None:
            self._wire_telemetry(telemetry)

    def _wire_telemetry(self, telemetry: "Telemetry") -> None:
        """Wrap the hot entry points with exact counters and sampled timers.

        ``handle`` gains an exact per-property handled counter plus a
        1-in-N sampled latency histogram labelled (property, event);
        ``collect_deaths`` gains a sampled purge timer (death boundaries
        can be per-event under retire-on-last-use, so it is gated like a
        hot path) and ``scan_all`` an unsampled one (budgeted sweeps are
        rare; sampling them would record nothing).  The handled count
        rides the sampler tick through :meth:`Counter.add_pull` — the
        steady-state per-event cost is one wrapper call and one sampler
        tick, no lock.
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
        inner_handle = self.handle
        children: dict[str, Any] = {}

        def handle(event, values, record=True, pretouched=None):
            if not sampler.sample():
                return inner_handle(event, values, record, pretouched)
            start = perf_counter()
            try:
                return inner_handle(event, values, record, pretouched)
            finally:
                child = children.get(event)
                if child is None:
                    child = children[event] = latency.labels(spec, event)
                child.observe(perf_counter() - start)

        self.handle = handle  # type: ignore[method-assign]

        purge_pause = pause.labels(spec, "purge")
        scan_pause = pause.labels(spec, "scan")
        purge_sampler = telemetry.sampler(offset + 1)
        inner_collect = self.collect_deaths
        inner_scan = self.scan_all

        def collect_deaths(dead):
            if not purge_sampler.sample():
                return inner_collect(dead)
            start = perf_counter()
            try:
                inner_collect(dead)
            finally:
                purge_pause.observe(perf_counter() - start)

        def scan_all():
            start = perf_counter()
            try:
                inner_scan()
            finally:
                scan_pause.observe(perf_counter() - start)

        self.collect_deaths = collect_deaths  # type: ignore[method-assign]
        self.scan_all = scan_all  # type: ignore[method-assign]

    def _wire_attribution(self, plane: Any, compiled: bool) -> None:
        """Wrap the entry points with per-stage attribution (see obs docs).

        Outside a sampled event (``plane.active`` false — the plane's
        boundary observer hooks own that flag) every call falls straight
        through to the raw path; inside one, the compiled handle runs
        the timed decomposed clone and GC entry points charge the ``gc``
        stage.  Each wrapper also adds its elapsed time to
        ``plane.charged`` so the boundary can attribute the remainder of
        the event to the engine-level ``emit-batch`` stage.

        ``compiled`` is true for both the ``"compiled"`` and
        ``"codegen"`` dispatch modes: the generated kernels are
        semantically identical to :meth:`_handle_compiled`, so a sampled
        emit runs the decomposed compiled clone and keeps the
        ``dispatch`` / ``tree-walk`` / ``fsm-step`` stage labels exact
        (see docs/dispatch-kernels.md for the one caveat: attributed
        samples measure the interpreted plan, not the generated code).
        """
        from ..obs.attribution import prop_label

        label = prop_label(self.slot, self.prop.spec_name, self.prop.formalism)
        tree_cell = plane.cell(label, "tree-walk")
        fsm_cell = plane.cell(label, "fsm-step")
        dispatch_cell = plane.cell(label, "dispatch")
        gc_cell = plane.cell(label, "gc")
        inner_handle = self.handle

        if compiled:
            attributed = self._handle_compiled_attributed

            def handle(event, values, record=True, pretouched=None):
                if not plane.active:
                    return inner_handle(event, values, record, pretouched)
                start = perf_counter()
                try:
                    return attributed(
                        event, values, record, pretouched,
                        tree_cell, fsm_cell, dispatch_cell,
                    )
                finally:
                    plane.charged += perf_counter() - start
        else:

            def handle(event, values, record=True, pretouched=None):
                if not plane.active:
                    return inner_handle(event, values, record, pretouched)
                start = perf_counter()
                try:
                    return inner_handle(event, values, record, pretouched)
                finally:
                    elapsed = perf_counter() - start
                    dispatch_cell.add(elapsed)
                    plane.charged += elapsed

        self.handle = handle  # type: ignore[method-assign]

        inner_collect = self.collect_deaths
        inner_scan = self.scan_all

        def collect_deaths(dead):
            if not plane.active:
                return inner_collect(dead)
            start = perf_counter()
            try:
                inner_collect(dead)
            finally:
                elapsed = perf_counter() - start
                gc_cell.add(elapsed)
                plane.charged += elapsed

        def scan_all():
            if not plane.active:
                return inner_scan()
            start = perf_counter()
            try:
                inner_scan()
            finally:
                elapsed = perf_counter() - start
                gc_cell.add(elapsed)
                plane.charged += elapsed

        self.collect_deaths = collect_deaths  # type: ignore[method-assign]
        self.scan_all = scan_all  # type: ignore[method-assign]

    # -- static precomputation ---------------------------------------------

    def _build_plan(self, event: str) -> _CreationPlan:
        """Reference-path creation plan (mirrored by the compiled plan)."""
        plan = _CreationPlan()
        event_domain = self.event_domains[event]
        seen_self: set[frozenset[str]] = set()
        for enable_domain in self._enable_domains.get(event, ()):
            if not enable_domain:
                plan.allows_fresh = True
            elif enable_domain < event_domain:
                # A sub-domain source can only hold instances if it is a
                # monitor or event domain (has a tree); the compiled path
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

    def _resolve_dispatch(self, plan: DispatchPlan) -> dict[str, _EventDispatch]:
        """Bind the static plan to this runtime's trees and indices."""

        def resolve_checks(checks) -> tuple[_ResolvedCheck, ...]:
            return tuple(
                _ResolvedCheck(check.domain, self.trees[check.domain], check.extract)
                for check in checks
            )

        inserts: dict[frozenset, _ResolvedInsert] = {}
        for domain, ip in plan.insert_plans.items():
            inserts[domain] = _ResolvedInsert(
                params=ip.params,
                own_tree=self.trees[domain],
                own_is_event_domain=ip.own_is_event_domain,
                ext_entries=tuple(
                    (self.trees[ext_domain], extract)
                    for ext_domain, extract in ip.extension_entries
                ),
                join_entries=tuple(
                    (self._join_indices[key], extract)
                    for key, extract in ip.join_entries
                ),
            )
        resolved: dict[str, _EventDispatch] = {}
        for event, ep in plan.event_plans.items():
            ed = _EventDispatch(
                event, ep.event_id, ep.domain, ep.params, self.trees[ep.domain]
            )
            ed.self_sources = tuple(
                _ResolvedSource(
                    self.trees[src.domain], src.extract, resolve_checks(src.checks)
                )
                for src in ep.self_sources
                if src.domain in self.trees
            )
            ed.allows_fresh = ep.allows_fresh
            ed.fresh_checks = resolve_checks(ep.fresh_checks)
            ed.joins = tuple(
                _ResolvedJoin(
                    join_domain=jp.join_domain,
                    join_params=jp.join_params,
                    index=self._join_indices[(jp.join_domain, frozenset(jp.key_params))],
                    key_extract=jp.key_extract,
                    target_tree=self.trees[jp.target_domain],
                    merge=jp.merge,
                    checks=resolve_checks(jp.checks),
                    check_target=jp.check_target,
                    insert=inserts[jp.target_domain],
                )
                for jp in ep.joins
            )
            ed.has_creation = ep.has_creation
            ed.check_event_leaf = ep.check_event_leaf
            ed.insert = inserts.get(ep.domain)
            resolved[event] = ed
        return resolved

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
        """Full dead-key scan of every structure (eager_full mode / flush)."""
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
        self._dispatch.clear()
        self._plans.clear()
        # Generated kernels close over this runtime (and it over them, via
        # these dicts) — clear them for the same refcount-only guarantee.
        self._kernels.clear()
        self._batch_kernels.clear()

    def collect_deaths(self, dead: Mapping[str, set[int]]) -> None:
        """Targeted eager propagation of coalesced parameter deaths.

        ``dead`` maps parameter names to the ids of objects that died bound
        under that name.  Only structures whose domain contains a dead
        name are touched, and within them only the buckets of the dead ids
        are scanned (the notification work a full scan would do for these
        keys, without walking live state).  Monitors the notifications flag
        are then evicted from every structure still holding them, so the
        eager regime keeps its collect-at-boundary semantics.
        """
        flagged: list[MonitorInstance] = []
        self._flag_sink = flagged
        try:
            for tree in self.trees.values():
                ids_by_depth = {
                    depth: dead[param]
                    for depth, param in enumerate(tree.params)
                    if param in dead
                }
                if ids_by_depth:
                    tree.purge_ids(ids_by_depth)
            for index in self._join_indices.values():
                ids_by_depth = {
                    depth: dead[param]
                    for depth, param in enumerate(index.params)
                    if param in dead
                }
                if ids_by_depth:
                    index.purge_ids(ids_by_depth)
        finally:
            self._flag_sink = None
        for monitor in flagged:
            self._evict_flagged(monitor)

    def _evict_flagged(self, monitor: MonitorInstance) -> None:
        """Drop one freshly flagged monitor from every remaining structure.

        Structures whose key path contains the dead object were already
        purged; the survivors are reachable through the monitor's still-live
        parameters, so eviction is a handful of direct lookups instead of
        a full second scan pass.
        """
        live: dict[str, Any] = {}
        for name, ref in monitor.params.items():
            value = ref.get()
            if value is not None:
                live[name] = value
        domain = monitor.domain
        for event_domain in self._event_domain_set:
            if event_domain <= domain and all(name in live for name in event_domain):
                leaf = self.trees[event_domain].lookup(
                    {name: live[name] for name in event_domain}, create=False
                )
                if leaf is not None:
                    if leaf.own is monitor:
                        leaf.own = None
                    if leaf.extensions is not None:
                        leaf.extensions.compact()
        if all(name in live for name in domain) and domain not in self._event_domain_set:
            own_leaf = self.trees[domain].lookup(live, create=False)
            if own_leaf is not None and own_leaf.own is monitor:
                own_leaf.own = None
        for (join_domain, key_domain), index in self._join_indices.items():
            if join_domain == domain and all(name in live for name in key_domain):
                bucket = index.lookup(
                    {name: live[name] for name in key_domain}, create=False
                )
                if bucket is not None:
                    bucket.compact()

    # -- event processing (compiled fast path) -----------------------------------

    def _handle_compiled(
        self,
        event: str,
        values: Mapping[str, Any],
        record: bool = True,
        pretouched: frozenset[frozenset[str]] | None = None,
    ) -> None:
        """Process one parametric event through the compiled dispatch plan.

        See :meth:`_handle_reference` for the semantics (they are
        identical); this path works on slot tuples and flat FSM tables.
        """
        if record:
            self.stats.events += 1
        self._event_serial += 1
        ed = self._dispatch[event]
        try:
            vals = tuple([values[param] for param in ed.params])
        except KeyError as exc:
            raise InconsistentEventError(
                f"event {event!r} of {self.prop.spec_name} requires parameter "
                f"{exc.args[0]!r}"
            ) from None
        leaf = ed.tree.lookup_vals(vals, True)
        if leaf.touched is None:
            leaf.touched = self._event_serial
        extensions = leaf.extensions
        if extensions is not None and extensions._items:
            rows = self._fsm_rows
            if rows is not None:
                event_id = ed.event_id
                goal = self._fsm_goal
                for monitor in extensions.iter_active():
                    base = monitor.base
                    state_id = rows[base._state_id][event_id]
                    base._state_id = state_id
                    monitor.last_event = event
                    if goal[state_id]:
                        self._fire_goal(monitor, self._fsm_verdicts[state_id])
            else:
                for monitor in extensions.iter_active():
                    self._step(monitor, event)
        if ed.has_creation:
            self._create_compiled(ed, vals, leaf, pretouched)

    def _handle_compiled_attributed(
        self,
        event: str,
        values: Mapping[str, Any],
        record: bool,
        pretouched: frozenset[frozenset[str]] | None,
        tree_cell: Any,
        fsm_cell: Any,
        dispatch_cell: Any,
    ) -> None:
        """Timed clone of :meth:`_handle_compiled`, identical semantics.

        Runs only inside a sampled emit call: the indexing-tree lookup is
        charged to ``tree-walk``, the monitor-stepping loop (including
        any verdicts it fires) to ``fsm-step``, and the remainder of the
        call (binding extraction, creation, bookkeeping) to ``dispatch``.
        """
        start = perf_counter()
        if record:
            self.stats.events += 1
        self._event_serial += 1
        ed = self._dispatch[event]
        try:
            vals = tuple([values[param] for param in ed.params])
        except KeyError as exc:
            raise InconsistentEventError(
                f"event {event!r} of {self.prop.spec_name} requires parameter "
                f"{exc.args[0]!r}"
            ) from None
        t0 = perf_counter()
        leaf = ed.tree.lookup_vals(vals, True)
        tree_seconds = perf_counter() - t0
        if leaf.touched is None:
            leaf.touched = self._event_serial
        fsm_seconds = 0.0
        extensions = leaf.extensions
        if extensions is not None and extensions._items:
            t0 = perf_counter()
            rows = self._fsm_rows
            if rows is not None:
                event_id = ed.event_id
                goal = self._fsm_goal
                for monitor in extensions.iter_active():
                    base = monitor.base
                    state_id = rows[base._state_id][event_id]
                    base._state_id = state_id
                    monitor.last_event = event
                    if goal[state_id]:
                        self._fire_goal(monitor, self._fsm_verdicts[state_id])
            else:
                for monitor in extensions.iter_active():
                    self._step(monitor, event)
            fsm_seconds = perf_counter() - t0
        if ed.has_creation:
            self._create_compiled(ed, vals, leaf, pretouched)
        tree_cell.add(tree_seconds)
        fsm_cell.add(fsm_seconds)
        dispatch_cell.add(
            max(0.0, perf_counter() - start - tree_seconds - fsm_seconds)
        )

    def _create_compiled(
        self,
        ed: _EventDispatch,
        vals: tuple,
        leaf: Leaf,
        pretouched: frozenset[frozenset[str]] | None,
    ) -> None:
        # Target = the event binding itself (defineTo from a sub-instance or
        # from scratch).  The target's own touch stamp gates every
        # self-creation identically (D(e) ⊄ K for K ⊊ D(e)), so it is
        # tested directly on the event leaf before any source probing.
        sources = ed.self_sources
        if (
            (sources or ed.allows_fresh)
            and (leaf.own is None or leaf.own.flagged)
            and (
                not ed.check_event_leaf
                or (
                    leaf.touched == self._event_serial
                    and (pretouched is None or ed.domain not in pretouched)
                )
            )
        ):
            source: MonitorInstance | None = None
            checks = ed.fresh_checks
            found = False
            for src in sources:
                sub_leaf = src.tree.lookup_vals(
                    tuple([vals[i] for i in src.extract]), False
                )
                if (
                    sub_leaf is not None
                    and sub_leaf.own is not None
                    and not sub_leaf.own.flagged
                ):
                    source, checks, found = sub_leaf.own, src.checks, True
                    break
            if (found or ed.allows_fresh) and self._valid_compiled(
                checks, vals, pretouched
            ):
                self._materialize(ed, ed.insert, vals, source, leaf)
        # Join targets: compatible instances of incomparable enable domains.
        for jp in ed.joins:
            bucket = jp.index.lookup_vals(
                tuple([vals[i] for i in jp.key_extract]), False
            )
            if bucket is None:
                continue
            for candidate in bucket.iter_active():
                if candidate.domain != jp.join_domain:
                    continue
                candidate_vals: list | None = []
                for name in jp.join_params:
                    value = candidate.params[name].get()
                    if value is None:
                        candidate_vals = None
                        break
                    candidate_vals.append(value)
                if candidate_vals is None:
                    continue
                target_vals = tuple([
                    candidate_vals[i] if from_candidate else vals[i]
                    for from_candidate, i in jp.merge
                ])
                target_leaf = jp.target_tree.lookup_vals(target_vals, False)
                if target_leaf is not None:
                    if target_leaf.own is not None and not target_leaf.own.flagged:
                        continue
                    if (
                        jp.check_target
                        and target_leaf.touched is not None
                        and target_leaf.touched < self._event_serial
                    ):
                        continue
                if self._valid_compiled(jp.checks, target_vals, None):
                    self._materialize(ed, jp.insert, target_vals, candidate, None)

    def _valid_compiled(
        self,
        checks: tuple[_ResolvedCheck, ...],
        target_vals: tuple,
        pretouched: frozenset[frozenset[str]] | None,
    ) -> bool:
        """Compiled :meth:`_creation_is_valid`: the relevant event domains
        and their extraction indices were computed at property-compile time."""
        serial = self._event_serial
        for check in checks:
            if pretouched is not None and check.domain in pretouched:
                # The router vouches that this sub-binding received events
                # on another shard before now (sticky routing's stand-in
                # for a local touch stamp).
                return False
            sub_leaf = check.tree.lookup_vals(
                tuple([target_vals[i] for i in check.extract]), False
            )
            if (
                sub_leaf is not None
                and sub_leaf.touched is not None
                and sub_leaf.touched < serial
            ):
                return False
        return True

    def _materialize(
        self,
        ed: _EventDispatch,
        insert: _ResolvedInsert,
        vals: tuple,
        source: MonitorInstance | None,
        own_leaf: Leaf | None,
    ) -> None:
        """Create, register, watch, and step one new monitor instance."""
        base = source.base.clone() if source is not None else self.prop.template.create()
        params = {
            name: ParamRef(value) for name, value in zip(insert.params, vals)
        }
        self._serial += 1
        monitor = MonitorInstance(self.prop, base, params, self._serial)
        if own_leaf is None:
            own_leaf = insert.own_tree.lookup_vals(vals, True)
        own_leaf.own = monitor
        if insert.own_is_event_domain and own_leaf.extensions is not None:
            own_leaf.extensions.add(monitor)
        for tree, extract in insert.ext_entries:
            sub_leaf = tree.lookup_vals(tuple([vals[i] for i in extract]), True)
            if sub_leaf.extensions is not None:
                sub_leaf.extensions.add(monitor)
        for index, extract in insert.join_entries:
            index.add_vals(tuple([vals[i] for i in extract]), monitor)
        self.stats.record_creation()
        weakref.finalize(monitor, self.stats.record_collection)
        watch = self._on_param_registered
        if watch is not None:
            for name, value in zip(insert.params, vals):
                watch(name, value)
        rows = self._fsm_rows
        if rows is not None:
            state_id = rows[base._state_id][ed.event_id]
            base._state_id = state_id
            monitor.last_event = ed.event
            if self._fsm_goal[state_id]:
                self._fire_goal(monitor, self._fsm_verdicts[state_id])
        else:
            self._step(monitor, ed.event)

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

    #: The default entry point; ``__init__`` rebinds it per instance to the
    #: selected dispatch implementation.
    handle = _handle_compiled

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
                for name, ref in candidate.params.items():
                    value = ref.get()
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
        for event_domain in self._event_domain_set:
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
        params = {name: ParamRef(value) for name, value in target_values.items()}
        self._serial += 1
        monitor = MonitorInstance(self.prop, base, params, self._serial)
        self._insert(monitor, target_values)
        self.stats.record_creation()
        weakref.finalize(monitor, self.stats.record_collection)
        if self._on_param_registered is not None:
            for name, value in target_values.items():
                self._on_param_registered(name, value)
        self._step(monitor, event)

    def _insert(self, monitor: MonitorInstance, values: Mapping[str, Any]) -> None:
        domain = frozenset(values)
        own_leaf = self.trees[domain].lookup(values, create=True)
        own_leaf.own = monitor
        for event_domain in self._event_domain_set:
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
        seen: dict[int, MonitorInstance] = {}
        for tree in self.trees.values():
            for leaf in tree.walk_leaves():
                for monitor in leaf.monitors():
                    if not monitor.flagged:
                        seen[id(monitor)] = monitor
        return list(seen.values())

    # -- persistence (the checkpoint codec's view) -------------------------------

    def iter_reachable_instances(self) -> Iterable[MonitorInstance]:
        """Every unflagged instance held by any structure, deduplicated.

        Beyond :meth:`live_instances` this walks the join indices too: an
        instance whose tree paths all died can survive in a join bucket
        under its live key sub-binding, and the codec must capture it there
        or the restored run would under-count its eventual collection.
        """
        seen: dict[int, MonitorInstance] = {}
        for tree in self.trees.values():
            for leaf in tree.walk_leaves():
                for monitor in leaf.monitors():
                    if not monitor.flagged:
                        seen.setdefault(id(monitor), monitor)
        for index in self._join_indices.values():
            for bucket in index.walk_leaves():
                for monitor in bucket:
                    if not monitor.flagged:
                        seen.setdefault(id(monitor), monitor)
        return list(seen.values())

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
            monitor = MonitorInstance.from_payload(self.prop, monitor_payload, tokens)
            self._restore_insert(monitor)
            weakref.finalize(monitor, self.stats.record_collection)
            if self._on_param_registered is not None:
                for name, ref in monitor.params.items():
                    value = ref.get()
                    if value is not None:
                        self._on_param_registered(name, value)

    def _restore_insert(self, monitor: MonitorInstance) -> None:
        """Dead-aware :meth:`_insert`: entries are re-created only along
        all-live key paths — the paths a freshly flushed live engine still
        holds (dead-keyed entries were purged before the snapshot)."""
        live: dict[str, Any] = {}
        dead: set[str] = set()
        for name, ref in monitor.params.items():
            value = ref.get()
            if value is None:
                dead.add(name)
            else:
                live[name] = value
        domain = monitor.domain
        if not dead:
            own_leaf = self.trees[domain].lookup(live, create=True)
            own_leaf.own = monitor
        for event_domain in self._event_domain_set:
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
    design), ``eager`` (targeted boundary propagation — the Tracematches
    profile) or ``eager_full`` (the historical full-scan ablation);
    ``system`` is a convenience preset: ``rv`` / ``mop`` / ``tm`` /
    ``none`` (see :data:`SYSTEMS`).  ``dispatch`` selects the compiled
    fast path (default), the retained ``"reference"`` interpretation, or
    ``"codegen"`` — per-(property, event) kernels generated and
    ``exec``-compiled from the dispatch plan (:mod:`repro.spec.codegen`)
    plus a grouped batch-stepping path in :meth:`emit_batch` — all three
    produce bit-identical verdicts and creation counts.
    """

    def __init__(
        self,
        specs: Iterable[CompiledSpec | CompiledProperty] | CompiledSpec | CompiledProperty,
        gc: str | None = None,
        propagation: str | None = None,
        system: str | None = None,
        scan_budget: int = 2,
        on_verdict: VerdictCallback | None = None,
        dispatch: str = "compiled",
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
        if dispatch not in ("compiled", "reference", "codegen"):
            raise ValueError(f"unknown dispatch {dispatch!r}")
        self.gc = gc
        self.propagation = propagation
        self.scan_budget = scan_budget
        self.dispatch = dispatch
        self._on_verdict = on_verdict
        #: Telemetry plane (None = off: hot paths identical to the
        #: un-instrumented build).  See :mod:`repro.obs`.
        self.telemetry = as_telemetry(telemetry)
        #: Set by a persistence wrapper (DurableEngine) to a zero-argument
        #: callable returning the WAL coordinates of the event currently
        #: being dispatched; runtimes merge it into verdict provenance.
        self.provenance_source: Callable[[], Mapping[str, Any]] | None = None
        self._batch_emit = self._batch_selected = None
        if self.telemetry is not None:
            batch = _declare_metric(self.telemetry.registry, "repro_engine_batch_size")
            self._batch_emit = batch.labels("emit")
            self._batch_selected = batch.labels("selected")
        #: Boundary observers in registration order (:meth:`add_observer`);
        #: :meth:`_refresh_hooks` caches one tuple per hook from them.
        self._observers: list[Any] = []
        self._refresh_hooks()
        #: Per-stage overhead attribution plane (``repro.obs.attribution``),
        #: built only when the telemetry policy asks for it; None otherwise
        #: (no wrappers installed, hot paths untouched).
        self.attribution = None
        if self.telemetry is not None and self.telemetry.attribution:
            from ..obs.attribution import AttributionPlane

            self.attribution = AttributionPlane(self.telemetry)
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

        self._eager = propagation != "lazy"
        #: Coalesced parameter deaths since the last event boundary:
        #: (runtime index, parameter name, dead object id).
        self._pending_dead: list[tuple[int, str, int]] = []
        #: Guards every _pending_dead mutation: weakref death callbacks
        #: (any thread), external note_deaths (emitter threads), and the
        #: boundary swap in _propagate_deaths (shard worker threads) may
        #: all touch it concurrently; an unguarded swap would strand
        #: appends on the orphaned list and leak their dead-id buckets.
        self._dead_lock = threading.Lock()
        #: id -> (weakref guard, positions the object is registered under).
        self._watched: dict[int, tuple[weakref.ref, set[tuple[int, str]]]] = {}
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
        self._by_event: dict[str, list[PropertyRuntime]] = {}
        self._rebuild_event_index()
        if self.attribution is not None:
            self.add_observer(self.attribution)

    def enable_telemetry(self, telemetry: "Telemetry | bool") -> "Telemetry":
        """Attach a telemetry plane to an already-built engine.

        Used when the engine was constructed by a path that cannot thread
        the ``telemetry`` argument (checkpoint restore); wires every live
        runtime exactly as construction-time wiring would.  Raises if
        telemetry is already attached.
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
                if self.attribution is not None:
                    runtime._wire_attribution(
                        self.attribution,
                        self.dispatch in ("compiled", "codegen"),
                    )
                runtime._wire_telemetry(resolved)
        if self.attribution is not None:
            self.add_observer(self.attribution)
        # Wrapped handles invalidate the codegen direct-kernel routes.
        self._rebuild_event_index()
        return resolved

    # -- boundary observers ------------------------------------------------------

    def add_observer(self, observer: Any) -> Any:
        """Append ``observer`` to the engine's boundary observers.

        ``observer`` defines any subset of these hooks, each called in
        registration order: ``before_event(event, params)`` and
        ``after_event(event, params)`` around every event any emit entry
        point takes in (``after_event`` also when dispatch raises);
        ``on_deaths(dead)`` on every :meth:`note_deaths` call;
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
        event after dispatch, ``note_deaths`` calls, registry operations
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
        return PropertyRuntime(
            prop,
            gc=self.gc,
            scan_budget=self.scan_budget,
            on_verdict=self._report_verdict,
            on_param_registered=(
                (lambda name, value, _index=index: self._watch_param(_index, name, value))
                if self._eager
                else None
            ),
            dispatch=self.dispatch,
            slot=index,
            telemetry=self.telemetry,
            provenance_get=lambda: self.provenance_source,
            attribution=self.attribution,
        )

    def _rebuild_event_index(self) -> None:
        """Recompute the event -> runtimes map over enabled slots.

        Runs only at registry boundaries (attach / detach / enable /
        disable), so the per-event hot path stays exactly one dict lookup.
        Events declared only by *disabled* runtimes are remembered
        separately: a paused property's events are silently dropped, never
        reported as undeclared — pausing must be transparent to emitters.
        """
        by_event: dict[str, list[PropertyRuntime]] = {}
        declared: set[str] = set()
        for runtime in self.runtimes:
            if runtime is None:
                continue
            for event in runtime.prop.definition.alphabet:
                declared.add(event)
                if runtime.enabled:
                    by_event.setdefault(event, []).append(runtime)
        self._by_event = by_event
        self._paused_events = declared - set(by_event)
        # Codegen batch routing: per event, (runtime, kernel, batch kernel).
        # Kernels are entered directly only while the runtime's handle is
        # still unwrapped — telemetry/attribution wrappers must see every
        # call, so wrapped runtimes degrade to ``handle``.
        routes: dict[str, list[tuple[PropertyRuntime, Any, Any]]] = {}
        singles: dict[str, Any] = {}
        if self.dispatch == "codegen":
            for event, runtimes in by_event.items():
                entries = []
                for runtime in runtimes:
                    direct = runtime.handle is runtime._unwrapped_handle
                    entries.append((
                        runtime,
                        runtime._kernels.get(event) if direct else None,
                        runtime._batch_kernels.get(event) if direct else None,
                    ))
                routes[event] = entries
                # Single-receiver events skip even the route loop: the
                # emit surface calls the kernel through one dict lookup.
                if len(entries) == 1 and entries[0][1] is not None:
                    singles[event] = entries[0][1]
        self._codegen_routes = routes
        self._codegen_single = singles

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
        :class:`~repro.spec.dispatch.DispatchPlan` resolved against new
        indexing trees, and re-interned event ids.  Returns the new slot
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

        The runtime is quiesced first: its share of any coalesced pending
        deaths is delivered through the targeted ``purge_ids`` machinery,
        then a two-pass full scan flags and sweeps everything a boundary
        propagation would have.  Its final statistics are folded into the
        engine totals (and returned); dropping the runtime releases its
        indexing trees and join indices wholesale.
        """
        entry = self.registry.entry(ref)
        index = entry.index
        runtime = self.runtimes[index]
        if runtime is None:
            raise RegistryError(f"property {entry.name!r} is already detached")
        if self._eager and self._pending_dead:
            mine: dict[str, set[int]] = {}
            with self._dead_lock:
                keep: list[tuple[int, str, int]] = []
                for runtime_index, param, dead_id in self._pending_dead:
                    if runtime_index == index:
                        mine.setdefault(param, set()).add(dead_id)
                    else:
                        keep.append((runtime_index, param, dead_id))
                self._pending_dead = keep
            if mine:
                runtime.collect_deaths(mine)
        for _pass in range(2):
            runtime.scan_all()
        stats = runtime.stats
        runtime.release()
        self.registry.remove(index)
        self.runtimes[index] = None
        self.properties[index] = None
        self._retired[index] = (entry.spec_name, entry.formalism, stats)
        # Purge eager watch positions pointing at the detached slot so its
        # future parameter deaths are not routed to a dead runtime.
        for key, (guard, positions) in list(self._watched.items()):
            stale = {position for position in positions if position[0] == index}
            if stale:
                positions -= stale
                if not positions:
                    del self._watched[key]
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
        if self._tapped:
            self._emit_tapped(event, params, _strict)
            return
        routes = self._codegen_routes
        if routes and not self._eager:
            # Codegen fast route: straight from the emit surface into the
            # generated kernel, skipping the per-runtime handle closure.
            # Routes cover every declared event, so a miss below falls
            # through to the unknown-event handling.
            kernel = self._codegen_single.get(event)
            if kernel is not None:
                kernel(params)
                return
            targets = routes.get(event)
            if targets is not None:
                for runtime, kernel, _batch in targets:
                    if kernel is not None:
                        kernel(params)
                    else:
                        runtime.handle(event, params)
                return
        if self._eager and self._pending_dead:
            self._propagate_deaths()
        runtimes = self._by_event.get(event)
        if not runtimes:
            if _strict and event not in self._paused_events:
                raise UnknownEventError(
                    f"no monitored specification declares event {event!r}"
                )
            return
        for runtime in runtimes:
            runtime.handle(event, params)

    def emit_values(
        self, event: str, values: Mapping[str, Any], _strict: bool = True
    ) -> None:
        """:meth:`emit` with the parameter binding as one mapping.

        Semantically identical to ``emit(event, **values)`` without the
        keyword repack — the replay hot loop already holds the dict.
        Boundary observers see it exactly as they see :meth:`emit`.
        """
        if self._tapped:
            self._emit_tapped(event, values, _strict)
            return
        routes = self._codegen_routes
        if routes and not self._eager:
            kernel = self._codegen_single.get(event)
            if kernel is not None:
                kernel(values)
                return
            targets = routes.get(event)
            if targets is not None:
                for runtime, kernel, _batch in targets:
                    if kernel is not None:
                        kernel(values)
                    else:
                        runtime.handle(event, values)
                return
        if self._eager and self._pending_dead:
            self._propagate_deaths()
        runtimes = self._by_event.get(event)
        if not runtimes:
            if _strict and event not in self._paused_events:
                raise UnknownEventError(
                    f"no monitored specification declares event {event!r}"
                )
            return
        for runtime in runtimes:
            runtime.handle(event, values)

    def emit_batch(
        self,
        events: Iterable[tuple[str, Mapping[str, Any]]],
        _strict: bool = True,
    ) -> int:
        """Emit a batch of ``(event, params)`` pairs; returns how many were
        dispatched to at least one property.

        Per-event semantics are identical to :meth:`emit` — eager death
        propagation still happens at every event boundary, and boundary
        observers see every event — but the per-call overhead (attribute
        lookups, the Python call itself) is amortized across the batch.

        Under ``dispatch="codegen"`` with lazy propagation and no
        ``before_event`` observer, the batch is processed by the grouped
        kernel path instead: consecutive same-event runs step through
        generated kernels (and, for creation-free FSM events, through the
        vectorized batch kernel) — see :meth:`_emit_batch_codegen`.
        """
        if self._batch_emit is not None:
            events = list(events)
            self._batch_emit.observe(len(events))
        if self._tapped:
            if self._before or not self._codegen_routes or self._eager:
                return sum(
                    self._emit_tapped(event, params, _strict) for event, params in events
                )
            # After-only observers (the flight recorder) keep the grouped
            # codegen path: each event's after hooks run, in order, once
            # the batch is through.
            events = events if isinstance(events, list) else list(events)
            try:
                return self._emit_batch_codegen(events, _strict)
            finally:
                for event, params in events:
                    for hook in self._after:
                        hook(event, params)
        if self._codegen_routes and not self._eager:
            return self._emit_batch_codegen(events, _strict)
        eager = self._eager
        by_event = self._by_event
        accepted = 0
        for event, params in events:
            if eager and self._pending_dead:
                self._propagate_deaths()
            runtimes = by_event.get(event)
            if not runtimes:
                if _strict and event not in self._paused_events:
                    raise UnknownEventError(
                        f"no monitored specification declares event {event!r}"
                    )
                continue
            accepted += 1
            for runtime in runtimes:
                runtime.handle(event, params)
        return accepted

    def _emit_tapped(
        self, event: str, params: Mapping[str, Any], _strict: bool
    ) -> int:
        """Dispatch one event between its ``before_event`` and
        ``after_event`` hooks; returns 1 when a property received it."""
        for hook in self._before:
            hook(event, params)
        try:
            if self._eager and self._pending_dead:
                self._propagate_deaths()
            kernel = self._codegen_single.get(event)
            if kernel is not None:
                kernel(params)
                return 1
            runtimes = self._by_event.get(event)
            if not runtimes:
                if _strict and event not in self._paused_events:
                    raise UnknownEventError(
                        f"no monitored specification declares event {event!r}"
                    )
                return 0
            for runtime in runtimes:
                runtime.handle(event, params)
            return 1
        finally:
            for hook in self._after:
                hook(event, params)

    def _emit_batch_codegen(
        self,
        events: Iterable[tuple[str, Mapping[str, Any]]],
        _strict: bool = True,
    ) -> int:
        """Grouped codegen batch dispatch (lazy propagation only).

        Splits the batch into maximal runs of consecutive identical
        events and dispatches each run once per receiving runtime:
        creation-free FSM events step the whole run through the
        generated batch kernel (one call, array-backed transition
        column); anything else — creating events, non-FSM properties,
        wrapped handles — falls back to the scalar kernel per event.
        Only *consecutive* events are grouped, never reordered: lazy GC
        discovers deaths on access, so the exact operation order is part
        of the observable semantics the equivalence suite pins down.
        Eager propagation never reaches this path (its death boundaries
        interleave with dispatch), nor does an engine with a
        ``before_event`` observer (it must see each event before dispatch).
        """
        events = events if isinstance(events, list) else list(events)
        n = len(events)
        if n == 1:
            # Tiny chunks dominate replayed traces (death boundaries flush
            # the pending batch, so the mean chunk tracks object lifetime,
            # not batch_size) — skip the grouping scaffolding entirely.
            event, params = events[0]
            kernel = self._codegen_single.get(event)
            if kernel is not None:
                kernel(params)
                return 1
        routes = self._codegen_routes
        paused = self._paused_events
        accepted = 0
        i = 0
        while i < n:
            event = events[i][0]
            j = i + 1
            while j < n and events[j][0] == event:
                j += 1
            targets = routes.get(event)
            if not targets:
                if _strict and event not in paused:
                    raise UnknownEventError(
                        f"no monitored specification declares event {event!r}"
                    )
                i = j
                continue
            run = j - i
            accepted += run
            if run == 1:
                params = events[i][1]
                for runtime, kernel, _batch in targets:
                    if kernel is not None:
                        kernel(params)
                    else:
                        runtime.handle(event, params)
            else:
                for runtime, kernel, batch in targets:
                    # The vectorized kernel pays a per-call prelude (FSM
                    # column binds, group list build); below ~8 events the
                    # scalar kernel loop wins.  Either path is legal — the
                    # batch kernel is verdict-identical to the scalar loop.
                    if batch is not None and run >= 8:
                        batch([entry[1] for entry in events[i:j]])
                    elif kernel is not None:
                        for k in range(i, j):
                            kernel(events[k][1])
                    else:
                        for k in range(i, j):
                            runtime.handle(event, events[k][1])
            i = j
        return accepted

    def emit_binding(self, event: str, binding: Binding) -> None:
        """Emit with an explicit :class:`Binding` (test/bench convenience)."""
        self.emit(event, **dict(binding.items()))

    def emit_selected(
        self,
        event: str,
        params: Mapping[str, Any],
        prop_indexes: Iterable[int],
        record_indexes: "frozenset[int] | set[int] | None" = None,
        pretouched: "Mapping[int, frozenset[frozenset[str]]] | None" = None,
        count_only: Iterable[int] = (),
    ) -> None:
        """External-dispatch hook: deliver ``event`` to a subset of properties.

        The sharded service routes one emitted event to different shards per
        property (each property has its own anchor parameter), so a shard
        engine must be able to dispatch to exactly the properties the router
        selected — never to every property declaring the event, which would
        double-process slices owned by other shards.

        ``prop_indexes`` index into :attr:`properties`; ``record_indexes``
        (default: all of them) name the subset for which this engine is the
        designated event-accountant (see ``PropertyRuntime.handle``).
        ``pretouched`` maps property indexes to the event domains the
        router's sticky state flags as touched elsewhere; ``count_only``
        properties record the event without processing it (the router
        proved the event can do nothing on any shard).
        """
        selection = (prop_indexes, record_indexes, pretouched, count_only)
        deliveries = [(event, params, selection)]
        if self._tapped:
            self._selected_tapped(deliveries)
        else:
            self._selected_batch_plain(deliveries)

    def emit_selected_batch(
        self,
        deliveries: Sequence[tuple[str, Mapping[str, Any], tuple]],
    ) -> None:
        """Apply a batch of routed deliveries (the shard workers' hot loop).

        Each delivery is ``(event, params, (prop_indexes, record_indexes,
        pretouched, count_only))`` — the shape the service router emits and
        the shard queues/process pipes carry.  Semantics per delivery are
        exactly :meth:`emit_selected`; batching amortizes the per-event
        call and attribute overhead at the queue-drain boundary.
        """
        if self._batch_selected is not None:
            self._batch_selected.observe(len(deliveries))
        if self._tapped:
            self._selected_tapped(deliveries)
        else:
            self._selected_batch_plain(deliveries)

    def _selected_tapped(
        self, deliveries: Sequence[tuple[str, Mapping[str, Any], tuple]]
    ) -> None:
        """:meth:`emit_selected_batch` with boundary observers attached."""
        before, after = self._before, self._after
        for delivery in deliveries:
            event, params = delivery[0], delivery[1]
            for hook in before:
                hook(event, params)
            try:
                self._selected_batch_plain((delivery,))
            finally:
                for hook in after:
                    hook(event, params)

    def _selected_batch_plain(
        self, deliveries: Sequence[tuple[str, Mapping[str, Any], tuple]]
    ) -> None:
        """The routed-delivery loop, without observers."""
        eager = self._eager
        runtimes = self.runtimes
        for event, params, (prop_indexes, record_indexes, pretouched, count_only) in deliveries:
            if eager and self._pending_dead:
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

    # -- GC control -----------------------------------------------------------------

    def note_deaths(self, dead: Mapping[str, Iterable[int]]) -> None:
        """Record externally observed parameter deaths for the next boundary.

        ``dead`` maps parameter names to the ``id()``\\ s of objects that
        died while bound under that name — the shape the live
        instrumentation layer's :class:`~repro.instrument.live.LiveBinding`
        drains from its ``weakref`` callbacks.  The deaths are queued and
        propagated at the next *safe event boundary* (the top of the next
        ``emit``), through exactly the coalesced ``purge_ids`` flow the
        engine's own eager watcher uses.

        Under lazy propagation this is a no-op: dead keys are discovered by
        the weak-keyed structures themselves as they are touched, so
        injected knowledge would never be drained.  The method exists so
        external watchers can treat every engine uniformly.

        The external watcher may know about objects the engine's own eager
        watcher never saw (objects that appeared only in touched bindings,
        never in a created monitor); their buckets are purged too, which
        only removes provably dead state.
        """
        for hook in self._death_hooks:
            hook(dead)
        if not self._eager:
            return
        with self._dead_lock:
            pending = self._pending_dead
            for name, ids in dead.items():
                # Paused runtimes receive deaths too — the engine's own
                # watcher makes no enabled distinction, and a long-paused
                # property must not accumulate dead-id buckets until it is
                # resumed.
                for index, runtime in enumerate(self.runtimes):
                    if runtime is None:
                        continue
                    if name in runtime.prop.definition.parameters:
                        for dead_id in ids:
                            pending.append((index, name, dead_id))

    def _watch_param(self, runtime_index: int, name: str, value: Any) -> None:
        """Register one (runtime, parameter-name, object) for eager tracking."""
        key = id(value)
        entry = self._watched.get(key)
        if entry is not None:
            if entry[0]() is value:
                entry[1].add((runtime_index, name))
                return
            # Recycled id: the previous holder died but its callback has not
            # fired yet (reference cycles).  Record its death now so the new
            # registration does not shadow it.
            del self._watched[key]
            self._note_dead(entry[1], key)
        try:
            ref = weakref.ref(value, lambda _ref, _key=key: self._on_param_death(_key))
        except TypeError:
            return
        self._watched[key] = (ref, {(runtime_index, name)})

    def _on_param_death(self, key: int) -> None:
        entry = self._watched.get(key)
        if entry is None or entry[0]() is not None:
            # Already handled at re-registration time, or the id was
            # re-registered for a new live object.
            return
        del self._watched[key]
        self._note_dead(entry[1], key)

    def _note_dead(self, positions: set[tuple[int, str]], dead_id: int) -> None:
        with self._dead_lock:
            pending = self._pending_dead
            for runtime_index, name in positions:
                pending.append((runtime_index, name, dead_id))

    def _propagate_deaths(self) -> None:
        """Eager boundary propagation of all deaths since the last event."""
        if self.propagation == "eager_full":
            self.flush_gc()
            return
        with self._dead_lock:
            pending, self._pending_dead = self._pending_dead, []
        per_runtime: dict[int, dict[str, set[int]]] = {}
        for runtime_index, name, dead_id in pending:
            per_runtime.setdefault(runtime_index, {}).setdefault(name, set()).add(
                dead_id
            )
        for runtime_index, dead in per_runtime.items():
            runtime = self.runtimes[runtime_index]
            if runtime is not None:
                runtime.collect_deaths(dead)

    def flush_gc(self) -> None:
        """Fully scan every structure: purge dead keys, notify, compact.

        Lazy mode never needs this (detection happens on access); it exists
        for eager_full propagation, for tests, and for end-of-run
        accounting.

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
