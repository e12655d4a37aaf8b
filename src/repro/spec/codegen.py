"""Generated per-(property, event) dispatch kernels.

:mod:`repro.spec.dispatch` lowers a compiled property to a static
:class:`~repro.spec.dispatch.DispatchPlan`.  Interpreting that plan
would look up trees by domain, loop over check tuples, and call through
the shared ``RVMap`` helpers on every event.  This module
instead makes the JavaMOP move of specializing the whole per-event code
path at property-compile time (JinMGR11 Section 4.1): for each
``(property, event)`` pair it generates *straight-line Python source*
with

* the slot-tuple shape unrolled (``v0 = values["c"]`` …, no list
  comprehension, no loop over the event's parameters), each value
  resolved once to its entry in the engine's
  :class:`~repro.runtime.refs.ParamLedger` (``e0``, …), which every map
  probe then uses as its key,
* the interned event id folded into a precomputed per-event transition
  *column* (one subscript per monitor step instead of two),
* the indexing-tree walk — including the ``RVMap`` incremental dead-key
  scan and the leaf inspection it performs — inlined level by level, and
* the creation strategy (self sources, fresh creation, joins with
  compatible instances, validity checks, monitor materialization)
  unrolled into nested branches over named value variables.

The generated source is compiled once, factory by factory, and cached in a
process-wide :class:`KernelCache` keyed by the property's registry slot
:meth:`~repro.spec.compiler.CompiledProperty.fingerprint` (which covers
spec name, formalism, alphabet, and formalism-level semantics), so hot
load/unload cycles and process-backend recompiles of the *same*
property reuse the compiled code object, while any semantic change —
a different FSM, a different alphabet — produces a different
fingerprint and forces regeneration.  Each factory takes one
:class:`~repro.runtime.engine.PropertyRuntime` and binds its trees and
join indices by literal domain (``rt.trees[frozenset(('c', 'i'))]``) and
its statistics at bind time (the runtime's first event), so one cached
module serves any number of runtimes.

Equivalence contract
--------------------
The kernels must produce the same verdicts as the reference
interpretation, and perform exactly the ``RVMap`` scan operations of the
interpreted helpers they inline (``_TreeBase.lookup_entries``,
``RVMap.scan_some``, ``RVSet.iter_active``).  Lazy GC discovers deaths
on access, so the set of monitors a later event still steps depends on
how many
buckets every earlier operation scanned — reordering or eliding a single
``scan_some`` would change flag-discovery timing and, with it,
observable verdict streams.  Every inlined walk therefore performs
exactly the operations of ``_TreeBase.lookup_entries`` (scan, probe,
create) in the same order; the inlining removes call overhead, never
operations.  Nor may it lengthen a lifetime: no kernel local outlives
what the interpreted helper's frame would hold, because CPython frees a
monitor at its last reference — a local still bound to a dead leaf would
count its monitors live at the next creation.
``tests/runtime/test_dispatch_equivalence.py`` holds codegen to the
reference oracle and its monitor lifetimes to a pinned table recorded
from the interpreted plan.

Timed variant
-------------
With ``timed=True`` the kernels gain ``perf_counter`` probes
around the tree walk and the stepping loop and return their two
durations; everything else is the plain source, line for line.  The
runtime's instrument wrapper runs them on attributed samples only
(cached under ``fingerprint + ":timed"``), so ``repro_prop_stage_*``
times the code that runs unsampled.

Eager variant
-------------
With ``eager=True`` (an engine with ``propagation="eager"``) every map a
kernel creates is a :class:`~repro.runtime.rvmap.LinkedRVMap` that
records its way ``up`` (parent map and key), and every key a kernel
inserts gets a weak back-link to its map, so a parameter's death reaches
exactly the maps that key it.  Deaths reach the maps only
through ``PropertyRuntime.reap`` at the event boundary, so the eager
kernels scan nothing: no inlined ``RVMap.scan_some`` block, no
``scan_some()`` call in join loops, and no scan cursor or budget on the
maps they create, just as ``LinkedRVMap`` has no incremental scan on the
reference tier.  The module also carries ``_make_evict``, the generated
eviction of freshly flagged monitors.  Everything else is the plain
source, line for line.  It is cached under ``fingerprint + ":eager"``;
the plain module a lazy engine binds is untouched.
"""

from __future__ import annotations

import re
import threading
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable

from .dispatch import (
    DispatchPlan,
    DomainCheck,
    EventPlan,
    InsertPlan,
    JoinPlan,
    _domain_sort_key,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .compiler import CompiledProperty

__all__ = [
    "KernelModule",
    "KernelCache",
    "shared_kernel_cache",
    "kernel_module_source",
    "kernel_source_for",
]


_INDENT = "    "


def _sanitize(name: str) -> str:
    return re.sub(r"\W", "_", name)


def _tuple(items) -> str:
    """A Python tuple display of ``items`` (source fragments)."""
    items = list(items)
    return "(" + ", ".join(items) + ("," if len(items) == 1 else "") + ")"


def _domain(domain: frozenset) -> str:
    """The source of a literal parameter domain, sorted for stable output."""
    return f"frozenset({_tuple(repr(param) for param in sorted(domain))})"


class _Writer:
    """Tiny indented-source builder for the generated module."""

    def __init__(self) -> None:
        self.lines: list[str] = []

    def emit(self, depth: int, text: str) -> None:
        self.lines.append(_INDENT * depth + text)

    def blank(self) -> None:
        self.lines.append("")

    def source(self) -> str:
        return "\n".join(self.lines) + "\n"


class _KernelEmitter:
    """Emits one event's kernel factory.

    ``prelude`` lines run once at bind time inside the factory (closure
    bindings pulled off the runtime: trees and join indices by literal
    domain); the kernel body references only those locals, literals, the
    event's ``v0..vN`` slot variables, their ledger entries ``e0..eN`` and
    the join loops' candidate entries.  The walk, check and materialize
    emitters take entry *variable names* in the walked structure's
    parameter order, so the self-creation and the join share them.
    """

    def __init__(
        self,
        plan: DispatchPlan,
        ep: EventPlan,
        has_fsm: bool,
        timed: bool = False,
        eager: bool = False,
    ):
        self.plan = plan
        self.ep = ep
        self.has_fsm = has_fsm
        #: Emit the timed variant: ``perf_counter`` probes around the tree
        #: walk and the stepping loop, returned as ``(_tw, _tf)``.
        self.timed = timed
        #: Emit the eager variant: every map a kernel creates is a
        #: ``LinkedRVMap`` with its way up, every key it inserts links back
        #: to its map, and no walk scans.
        self.eager = eager
        self.depth = len(ep.params)
        self.prelude: list[str] = []
        self._uid = 0
        self._tree_ctxs: dict[str, dict[str, str]] = {}
        #: Bind-time expression -> its variable (see :meth:`bind_once`).
        self._bound: dict[str, str] = {f"rt.trees[{_domain(ep.domain)}]": "tree"}
        #: Inline ``RVMap.scan_some`` (off inside join loops, see
        #: :meth:`emit_join`).
        self.inline_scans = True
        # Domains that actually have trees at runtime: the runtime builds
        # one per monitor domain plus one per event domain, and the
        # reference ``_build_plan`` filters self-sources by the same
        # predicate.
        self.available = set(plan.monitor_domains) | set(plan.event_domains)
        self.sources = tuple(
            src for src in ep.self_sources if src.domain in self.available
        )

    def uid(self) -> int:
        self._uid += 1
        return self._uid

    def bind(self, name: str, expr: str) -> str:
        self.prelude.append(f"{name} = {expr}")
        return name

    def bind_once(self, prefix: str, expr: str) -> str:
        """Bind ``expr`` at most once per factory; returns its variable."""
        var = self._bound.get(expr)
        if var is None:
            var = self._bound[expr] = self.bind(f"{prefix}{len(self._bound)}", expr)
        return var

    def domain_var(self, domain: frozenset) -> str:
        return self.bind_once("_dom", _domain(domain))

    def tree(self, domain: frozenset) -> str:
        """The runtime's tree of ``domain``, looked up by literal domain."""
        return self.bind_once("tree", f"rt.trees[{_domain(domain)}]")

    def index(self, join_domain: frozenset, key_domain: frozenset) -> str:
        """The runtime's join index of ``(join_domain, key_domain)``."""
        key = f"({_domain(join_domain)}, {_domain(key_domain)})"
        return self.bind_once("index", f"rt._join_indices[{key}]")

    def tree_ctx(self, tree_expr: str) -> dict[str, str]:
        """Bind-time handles on one ``IndexingTree``'s GC plumbing.

        Memoized per tree expression: every walk over the same tree in one
        kernel shares the notify/inspector/extension bindings.
        """
        ctx = self._tree_ctxs.get(tree_expr)
        if ctx is None:
            n = self.uid()
            ctx = {
                "nsub": self.bind(f"t{n}_nsub", f"{tree_expr}._notify_subtree"),
                "trx": self.bind(
                    f"t{n}_trx", f"{tree_expr}.tracks_extensions"
                ),
                "il": self.bind(f"t{n}_il", f"{tree_expr}._inspect_leaf"),
                "im": self.bind(f"t{n}_im", f"{tree_expr}._inspect_map"),
            }
            self._tree_ctxs[tree_expr] = ctx
        return ctx

    # -- inlined RVMap machinery -------------------------------------------

    def emit_scan(
        self, w: _Writer, d: int, node: str, buckets: str, holds_leaves: bool
    ) -> None:
        """Inline ``RVMap.scan_some`` on ``node`` (exact op-for-op copy).

        ``holds_leaves`` selects the inlined inspector: the fused
        ``IndexingTree._inspect_leaf`` for leaf-holding maps, the
        emptiness test of ``_inspect_map`` otherwise.  A dirty mapping is
        removed out of line by ``node._scan_bucket(key, True)`` — the very
        call ``scan_some`` makes — after the inline pass drops its
        references to the value, so no local keeps a dead leaf or its
        monitors alive past the removal.  With ``inline_scans`` off the
        walk calls ``scan_some`` itself: the same operations, in a tenth of
        the source.  The eager variant emits nothing: a back-linked map
        never scans.
        """
        if not self.inline_scans:
            if not self.eager:
                w.emit(d, f"{node}.scan_some()")
            return
        # Numbered in both variants, so the eager module's names stay those
        # of the plain module.
        u = self.uid()
        if self.eager:
            return
        w.emit(d, f"if {buckets}:")
        w.emit(d + 1, f"_ks{u} = {node}._scan_keys")
        w.emit(d + 1, f"_p{u} = {node}._scan_pos")
        # The key list only changes at the wrap refresh below (bucket
        # rebuilds touch the dict, never ``_scan_keys``), so its length is
        # loop-invariant between refreshes.
        w.emit(d + 1, f"_kn{u} = len(_ks{u})")
        w.emit(d + 1, f"for _s{u} in _brange:")
        w.emit(d + 2, f"if _p{u} >= _kn{u}:")
        w.emit(d + 3, f"_ks{u} = {node}._scan_keys = list({buckets})")
        w.emit(d + 3, f"_p{u} = 0")
        w.emit(d + 3, f"_kn{u} = len(_ks{u})")
        w.emit(d + 3, f"if not _kn{u}:")
        w.emit(d + 4, "break")
        w.emit(d + 2, f"_k{u} = _ks{u}[_p{u}]")
        w.emit(d + 2, f"_p{u} += 1")
        w.emit(d + 2, f"_v{u} = {buckets}.get(_k{u})")
        w.emit(d + 2, f"if _v{u} is None:")
        w.emit(d + 3, "continue")
        if holds_leaves:
            # Inlined IndexingTree._inspect_leaf (fused clean + emptiness).
            w.emit(d + 2, f"if _k{u}() is not None:")
            w.emit(d + 3, f"_o{u} = _v{u}.own")
            w.emit(d + 3, f"if _o{u} is not None and _o{u}.flagged:")
            w.emit(d + 4, f"_v{u}.own = _o{u} = None")
            w.emit(d + 3, f"_x{u} = _v{u}.extensions")
            w.emit(d + 3, f"_lv{u} = False")
            w.emit(d + 3, f"if _x{u} is not None:")
            w.emit(d + 4, f"for _m{u} in _x{u}._items:")
            w.emit(d + 5, f"if _m{u}.flagged:")
            w.emit(d + 6, f"_x{u}.compact()")
            w.emit(d + 6, f"_lv{u} = bool(_x{u}._items)")
            w.emit(d + 6, f"_m{u} = None")
            w.emit(d + 6, "break")
            w.emit(d + 5, f"_lv{u} = True")
            w.emit(
                d + 3,
                f"if _v{u}.touched is not None or _o{u} is not None or _lv{u}:",
            )
            w.emit(d + 4, "continue")
            held = f"_v{u} = _o{u} = _x{u} = _m{u} = None"
        else:
            w.emit(d + 2, f"if _k{u}() is not None and _v{u}._buckets:")
            w.emit(d + 3, "continue")
            held = f"_v{u} = None"
        # A dead key, or a live one whose value the inspection drops.
        w.emit(d + 2, held)
        w.emit(d + 2, f"{node}._scan_bucket(_k{u}, True)")
        w.emit(d + 1, f"{node}._scan_pos = _p{u}")

    def emit_new_leaf(
        self, w: _Writer, d: int, ctx: dict[str, str], child: str
    ) -> None:
        """Inline ``IndexingTree._new_leaf`` (Leaf + optional RVSet)."""
        u = self.uid()
        w.emit(d, f"{child} = _LF_new(_Leaf)")
        w.emit(d, f"{child}.own = None")
        w.emit(d, f"if {ctx['trx']}:")
        w.emit(d + 1, f"_xs{u} = _RS_new(_RVSet)")
        w.emit(d + 1, f"_xs{u}._items = []")
        w.emit(d + 1, f"_xs{u}._active = None")
        w.emit(d + 1, f"{child}.extensions = _xs{u}")
        w.emit(d, "else:")
        w.emit(d + 1, f"{child}.extensions = None")
        w.emit(d, f"{child}.touched = None")

    def emit_new_map(
        self,
        w: _Writer,
        d: int,
        ctx: dict[str, str],
        child: str,
        child_holds_leaves: bool,
        param: str,
        depth: int,
        parent: str,
        key: str,
    ) -> None:
        """Inline interior-node construction (``_TreeBase._new_node``);
        ``param`` and ``depth`` name the new map's level, and ``parent``
        and ``key`` where it is keyed (its back-link and way up, in the
        eager variant)."""
        insp = ctx["il"] if child_holds_leaves else ctx["im"]
        w.emit(d, f"{child} = _RM_new({'_LinkedRVMap' if self.eager else '_RVMap'})")
        w.emit(d, f"{child}._buckets = {{}}")
        if not self.eager:
            w.emit(d, f"{child}._scan_keys = []")
            w.emit(d, f"{child}._scan_pos = 0")
        w.emit(d, f"{child}.on_dead_value = {ctx['nsub']}")
        w.emit(d, f"{child}.inspect_value = {insp}")
        if self.eager:
            w.emit(d, f"{child}.link = (_wref({child}), {param!r}, {depth}, _slot)")
            w.emit(
                d,
                f"{child}.up = None if type({key}) is _ParamEntry else ({parent}.link[0], {key})",
            )
        else:
            w.emit(d, f"{child}.scan_budget = _budget")

    def emit_insert(
        self, w: _Writer, d: int, node: str, buckets: str, entry: str, child: str
    ) -> None:
        """Key ``child`` under ``entry`` in ``node`` (a proven-absent key:
        ``RVMap.put_fresh``, or ``LinkedRVMap.put_fresh`` when eager)."""
        w.emit(d, f"{buckets}[{entry}] = {child}")
        if self.eager:
            w.emit(d, f"_link_key({entry}, {node}.link)")

    def emit_main_walk(self, w: _Writer, d: int) -> None:
        """The event-domain walk of ``lookup_entries(ents, create=True)``."""
        depth = self.depth
        ctx = self.tree_ctx("tree")
        node, buckets = "root", "buckets0"
        for level in range(depth):
            leaf_level = level + 1 == depth
            child = "leaf" if leaf_level else f"node{level + 1}"
            self.emit_scan(w, d, node, buckets, leaf_level)
            w.emit(d, f"{child} = {buckets}.get(e{level})")
            w.emit(d, f"if {child} is None:")
            if leaf_level:
                self.emit_new_leaf(w, d + 1, ctx, child)
            else:
                self.emit_new_map(
                    w, d + 1, ctx, child, level + 2 == depth,
                    self.ep.params[level + 1], level + 1, node, f"e{level}",
                )
            self.emit_insert(w, d + 1, node, buckets, f"e{level}", child)
            if not leaf_level:
                node = child
                buckets = f"_bk{level + 1}"
                w.emit(d, f"{buckets} = {node}._buckets")

    def emit_aux_create_walk(
        self,
        w: _Writer,
        d: int,
        domain: frozenset,
        ents: tuple[str, ...],
        out: str,
    ) -> None:
        """A ``lookup_entries(ents, create=True)`` over ``domain``'s tree.

        Used by the inlined materialize to register the new monitor in
        its own leaf and the extension sets of every strictly-smaller
        event domain; the walk performs exactly the scan/probe/create
        sequence of ``_TreeBase.lookup_entries`` on that tree.
        """
        tree_path = self.tree(domain)
        params = sorted(domain)
        n = self.uid()
        root = self.bind(f"t{n}_root", f"{tree_path}._root")
        depth = len(ents)
        if depth == 0:
            w.emit(d, f"{out} = {root}")
            return
        ctx = self.tree_ctx(tree_path)
        node = root
        buckets = self.bind(f"t{n}_buckets", f"{root}._buckets")
        for i in range(depth):
            leaf_level = i + 1 == depth
            child = out if leaf_level else f"_n{n}_{i + 1}"
            self.emit_scan(w, d, node, buckets, leaf_level)
            w.emit(d, f"{child} = {buckets}.get({ents[i]})")
            w.emit(d, f"if {child} is None:")
            if leaf_level:
                self.emit_new_leaf(w, d + 1, ctx, child)
            else:
                self.emit_new_map(
                    w, d + 1, ctx, child, i + 2 == depth, params[i + 1], i + 1,
                    node, ents[i],
                )
            self.emit_insert(w, d + 1, node, buckets, ents[i], child)
            if not leaf_level:
                node = child
                buckets = f"_nbk{n}_{i + 1}"
                w.emit(d, f"{buckets} = {node}._buckets")

    def emit_aux_walk(
        self,
        w: _Writer,
        d: int,
        tree_path: str,
        ents: tuple[str, ...],
        out: str,
    ) -> None:
        """A ``lookup_entries(ents, create=False)`` over an auxiliary tree.

        ``tree_path`` is the bind-time expression for the tree or join
        index; ``ents`` names the entry variables feeding each level.
        """
        n = self.uid()
        root = self.bind(f"t{n}_root", f"{tree_path}._root")
        depth = len(ents)
        w.emit(d, f"{out} = None")

        def level(d: int, node: str, buckets: str, i: int) -> None:
            leaf_level = i + 1 == depth
            child = out if leaf_level else f"_n{n}_{i + 1}"
            self.emit_scan(w, d, node, buckets, leaf_level)
            w.emit(d, f"{child} = {buckets}.get({ents[i]})")
            if not leaf_level:
                w.emit(d, f"if {child} is not None:")
                nb = f"_nb{n}_{i + 1}"
                w.emit(d + 1, f"{nb} = {child}._buckets")
                level(d + 1, child, nb, i + 1)

        if depth == 0:
            # An empty join key: the index is its root set.
            w.emit(d, f"{out} = {root}")
        else:
            buckets = self.bind(f"t{n}_buckets", f"{root}._buckets")
            level(d, root, buckets, 0)

    # -- kernel sections ----------------------------------------------------

    def emit_entries(self, w: _Writer, d: int) -> None:
        """Resolve each event value to its ledger entry: an index probe
        checked against the live referent, the ledger's ``entry`` on a
        miss (first sight, or a value that is not weak-referenceable)."""
        for i in range(self.depth):
            w.emit(d, f"e{i} = _by_id.get(id(v{i}))")
            w.emit(d, f"if e{i} is None or e{i}() is not v{i}:")
            w.emit(d + 1, f"e{i} = _entry(v{i})")

    def emit_header(self, w: _Writer, d: int, spec_name: str) -> None:
        ep = self.ep
        w.emit(d, "if record:")
        w.emit(d + 1, "stats.events += 1")
        w.emit(d, "serial = rt._event_serial + 1")
        w.emit(d, "rt._event_serial = serial")
        if self.depth:
            w.emit(d, "try:")
            for i, param in enumerate(ep.params):
                w.emit(d + 1, f"v{i} = values[{param!r}]")
            w.emit(d, "except KeyError as exc:")
            prefix = (
                f"event {ep.event!r} of {spec_name} requires parameter "
            )
            w.emit(
                d + 1,
                f"raise InconsistentEventError({prefix!r} + repr(exc.args[0])) "
                "from None",
            )
            if self.timed:
                w.emit(d, "_t0 = _pc()")
            self.emit_entries(w, d)
            self.emit_main_walk(w, d)
            if self.timed:
                w.emit(d, "_tw = _pc() - _t0")
        else:
            w.emit(d, "leaf = root_leaf")
            if self.timed:
                w.emit(d, "_tw = 0.0")
        w.emit(d, "if leaf.touched is None:")
        w.emit(d + 1, "leaf.touched = serial")

    def emit_step(self, w: _Writer, d: int) -> None:
        """Inlined ``RVSet.iter_active`` + the monitor-stepping loop."""
        ep = self.ep
        w.emit(d, "extensions = leaf.extensions")
        if self.timed:
            w.emit(d, "_tf = 0.0")
        w.emit(d, "if extensions is not None and extensions._items:")
        d += 1
        if self.timed:
            w.emit(d, "_t1 = _pc()")
        w.emit(d, "for _m in extensions._items:")
        w.emit(d + 1, "if _m.flagged:")
        w.emit(d + 2, "extensions.compact()")
        # The flagged monitor just compacted away is garbage now.
        w.emit(d + 2, "_m = None")
        w.emit(d + 2, "break")
        w.emit(d, "active = extensions._active")
        w.emit(d, "if active is None:")
        w.emit(d + 1, "active = extensions._active = tuple(extensions._items)")
        if self.has_fsm:
            w.emit(d, "for monitor in active:")
            w.emit(d + 1, "base = monitor.base")
            w.emit(d + 1, "_sid = col[base._state_id]")
            w.emit(d + 1, "base._state_id = _sid")
            w.emit(d + 1, f"monitor.last_event = {ep.event!r}")
            w.emit(d + 1, "_vd = fire_col[_sid]")
            w.emit(d + 1, "if _vd is not None:")
            w.emit(d + 2, "fire_goal(monitor, _vd)")
        else:
            w.emit(d, "for monitor in active:")
            w.emit(d + 1, f"step(monitor, {ep.event!r})")
        if self.timed:
            w.emit(d, "_tf = _pc() - _t1")

    def emit_creation(self, w: _Writer, d: int) -> None:
        """Monitor creation (Algorithm MONITOR's defineTo and join):
        the event binding from a live sub-instance or from scratch, then
        one candidate loop per join plan."""
        ep = self.ep
        self._bind_materialize()
        if self.sources or ep.allows_fresh:
            # The target's own touch stamp gates every self-creation
            # identically (D(e) ⊄ K for K ⊊ D(e)), so it is tested on the
            # event leaf before any source probing.
            guard = "(leaf.own is None or leaf.own.flagged)"
            if ep.check_event_leaf:
                guard += (
                    " and leaf.touched == serial and (pretouched is None"
                    f" or {self.domain_var(ep.domain)} not in pretouched)"
                )
            w.emit(d, f"if {guard}:")
            ents = tuple(f"e{i}" for i in range(self.depth))
            insert = self.plan.insert_plans[ep.domain]

            def emit_sources(d: int, i: int) -> None:
                # Largest first; the first live source seeds the monitor.
                if i == len(self.sources):
                    if ep.allows_fresh:
                        self.emit_branch(
                            w, d, ep.fresh_checks, ents, True, insert, "None", "leaf"
                        )
                    return
                src = self.sources[i]
                u = self.uid()
                out = f"_sl{u}"
                src_ents = tuple(ents[k] for k in src.extract)
                self.emit_aux_walk(w, d, self.tree(src.domain), src_ents, out)
                w.emit(d, f"_so{u} = {out}.own if {out} is not None else None")
                w.emit(d, f"if _so{u} is not None and not _so{u}.flagged:")
                self.emit_branch(
                    w, d + 1, src.checks, ents, True, insert, f"_so{u}", "leaf"
                )
                if i + 1 < len(self.sources) or ep.allows_fresh:
                    w.emit(d, "else:")
                    emit_sources(d + 1, i + 1)

            emit_sources(d + 1, 0)
        for jp in ep.joins:
            self.emit_join(w, d, jp)

    def emit_branch(
        self,
        w: _Writer,
        d: int,
        checks: tuple[DomainCheck, ...],
        ents: tuple[str, ...],
        pretouched: bool,
        insert: InsertPlan,
        source_expr: str,
        own_leaf: str | None,
    ) -> None:
        """The validity-check chain (``_creation_is_valid`` over the plan's
        checks), then the materialize.  The single-iteration ``while
        True`` gives the chain an early exit without a helper call: any
        failing probe breaks out before the materialize.  ``pretouched``
        says whether the router's pretouched domains invalidate too (self
        creation only)."""
        w.emit(d, "while True:")
        d += 1
        for check in checks:
            u = self.uid()
            if pretouched:
                dom = self.domain_var(check.domain)
                w.emit(d, f"if pretouched is not None and {dom} in pretouched:")
                w.emit(d + 1, "break")
            out = f"_cl{u}"
            sub_ents = tuple(ents[k] for k in check.extract)
            self.emit_aux_walk(w, d, self.tree(check.domain), sub_ents, out)
            w.emit(d, f"if {out} is not None:")
            w.emit(d + 1, f"_ct{u} = {out}.touched")
            w.emit(d + 1, f"if _ct{u} is not None and _ct{u} < serial:")
            w.emit(d + 2, "break")
        self.emit_materialize(w, d, insert, ents, source_expr, own_leaf)
        w.emit(d, "break")

    def emit_join(self, w: _Writer, d: int, jp: JoinPlan) -> None:
        """One join plan: instances of ``jp.join_domain`` compatible with
        the event, found through their join index, each create the
        ``jp.target_domain`` instance unless it exists, was touched before
        now, or fails a validity check.  A candidate with a dead parameter
        is skipped; a live one's parameter objects are held for the rest of
        the call, as the reference path's ``candidate_values`` holds them.

        The loop's walks call ``RVMap.scan_some`` rather than inline it
        (the eager variant scans nothing): joins are rare, and a
        three-parameter target's walks hold sixteen scans, which inlined
        would double the factory's source and the memory peak of compiling
        it.
        """
        self.inline_scans = False
        u = self.uid()
        bucket = f"_jb{u}"
        index = self.index(jp.join_domain, frozenset(jp.key_params))
        key_ents = tuple(f"e{i}" for i in jp.key_extract)
        self.emit_aux_walk(w, d, index, key_ents, bucket)
        w.emit(d, f"if {bucket} is not None:")
        d += 1
        # Inlined RVSet.iter_active: compact on the first flagged member,
        # then iterate the cached snapshot.
        w.emit(d, f"for _jm{u} in {bucket}._items:")
        w.emit(d + 1, f"if _jm{u}.flagged:")
        w.emit(d + 2, f"{bucket}.compact()")
        w.emit(d + 2, f"_jm{u} = None")
        w.emit(d + 2, "break")
        w.emit(d, f"_ja{u} = {bucket}._active")
        w.emit(d, f"if _ja{u} is None:")
        w.emit(d + 1, f"_ja{u} = {bucket}._active = tuple({bucket}._items)")
        w.emit(d, f"for candidate in _ja{u}:")
        d += 1
        w.emit(d, f"if candidate.domain != {self.domain_var(jp.join_domain)}:")
        w.emit(d + 1, "continue")
        w.emit(d, "_jp = candidate.params")
        for k, name in enumerate(jp.join_params):
            w.emit(d, f"_je{u}_{k} = _jp[{name!r}]")
            w.emit(d, f"_jv{u}_{k} = _je{u}_{k}()")
            w.emit(d, f"if _jv{u}_{k} is None:")
            w.emit(d + 1, "continue")
        ents = tuple(
            f"_je{u}_{k}" if from_candidate else f"e{k}"
            for from_candidate, k in jp.merge
        )
        target = f"_tl{u}"
        self.emit_aux_walk(w, d, self.tree(jp.target_domain), ents, target)
        w.emit(d, f"if {target} is not None:")
        w.emit(d + 1, f"if {target}.own is not None and not {target}.own.flagged:")
        w.emit(d + 2, "continue")
        if jp.check_target:
            w.emit(d + 1, f"_tt{u} = {target}.touched")
            w.emit(d + 1, f"if _tt{u} is not None and _tt{u} < serial:")
            w.emit(d + 2, "continue")
        insert = self.plan.insert_plans[jp.target_domain]
        self.emit_branch(w, d, jp.checks, ents, False, insert, "candidate", None)
        # Let go of the snapshot when the loop ends, as a for loop over
        # ``iter_active()`` does.
        w.emit(d - 1, f"_ja{u} = _jm{u} = None")
        self.inline_scans = True

    def _bind_materialize(self) -> None:
        """Bind-time closures for the inlined materialize body."""
        ep = self.ep
        self.bind("_prop", "rt.prop")
        self.bind("_template_create", "rt.prop.template.create")
        self.bind("_live_refs", "rt._collection_refs")
        # The cheap stand-in for ``weakref.finalize(monitor,
        # stats.record_collection)``: a plain weak reference whose callback
        # fires at the same point in the object's death (both are weakref
        # callbacks on the monitor), without finalize's registry + atexit
        # bookkeeping on every creation.
        self.prelude += [
            "def _on_collected(_ref, _discard=rt._collection_refs.discard,"
            " _record=stats.record_collection):",
            "    _discard(_ref)",
            "    _record()",
        ]
        if self.has_fsm:
            self.bind("_tpl", "rt.prop.template.create()")
        if self.has_fsm and ep.allows_fresh:
            # Every fresh monitor starts in the template's initial state,
            # so its first transition — and whether it fires a verdict —
            # is a bind-time constant.
            self.bind(
                "_fresh_sid", "col[rt.prop.template.create()._state_id]"
            )
            self.bind("_fresh_fire", "fire_col[_fresh_sid]")

    def emit_materialize(
        self,
        w: _Writer,
        d: int,
        ip: InsertPlan,
        ents: tuple[str, ...],
        source_expr: str,
        own_leaf: str | None,
    ) -> None:
        """Create, register, watch and step one new monitor of ``ip.domain``
        over ``ents`` (its parameter entries, in ``ip.params`` order).

        The operation order is fixed, and the pinned lifetime table was
        recorded with it: base state, own-leaf registration (``own_leaf``,
        or a create-walk of the domain's tree when ``None``), extension
        registrations (each an inlined create-walk with its scans) in
        :class:`InsertPlan` order, join registrations, stats, collection
        watch, first step.
        """
        ep = self.ep
        if self.has_fsm:
            # FSMMonitor.clone / FSMTemplate.create are four slot copies
            # off a prototype (fresh monitors all start at the template's
            # initial state) — inline them.
            u = self.uid()
            proto = "_tpl" if source_expr == "None" else f"_sb{u}"
            if source_expr != "None":
                w.emit(d, f"_sb{u} = {source_expr}.base")
            w.emit(d, "base = _FM_new(_FSMMonitor)")
            w.emit(d, f"base._fsm = {proto}._fsm")
            w.emit(d, f"base._table = {proto}._table")
            w.emit(d, f"base._state_id = {proto}._state_id")
            w.emit(d, f"base._inert = {proto}._inert")
        elif source_expr == "None":
            w.emit(d, "base = _template_create()")
        else:
            w.emit(d, f"base = {source_expr}.base.clone()")
        w.emit(d, "rt._serial = _mser = rt._serial + 1")
        # Inlined MonitorInstance.__init__ (slot writes, no dict copy; the
        # domain frozenset is a bind-time constant).
        pairs = ", ".join(f"{param!r}: {ent}" for param, ent in zip(ip.params, ents))
        w.emit(d, "monitor = _MI_new(_MonitorInstance)")
        w.emit(d, "monitor.prop = _prop")
        w.emit(d, "monitor.base = base")
        w.emit(d, f"monitor.params = {{{pairs}}}")
        w.emit(d, f"monitor.domain = {self.domain_var(ip.domain)}")
        w.emit(d, "monitor.last_event = None")
        w.emit(d, "monitor.flagged = False")
        w.emit(d, "monitor.serial = _mser")
        w.emit(d, "monitor.provenance = None")
        if own_leaf is None:
            own_leaf = f"_ol{self.uid()}"
            self.emit_aux_create_walk(w, d, ip.domain, ents, own_leaf)
        w.emit(d, f"{own_leaf}.own = monitor")
        if ip.own_is_event_domain:
            w.emit(d, f"_lx = {own_leaf}.extensions")
            w.emit(d, "if _lx is not None:")
            w.emit(d + 1, "_lx._items.append(monitor)")
            w.emit(d + 1, "_lx._active = None")
        for ext_domain, extract in ip.extension_entries:
            u = self.uid()
            out = f"_el{u}"
            self.emit_aux_create_walk(
                w, d, ext_domain, tuple(ents[i] for i in extract), out
            )
            w.emit(d, f"_ex{u} = {out}.extensions")
            w.emit(d, f"if _ex{u} is not None:")
            w.emit(d + 1, f"_ex{u}._items.append(monitor)")
            w.emit(d + 1, f"_ex{u}._active = None")
        for (join_domain, key_domain), extract in ip.join_entries:
            idx = self.index(join_domain, key_domain)
            w.emit(d, f"{idx}.add_entries({_tuple(ents[i] for i in extract)}, monitor)")
        # Inlined MonitorStats.record_creation (counter + live peak).
        w.emit(d, "stats.monitors_created = _mc = stats.monitors_created + 1")
        w.emit(d, "_mlive = _mc - stats.monitors_collected")
        w.emit(d, "if _mlive > stats.peak_live_monitors:")
        w.emit(d + 1, "stats.peak_live_monitors = _mlive")
        w.emit(d, "_live_refs.add(_wref(monitor, _on_collected))")
        if self.has_fsm:
            if source_expr == "None":
                w.emit(d, "base._state_id = _fresh_sid")
                w.emit(d, f"monitor.last_event = {ep.event!r}")
                w.emit(d, "if _fresh_fire is not None:")
                w.emit(d + 1, "fire_goal(monitor, _fresh_fire)")
            else:
                w.emit(d, "_msid = col[base._state_id]")
                w.emit(d, "base._state_id = _msid")
                w.emit(d, f"monitor.last_event = {ep.event!r}")
                w.emit(d, "_mvd = fire_col[_msid]")
                w.emit(d, "if _mvd is not None:")
                w.emit(d + 1, "fire_goal(monitor, _mvd)")
        else:
            w.emit(d, f"step(monitor, {ep.event!r})")

    # -- factories ----------------------------------------------------------

    def emit_factory(self, w: _Writer, name: str, spec_name: str) -> None:
        body = _Writer()
        body.emit(1, "def kernel(values, record=True, pretouched=None):")
        self.emit_header(body, 2, spec_name)
        self.emit_step(body, 2)
        if self.ep.has_creation:
            self.emit_creation(body, 2)
        if self.timed:
            body.emit(2, "return _tw, _tf")
        body.emit(1, "return kernel")
        self._write_factory(w, name, body)

    def _write_factory(self, w: _Writer, name: str, body: _Writer) -> None:
        w.blank()
        w.blank()
        w.emit(0, f"def {name}(rt):")
        for line in self._common_prelude():
            w.emit(1, line)
        for line in self.prelude:
            w.emit(1, line)
        w.lines.extend(body.lines)
        self.prelude = []

    def _common_prelude(self) -> list[str]:
        lines = [
            "stats = rt.stats",
            f"tree = rt.trees[{_domain(self.ep.domain)}]",
        ]
        if not self.eager:
            lines += ["_budget = tree._scan_budget", "_brange = range(_budget)"]
        if self.depth:
            lines += [
                "root = tree._root",
                "buckets0 = root._buckets",
                "_by_id = rt.ledger._by_id",
                "_entry = rt.ledger.entry",
            ]
        else:
            lines.append("root_leaf = tree._root")
        if self.eager:
            lines.append("_slot = rt.slot")
        if self.has_fsm:
            lines += [
                "rows = rt._fsm_rows",
                "goal = rt._fsm_goal",
                "verdicts = rt._fsm_verdicts",
                f"col = tuple([row[{self.ep.event_id}] for row in rows])",
                # Goal test and verdict lookup fused into one column: a
                # step pays one subscript, not two, on the common (no
                # verdict) outcome.
                "fire_col = tuple(["
                "verdicts[_i] if goal[_i] else None for _i in range(len(goal))"
                "])",
                "fire_goal = rt._fire_goal",
            ]
        else:
            lines.append("step = rt._step")
        return lines


def _evict_factory(plan: DispatchPlan) -> str:
    """The eager variant's eviction step: ``_make_evict(rt) -> evict``.

    ``evict(flagged)`` drops each freshly flagged monitor from every
    structure that still holds it, the reference tier's
    ``PropertyRuntime._evict_flagged`` unrolled per monitor domain: one
    function per domain walks, in the runtime's order, each event-domain
    tree below it (own slot and extension set), its own tree, and its
    join indices, each by ``lookup_entries`` over the monitor's own
    entries where they are all alive.  Structures keyed by a dead entry
    were already purged through its back-links.  A structure whose last
    key is immortal is handed to ``drop_emptied`` after the cleanup: no
    death will take it along.
    """
    w = _Writer()
    w.blank()
    w.blank()
    w.emit(0, "def _make_evict(rt):")
    body = _Writer()
    bound: dict[str, str] = {}

    def bind(prefix: str, expr: str) -> str:
        """A bind-time structure variable (first use emits it)."""
        var = bound.get(expr)
        if var is None:
            var = bound[expr] = f"{prefix}{len(bound)}"
            w.emit(1, f"{var} = {expr}")
        return var

    def lookup(out: str, structure: str, domain: frozenset, slot: dict) -> int:
        """``out = structure.lookup_entries(...)`` under the all-alive
        test of ``domain``'s entries; returns the indentation below it."""
        params = sorted(domain)
        d = 2
        if params:
            body.emit(d, "if " + " and ".join(f"a{slot[p]}" for p in params) + ":")
            d += 1
        ents = _tuple(f"e{slot[p]}" for p in params)
        body.emit(d, f"{out} = {structure}.lookup_entries({ents}, False)")
        return d

    def drop(structure: str, domain: frozenset, slot: dict, d: int) -> None:
        """``structure.drop_emptied(...)`` when ``domain``'s last entry in
        tree order is immortal."""
        params = sorted(domain)
        if params:
            body.emit(d, f"if type(e{slot[params[-1]]}) is not _ParamEntry:")
            ents = _tuple(f"e{slot[p]}" for p in params)
            body.emit(d + 1, f"{structure}.drop_emptied({ents})")

    evictors: list[tuple[frozenset, str]] = []
    for number, domain in enumerate(sorted(plan.monitor_domains, key=_domain_sort_key)):
        name = f"evict_{number}"
        evictors.append((domain, name))
        slot = {param: k for k, param in enumerate(sorted(domain))}
        body.blank()
        body.emit(1, f"def {name}(monitor):")
        body.emit(2, "params = monitor.params")
        for param, k in slot.items():
            body.emit(2, f"e{k} = params[{param!r}]")
        for k in slot.values():
            body.emit(2, f"a{k} = e{k}() is not None")
        for event_domain in plan.event_domains:
            if event_domain <= domain:
                tree = bind("tree", f"rt.trees[{_domain(event_domain)}]")
                d = lookup("leaf", tree, event_domain, slot)
                body.emit(d, "if leaf is not None:")
                body.emit(d + 1, "if leaf.own is monitor:")
                body.emit(d + 2, "leaf.own = None")
                body.emit(d + 1, "if leaf.extensions is not None:")
                body.emit(d + 2, "leaf.extensions.compact()")
                drop(tree, event_domain, slot, d + 1)
        if domain not in plan.event_domains:
            tree = bind("tree", f"rt.trees[{_domain(domain)}]")
            d = lookup("leaf", tree, domain, slot)
            body.emit(d, "if leaf is not None and leaf.own is monitor:")
            body.emit(d + 1, "leaf.own = None")
            drop(tree, domain, slot, d + 1)
        for join_domain, key_domain in plan.join_index_keys:
            if join_domain == domain:
                key = f"({_domain(join_domain)}, {_domain(key_domain)})"
                index = bind("index", f"rt._join_indices[{key}]")
                d = lookup("bucket", index, key_domain, slot)
                body.emit(d, "if bucket is not None:")
                body.emit(d + 1, "bucket.compact()")
                drop(index, key_domain, slot, d + 1)
    w.lines.extend(body.lines)
    w.blank()
    w.emit(1, "evictors = {")
    for domain, name in evictors:
        w.emit(2, f"{_domain(domain)}: {name},")
    w.emit(1, "}")
    w.blank()
    w.emit(1, "def evict(flagged):")
    w.emit(2, "for monitor in flagged:")
    w.emit(3, "evictors[monitor.domain](monitor)")
    w.blank()
    w.emit(1, "return evict")
    return w.source()


def _module_parts(
    plan: DispatchPlan,
    *,
    has_fsm: bool,
    spec_name: str,
    fingerprint: str,
    timed: bool = False,
    eager: bool = False,
) -> tuple[str, list[tuple[str, str, str]]]:
    """The generated module as ``(header, factories)``.

    ``factories`` lists ``(event, factory name, source)`` in module
    order; each source is one top-level ``def _make_*`` that needs only
    the header's names, so the cache can compile them one at a time.
    ``timed`` renders the attribution variant: the kernels with their
    timing probes.  ``eager`` renders the back-linking variant an eager
    engine binds, plus its eviction step, listed last under the event
    ``None``.
    """
    w = _Writer()
    w.emit(0, f'"""Generated dispatch kernels for {spec_name}')
    w.emit(0, f"(fingerprint {fingerprint or 'unkeyed'}).")
    w.emit(0, "")
    w.emit(0, "Auto-generated by repro.spec.codegen — do not edit; see")
    w.emit(0, 'docs/dispatch-kernels.md for the shape of this code."""')
    if timed:
        w.emit(0, "from time import perf_counter as _pc")
    w.emit(0, "from weakref import ref as _wref")
    w.emit(0, "")
    w.emit(0, "from repro.core.errors import InconsistentEventError")
    w.emit(0, "from repro.formalism.fsm import FSMMonitor as _FSMMonitor")
    w.emit(0, "from repro.runtime.indexing import Leaf as _Leaf")
    w.emit(0, "from repro.runtime.instance import MonitorInstance as _MonitorInstance")
    w.emit(0, "from repro.runtime.rvmap import RVMap as _RVMap")
    if eager:
        w.emit(0, "from repro.runtime.refs import ParamEntry as _ParamEntry")
        w.emit(0, "from repro.runtime.rvmap import LinkedRVMap as _LinkedRVMap")
        w.emit(0, "from repro.runtime.rvmap import link_key as _link_key")
    w.emit(0, "from repro.runtime.rvset import RVSet as _RVSet")
    w.emit(0, "")
    w.emit(0, "_FM_new = _FSMMonitor.__new__")
    w.emit(0, "_LF_new = _Leaf.__new__")
    w.emit(0, "_MI_new = _MonitorInstance.__new__")
    w.emit(0, "_RM_new = _RVMap.__new__")
    w.emit(0, "_RS_new = _RVSet.__new__")
    factories: list[tuple[str, str, str]] = []
    for index, event in enumerate(plan.events):
        ep = plan.event_plans[event]
        fw = _Writer()
        name = f"_make_{index}_{_sanitize(event)}"
        _KernelEmitter(plan, ep, has_fsm, timed, eager).emit_factory(fw, name, spec_name)
        factories.append((event, name, fw.source()))
    if eager:
        factories.append((None, "_make_evict", _evict_factory(plan)))
    return w.source(), factories


def kernel_module_source(
    plan: DispatchPlan,
    *,
    has_fsm: bool,
    spec_name: str,
    fingerprint: str = "",
    timed: bool = False,
    eager: bool = False,
) -> str:
    """Render the full generated-kernel module for one property.

    A pure function of ``(plan, has_fsm, spec_name, timed, eager)`` — the
    property fingerprint covers the first three — so equal fingerprints
    always yield byte-identical source (the cache-correctness invariant
    the invalidation tests pin down).
    """
    return _assemble(
        *_module_parts(
            plan,
            has_fsm=has_fsm,
            spec_name=spec_name,
            fingerprint=fingerprint,
            timed=timed,
            eager=eager,
        )
    )


def _assemble(header: str, factories: list[tuple[str | None, str, str]]) -> str:
    """Join :func:`_module_parts` into one module with its factory table
    (and, in the eager variant, its eviction factory as ``EVICT``)."""
    w = _Writer()
    w.emit(0, "FACTORIES = {")
    for event, name, _source in factories:
        if event is not None:
            w.emit(1, f"{event!r}: {name},")
    w.emit(0, "}")
    if factories and factories[-1][0] is None:
        w.emit(0, f"EVICT = {factories[-1][1]}")
    return header + "".join(part[2] for part in factories) + "\n\n" + w.source()


def kernel_source_for(
    prop: "CompiledProperty", timed: bool = False, eager: bool = False
) -> str:
    """The generated module source for one compiled property (diagnostics,
    docs, and the CI artifact dumped when the codegen perf gate fails)."""
    return kernel_module_source(
        prop.dispatch_plan(),
        has_fsm=prop.fsm_dispatch() is not None,
        spec_name=prop.spec_name,
        fingerprint=prop.fingerprint(),
        timed=timed,
        eager=eager,
    )


@dataclass
class KernelModule:
    """One compiled generated-kernel module (shared across runtimes)."""

    fingerprint: str
    spec_name: str
    source: str
    #: event -> ``factory(rt) -> kernel(values, record, pretouched)``
    factories: dict[str, Callable[..., Any]] = field(repr=False)
    #: The eager variant's ``factory(rt) -> evict(flagged)``, else None.
    evict_factory: Callable[..., Any] | None = field(default=None, repr=False)

    def bind(self, runtime: Any) -> dict[str, Any]:
        """Bind one runtime's kernels: event -> kernel.

        Calls every factory with the runtime, producing per-event closures
        over *its* trees, join indices (looked up by literal domain) and
        statistics.  Distinct runtimes of one property share code objects
        but never state.
        """
        return {event: make(runtime) for event, make in self.factories.items()}


class KernelCache:
    """Process-wide cache of compiled kernel modules, keyed by fingerprint.

    The fingerprint covers everything the generated source depends on, so
    a hit is always safe to reuse (hot re-load of an identical property,
    a second shard hosting the same slot) and any semantic change misses
    by construction.  ``invalidate``/``clear`` exist for tests and for
    callers that want to bound memory; correctness never requires them.
    """

    def __init__(self) -> None:
        self._modules: dict[str, KernelModule] = {}
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._modules)

    def __contains__(self, fingerprint: str) -> bool:
        return fingerprint in self._modules

    def module_for(
        self, prop: "CompiledProperty", timed: bool = False, eager: bool = False
    ) -> KernelModule:
        """The compiled kernel module for ``prop`` (generate on miss).

        ``timed`` selects the attribution variant, ``eager`` the
        back-linking one with its eviction step; they are cached under
        ``fingerprint`` plus ``":eager"`` and then ``":timed"``.  The
        header is compiled once, then each factory separately into the
        same namespace: compiling the whole module in one call would hold
        its complete syntax tree, several times the size of any one
        factory's, at the peak.
        """
        fingerprint = prop.fingerprint()
        variant = ":eager" * eager + ":timed" * timed
        key = fingerprint + variant
        with self._lock:
            module = self._modules.get(key)
            if module is not None:
                self.hits += 1
                return module
            self.misses += 1
        header, parts = _module_parts(
            prop.dispatch_plan(),
            has_fsm=prop.fsm_dispatch() is not None,
            spec_name=prop.spec_name,
            fingerprint=fingerprint,
            timed=timed,
            eager=eager,
        )
        filename = f"<repro-kernels:{prop.spec_name}:{fingerprint[:12]}{variant}>"
        namespace: dict[str, Any] = {}
        factories: dict[Any, Callable[..., Any]] = {}
        # The sources are generated above, never taken from input.
        exec(compile(header, filename, "exec"), namespace)  # noqa: S102
        for event, name, source in parts:
            exec(compile(source, filename, "exec"), namespace)  # noqa: S102
            factories[event] = namespace[name]
        module = KernelModule(
            fingerprint=fingerprint,
            spec_name=prop.spec_name,
            source=_assemble(header, parts),
            evict_factory=factories.pop(None, None),
            factories=factories,
        )
        with self._lock:
            # Two threads may have raced the generation; first one wins so
            # every runtime binds factories from the same code objects.
            return self._modules.setdefault(key, module)

    def invalidate(self, fingerprint: str) -> bool:
        """Drop one property's cached modules, every variant; returns
        whether the plain one was present."""
        with self._lock:
            for variant in (":timed", ":eager", ":eager:timed"):
                self._modules.pop(fingerprint + variant, None)
            return self._modules.pop(fingerprint, None) is not None

    def clear(self) -> None:
        with self._lock:
            self._modules.clear()
            self.hits = 0
            self.misses = 0


#: The process-wide cache every runtime binds kernels from by default.
shared_kernel_cache = KernelCache()
