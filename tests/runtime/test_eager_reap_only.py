"""A back-linked map never scans: eager engines hear of deaths only
through ``reap``.

Under eager propagation every map is a
:class:`~repro.runtime.rvmap.LinkedRVMap`, and each dead entry's
back-links name exactly the maps that key it, so neither dispatch tier
runs the lazy incremental scan (Section 4.2.1) on access.  These tests
hold that rule on both tiers: every bucket scan comes from the boundary
step or an explicit full scan, the keys stay bounded by the live objects
(the step drops what it empties under an immortal key, which never dies
to take it along), and a parameter that dies inside a verdict callback is reaped at
the next boundary as the full-scan oracle would.
"""

from __future__ import annotations

import sys
import zlib
from collections import Counter

import pytest

from repro.core.errors import UnsupportedFormalismError
from repro.properties import CATALOGUE, UNSAFEITER, UNSAFEMAPITER
from repro.runtime.engine import MonitoringEngine
from repro.runtime.indexing import Leaf
from repro.runtime.refs import ParamEntry
from repro.runtime.rvmap import RVMap

from ..conftest import Obj
from .test_dispatch_equivalence import (
    DISPATCHES,
    EAGER_FIELDS,
    GC_STRATEGIES,
    _DeathLog,
    reachable_dead,
    run_lockstep,
    synth_ops,
)
from .test_ledger import linked_maps

#: The only callers allowed to scan a bucket of an eager engine's maps.
REAP_OR_FULL_SCAN = {"reap", "scan_all"}


def scan_callers(monkeypatch) -> Counter:
    """Count the functions that call ``RVMap._scan_bucket`` from here on
    (generated kernels show up as ``kernel``)."""
    callers: Counter = Counter()
    scan_bucket = RVMap._scan_bucket

    def recording(node, key, known_dirty=False):
        callers[sys._getframe(1).f_code.co_name] += 1
        return scan_bucket(node, key, known_dirty)

    monkeypatch.setattr(RVMap, "_scan_bucket", recording)
    return callers


@pytest.mark.parametrize("key", sorted(CATALOGUE))
def test_eager_maps_scan_only_in_reap_or_a_full_scan(key, monkeypatch):
    """A catalogue property's trace with deaths, on eager engines of both
    tiers under every GC strategy: every bucket scan comes from ``reap``
    or ``scan_all``, and ``reap`` does scan.  The same trace on lazy
    engines scans on access too, so the recording sees other callers."""
    paper_prop = CATALOGUE[key]
    spec = paper_prop.make().silence()
    ops = synth_ops(spec.definition, seed=zlib.crc32(key.encode()) ^ 0x5CA7, burst=3)
    eager = {dispatch: ("eager", dispatch) for dispatch in DISPATCHES}
    checked = 0
    for gc_kind in GC_STRATEGIES:
        try:
            MonitoringEngine(paper_prop.make().silence(), gc=gc_kind)
        except UnsupportedFormalismError:
            continue
        callers = scan_callers(monkeypatch)
        run_lockstep(lambda: paper_prop.make().silence(), ops, gc_kind, eager)
        assert callers["reap"], (key, gc_kind)
        assert set(callers) <= REAP_OR_FULL_SCAN, (key, gc_kind, callers)
        callers.clear()
        run_lockstep(lambda: paper_prop.make().silence(), ops, gc_kind)
        assert set(callers) - REAP_OR_FULL_SCAN, (key, gc_kind)
        monkeypatch.undo()
        checked += 1
    assert checked


#: Per property: the property, and the events of one short-lived
#: iterator's life over the long-lived collection and map ``coll``.
ITERATOR_LIVES = {
    "unsafeiter": (
        UNSAFEITER,
        lambda coll, it: [
            ("create", {"c": coll["c"], "i": it}),
            ("next", {"i": it}),
            ("update", {"c": coll["c"]}),
        ],
    ),
    "unsafemapiter": (
        UNSAFEMAPITER,
        lambda coll, it: [
            ("createiter", {"c": coll["c"], "i": it}),
            ("useiter", {"i": it}),
            ("updatemap", {"m": coll["m"]}),
        ],
    ),
}
ITERATORS = 10_000


@pytest.mark.parametrize("dispatch", DISPATCHES)
@pytest.mark.parametrize("key", sorted(ITERATOR_LIVES))
def test_keys_stay_bounded_by_the_live_objects(key, dispatch):
    """A long-lived collection (and map) outlives 10k short-lived
    iterators.  Without incremental scans, a structure emptied under a
    live key stays until that key dies; but each iterator's own keys are
    reaped at the boundary after its death, so after every event no map
    keys a dead object (checked while the iterator still lives, the one
    before it reaped) and the total keys across the trees stay at what
    the first iterators left."""
    paper_prop, life = ITERATOR_LIVES[key]
    engine = MonitoringEngine(paper_prop.make().silence(), system="tm", dispatch=dispatch)
    coll = {"c": Obj("c"), "m": Obj("m")}
    if key == "unsafemapiter":
        engine.emit("createcoll", c=coll["c"], m=coll["m"])
    totals = []
    for n in range(ITERATORS):
        it = Obj(f"i{n}")
        for event, values in life(coll, it):
            engine.emit(event, **values)
        if n % 100 == 0:
            maps = linked_maps(engine)
            assert all(entry() is not None for node in maps for entry in node._buckets)
            totals.append(sum(len(node._buckets) for node in maps))
            del maps
        del it
    assert engine.stats_for(paper_prop.make().properties[0].spec_name).monitors_collected
    assert max(totals) == max(totals[:3]), totals


def empty_structures(engine) -> list:
    """What the death step must have dropped: every structure under an
    immortal key that a scan's inspection would drop (Section 5.1.1), a
    map that keys nothing, or a leaf or set that holds neither an
    unflagged monitor nor a ``touched`` stamp."""
    found = []
    for node in linked_maps(engine):
        for key, value in node._buckets.items():
            if type(key) is ParamEntry:
                continue
            if isinstance(value, RVMap):
                empty = not value._buckets
            elif type(value) is Leaf:
                empty = value.is_empty()
            else:
                empty = all(monitor.flagged for monitor in value._items)
            if empty:
                found.append(value)
    return found


#: Per kind of life: the events of one short-lived iterator over the int
#: collection ``coll``, and whether the collection keeps a monitor of
#: its own (``update`` creates one, which an int never lets die).
IMMORTAL_LIVES = {
    "create-next": (
        lambda coll, it: [("create", {"c": coll, "i": it}), ("next", {"i": it})],
        False,
    ),
    "create-next-update": (
        lambda coll, it: [
            ("create", {"c": coll, "i": it}),
            ("next", {"i": it}),
            ("update", {"c": coll}),
        ],
        True,
    ),
}


@pytest.mark.parametrize("dispatch", DISPATCHES)
@pytest.mark.parametrize("life", sorted(IMMORTAL_LIVES))
def test_structures_under_immortal_keys_are_dropped_when_emptied(life, dispatch):
    """UNSAFEITER over int collections, each used by 10 iterators and then
    abandoned, for 10k short-lived iterators.  An int is an immortal key:
    it never dies, so only the death step can drop what an iterator's
    death empties under it, here the submap of the ``<c, i>`` tree and
    the ``<c>`` leaf whose extensions were evicted.  After every hundredth
    iterator no structure under an int is empty; without ``update`` no
    monitor outlives its iterator, so the total keys stay at what the
    first iterators left, and with it they stay within the live monitors
    (one ``<c>`` monitor per int seen) plus the last iterator's keys."""
    events, keeps_monitor = IMMORTAL_LIVES[life]
    engine = MonitoringEngine(UNSAFEITER.make().silence(), system="tm", dispatch=dispatch)
    totals = []
    for n in range(ITERATORS):
        it = Obj(f"i{n}")
        for event, values in events(n // 10, it):
            engine.emit(event, **values)
        if n % 100 == 0:
            assert not empty_structures(engine), n
            maps = linked_maps(engine)
            total = sum(len(node._buckets) for node in maps)
            del maps
            assert total <= engine.total_live_monitors() + 4, (n, total)
            totals.append(total)
        del it
    assert engine.stats_for("UnsafeIter").monitors_collected
    if not keeps_monitor:
        assert max(totals) == max(totals[:3]), totals


#: Both eager tiers and the full-scan oracle: a lazy engine on generated
#: kernels, fully scanned before every event.
VERDICT_CONFIGS = {
    "codegen": ("eager", "codegen"),
    "reference": ("eager", "reference"),
    "full": ("lazy", "codegen"),
}


def test_a_parameter_freed_by_a_verdict_callback_is_reaped_at_the_next_boundary():
    """UNSAFEITER under state-based GC: each match's ``on_verdict`` drops
    the last strong reference to the matched collection, so it dies
    mid-dispatch.  An eager engine reaps it at the next event boundary,
    reporting the payload a walk from the roots finds, and after every
    event no map keys an object that died before it.  The verdicts, E, M,
    FM, CM, the live peak and the live count after every event equal the
    full-scan oracle's."""
    outcome = {}
    for name, (propagation, dispatch) in VERDICT_CONFIGS.items():
        colls = [Obj(f"c{n}") for n in range(6)]
        verdicts: Counter = Counter()

        def on_verdict(prop, category, monitor, colls=colls, verdicts=verdicts):
            binding = monitor.binding()
            verdicts[category, tuple(sorted((k, v.name) for k, v in binding.items()))] += 1
            colls[colls.index(binding["c"])] = None

        engine = MonitoringEngine(
            UNSAFEITER.make().silence(), gc="statebased", propagation=propagation,
            dispatch=dispatch, on_verdict=on_verdict,
        )
        log = engine.add_observer(_DeathLog())
        live = []

        def emit(event, **values):
            if propagation == "lazy":
                engine.flush_gc()
            elif engine._pending_dead:
                log.expected.append(reachable_dead(engine))
            engine.emit(event, **values)
            live.append(engine.total_live_monitors())
            if propagation == "eager":
                pending = set(engine._pending_dead)
                assert all(
                    entry() is not None or entry in pending
                    for node in linked_maps(engine)
                    for entry in node._buckets
                )

        # Iterators stay alive: only collections die, inside the callback.
        iterators = []
        for step in range(60):
            slot = step % len(colls)
            if colls[slot] is None:
                colls[slot] = Obj(f"c{step}")
            it = Obj(f"i{step}")
            iterators.append(it)
            emit("create", c=colls[slot], i=it)
            emit("next", i=it)
            if step % 3 == 0:
                emit("update", c=colls[slot])
                emit("next", i=it)
        stats = engine.stats_for("UnsafeIter")
        outcome[name] = verdicts, live, [getattr(stats, f) for f in EAGER_FIELDS]
        if propagation == "eager":
            assert log.expected and log.payloads == log.expected, name
        else:
            assert not log.payloads
    assert outcome["codegen"][0]
    assert outcome["codegen"] == outcome["reference"] == outcome["full"]
