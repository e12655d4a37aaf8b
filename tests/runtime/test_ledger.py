"""One identity ledger per engine.

Every parameter object an engine keys gets exactly one entry in the
engine's :class:`~repro.runtime.refs.ParamLedger` — one weak reference —
however many maps, monitors and properties hold it.  Because no structure
keys by ``id()``, which dead ids CPython hands to new objects cannot move
a lazy-GC count.
"""

from __future__ import annotations

import gc
import random
import weakref

import pytest

from repro.bench.workloads import WORKLOADS, record_workload_events
from repro.instrument.live import LiveSession
from repro.properties import ALL_PROPERTIES, UNSAFEITER, UNSAFEMAPITER
from repro.runtime.engine import MonitoringEngine
from repro.runtime.rvmap import LinkedRVMap, RVMap
from repro.runtime.tracelog import ReplayToken, replay_entries

from ..conftest import Obj


class AllocatorNoise:
    """An ``after_event`` observer that keeps a random pool of replay
    tokens, so each seed changes which dead ids CPython hands to the
    replay's own tokens.  Seeds vary the churn per event and the pool's
    cap."""

    def __init__(self, seed: int):
        self._rng = random.Random(seed)
        self._pool: list[ReplayToken] = []
        self._churn = 2 + seed % 5
        self._cap = 16 << seed % 3

    def after_event(self, event, params):
        rng = self._rng
        pool = self._pool
        for _ in range(rng.randrange(self._churn)):
            if pool and (rng.random() < 0.5 or len(pool) > self._cap):
                pool.pop(rng.randrange(len(pool)))
            else:
                pool.append(ReplayToken("noise"))


def test_lazy_counts_do_not_depend_on_the_allocator():
    """UNSAFEMAPITER's pmd stream replayed with retirement: every noise
    seed gives the same flagged, collected and peak counts."""
    entries = record_workload_events(WORKLOADS["pmd"].scaled(0.1), [UNSAFEMAPITER])
    spec_name = UNSAFEMAPITER.make().properties[0].spec_name
    counts = {}
    for seed in range(30):
        engine = MonitoringEngine(UNSAFEMAPITER.make().silence(), system="rv")
        engine.add_observer(AllocatorNoise(seed))
        replay_entries(entries, engine, retire_after_last_use=True)
        stats = engine.stats_for(spec_name)
        counts[seed] = (
            stats.monitors_flagged,
            stats.monitors_collected,
            stats.peak_live_monitors,
        )
    assert len(set(counts.values())) == 1, counts


def drive(sink, pools):
    """Emit UNSAFEITER and HASNEXT traffic over pooled live objects."""
    rng = random.Random(11)
    for _ in range(400):
        c = rng.choice(pools["c"])
        i = rng.choice(pools["i"])
        event = rng.choice(("create", "update", "next", "hasnexttrue"))
        if event == "create":
            sink.emit("create", c=c, i=i)
        elif event == "update":
            sink.emit("update", c=c)
        else:
            sink.emit(event, i=i)
        if rng.random() < 0.1:
            pool = pools[rng.choice("ci")]
            pool[rng.randrange(len(pool))] = Obj("fresh")
    # Key every survivor, so each pooled object is one the engine holds.
    for c in pools["c"]:
        sink.emit("update", c=c)
    for i in pools["i"]:
        sink.emit("hasnexttrue", i=i)


@pytest.mark.parametrize("live", (False, True), ids=("engine", "session"))
@pytest.mark.parametrize("system", ("rv", "tm"))
def test_one_weakref_per_parameter_object(system, live):
    """Each object the engine keys carries one weak reference, from the
    engine's ledger, with or without a live session in front of it."""
    engine = MonitoringEngine(
        [ALL_PROPERTIES[key].make().silence() for key in ("unsafeiter", "hasnext")],
        system=system,
    )
    pools = {"c": [Obj(f"c{n}") for n in range(4)], "i": [Obj(f"i{n}") for n in range(6)]}
    if live:
        with LiveSession(engine) as session:
            drive(session, pools)
    else:
        drive(engine, pools)
    gc.collect()
    alive = [obj for pool in pools.values() for obj in pool]
    assert {weakref.getweakrefcount(obj) for obj in alive} == {1}
    assert len(engine.ledger) == len(alive)


def test_non_weakrefable_value_lives_only_as_long_as_its_structures():
    """A tuple cannot be weakly referenced, so its entry holds it strongly;
    the ledger must not, or detaching the property would leak it."""
    engine = MonitoringEngine(ALL_PROPERTIES["hasnext"].make().silence())
    inner = Obj("inner")
    probe = weakref.ref(inner)
    engine.emit("hasnexttrue", i=(inner,))
    del inner
    gc.collect()
    assert probe() is not None  # held by the tree that keys the tuple
    for slot in range(len(engine.runtimes)):  # one per formalism
        engine.detach_property(slot)
    gc.collect()
    assert probe() is None


def linked_maps(engine):
    """Every map of every runtime's trees and join indices (an explicit
    stack: a recursive closure would hold the result in a cycle)."""
    found = []
    stack = [
        structure._root
        for runtime in engine.runtimes
        if runtime is not None
        for structure in (*runtime.trees.values(), *runtime._join_indices.values())
    ]
    while stack:
        node = stack.pop()
        if isinstance(node, RVMap):
            found.append(node)
            stack.extend(node.all_values())
    return found


def test_back_links_keep_no_released_map_alive():
    """An eager engine's entries link back weakly: after every property is
    detached, each released map is gone while the objects it keyed live on
    (a strong back-link would keep the maps, and their monitors, alive)."""
    engine = MonitoringEngine(
        [ALL_PROPERTIES[key].make().silence() for key in ("unsafeiter", "hasnext")],
        system="tm",
    )
    pools = {"c": [Obj(f"c{n}") for n in range(4)], "i": [Obj(f"i{n}") for n in range(6)]}
    drive(engine, pools)
    maps = linked_maps(engine)
    assert maps and all(isinstance(node, LinkedRVMap) for node in maps)
    alive = [obj for pool in pools.values() for obj in pool]
    entries = [engine.ledger.entry(obj) for obj in alive]
    assert all(entry.links for entry in entries)
    released = [weakref.ref(node) for node in maps]
    del maps
    for slot in range(len(engine.runtimes)):
        engine.detach_property(slot)
    assert all(ref() is None for ref in released)
    assert all(entry() is not None for entry in entries)
    assert all(link[0]() is None for entry in entries for link in entry.links)


def test_back_linked_replay_collects_as_the_reference_tier():
    """UNSAFEMAPITER's pmd stream replayed with deaths under ``tm``: the
    codegen engine, with its generated eviction, flags, collects and
    peaks as the reference tier does with its interpreted eviction."""
    entries = record_workload_events(WORKLOADS["pmd"].scaled(0.1), [UNSAFEMAPITER])
    spec_name = UNSAFEMAPITER.make().properties[0].spec_name
    counts = {}
    for dispatch in ("codegen", "reference"):
        engine = MonitoringEngine(
            UNSAFEMAPITER.make().silence(), system="tm", dispatch=dispatch
        )
        replay_entries(entries, engine, retire_after_last_use=True)
        stats = engine.stats_for(spec_name)
        counts[dispatch] = (
            stats.monitors_created,
            stats.monitors_flagged,
            stats.monitors_collected,
            stats.peak_live_monitors,
        )
    assert counts["codegen"][2]
    assert counts["codegen"] == counts["reference"]


@pytest.mark.parametrize("dispatch", ("codegen", "reference"))
@pytest.mark.parametrize("collections", (10, 1000))
def test_one_death_costs_the_same_whatever_lives_beside_it(
    collections, dispatch, monkeypatch
):
    """An iterator dies beside ``collections`` live collections, each
    keyed at depth 0 of UNSAFEITER's ``<c, i>`` tree with an iterator of
    its own.  On either dispatch tier the death step reaches the same
    maps and scans the same buckets however many collections there are:
    it follows the dead entry's back-links."""
    scans = []
    scan_bucket = RVMap._scan_bucket

    def counting(node, key, known_dirty=False):
        scans.append(key)
        return scan_bucket(node, key, known_dirty)

    engine = MonitoringEngine(
        UNSAFEITER.make().silence(), system="tm", dispatch=dispatch
    )
    c, i = Obj("c"), Obj("i")
    engine.emit("create", c=c, i=i)
    keep = [(Obj(f"c{n}"), Obj(f"i{n}")) for n in range(collections - 1)]
    for other_c, other_i in keep:
        engine.emit("create", c=other_c, i=other_i)
    reaped = []
    runtime = engine.runtimes[0]
    reap = runtime.reap
    monkeypatch.setattr(runtime, "reap", lambda p, found: (reaped.extend(p), reap(p, found)))
    monkeypatch.setattr(RVMap, "_scan_bucket", counting)
    dead = engine.ledger.entry(i)
    del i
    assert engine._pending_dead == [dead]
    engine._propagate_deaths()
    assert len(scans) == 2  # <c, i> at depth 1 and <i> at depth 0
    assert sorted(link[2] for link, _entry in reaped) == [0, 1]
    assert engine.stats_for("UnsafeIter").monitors_flagged == 1


def test_a_long_lived_object_keeps_a_short_back_link_list():
    """An iterator outlives 200 collections, each keying it in a fresh
    ``<c, i>`` submap that dies with the collection: its entry's
    back-links are pruned as they go stale instead of growing with every
    map it was ever keyed in, and a map that re-keys it is not listed
    twice."""
    engine = MonitoringEngine(UNSAFEITER.make().silence(), system="tm")
    i = Obj("i")
    for n in range(200):
        c = Obj(f"c{n}")
        engine.emit("create", c=c, i=i)
        engine.emit("next", i=i)
        del c
    engine.emit("next", i=i)
    links = engine.ledger.entry(i).links
    assert len(links) < 16
    assert len(set(map(id, links))) == len(links)
