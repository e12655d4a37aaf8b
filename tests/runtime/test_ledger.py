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
from repro.properties import ALL_PROPERTIES, UNSAFEMAPITER
from repro.runtime.engine import MonitoringEngine
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
