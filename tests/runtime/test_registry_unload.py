"""Unregister-under-load: detaching a property mid-trace leaks nothing.

Detach quiesces the runtime (pending coalesced deaths propagated at the
detach boundary, then a two-pass mark-and-sweep), folds its final
statistics into the engine totals, and drops its indexing trees
wholesale.  These tests assert the observable consequences: every monitor
of the detached property becomes collectible (CM catches up with M once
the parameter objects die), no pending death outlives the detach, and the
surviving properties keep monitoring undisturbed.
"""

from __future__ import annotations

import gc
import weakref

import pytest

from repro.core.errors import RegistryError
from repro.properties import ALL_PROPERTIES
from repro.runtime.engine import MonitoringEngine

from ..conftest import Obj

GC_STRATEGIES = ("none", "alldead", "coenable", "statebased")


def _drive(engine, pools, rounds=30):
    """Interleaved UNSAFEITER/HASNEXT traffic over shared small pools."""
    for serial in range(rounds):
        c = pools["c"][serial % len(pools["c"])]
        i = Obj(f"i{serial}")
        pools["i"].append(i)
        engine.emit("create", c=c, i=i, _strict=False)
        engine.emit("hasnexttrue", i=i, _strict=False)
        engine.emit("next", i=i, _strict=False)
        if serial % 3 == 0:
            engine.emit("update", c=c, _strict=False)
        if serial % 4 == 0:
            pools["i"].pop(0)  # an iterator dies mid-trace


@pytest.mark.parametrize("propagation", ("lazy", "eager"))
@pytest.mark.parametrize("gc_kind", GC_STRATEGIES)
def test_detach_leaks_no_monitors(gc_kind, propagation):
    engine = MonitoringEngine(
        [ALL_PROPERTIES["unsafeiter"].make().silence(),
         ALL_PROPERTIES["hasnext"].make().silence()],
        gc=gc_kind, propagation=propagation,
    )
    pools = {"c": [Obj(f"c{n}") for n in range(4)], "i": []}
    _drive(engine, pools)

    target = engine.registry.entry("UnsafeIter/ere")
    stats_before = engine.stats_for("UnsafeIter", "ere")
    assert stats_before.monitors_created > 0
    probes = [
        weakref.ref(monitor)
        for monitor in engine.runtimes[target.index].live_instances()
    ]
    assert probes

    retired = engine.detach_property("UnsafeIter/ere")
    assert engine.runtimes[target.index] is None
    assert engine.properties[target.index] is None
    # Pending deaths were propagated at the detach boundary; later ones
    # reach only the runtimes still attached.
    assert not engine._pending_dead

    # Surviving properties keep monitoring; the retired stats stay in the
    # totals and never move again.
    _drive(engine, pools)
    assert engine.stats_for("UnsafeIter", "ere") is retired
    assert retired.events == stats_before.events
    assert engine.stats_for("HasNext", "fsm").events > 0

    # Once the parameter objects die, every monitor of the detached
    # property is reclaimed: no tree, join index, or watch entry pins one.
    pools.clear()
    gc.collect()
    engine.flush_gc()
    gc.collect()
    assert all(probe() is None for probe in probes)
    assert retired.live_monitors == 0
    assert retired.monitors_collected == retired.monitors_created


def test_detach_with_pending_eager_deaths():
    """Deaths coalesced but not yet propagated are delivered at detach."""
    engine = MonitoringEngine(
        ALL_PROPERTIES["unsafeiter"].make().silence(),
        gc="coenable", propagation="eager",
    )
    c = Obj("c")
    i = Obj("i")
    engine.emit("create", c=c, i=i)
    del i  # death recorded, propagation deferred to the next boundary
    assert engine._pending_dead
    retired = engine.detach_property(0)
    assert not engine._pending_dead
    del c
    gc.collect()
    assert retired.live_monitors == 0


def test_registry_misuse_is_loud():
    engine = MonitoringEngine(ALL_PROPERTIES["unsafeiter"].make().silence())
    engine.detach_property(0)
    with pytest.raises(RegistryError):
        engine.detach_property(0)
    with pytest.raises(RegistryError):
        engine.registry.entry("nonsense")
    with pytest.raises(RegistryError):
        engine.set_property_enabled(0, True)


def test_disable_pauses_without_state_loss():
    engine = MonitoringEngine(ALL_PROPERTIES["hasnext"].make().silence())
    i = Obj("i")
    engine.emit("hasnexttrue", i=i)
    fsm = engine.stats_for("HasNext", "fsm")
    events_before = fsm.events
    epoch = engine.registry_epoch

    engine.set_property_enabled("HasNext/fsm", False)
    assert engine.registry_epoch == epoch + 1
    engine.emit("hasnexttrue", i=i, _strict=False)
    assert fsm.events == events_before  # paused: events dropped, uncounted

    engine.set_property_enabled("HasNext/fsm", True)
    engine.emit("next", i=i)
    assert fsm.events == events_before + 1
    # The LTL sibling saw every event throughout.
    assert engine.stats_for("HasNext", "ltl").events == events_before + 2


def test_paused_events_stay_declared_for_strict_emit():
    """Pausing must be transparent to emitters: a strict emit of an event
    that only a *disabled* property declares is dropped, not rejected as
    undeclared — the property will be resumed."""
    engine = MonitoringEngine(ALL_PROPERTIES["hasnext"].make().silence())
    i = Obj("i")
    engine.set_property_enabled("HasNext/fsm", False)
    engine.set_property_enabled("HasNext/ltl", False)
    engine.emit("hasnexttrue", i=i)  # strict: must not raise
    from repro.core.errors import UnknownEventError

    with pytest.raises(UnknownEventError):
        engine.emit("nonsense", i=i)
    engine.set_property_enabled("HasNext/fsm", True)
    engine.emit("hasnexttrue", i=i)
    assert engine.stats_for("HasNext", "fsm").events == 1


def test_reregister_after_detach_gets_fresh_slot_and_merged_stats():
    engine = MonitoringEngine(ALL_PROPERTIES["unsafeiter"].make().silence())
    c, i = Obj("c"), Obj("i")
    engine.emit("create", c=c, i=i)
    retired = engine.detach_property(0)
    [index] = engine.attach_property(
        ALL_PROPERTIES["unsafeiter"].make().silence()
    )
    assert index == 1
    engine.emit("create", c=c, i=i)
    engine.emit("update", c=c)
    live = engine.runtimes[index].stats
    # stats() merges the retired slot with the live one under the same key,
    # without mutating either record.
    merged = engine.stats()[("UnsafeIter", "ere")]
    assert merged.events == retired.events + live.events == 3
    assert merged.monitors_created == retired.monitors_created + live.monitors_created
