"""Weak-reference substrate tests: ledger entries, RVMap, RVSet."""

from __future__ import annotations

import gc
import weakref

from repro.runtime.instance import MonitorInstance
from repro.runtime.refs import ParamLedger
from repro.runtime.rvmap import RVMap
from repro.runtime.rvset import RVSet

from ..conftest import Obj

#: The identity ledger the structures under test key their objects through.
LEDGER = ParamLedger()
E = LEDGER.entry


class _FakeMonitor:
    """Minimal stand-in for a base monitor."""

    def step(self, event):
        return "?"

    def verdict(self):
        return "?"

    def clone(self):
        return _FakeMonitor()


def make_instance(**params) -> MonitorInstance:
    refs = {name: E(value) for name, value in params.items()}
    return MonitorInstance(prop=None, base=_FakeMonitor(), params=refs, serial=0)


class TestParamRef:
    """A parameter reference is the object's one entry in a ledger."""

    def test_alive_while_referenced(self):
        obj = Obj("x")
        entry = E(obj)
        assert entry() is obj
        assert entry.died is None
        assert E(obj) is entry  # one entry, however often it is keyed
        assert weakref.getweakrefcount(obj) == 1

    def test_dies_with_referent(self):
        ledger = ParamLedger()
        ledger.clock = 7
        entry = ledger.entry(Obj("x"))
        gc.collect()
        assert entry() is None
        assert entry.died == 7  # the event ordinal of the death
        assert "dead" in repr(entry)
        assert len(ledger) == 0  # the index lets go; the entry is a tombstone

    def test_non_weakrefable_values_are_immortal(self):
        entry = E(42)
        assert entry() == 42
        assert entry.died is None
        # Not indexed, so not kept alive by the ledger; entries of one
        # value are equal, so a map keyed by one is found through another.
        assert E(42) == entry
        assert {entry: "x"}[E(42)] == "x"

    def test_refers_to_checks_identity(self):
        a, b = Obj("a"), Obj("a")
        assert E(a) is not E(b)
        assert E(a)() is a
        assert E(b)() is b


class TestRVMap:
    def test_put_get_by_identity(self):
        rvmap = RVMap()
        a, b = Obj("a"), Obj("b")
        rvmap.put(E(a), 1)
        rvmap.put(E(b), 2)
        assert rvmap.get(E(a)) == 1
        assert rvmap.get(E(b)) == 2
        assert len(rvmap) == 2

    def test_put_replaces(self):
        rvmap = RVMap()
        a = Obj("a")
        rvmap.put(E(a), 1)
        rvmap.put(E(a), 2)
        assert rvmap.get(E(a)) == 2
        assert len(rvmap) == 1

    def test_remove(self):
        rvmap = RVMap()
        a = Obj("a")
        rvmap.put(E(a), 1)
        assert rvmap.remove(E(a))
        assert not rvmap.remove(E(a))
        assert rvmap.get(E(a)) is None

    def test_items_skips_dead(self):
        rvmap = RVMap()
        keep = Obj("keep")
        rvmap.put(E(keep), 1)
        rvmap.put(E(Obj("die")), 2)
        gc.collect()
        assert dict((k.name, v) for k, v in rvmap.items()) == {"keep": 1}

    def test_scan_notifies_on_dead_key(self):
        notified = []
        rvmap = RVMap(on_dead_value=notified.append)
        rvmap.put(E(Obj("die")), "subtree")
        gc.collect()
        cleaned = rvmap.scan_all()
        assert cleaned == 1
        assert notified == ["subtree"]
        assert len(rvmap) == 0

    def test_incremental_scan_on_operations(self):
        """Accessing the map must (eventually) clean dead entries — the
        paper's 'looks through a subset of its entries' behavior."""
        notified = []
        rvmap = RVMap(on_dead_value=notified.append, scan_budget=2)
        keep = [Obj(f"k{i}") for i in range(5)]
        for index, obj in enumerate(keep):
            rvmap.put(E(obj), index)
        for index in range(5):
            rvmap.put(E(Obj(f"die{index}")), f"dead{index}")
        gc.collect()
        probe = Obj("probe")
        rvmap.put(E(probe), "probe")
        for _ in range(20):
            rvmap.get(E(probe))
        assert len(notified) == 5
        assert len(rvmap) == 6  # 5 keepers + probe

    def test_inspect_value_can_drop_entries(self):
        rvmap = RVMap(inspect_value=lambda value: value != "drop-me")
        keep, drop = Obj("keep"), Obj("drop")
        rvmap.put(E(keep), "fine")
        rvmap.put(E(drop), "drop-me")
        rvmap.scan_all()
        assert rvmap.get(E(drop)) is None
        assert rvmap.get(E(keep)) == "fine"

    def test_all_values_includes_dead_subtrees(self):
        rvmap = RVMap()
        rvmap.put(E(Obj("die")), "subtree")
        gc.collect()
        assert list(rvmap.all_values()) == ["subtree"]

    def test_id_reuse_is_benign(self):
        """A dead key whose object's id gets reused must not shadow
        lookups: the new object gets a fresh entry, never the dead one's."""
        rvmap = RVMap(scan_budget=0)  # never scan: keep the dead entry
        dead = Obj("die")
        dead_id = id(dead)
        old = E(dead)
        rvmap.put(old, "old")
        del dead
        gc.collect()
        # CPython hands a same-sized allocation the freed slot; try a few.
        candidates = [Obj("fresh") for _ in range(8)]
        fresh = next((obj for obj in candidates if id(obj) == dead_id), candidates[0])
        assert E(fresh) is not old
        assert rvmap.get(E(fresh)) is None
        rvmap.put(E(fresh), "new")
        assert rvmap.get(E(fresh)) == "new"
        assert len(rvmap) == 2  # the dead key is a separate mapping


class TestRVSet:
    def test_add_and_iterate(self):
        rvset = RVSet()
        monitors = [make_instance(x=Obj(str(i))) for i in range(3)]
        for monitor in monitors:
            rvset.add(monitor)
        assert list(rvset.iter_active()) == monitors
        assert len(rvset) == 3
        assert rvset

    def test_compact_removes_flagged_in_one_pass(self):
        rvset = RVSet()
        monitors = [make_instance(x=Obj(str(i))) for i in range(5)]
        for monitor in monitors:
            rvset.add(monitor)
        monitors[1].flagged = True
        monitors[3].flagged = True
        removed = []
        count = rvset.compact(on_removed=removed.append)
        assert count == 2
        assert removed == [monitors[1], monitors[3]]
        assert list(rvset) == [monitors[0], monitors[2], monitors[4]]

    def test_iter_active_compacts_first(self):
        rvset = RVSet()
        keep = make_instance(x=Obj("keep"))
        drop = make_instance(x=Obj("drop"))
        rvset.add(keep)
        rvset.add(drop)
        drop.flagged = True
        assert list(rvset.iter_active()) == [keep]
        assert len(rvset) == 1

    def test_has_flagged(self):
        rvset = RVSet()
        monitor = make_instance(x=Obj("x"))
        rvset.add(monitor)
        assert not rvset.has_flagged()
        monitor.flagged = True
        assert rvset.has_flagged()

    def test_compact_noop_when_clean(self):
        rvset = RVSet()
        rvset.add(make_instance(x=Obj("x")))
        assert rvset.compact() == 0
        assert len(rvset) == 1


class TestMonitorInstance:
    def test_liveness_tracking(self):
        keep = Obj("keep")
        instance = make_instance(c=keep, i=Obj("die"))
        gc.collect()
        assert instance.param_alive("c")
        assert not instance.param_alive("i")
        assert instance.liveness() == {"c": True, "i": False}
        assert not instance.all_params_dead()

    def test_all_params_dead(self):
        instance = make_instance(c=Obj("a"), i=Obj("b"))
        gc.collect()
        assert instance.all_params_dead()

    def test_unbound_param_counts_alive(self):
        instance = make_instance(c=Obj("c"))
        assert instance.param_alive("i")  # unbound

    def test_binding_omits_dead(self):
        keep = Obj("keep")
        instance = make_instance(c=keep, i=Obj("die"))
        gc.collect()
        binding = instance.binding()
        assert binding.domain == {"c"}
        assert binding["c"] is keep

    def test_repr_marks_dead_and_flagged(self):
        instance = make_instance(c=Obj("die"))
        gc.collect()
        instance.flagged = True
        text = repr(instance)
        assert "†" in text and "FLAGGED" in text
