"""Indexing tree and join index tests (Section 4.1, Figure 6)."""

from __future__ import annotations

import gc

from repro.runtime.indexing import IndexingTree, JoinIndex
from repro.runtime.instance import MonitorInstance
from repro.runtime.refs import ParamLedger

from ..conftest import Obj


#: The identity ledger every structure under test keys its objects through.
LEDGER = ParamLedger()


class _FakeMonitor:
    def step(self, event):
        return "?"

    def verdict(self):
        return "?"

    def clone(self):
        return _FakeMonitor()


def make_instance(**params) -> MonitorInstance:
    refs = {name: LEDGER.entry(value) for name, value in params.items()}
    return MonitorInstance(prop=None, base=_FakeMonitor(), params=refs, serial=0)


class TestIndexingTree:
    def test_lookup_create_and_find(self):
        tree = IndexingTree(
            ("c", "i"),
            tracks_extensions=True,
            notify=lambda m: None,
            ledger=LEDGER,
        )
        c1, i1 = Obj("c1"), Obj("i1")
        assert tree.lookup({"c": c1, "i": i1}, create=False) is None
        leaf = tree.lookup({"c": c1, "i": i1}, create=True)
        leaf.touched = 1  # untouched empty leaves are reclaimable (5.1.1)
        assert leaf is tree.lookup({"c": c1, "i": i1}, create=False)
        assert leaf.extensions is not None

    def test_zero_param_tree_has_single_leaf(self):
        tree = IndexingTree(
            (),
            tracks_extensions=True,
            notify=lambda m: None,
            ledger=LEDGER,
        )
        leaf = tree.lookup({}, create=True)
        assert leaf is tree.lookup({}, create=False)

    def test_extensions_only_for_dispatch_trees(self):
        tree = IndexingTree(
            ("c",),
            tracks_extensions=False,
            notify=lambda m: None,
            ledger=LEDGER,
        )
        leaf = tree.lookup({"c": Obj("c1")}, create=True)
        assert leaf.extensions is None

    def test_dead_key_notifies_monitors_below(self):
        """Figure 7(A): the <c>-tree notifies all monitors below dead <c2>."""
        notified = []
        tree = IndexingTree(
            ("c",),
            tracks_extensions=True,
            notify=notified.append,
            ledger=LEDGER,
        )
        c_live, c_dead = Obj("live"), Obj("dead")
        keep = make_instance(c=c_live)
        lost = make_instance(c=c_dead, i=Obj("i1"))
        tree.lookup({"c": c_live}, create=True).extensions.add(keep)
        tree.lookup({"c": c_dead}, create=True).extensions.add(lost)
        del c_dead
        gc.collect()
        tree.scan_all()
        assert notified == [lost]

    def test_dead_key_removes_mapping(self):
        """Figure 7(B): the broken mapping is cleaned up."""
        tree = IndexingTree(
            ("c", "i"),
            tracks_extensions=True,
            notify=lambda m: None,
            ledger=LEDGER,
        )
        c1 = Obj("c1")
        tree.lookup({"c": c1, "i": Obj("die")}, create=True)
        gc.collect()
        tree.scan_all()
        assert list(tree.walk_leaves()) == []

    def test_nested_notification_reaches_deep_monitors(self):
        notified = []
        tree = IndexingTree(
            ("c", "i"),
            tracks_extensions=True,
            notify=notified.append,
            ledger=LEDGER,
        )
        c1 = Obj("c1")
        i_dead = Obj("i_dead")
        monitor = make_instance(c=c1, i=i_dead)
        tree.lookup({"c": c1, "i": i_dead}, create=True).extensions.add(monitor)
        del i_dead
        gc.collect()
        tree.scan_all()
        assert notified == [monitor]

    def test_inspection_drops_flagged_own_and_empty_leaves(self):
        tree = IndexingTree(
            ("c",),
            tracks_extensions=True,
            notify=lambda m: None,
            ledger=LEDGER,
        )
        c1 = Obj("c1")
        monitor = make_instance(c=c1)
        leaf = tree.lookup({"c": c1}, create=True)
        leaf.own = monitor
        leaf.extensions.add(monitor)
        monitor.flagged = True
        tree.scan_all()
        # The leaf became empty and was dropped entirely.
        assert tree.lookup({"c": c1}, create=False) is None

    def test_touched_leaves_survive_inspection(self):
        tree = IndexingTree(
            ("c",),
            tracks_extensions=True,
            notify=lambda m: None,
            ledger=LEDGER,
        )
        c1 = Obj("c1")
        leaf = tree.lookup({"c": c1}, create=True)
        leaf.touched = 7
        tree.scan_all()
        assert tree.lookup({"c": c1}, create=False) is leaf

    def test_walk_leaves(self):
        tree = IndexingTree(
            ("c",),
            tracks_extensions=True,
            notify=lambda m: None,
            ledger=LEDGER,
        )
        objs = [Obj(f"c{i}") for i in range(3)]
        leaves = set()
        for serial, obj in enumerate(objs, start=1):
            leaf = tree.lookup({"c": obj}, create=True)
            leaf.touched = serial  # pin against empty-leaf reclamation
            leaves.add(id(leaf))
        found = {id(leaf) for leaf in tree.walk_leaves()}
        assert found == leaves


class TestJoinIndex:
    def test_candidates_by_partial_key(self):
        index = JoinIndex(("c",), notify=lambda m: None, ledger=LEDGER)
        c1, c2 = Obj("c1"), Obj("c2")
        m1 = make_instance(m=Obj("m1"), c=c1)
        m2 = make_instance(m=Obj("m2"), c=c2)
        index.add({"c": c1}, m1)
        index.add({"c": c2}, m2)
        assert list(index.candidates({"c": c1})) == [m1]
        assert list(index.candidates({"c": c2})) == [m2]

    def test_empty_key_domain_returns_all(self):
        index = JoinIndex((), notify=lambda m: None, ledger=LEDGER)
        m1 = make_instance(x=Obj("x1"))
        m2 = make_instance(x=Obj("x2"))
        index.add({}, m1)
        index.add({}, m2)
        assert list(index.candidates({})) == [m1, m2]

    def test_missing_key_yields_nothing(self):
        index = JoinIndex(("c",), notify=lambda m: None, ledger=LEDGER)
        assert list(index.candidates({"c": Obj("nope")})) == []

    def test_flagged_candidates_compacted_on_iteration(self):
        index = JoinIndex(("c",), notify=lambda m: None, ledger=LEDGER)
        c1 = Obj("c1")
        m1 = make_instance(m=Obj("m1"), c=c1)
        m2 = make_instance(m=Obj("m2"), c=c1)
        index.add({"c": c1}, m1)
        index.add({"c": c1}, m2)
        m1.flagged = True
        assert list(index.candidates({"c": c1})) == [m2]
