"""Anchor selection and shard routing tests."""

from __future__ import annotations

import gc

from repro.properties import ALL_PROPERTIES
from repro.service.router import (
    ShardRouter,
    choose_anchor,
    has_join_plans,
    valid_anchors,
)
from repro.spec import compile_spec

from ..conftest import Obj

UNSAFEITER = """
UnsafeIter(c, i) {
  event create(c, i)
  event update(c)
  event next(i)
  ere: update* create next* update+ next
  @match
}
"""

#: Two independent single-parameter slices: no parameter occurs in every
#: realizable monitor domain, so the property cannot be anchored.
UNANCHORABLE = """
TwoSlices(a, b) {
  event ea(a)
  event eb(b)
  ere: ea | eb
  @match
}
"""


def _prop(source: str):
    return compile_spec(source).properties[0]


class TestAnchorSelection:
    def test_paper_property_anchors(self):
        expected = {
            "hasnext": "i",
            "unsafeiter": "c",
            "unsafemapiter": "m",
            "unsafesynccoll": "c",
            "unsafesyncmap": "m",
            "safelock": "t",
        }
        for key, anchor in expected.items():
            for prop in ALL_PROPERTIES[key].make().properties:
                assert choose_anchor(prop) == anchor, key

    def test_anchor_is_in_every_monitor_domain(self):
        for paper_prop in ALL_PROPERTIES.values():
            for prop in paper_prop.make().properties:
                anchor = choose_anchor(prop)
                assert anchor is not None
                for domain in prop.monitor_domains():
                    assert anchor in domain

    def test_unanchorable_property(self):
        prop = _prop(UNANCHORABLE)
        assert valid_anchors(prop) == frozenset()
        assert choose_anchor(prop) is None

    def test_join_detection(self):
        # UNSAFEMAPITER's createiter has enable {m, c}, incomparable with
        # D(createiter) = {c, i}: a join-style creation.
        mapiter = ALL_PROPERTIES["unsafemapiter"].make().properties[0]
        assert has_join_plans(mapiter)
        assert not has_join_plans(_prop(UNSAFEITER))


class TestRouting:
    def test_anchored_events_route_to_one_shard(self):
        router = ShardRouter([_prop(UNSAFEITER)], shards=4)
        c = Obj("c")
        deliveries = list(router.route("update", {"c": c}))
        assert len(deliveries) == 1
        shard, (props, recording, pretouched, count_only) = deliveries[0]
        assert shard == router.shard_of(c)
        assert props == (0,)
        assert recording is None  # the routed shard records the event
        assert not count_only

    def test_same_object_same_shard(self):
        router = ShardRouter([_prop(UNSAFEITER)], shards=4)
        c = Obj("c")
        assert router.shard_of(c) == router.shard_of(c)

    def test_objects_spread_over_shards(self):
        router = ShardRouter([_prop(UNSAFEITER)], shards=4)
        keep = [Obj(str(n)) for n in range(256)]
        hit = {router.shard_of(obj) for obj in keep}
        assert hit == {0, 1, 2, 3}

    def test_unseen_anchor_free_event_is_count_only(self):
        router = ShardRouter([_prop(UNSAFEITER)], shards=4)
        i = Obj("i")
        deliveries = list(router.route("next", {"i": i}))
        # Nothing can process it; shard 0 only records the count.
        assert len(deliveries) == 1
        shard, (props, _recording, _pre, count_only) = deliveries[0]
        assert shard == 0 and props == () and count_only == (0,)

    def test_sticky_association_follows_anchor(self):
        router = ShardRouter([_prop(UNSAFEITER)], shards=4)
        c, i = Obj("c"), Obj("i")
        [(create_shard, _)] = router.route("create", {"c": c, "i": i})
        [(next_shard, (props, _rec, _pre, _count))] = router.route("next", {"i": i})
        assert next_shard == create_shard
        assert props == (0,)

    def test_pretouch_reported_when_shard_missed_touches(self):
        router = ShardRouter([_prop(UNSAFEITER)], shards=4)
        c1, i = Obj("c1"), Obj("i")
        [(s1, _)] = router.route("create", {"c": c1, "i": i})
        list(router.route("next", {"i": i}))  # delivered to s1 only
        # Find a collection hashing to a different shard.  Rejected
        # candidates stay alive: a freed one's address (its id) would be
        # reused by the next, which would then hash to s1 forever.
        rejected = []
        c2 = Obj("c2")
        while router.shard_of(c2) == s1:
            rejected.append(c2)
            c2 = Obj("c2")
        [(s2, (_props, _rec, pretouched, _count))] = router.route(
            "create", {"c": c2, "i": i}
        )
        assert s2 != s1
        assert pretouched == {0: frozenset({frozenset({"i"})})}

    def test_no_pretouch_on_the_touched_shard(self):
        router = ShardRouter([_prop(UNSAFEITER)], shards=4)
        c, i = Obj("c"), Obj("i")
        [(shard, _)] = router.route("create", {"c": c, "i": i})
        list(router.route("next", {"i": i}))
        [(again, (_props, _rec, pretouched, _count))] = router.route(
            "create", {"c": c, "i": i}
        )
        assert again == shard and pretouched is None

    def test_broadcast_for_join_properties(self):
        mapiter = ALL_PROPERTIES["unsafemapiter"].make().properties[0]
        router = ShardRouter([mapiter], shards=4)
        i = Obj("i")
        deliveries = dict(router.route("useiter", {"i": i}))
        assert set(deliveries) == {0, 1, 2, 3}
        # Exactly one shard records the broadcast event.
        recorded = [
            shard
            for shard, (props, recording, _pre, _count) in deliveries.items()
            if recording is None or 0 in recording
        ]
        assert recorded == [0]

    def test_pinned_property_stays_whole(self):
        prop = _prop(UNANCHORABLE)
        router = ShardRouter([prop], shards=4)
        assert router.routes[0].is_pinned
        pin = router.routes[0].pinned_shard
        a, b = Obj("a"), Obj("b")
        for event, params in (("ea", {"a": a}), ("eb", {"b": b})):
            [(shard, (props, recording, _pre, _count))] = router.route(event, params)
            assert shard == pin and props == (0,) and recording is None

    def test_single_shard_short_circuit(self):
        router = ShardRouter([_prop(UNSAFEITER)], shards=1)
        i = Obj("i")
        [(shard, (props, recording, pretouched, count_only))] = router.route(
            "next", {"i": i}
        )
        assert shard == 0 and props == (0,) and recording is None
        assert pretouched is None and count_only == ()

    def test_dead_objects_are_purged_from_sticky_state(self):
        router = ShardRouter([_prop(UNSAFEITER)], shards=4)
        c, i = Obj("c"), Obj("i")
        list(router.route("create", {"c": c, "i": i}))
        list(router.route("next", {"i": i}))
        state = router._sticky[0]
        assert state.assoc and state.touch_all
        del c, i
        gc.collect()
        assert not state.assoc
        assert not state.touch_all
        assert not state.guards

    def test_unknown_event_routes_nowhere(self):
        router = ShardRouter([_prop(UNSAFEITER)], shards=4)
        assert list(router.route("nope", {})) == []
        assert not router.declared("nope")
        assert router.declared("next")

    def test_describe_names_strategy(self):
        router = ShardRouter(
            [_prop(UNSAFEITER), ALL_PROPERTIES["unsafemapiter"].make().properties[0]],
            shards=4,
        )
        table = {row["property"]: row for row in router.describe()}
        assert table["UnsafeIter/ere"]["anchor"] == "c"
        assert table["UnsafeIter/ere"]["anchor_free_delivery"] == "sticky"
        assert table["UnsafeMapIter/ere"]["anchor_free_delivery"] == "broadcast"
