"""Aspect-weaving tests: advice positions, bindings, conditions, unweaving."""

from __future__ import annotations

import threading
from collections import Counter

import pytest

from repro.bench.workloads import WORKLOADS, run_workload
from repro.core.errors import ReproError
from repro.instrument import collections_shim
from repro.instrument.aspects import Weaver, after_returning, before
from repro.properties import ALL_PROPERTIES
from repro.runtime.engine import MonitoringEngine
from repro.spec import compile_spec


class Door:
    """A tiny target class to weave against."""

    def __init__(self):
        self.state = "closed"

    def open(self, who="someone"):
        self.state = "open"
        return True

    def close(self):
        self.state = "closed"
        return False

    def knock(self, times=1, loudly=False):
        return "r"


SPEC = """
DoorProtocol(d) {
  event opened(d)
  event closed(d)
  event openedtrue(d)
  ere: (opened closed)*
  @fail
}
"""


@pytest.fixture
def engine():
    return MonitoringEngine(compile_spec(SPEC), gc="none")


class TestWeaving:
    def test_before_advice_emits(self, engine):
        with Weaver(engine).weave(
            before(Door, "open", event="opened", bind={"d": "target"})
        ):
            door = Door()
            door.open()
        assert engine.stats_for("DoorProtocol").events == 1

    def test_after_returning_sees_result(self, engine):
        seen = []
        pointcut = after_returning(
            Door,
            "open",
            event="openedtrue",
            bind={"d": "target"},
            condition=lambda ctx: seen.append(ctx.result) or ctx.result is True,
        )
        with Weaver(engine).weave(pointcut):
            Door().open()
        assert seen == [True]
        assert engine.stats_for("DoorProtocol").events == 1

    def test_condition_filters(self, engine):
        pointcut = after_returning(
            Door,
            "close",
            event="closed",
            bind={"d": "target"},
            condition=lambda ctx: ctx.result is True,  # close returns False
        )
        with Weaver(engine).weave(pointcut):
            Door().close()
        assert engine.stats_for("DoorProtocol").events == 0

    def test_unweave_restores_original(self, engine):
        original = Door.open
        weaver = Weaver(engine).weave(
            before(Door, "open", event="opened", bind={"d": "target"})
        )
        assert Door.open is not original
        weaver.unweave()
        assert Door.open is original
        Door().open()
        assert engine.stats_for("DoorProtocol").events == 0

    def test_unweave_idempotent(self, engine):
        weaver = Weaver(engine).weave(
            before(Door, "open", event="opened", bind={"d": "target"})
        )
        weaver.unweave()
        weaver.unweave()

    def test_multiple_pointcuts_one_joinpoint(self, engine):
        pointcuts = [
            before(Door, "open", event="opened", bind={"d": "target"}),
            after_returning(
                Door,
                "open",
                event="openedtrue",
                bind={"d": "target"},
                condition=lambda ctx: ctx.result is True,
            ),
        ]
        with Weaver(engine).weave(pointcuts):
            Door().open()
        assert engine.stats_for("DoorProtocol").events == 2

    def test_return_value_passes_through(self, engine):
        with Weaver(engine).weave(
            before(Door, "open", event="opened", bind={"d": "target"})
        ):
            assert Door().open() is True

    def test_missing_method_rejected(self, engine):
        with pytest.raises(ReproError):
            Weaver(engine).weave(
                before(Door, "nonexistent", event="opened", bind={"d": "target"})
            )

    def test_unknown_events_silently_dropped(self, engine):
        """A woven join point may emit events no monitored spec declares."""
        with Weaver(engine).weave(
            before(Door, "open", event="who_is_this", bind={"d": "target"})
        ):
            Door().open()  # must not raise


class TestBindingSources:
    def test_target_binding(self, engine):
        captured = []
        engine_cb = MonitoringEngine(
            compile_spec(SPEC),
            gc="none",
            on_verdict=lambda p, c, m: None,
        )
        del engine_cb
        door = Door()
        with Weaver(engine).weave(
            before(
                Door,
                "open",
                event="opened",
                bind={"d": lambda ctx: captured.append(ctx.target) or ctx.target},
            )
        ):
            door.open()
        assert captured == [door]

    def test_argument_binding(self, recorder):
        pointcut = before(Door, "knock", event="opened", bind={"d": "arg1"})
        with Weaver(recorder).weave(pointcut):
            Door().knock("a0", "a1")
        assert recorder.params == [{"d": "a1"}]

    def test_thread_binding(self, recorder):
        pointcut = before(Door, "open", event="opened", bind={"d": "thread"})
        with Weaver(recorder).weave(pointcut):
            Door().open()
        assert recorder.params[0]["d"] is threading.current_thread()

    def test_result_binding(self, recorder):
        pointcut = after_returning(Door, "knock", event="opened", bind={"d": "result"})
        with Weaver(recorder).weave(pointcut):
            Door().knock()
        assert recorder.params == [{"d": "r"}]

    def test_unknown_source_rejected(self, recorder):
        """An unknown source fails the weave: nothing is installed."""
        original = Door.open
        pointcut = before(Door, "open", event="opened", bind={"d": "bogus"})
        with pytest.raises(ReproError):
            Weaver(recorder).weave(pointcut)
        assert Door.open is original


class TestAdviceOrder:
    def test_fires_in_weave_order_around_the_call_sharing_one_context(self, recorder):
        door = Door()
        recorder.probe = lambda: door.state
        seen = []

        def capture(ctx):
            seen.append(("before", ctx, ctx.result))
            return ctx.target

        def after_condition(ctx):
            seen.append(("after", ctx, ctx.result))
            return True

        pointcuts = [
            before(Door, "open", event="b1", bind={"d": "target"}),
            after_returning(
                Door, "open", event="a1", bind={"d": "target"}, condition=after_condition
            ),
            before(Door, "open", event="b2", bind={"d": capture}),
            after_returning(Door, "open", event="a2", bind={"d": "result"}),
        ]
        with Weaver(recorder).weave(pointcuts):
            assert door.open() is True
        assert recorder.probed == [
            ("b1", "closed"), ("b2", "closed"), ("a1", "open"), ("a2", "open")
        ]
        assert [(side, result) for side, _ctx, result in seen] == [
            ("before", None), ("after", True)
        ]
        assert seen[0][1] is seen[1][1]
        assert recorder.params[-1] == {"d": True}


class TestWeaveOrderAndTeardown:
    @staticmethod
    def _events(properties, drive):
        recorder = _Recorder()
        weaver = Weaver(recorder)
        for prop in properties:
            weaver.weave(prop.pointcuts())
        try:
            drive()
        finally:
            weaver.unweave()
        return [(event, sorted(params)) for event, params in recorder.calls]

    def test_subclass_join_point_follows_a_base_woven_after_it(self):
        def drive():
            collections_shim.SynchronizedCollection(range(3)).iterator()

        props = [ALL_PROPERTIES["unsafesynccoll"], ALL_PROPERTIES["unsafeiter"]]
        forward = self._events(props, drive)
        assert [event for event, _ in forward] == ["sync", "create", "asynciter"]
        assert self._events(props[::-1], drive) == forward

    def test_forward_and_reversed_weave_orders_emit_the_same_events(self):
        """Advice on one join point fires in weave order, so the two runs
        may order the events of one call differently: compare multisets."""
        profile = WORKLOADS["pmd"].scaled(0.05)
        props = list(ALL_PROPERTIES.values())
        forward = self._events(props, lambda: run_workload(profile))
        reverse = self._events(props[::-1], lambda: run_workload(profile))
        assert Counter(event for event, _ in forward)["createiter"] > 0
        assert sorted(reverse) == sorted(forward)

    def test_rejected_pointcut_stays_rejected_on_retry(self, recorder):
        pointcut = before(Door, "opn", event="opened", bind={"d": "target"})
        weaver = Weaver(recorder)
        for _attempt in range(2):
            with pytest.raises(ReproError):
                weaver.weave(pointcut)
        assert "opn" not in vars(Door)

    def test_out_of_order_unweave_restores_the_original(self, recorder):
        original = Door.__dict__["open"]
        first = Weaver(recorder).weave(
            before(Door, "open", event="first", bind={"d": "target"})
        )
        second = Weaver(recorder).weave(
            before(Door, "open", event="second", bind={"d": "target"})
        )
        first.unweave()
        Door().open()
        second.unweave()
        Door().open()
        assert Door.__dict__["open"] is original
        assert [event for event, _ in recorder.calls] == ["second"]


class _Recorder:
    """Emit target that records every event with its parameters."""

    def __init__(self):
        self.calls = []
        self.probed = []
        self.probe = None

    @property
    def params(self):
        return [params for _event, params in self.calls]

    def emit(self, event, _strict=True, **params):
        self.calls.append((event, params))
        if self.probe is not None:
            self.probed.append((event, self.probe()))


@pytest.fixture
def recorder():
    return _Recorder()


class _Tally:
    """Emit target that only counts events by name."""

    def __init__(self):
        self.events = Counter()

    def emit(self, event, _strict=True, **params):
        self.events[event] += 1


class TestReweave:
    def test_weave_unweave_cycle_leaves_class_dicts_and_event_counts_unchanged(self):
        # Subclasses that inherit a woven method (SynchronizedCollection
        # inherits MonitoredCollection.iterator) must follow the base again
        # after unweaving; a stale copy in the subclass dict would bypass
        # the next weaver's advice and drop its events.
        classes = [
            value
            for value in vars(collections_shim).values()
            if isinstance(value, type)
            and value.__module__ == collections_shim.__name__
        ]
        dicts = {cls: dict(vars(cls)) for cls in classes}
        profile = WORKLOADS["pmd"].scaled(0.05)
        counts = []
        for _round in range(2):
            tally = _Tally()
            weaver = Weaver(tally)
            for prop in ALL_PROPERTIES.values():
                weaver.weave(prop.pointcuts())
            try:
                run_workload(profile)
            finally:
                weaver.unweave()
            counts.append(tally.events)
            assert {cls: dict(vars(cls)) for cls in classes} == dicts
        assert counts[0]["createiter"] > 0
        assert counts[1] == counts[0]
