"""Aspect-weaving tests: advice positions, bindings, conditions, unweaving."""

from __future__ import annotations

import threading
from collections import Counter

import pytest

from repro.bench.workloads import WORKLOADS, run_workload
from repro.core.errors import ReproError
from repro.instrument import collections_shim
from repro.instrument.aspects import CallContext, Weaver, after_returning, before
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

    def test_argument_binding(self):
        context = CallContext(target="t", args=("a0", "a1"), kwargs={})
        pointcut = before(Door, "open", event="opened", bind={"d": "arg1"})
        assert pointcut.extract(context) == {"d": "a1"}

    def test_thread_binding(self):
        context = CallContext(target="t", args=(), kwargs={})
        pointcut = before(Door, "open", event="opened", bind={"d": "thread"})
        assert pointcut.extract(context)["d"] is threading.current_thread()

    def test_result_binding(self):
        context = CallContext(target="t", args=(), kwargs={}, result="r")
        pointcut = after_returning(Door, "open", event="opened", bind={"d": "result"})
        assert pointcut.extract(context) == {"d": "r"}

    def test_unknown_source_rejected(self):
        context = CallContext(target="t", args=(), kwargs={})
        pointcut = before(Door, "open", event="opened", bind={"d": "bogus"})
        with pytest.raises(ReproError):
            pointcut.extract(context)


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
