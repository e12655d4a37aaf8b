"""The engine's ordered boundary observer list.

Every observer of the event stream — the write-ahead log behind a
``DurableEngine``, a ``TraceRecorder``, the flight recorder and the
attribution plane — registers on one list through ``add_observer``.
These tests pin the contract: stacked observers each see every event
whichever order they attach in, hooks fire in registration order, and
no observer rebinds engine methods on the instance.
"""

from __future__ import annotations

import io

import pytest

from repro.core.errors import UnknownEventError
from repro.obs.attribution import ENGINE_LABEL
from repro.obs.telemetry import Telemetry
from repro.persist.recovery import DurableEngine
from repro.properties import UNSAFEITER
from repro.runtime.engine import MonitoringEngine
from repro.runtime.tracelog import TraceRecorder

from ..conftest import Obj

#: Engine methods no observer may shadow in the instance dict.
BOUNDARY_METHODS = (
    "emit",
    "emit_values",
    "emit_batch",
    "emit_selected_batch",
    "attach_property",
    "detach_property",
    "set_property_enabled",
)


def series(snapshot, name, *labels):
    for key, value in snapshot[name]["series"]:
        if tuple(key) == labels:
            return value
    raise AssertionError(f"{name}{labels!r} not in snapshot")


def stack_durable_first(directory):
    telemetry = Telemetry(sample_interval=1, attribution=True)
    durable = DurableEngine(
        UNSAFEITER.make().silence(), directory, gc="coenable", telemetry=telemetry
    )
    trace = TraceRecorder(io.StringIO()).attach(durable.engine)
    recorder = durable.enable_flight_recorder()
    return durable, trace, recorder, telemetry


def stack_durable_last(directory):
    engine = MonitoringEngine(UNSAFEITER.make().silence(), gc="coenable")
    recorder = engine.enable_flight_recorder()
    trace = TraceRecorder(io.StringIO()).attach(engine)
    telemetry = Telemetry(sample_interval=1, attribution=True)
    engine.enable_telemetry(telemetry)
    durable = DurableEngine(None, directory, _engine=engine)
    return durable, trace, recorder, telemetry


def drive(durable, triples):
    """Feed UnsafeIter triples through every event-shaped entry point."""
    engine = durable.engine
    keepalive = []
    for k in range(triples):
        c, i = Obj(f"c{k}"), Obj(f"i{k}")
        keepalive.append((c, i))
        if k % 3 == 0:
            durable.emit("create", c=c, i=i)
            durable.emit("update", c=c)
            durable.emit("next", i=i)
        elif k % 3 == 1:
            engine.emit_values("create", {"c": c, "i": i})
            engine.emit("update", c=c)
            engine.emit_values("next", {"i": i})
        else:
            engine.emit_batch(
                [("create", {"c": c, "i": i}), ("update", {"c": c}), ("next", {"i": i})]
            )
    return keepalive


class TestStackedObservers:
    @pytest.mark.parametrize("stack", [stack_durable_first, stack_durable_last])
    def test_every_observer_sees_every_event(self, tmp_path, stack):
        durable, trace, recorder, telemetry = stack(tmp_path / "wal")
        keepalive = drive(durable, 20)
        n = 60
        assert durable.wal.seq == n
        assert trace.events_recorded == n
        events = [e for e in recorder.snapshot() if e["kind"] == "event"]
        assert len(events) == n
        # Each recorded event carries its own WAL sequence number.
        assert [e["wal"]["seq"] for e in events] == list(range(1, n + 1))
        snap = telemetry.snapshot()
        assert series(snap, "repro_engine_handled_total", "UnsafeIter/ere") == n
        assert (
            series(snap, "repro_prop_stage_samples_total", ENGINE_LABEL, "emit-batch")
            == n
        )
        assert not set(BOUNDARY_METHODS) & set(vars(durable.engine))
        durable.close()
        del keepalive

    def test_codegen_engine_with_a_flight_recorder_keeps_its_kernel_routes(self):
        engine = MonitoringEngine(UNSAFEITER.make().silence(), dispatch="codegen")
        recorder = engine.enable_flight_recorder()
        c, i = Obj("c"), Obj("i")
        # Kernels bind on the first event; the routes call them from then on.
        engine.emit("create", c=c, i=i)
        runtime = engine.runtimes[0]
        assert engine._routes["next"] is runtime._kernels["next"]
        engine.emit_batch([("update", {"c": c}), ("next", {"i": i})])
        # Each batch event runs its after hooks as soon as it is
        # dispatched, so the verdict lands between the batch's two events.
        kinds = [e["kind"] for e in recorder.snapshot()]
        assert kinds == ["event", "event", "verdict", "event"]


class Probe:
    """Observer that logs every hook call under its name."""

    def __init__(self, name, log):
        self.name = name
        self.log = log

    def before_event(self, event, params):
        self.log.append((self.name, "before", event))

    def after_event(self, event, params):
        self.log.append((self.name, "after", event))

    def on_deaths(self, dead):
        self.log.append((self.name, "deaths", tuple(dead)))

    def on_registry_op(self, op, **fields):
        self.log.append((self.name, "registry", op))

    def on_verdict(self, prop, category, monitor):
        self.log.append((self.name, "verdict", category))


class TestOrdering:
    def test_hooks_fire_in_registration_order(self):
        log = []
        engine = MonitoringEngine(
            UNSAFEITER.make().silence(),
            system="tm",
            on_verdict=lambda prop, category, monitor: log.append(
                ("callback", "verdict", category)
            ),
        )
        first, second = Probe("first", log), Probe("second", log)
        engine.add_observer(first)
        engine.add_observer(second)
        c, i = Obj("c"), Obj("i")
        engine.emit("create", c=c, i=i)
        engine.emit("update", c=c)
        del log[:]
        engine.emit("next", i=i)
        assert log == [
            ("first", "before", "next"),
            ("second", "before", "next"),
            ("callback", "verdict", "match"),
            ("first", "verdict", "match"),
            ("second", "verdict", "match"),
            ("first", "after", "next"),
            ("second", "after", "next"),
        ]
        del i
        del log[:]
        # The eager boundary propagates the death between the hooks.
        engine.emit("update", c=c)
        engine.set_property_enabled(0, False)
        assert log == [
            ("first", "before", "update"),
            ("second", "before", "update"),
            ("first", "deaths", ("i",)),
            ("second", "deaths", ("i",)),
            ("first", "after", "update"),
            ("second", "after", "update"),
            ("first", "registry", "enable"),
            ("second", "registry", "enable"),
        ]

    def test_eager_boundary_reports_ledger_deaths(self):
        """Deaths the engine's ledger observed reach ``on_deaths`` at the
        boundary that propagates them, named by parameter; a lazy engine
        propagates nothing, so its observers hear of nothing."""
        for system, expected in (("tm", [("probe", "deaths", ("i",))]), ("rv", [])):
            log = []
            engine = MonitoringEngine(UNSAFEITER.make().silence(), system=system)
            engine.add_observer(Probe("probe", log))
            c = Obj("c")
            engine.emit("create", c=c, i=Obj("i-dies"))
            del log[:]
            engine.emit("update", c=c)
            assert [entry for entry in log if entry[1] == "deaths"] == expected, system

    def test_remove_observer_and_reject_duplicates(self):
        log = []
        engine = MonitoringEngine(UNSAFEITER.make().silence())
        probe = engine.add_observer(Probe("probe", log))
        with pytest.raises(ValueError):
            engine.add_observer(probe)
        engine.remove_observer(probe)
        with pytest.raises(ValueError):
            engine.remove_observer(probe)
        engine.emit("update", c=Obj("c"))
        assert log == []
        assert not engine._tapped

    def test_after_hooks_run_when_dispatch_raises(self):
        log = []
        engine = MonitoringEngine(UNSAFEITER.make().silence())
        engine.add_observer(Probe("probe", log))
        with pytest.raises(UnknownEventError):
            engine.emit("undeclared", x=Obj("x"))
        assert log == [("probe", "before", "undeclared"), ("probe", "after", "undeclared")]


class AfterOnly:
    def __init__(self, log):
        self.log = log

    def after_event(self, event, params):
        self.log.append(event)


class BeforeAndAfter(AfterOnly):
    def before_event(self, event, params):
        pass


@pytest.mark.parametrize("observer", [AfterOnly, BeforeAndAfter])
def test_after_hooks_stop_at_the_batch_event_that_raised(observer):
    """A strict batch that raises on its second event runs the after hooks
    of the first two events only, whether or not the observer also has a
    ``before_event`` hook: each event runs its hooks around its own
    dispatch."""
    log = []
    engine = MonitoringEngine(UNSAFEITER.make().silence(), dispatch="codegen")
    c, i = Obj("c"), Obj("i")
    engine.emit("update", c=c)  # binds the kernels: the routes call them
    engine.add_observer(observer(log))
    batch = [("create", {"c": c, "i": i}), ("bogus", {}), ("next", {"i": i})]
    with pytest.raises(UnknownEventError):
        engine.emit_batch(batch)
    assert log == ["create", "bogus"]
