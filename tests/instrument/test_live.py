"""The live instrumentation layer: LiveBinding, TraceWeaver, LiveSession."""

from __future__ import annotations

import gc
import io
import sys

import pytest

from repro.core.errors import ReproError
from repro.instrument import collections_shim
from repro.instrument.aspects import Weaver, before
from repro.instrument.live import (
    LiveBinding,
    LiveSession,
    TraceWeaver,
    active_sessions,
    emits,
    on_call,
    on_return,
)
from repro.runtime.engine import MonitoringEngine
from repro.runtime.tracelog import read_trace, split_death_markers
from repro.service import MonitorService

from ..conftest import Obj

HASNEXT_SRC = """
HasNext(i) {
  event hasnexttrue(i)
  event next(i)
  ltl: [](next => (*)hasnexttrue)
  @violation "bad"
}
"""


# ---------------------------------------------------------------------------
# LiveBinding
# ---------------------------------------------------------------------------


class TestLiveBinding:
    def test_watch_and_death(self):
        binding = LiveBinding()
        token = Obj("a")
        key = id(token)
        binding.watch("i", token)
        assert binding.live_count == 1
        assert binding.drain() == {}
        del token
        gc.collect()
        assert binding.live_count == 0
        assert binding.drain() == {"i": {key}}
        assert binding.drain() == {}  # drained once

    def test_one_object_many_names(self):
        binding = LiveBinding()
        token = Obj("a")
        key = id(token)
        binding.watch("i", token)
        binding.watch("c", token)
        assert binding.live_count == 1
        del token
        gc.collect()
        assert binding.drain() == {"i": {key}, "c": {key}}

    def test_immortal_values_are_not_watched(self):
        binding = LiveBinding()
        binding.watch("i", 42)
        binding.watch("i", "interned")
        assert binding.live_count == 0
        assert binding.drain() == {}

    def test_rewatch_same_object_is_stable(self):
        binding = LiveBinding()
        token = Obj("a")
        for _ in range(3):
            binding.watch("i", token)
        assert binding.live_count == 1

    def test_coalesces_many_deaths(self):
        binding = LiveBinding()
        tokens = [Obj(str(n)) for n in range(5)]
        keys = {id(token) for token in tokens}
        for token in tokens:
            binding.watch("i", token)
        del token
        tokens.clear()
        gc.collect()
        assert binding.drain() == {"i": keys}


# ---------------------------------------------------------------------------
# Engine / service death injection
# ---------------------------------------------------------------------------


class TestNoteDeaths:
    def test_lazy_engine_is_noop(self):
        engine = MonitoringEngine(HASNEXT_SRC, gc="alldead", propagation="lazy")
        engine.note_deaths({"i": {123}})
        assert engine._pending_dead == []

    def test_eager_engine_queues_for_next_boundary(self):
        engine = MonitoringEngine(HASNEXT_SRC, gc="alldead", propagation="eager")
        token = Obj("i1")
        engine.emit("hasnexttrue", i=token)
        assert engine.stats_for("HasNext").live_monitors == 1
        key = id(token)
        del token
        gc.collect()
        engine.note_deaths({"i": {key}})
        other = Obj("i2")
        engine.emit("hasnexttrue", i=other)  # boundary: deaths propagate
        gc.collect()
        assert engine.stats_for("HasNext").monitors_collected >= 1

    def test_unknown_parameter_names_ignored(self):
        engine = MonitoringEngine(HASNEXT_SRC, propagation="eager")
        engine.note_deaths({"zz": {1, 2}})
        assert engine._pending_dead == []

    def test_service_forwards_to_shards(self):
        with MonitorService(HASNEXT_SRC, shards=2, mode="inline",
                            propagation="eager", gc="alldead") as service:
            token = Obj("i1")
            service.emit("hasnexttrue", i=token)
            key = id(token)
            del token
            gc.collect()
            service.note_deaths({"i": {key}})
            assert any(engine._pending_dead for engine in service.engines)


# ---------------------------------------------------------------------------
# TraceWeaver (forced settrace backend; default backend covered on 3.12 CI)
# ---------------------------------------------------------------------------


def make_session(**kwargs):
    return LiveSession(properties=[HASNEXT_SRC], **kwargs)


class TestTraceWeaver:
    def test_call_and_return_advice(self):
        events = []

        class Sink:
            def emit(self, event, _strict=False, **params):
                events.append((event, params))

        def step(i):
            return i

        weaver = TraceWeaver(Sink(), backend="settrace")
        token = Obj("it")
        with weaver:
            weaver.weave([
                on_call(step, "next", {"i": "arg:i"}),
                on_return(step, "stepped", {"i": "result"}),
            ])
            step(token)
        assert events == [("next", {"i": token}), ("stepped", {"i": token})]

    def test_exceptional_exit_skips_return_advice(self):
        events = []

        class Sink:
            def emit(self, event, _strict=False, **params):
                events.append(event)

        def boom(i):
            raise ValueError("no")

        weaver = TraceWeaver(Sink(), backend="settrace")
        with weaver:
            weaver.weave([on_return(boom, "after", {"i": "arg:i"})])
            with pytest.raises(ValueError):
                boom(Obj("x"))
        assert events == []

    def test_internally_caught_exception_still_fires_return_advice(self):
        events = []

        class Sink:
            def emit(self, event, _strict=False, **params):
                events.append(event)

        def resilient(i):
            try:
                int("not a number")
            except ValueError:
                pass
            return i

        weaver = TraceWeaver(Sink(), backend="settrace")
        with weaver:
            weaver.weave([on_return(resilient, "done", {"i": "result"})])
            resilient(Obj("x"))
        assert events == ["done"]

    def test_condition_filters(self):
        events = []

        class Sink:
            def emit(self, event, _strict=False, **params):
                events.append(event)

        def step(i, flag):
            return i

        weaver = TraceWeaver(Sink(), backend="settrace")
        with weaver:
            weaver.weave([
                on_call(step, "only_flagged", {"i": "arg:i"},
                        condition=lambda ctx: ctx.locals["flag"]),
            ])
            step(Obj("a"), False)
            step(Obj("b"), True)
        assert events == ["only_flagged"]

    def test_unweave_restores_tracing(self):
        previous = sys.gettrace()
        weaver = TraceWeaver(object(), backend="settrace")
        weaver.weave([on_call(make_session, "x", {})])
        weaver.unweave()
        assert sys.gettrace() is previous

    def test_non_python_function_is_refused(self):
        with pytest.raises(ReproError):
            on_call(len, "x", {})

    def test_suspendable_functions_are_refused(self):
        def generator():
            yield 1

        async def coroutine():
            return 1

        for suspendable in (generator, coroutine):
            with pytest.raises(ReproError, match="generator/coroutine"):
                on_call(suspendable, "x", {})

    def test_monitoring_backend_requires_312(self):
        if hasattr(sys, "monitoring"):
            pytest.skip("sys.monitoring available; default backend covers it")
        with pytest.raises(ReproError):
            TraceWeaver(object(), backend="monitoring")


# ---------------------------------------------------------------------------
# emits decorator + ambient sessions
# ---------------------------------------------------------------------------


@emits("hasnexttrue", bind={"i": "arg:i"})
def check(i):
    return True


@emits("next", when="return", bind={"i": "arg:i"})
def advance(i):
    return i


class TestEmitsDecorator:
    def test_inactive_sessions_make_it_a_passthrough(self):
        assert active_sessions() == ()
        assert advance(Obj("i")) is not None  # no engine, no error

    def test_active_session_receives_events(self):
        verdicts = []
        session = LiveSession(
            properties=[HASNEXT_SRC], gc="none",
            on_verdict=lambda p, c, m: verdicts.append(c),
        )
        with session:
            assert active_sessions() == (session,)
            token = Obj("it")
            check(token)
            advance(token)   # fine: hasnexttrue preceded
            advance(token)   # violation: no hasnexttrue since last next
        assert verdicts == ["violation"]
        assert active_sessions() == ()

    def test_probe_is_session_bound(self):
        verdicts = []
        session = LiveSession(
            properties=[HASNEXT_SRC], gc="none",
            on_verdict=lambda p, c, m: verdicts.append(c),
        )

        @session.probe("next", bind={"i": "arg:i"})
        def use(i):
            return i

        use(Obj("a"))  # session not entered: probe still reports to it
        assert verdicts == ["violation"]


# ---------------------------------------------------------------------------
# LiveSession
# ---------------------------------------------------------------------------


class TestLiveSession:
    def test_needs_sink_or_properties(self):
        with pytest.raises(ReproError):
            LiveSession()

    def test_engine_options_refused_with_explicit_sink(self):
        engine = MonitoringEngine(HASNEXT_SRC)
        with pytest.raises(ReproError):
            LiveSession(engine, gc="none")

    def test_unknown_catalogue_key(self):
        with pytest.raises(ReproError):
            LiveSession(properties=["nope"])

    def test_emitted_params_are_watched_and_deaths_recorded(self):
        buf = io.StringIO()
        session = LiveSession(properties=[HASNEXT_SRC], gc="none", record=buf)
        with session:
            token = Obj("it")
            session.emit("hasnexttrue", i=token)
            del token
            gc.collect()
            session.emit("hasnexttrue", i=Obj("other"))
        records = read_trace(buf.getvalue().splitlines())
        entries, deaths = split_death_markers(records)
        assert [event for event, _ in entries] == ["hasnexttrue", "hasnexttrue"]
        # o1 died between the events; the second token (a temporary) died
        # after the last event and is flushed as a trailing marker on close.
        assert deaths == {1: ["o1"], 2: ["o2"]}

    def test_trailing_deaths_flushed_on_close(self):
        buf = io.StringIO()
        session = LiveSession(properties=[HASNEXT_SRC], gc="none", record=buf)
        with session:
            token = Obj("it")
            session.emit("hasnexttrue", i=token)
            del token
            gc.collect()
        _entries, deaths = split_death_markers(read_trace(buf.getvalue().splitlines()))
        assert deaths == {1: ["o1"]}

    def test_recording_requires_engine_sink(self):
        with MonitorService(HASNEXT_SRC, shards=1, mode="inline") as service:
            with pytest.raises(ReproError):
                LiveSession(service, record=io.StringIO())

    def test_service_sink(self):
        with MonitorService(HASNEXT_SRC, shards=2, mode="inline") as service:
            session = LiveSession(service)
            with session:
                token = Obj("it")
                session.emit("next", i=token)
            categories = [record.category for record in service.verdicts()]
            assert categories == ["violation"]

    def test_patch_method_restored_on_close(self):
        class Victim:
            def ping(self):
                return "pong"

        original = Victim.ping
        session = LiveSession(properties=[HASNEXT_SRC], gc="none")
        calls = []
        with session:
            session.patch_method(
                Victim, "ping",
                lambda orig, self_: calls.append(1) or orig(self_),
            )
            assert Victim().ping() == "pong"
        assert Victim.ping is original
        assert calls == [1]

    def test_patch_on_inherited_method_follows_base_advice_woven_later(self):
        """Around-advice on a method the class only inherits calls the base
        method as it is at call time, not as it was when patched."""
        fired = []

        class Sink:
            def emit(self, event, _strict=True, **params):
                fired.append(event)

        base = collections_shim.MonitoredCollection
        sub = collections_shim.SynchronizedCollection
        session = LiveSession(properties=[HASNEXT_SRC], gc="none")
        weaver = Weaver(Sink())
        with session:
            session.patch_method(sub, "iterator", lambda orig, self_: orig(self_))
            weaver.weave(before(base, "iterator", event="made", bind={"c": "target"}))
            try:
                sub([1]).iterator()
            finally:
                weaver.unweave()
        assert fired == ["made"]
        assert "iterator" not in vars(sub)  # the patch is deleted, not copied

    def test_death_ledger_skipped_for_lazy_sinks(self):
        lazy = LiveSession(properties=[HASNEXT_SRC], gc="none")
        with lazy:
            lazy.emit("hasnexttrue", i=Obj("a"))
            assert lazy.binding.live_count == 0  # ledger not engaged

    def test_death_ledger_engaged_for_eager_sinks(self):
        eager = LiveSession(properties=[HASNEXT_SRC], gc="none",
                            propagation="eager")
        with eager:
            token = Obj("a")
            eager.emit("hasnexttrue", i=token)
            assert eager.binding.live_count == 1

    def test_close_is_idempotent(self):
        session = LiveSession(properties=[HASNEXT_SRC], gc="none")
        with session:
            pass
        session.close()
