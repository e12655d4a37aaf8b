"""The live instrumentation layer: ledger-fed deaths, TraceWeaver, LiveSession."""

from __future__ import annotations

import gc
import inspect
import io
import sys
import threading
import weakref

import pytest

from repro.core.errors import ReproError
from repro.instrument import collections_shim, live
from repro.instrument.aspects import Weaver, before
from repro.instrument.live import (
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


PAIR_SRC = """
Pair(a, b) {
  event link(a, b)
  ere: link link
  @match
}
"""


# ---------------------------------------------------------------------------
# How a live session's objects are bound: through the engine's ledger
# ---------------------------------------------------------------------------


class TestLiveBinding:
    """A live session keeps no identity table of its own: every emitted
    object gets one entry in the engine's ledger, whose death callback
    queues it for the next event boundary under eager propagation."""

    def test_watch_and_death(self):
        session = LiveSession(properties=[HASNEXT_SRC], gc="none", propagation="eager")
        engine = session.engine
        with session:
            token = Obj("a")
            session.emit("hasnexttrue", i=token)
            assert len(engine.ledger) == 1
            serial = engine.ledger.entry(token).serial
            assert engine._pending_dead == []
            del token
            gc.collect()
            assert len(engine.ledger) == 0
            assert [entry.serial for entry in engine._pending_dead] == [serial]
            other = Obj("b")
            session.emit("hasnexttrue", i=other)  # the boundary drains once
            assert engine._pending_dead == []

    def test_one_object_many_names(self):
        session = LiveSession(properties=[PAIR_SRC], gc="none", propagation="eager")
        engine = session.engine
        with session:
            token = Obj("a")
            session.emit("link", a=token, b=token)
            assert len(engine.ledger) == 1
            assert weakref.getweakrefcount(token) == 1
            del token
            gc.collect()
            assert len(engine._pending_dead) == 1

    def test_immortal_values_are_not_watched(self):
        session = LiveSession(properties=[HASNEXT_SRC], gc="none", propagation="eager")
        with session:
            session.emit("hasnexttrue", i=42)
            session.emit("hasnexttrue", i="interned")
        assert len(session.engine.ledger) == 0
        assert session.engine._pending_dead == []

    def test_rewatch_same_object_is_stable(self):
        session = LiveSession(properties=[HASNEXT_SRC], gc="none", propagation="eager")
        with session:
            token = Obj("a")
            for _ in range(3):
                session.emit("hasnexttrue", i=token)
            assert len(session.engine.ledger) == 1
            assert weakref.getweakrefcount(token) == 1

    def test_coalesces_many_deaths(self):
        session = LiveSession(properties=[HASNEXT_SRC], gc="none", propagation="eager")
        engine = session.engine
        with session:
            tokens = [Obj(str(n)) for n in range(5)]
            for token in tokens:
                session.emit("hasnexttrue", i=token)
            serials = {engine.ledger.entry(token).serial for token in tokens}
            del token
            tokens.clear()
            gc.collect()
            assert {entry.serial for entry in engine._pending_dead} == serials
            survivor = Obj("next")
            session.emit("hasnexttrue", i=survivor)
            assert engine._pending_dead == []


# ---------------------------------------------------------------------------
# TraceWeaver: code-swap weaving of plain functions
# ---------------------------------------------------------------------------


def _uses_reserved_name(__repro_item):
    # Module level: inside a class body the name would be mangled.
    return __repro_item


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

        weaver = TraceWeaver(Sink())
        token = Obj("it")
        with weaver:
            weaver.weave([
                on_call(step, "next", {"i": "arg:i"}),
                on_return(step, "stepped", {"i": "result"}),
            ])
            step(token)
        assert events == [("next", {"i": token}), ("stepped", {"i": token})]

    def test_every_binding_source_and_an_unknown_one(self):
        """Each source kind binds through the getter compiled at weave
        time; an unknown source fails the weave, before any call."""
        events = []

        class Sink:
            def emit(self, event, _strict=False, **params):
                events.append((event, params))

        class Box:
            def put(self, item):
                return item

        weaver = TraceWeaver(Sink())
        box, item = Box(), Obj("item")
        with weaver:
            weaver.weave(
                on_return(
                    Box.put,
                    "put",
                    {
                        "s": "self",
                        "a": "arg:item",
                        "r": "result",
                        "t": "thread",
                        "f": lambda context: context.locals["self"],
                    },
                    condition=lambda context: context.result is item,
                )
            )
            box.put(item)
            box.put(Obj("skipped"))
            with pytest.raises(ReproError, match="unknown function binding source"):
                weaver.weave(on_call(Box.put, "bad", {"x": "local:item"}))
        assert events == [
            (
                "put",
                {"s": box, "a": item, "r": item, "t": threading.current_thread(), "f": box},
            )
        ]

    def test_exceptional_exit_skips_return_advice(self):
        events = []

        class Sink:
            def emit(self, event, _strict=False, **params):
                events.append(event)

        def boom(i):
            raise ValueError("no")

        weaver = TraceWeaver(Sink())
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

        weaver = TraceWeaver(Sink())
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

        weaver = TraceWeaver(Sink())
        with weaver:
            weaver.weave([
                on_call(step, "only_flagged", {"i": "arg:i"},
                        condition=lambda ctx: ctx.locals["flag"]),
            ])
            step(Obj("a"), False)
            step(Obj("b"), True)
        assert events == ["only_flagged"]

    def test_weaving_never_touches_the_trace_hook(self):
        def step(i):
            return i

        previous = sys.gettrace()
        original = step.__code__
        weaver = TraceWeaver(object())
        weaver.weave([on_call(step, "x", {})])
        assert sys.gettrace() is previous
        assert step.__code__ is not original
        weaver.unweave()
        assert sys.gettrace() is previous
        assert step.__code__ is original

    def test_backend_option_is_gone(self):
        with pytest.raises(TypeError):
            TraceWeaver(object(), backend="settrace")
        with pytest.raises(TypeError):
            LiveSession(properties=[HASNEXT_SRC], backend="settrace")

    def test_non_python_function_is_refused(self):
        with pytest.raises(ReproError, match="not a Python function"):
            on_call(len, "x", {})

    def test_suspendable_functions_are_refused(self):
        def generator():
            yield 1

        async def async_generator():
            yield 1

        async def coroutine():
            return 1

        for suspendable, reason in [
            (generator, "generator function"),
            (async_generator, "generator function"),
            (coroutine, "coroutine function"),
        ]:
            with pytest.raises(ReproError, match=reason):
                on_call(suspendable, "x", {})

    def test_weaving_reserved_names_are_refused(self):
        with pytest.raises(ReproError, match="reserved for weaving"):
            TraceWeaver(object()).weave(on_call(_uses_reserved_name, "x", {}))
        assert _uses_reserved_name.__code__.co_name == "_uses_reserved_name"

    def test_closure_function(self):
        events = []

        class Sink:
            def emit(self, event, _strict=False, **params):
                events.append((event, params))

        def counter():
            count = 0

            def bump(step):
                nonlocal count
                count += step
                return count

            return bump

        bump, other = counter(), counter()
        with TraceWeaver(Sink()) as weaver:
            weaver.weave(on_return(bump, "bumped", {"n": "result", "s": "arg:step"}))
            assert bump(2) == 2
            assert bump(3) == 5
            assert other(1) == 1  # same code, not woven: no advice
        assert bump(1) == 6  # the closure cell survived the weave
        assert events == [("bumped", {"n": 2, "s": 2}), ("bumped", {"n": 5, "s": 3})]

    def test_method_using_zero_argument_super(self):
        events = []

        class Sink:
            def emit(self, event, _strict=False, **params):
                events.append((event, params))

        class Base:
            def size(self, extra):
                return 1 + extra

        class Derived(Base):
            def size(self, extra):
                return super().size(extra) * 10

        item = Derived()
        with TraceWeaver(Sink()) as weaver:
            weaver.weave([
                on_call(Derived.size, "sizing", {"s": "self"}),
                on_return(item.size, "sized", {"n": "result"}),  # bound: same function
            ])
            assert item.size(1) == 20
        assert events == [("sizing", {"s": item}), ("sized", {"n": 20})]
        assert item.size(2) == 30

    def test_every_signature_shape(self):
        """Defaults, positional-only and keyword-only parameters, and
        ``*args``/``**kwargs`` all reach the original code and the advice."""
        seen = []

        class Sink:
            def emit(self, event, _strict=False, **params):
                seen.append(params["locals"])

        def plain(x, y=2):
            return (x, y)

        def positional_only(x, y=2, /):
            return (x, y)

        def keyword_only(*, z=3, w):
            return (z, w)

        def everything(x, y=2, /, *a, z=3, **kw):
            return (x, y, a, z, kw)

        def nothing():
            return ()

        calls = [
            (plain, (1,), {}, {"x": 1, "y": 2}),
            (plain, (), {"x": 1, "y": 5}, {"x": 1, "y": 5}),
            (positional_only, (1, 4), {}, {"x": 1, "y": 4}),
            (keyword_only, (), {"w": 9}, {"z": 3, "w": 9}),
            (everything, (1,), {}, {"x": 1, "y": 2, "a": (), "z": 3, "kw": {}}),
            (
                everything, (1, 5, 6, 7), {"z": 9, "q": 0},
                {"x": 1, "y": 5, "a": (6, 7), "z": 9, "kw": {"q": 0}},
            ),
            (nothing, (), {}, {}),
        ]
        expected = [func(*args, **kwargs) for func, args, kwargs, _ in calls]
        functions = {func for func, *_ in calls}
        with TraceWeaver(Sink()) as weaver:
            weaver.weave([
                on_return(func, "r", {"locals": lambda context: dict(context.locals)})
                for func in functions
            ])
            assert [func(*args, **kwargs) for func, args, kwargs, _ in calls] == expected
            with pytest.raises(TypeError):
                positional_only(x=1)
        assert seen == [arguments for *_, arguments in calls]

    def test_signature_unchanged_while_woven(self):
        def shaped(x: int, y=2, /, *a, z: str = "z", **kw) -> tuple:
            return (x, y, a, z, kw)

        def lambda_like(q, *, r=1):
            return q

        before = [inspect.signature(shaped), inspect.signature(lambda_like)]
        with TraceWeaver(object()) as weaver:
            weaver.weave([on_call(shaped, "x", {}), on_call(lambda_like, "y", {})])
            assert [inspect.signature(shaped), inspect.signature(lambda_like)] == before
            assert shaped.__name__ == "shaped"
            assert shaped.__code__.co_qualname == (
                "TestTraceWeaver.test_signature_unchanged_while_woven.<locals>.shaped"
            )

    @pytest.mark.parametrize("first_out", ["first", "second"])
    def test_two_weavers_on_one_function(self, first_out):
        events = []

        class Sink:
            def __init__(self, name):
                self.name = name

            def emit(self, event, _strict=False, **params):
                events.append((self.name, event))

        def step(i):
            return i

        original = step.__code__
        first, second = TraceWeaver(Sink("first")), TraceWeaver(Sink("second"))
        first.weave(on_call(step, "a", {"i": "arg:i"}))
        second.weave(on_return(step, "b", {"i": "result"}))
        step(1)
        assert events == [("first", "a"), ("second", "b")]
        leaving, staying = (first, second) if first_out == "first" else (second, first)
        leaving.unweave()
        events.clear()
        step(1)
        assert events == (
            [("second", "b")] if first_out == "first" else [("first", "a")]
        )
        assert step.__code__ is not original
        staying.unweave()
        events.clear()
        step(1)
        assert events == []
        assert step.__code__ is original
        assert live._ADVICE not in globals()

    def test_thread_started_before_weave_is_observed(self):
        events = []

        class Sink:
            def emit(self, event, _strict=False, **params):
                events.append((event, params["i"]))

        def work(i):
            return i

        woven, done = threading.Event(), threading.Event()

        def worker():
            woven.wait(5)
            work(1)
            done.set()

        thread = threading.Thread(target=worker)
        thread.start()
        try:
            with TraceWeaver(Sink()) as weaver:
                weaver.weave(on_call(work, "work", {"i": "arg:i"}))
                woven.set()
                assert done.wait(5)
        finally:
            woven.set()
            thread.join(5)
        assert not thread.is_alive()
        assert events == [("work", 1)]

    def test_reweaving_reuses_the_trampoline(self):
        def step(i):
            return i

        original = step.__code__
        with TraceWeaver(object()) as weaver:
            weaver.weave(on_call(step, "x", {}))
            template = live._TEMPLATES[original]
        with TraceWeaver(object()) as weaver:
            weaver.weave(on_call(step, "x", {}))
            assert live._TEMPLATES[original] is template
            assert step.__code__.co_code == template.co_code

    def test_advice_name_leaves_the_module_with_the_last_weave(self):
        def one(i):
            return i

        def two(i):
            return i

        weaver = TraceWeaver(object())
        weaver.weave([on_call(one, "x", {}), on_call(two, "y", {})])
        assert set(globals()[live._ADVICE]) == {id(one), id(two)}
        weaver.unweave()
        assert live._ADVICE not in globals()
        weaver.unweave()  # idempotent


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
            token = Obj("a")
            lazy.emit("hasnexttrue", i=token)
            # The engine's ledger is the only identity; a lazy engine only
            # stamps the death, its structures find the dead key on access.
            assert weakref.getweakrefcount(token) == 1
            entry = lazy.engine.ledger.entry(token)
            del token
            gc.collect()
            assert entry.died is not None
            assert lazy.engine._pending_dead == []

    def test_death_ledger_engaged_for_eager_sinks(self):
        eager = LiveSession(properties=[HASNEXT_SRC], gc="none",
                            propagation="eager")
        with eager:
            token = Obj("a")
            eager.emit("hasnexttrue", i=token)
            assert weakref.getweakrefcount(token) == 1
            del token
            gc.collect()
            assert len(eager.engine._pending_dead) == 1

    def test_close_is_idempotent(self):
        session = LiveSession(properties=[HASNEXT_SRC], gc="none")
        with session:
            pass
        session.close()
