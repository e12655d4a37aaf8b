"""Live-program instrumentation: monitor real Python objects in real runs.

The engine learns about parameter-object deaths from its own identity
ledger (:class:`~repro.runtime.refs.ParamLedger`): every object it keys
carries one ``weakref`` whose callback stamps the death and, under eager
propagation, queues it for the next safe event boundary.  In a *live*
execution — the regime dynamic-analysis systems operate in — the paper's
monitor GC is thereby driven by the *host garbage collector* instead of
trace markers.  This module closes the loop with two pieces:

* :class:`TraceWeaver` — an aspect weaver for plain Python functions: on
  CPython 3.12+ it uses :pep:`669` ``sys.monitoring`` local events (near
  zero cost for unmonitored code); on 3.11 it falls back to
  ``sys.settrace``.  A :class:`FunctionPointcut` names a function, an
  advice position (``call``/``return``), parameter bindings, and an
  optional condition — the :mod:`repro.instrument.aspects` model lifted
  from monkey-patched methods to arbitrary user code.
* :class:`LiveSession` — the front door: owns (or wraps) a
  :class:`~repro.runtime.engine.MonitoringEngine` or
  :class:`~repro.service.MonitorService`, weaves class pointcuts,
  function pointcuts and :func:`emits` decorators, and can record the run
  — *including explicit death markers* — to a tracelog for offline
  re-monitoring.

The recorded-trace story is round-trip tested: a workload run live (real
object drops) and its recorded trace replayed with death markers yield
identical verdict multisets and monitor-collection counts across every GC
strategy and both dispatch paths
(``tests/instrument/test_live_equivalence.py``).
"""

from __future__ import annotations

import functools
import inspect
import sys
import threading
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Mapping, TextIO

from time import perf_counter

from ..core.errors import ReproError
from ..obs.catalogue import declare as _declare_metric
from ..obs.telemetry import Telemetry, as_telemetry
from ..runtime.engine import MonitoringEngine
from ..runtime.tracelog import TraceRecorder
from .aspects import Pointcut, Weaver

__all__ = [
    "FunctionContext",
    "FunctionPointcut",
    "on_call",
    "on_return",
    "TraceWeaver",
    "emits",
    "LiveSession",
    "active_sessions",
]


# ---------------------------------------------------------------------------
# Function pointcuts (the user-code analog of instrument.aspects).
# ---------------------------------------------------------------------------


@dataclass
class FunctionContext:
    """What a function advice can see: the call's locals and its result."""

    locals: Mapping[str, Any]
    result: Any = None


def _source_getter(source: Any) -> Callable[[FunctionContext], Any]:
    """Compile one binding source into a getter over a call context.

    Resolved once, where the advice is woven or decorated, so a call pays
    one getter call per parameter instead of re-reading the source."""
    if callable(source):
        return source
    if source == "result":
        return _result_of
    if source == "thread":
        return _current_thread
    if isinstance(source, str) and (source == "self" or source.startswith("arg:")):
        name = "self" if source == "self" else source[4:]
        return lambda context: context.locals[name]
    raise ReproError(f"unknown function binding source {source!r}")


def _result_of(context: FunctionContext) -> Any:
    return context.result


def _current_thread(_context: FunctionContext) -> Any:
    return threading.current_thread()


def _getters(bind: Iterable[tuple[str, Any]]) -> tuple[tuple[str, Callable], ...]:
    """``(param, getter)`` for each ``(param, source)`` of a binding."""
    return tuple((param, _source_getter(source)) for param, source in bind)


@dataclass(frozen=True)
class FunctionPointcut:
    """One advice on a plain Python function: intercept calls, emit an event.

    ``when`` is ``"call"`` (advice before the body runs, sees arguments)
    or ``"return"`` (advice after a normal return, sees ``result``;
    exceptional exits emit nothing, like AspectJ ``after returning``).
    Binding sources: ``"arg:<name>"`` (a parameter of the function),
    ``"self"``, ``"result"``, ``"thread"``, or any callable receiving the
    :class:`FunctionContext`.
    """

    code: Any  # the target's code object (the weaving key)
    event: str
    when: str  # "call" | "return"
    bind: tuple[tuple[str, Any], ...]
    condition: Callable[[FunctionContext], bool] | None = None

    def compile(self, sink: Any) -> Callable[[FunctionContext], None]:
        """The advice as one function of a call context: test the
        condition, bind the spec parameters through getters compiled
        here, and emit the event to ``sink`` (non-strict)."""
        event, condition, getters = self.event, self.condition, _getters(self.bind)

        def fire(context: FunctionContext) -> None:
            if condition is None or condition(context):
                sink.emit(
                    event, _strict=False, **{param: get(context) for param, get in getters}
                )

        return fire


#: Code-object flags marking suspendable frames (generator / coroutine /
#: async generator) — see the rejection rationale in :func:`_code_of`.
_SUSPENDABLE_FLAGS = (
    inspect.CO_GENERATOR | inspect.CO_COROUTINE | inspect.CO_ASYNC_GENERATOR
)


def _code_of(func: Any) -> Any:
    """The code object behind a function (through wrapper decorators).

    Suspendable functions (generators, coroutines, async generators) are
    refused: ``settrace`` reports every suspension/resumption as a
    return/call, while ``sys.monitoring``'s ``PY_START``/``PY_RETURN``
    fire once per invocation — the same program would produce different
    event streams per backend.  Wrap such functions with :func:`emits`
    (or a session :meth:`~LiveSession.probe`) instead, which observes the
    *call* rather than the frame.
    """
    func = inspect.unwrap(func)
    code = getattr(func, "__code__", None)
    if code is None:
        raise ReproError(
            f"{func!r} has no __code__; only pure-Python functions can be "
            "trace-woven (wrap C callables with the emits decorator instead)"
        )
    if code.co_flags & _SUSPENDABLE_FLAGS:
        raise ReproError(
            f"{func!r} is a generator/coroutine; its frame suspensions "
            "would be reported as calls/returns under settrace — use the "
            "emits decorator (observes the call) instead"
        )
    return code


def on_call(
    func: Any,
    event: str,
    bind: dict[str, Any],
    condition: Callable[[FunctionContext], bool] | None = None,
) -> FunctionPointcut:
    """Advice firing when ``func``'s body is entered."""
    return FunctionPointcut(_code_of(func), event, "call", tuple(bind.items()), condition)


def on_return(
    func: Any,
    event: str,
    bind: dict[str, Any],
    condition: Callable[[FunctionContext], bool] | None = None,
) -> FunctionPointcut:
    """Advice firing when ``func`` returns normally (sees ``result``)."""
    return FunctionPointcut(_code_of(func), event, "return", tuple(bind.items()), condition)


class _CodeHooks:
    """The pointcuts woven into one code object, split by advice position,
    each with its compiled advice (:meth:`FunctionPointcut.compile`)."""

    __slots__ = ("calls", "returns", "call_fires", "return_fires")

    def __init__(self) -> None:
        self.calls: list[FunctionPointcut] = []
        self.returns: list[FunctionPointcut] = []
        self.call_fires: list[Callable[[FunctionContext], None]] = []
        self.return_fires: list[Callable[[FunctionContext], None]] = []


class TraceWeaver:
    """Weave :class:`FunctionPointcut` advice into running user code.

    Backends:

    * ``"monitoring"`` (CPython 3.12+, the default there) — :pep:`669`
      ``sys.monitoring`` with *local* ``PY_START``/``PY_RETURN`` events on
      exactly the woven code objects: unmonitored code runs at full speed.
    * ``"settrace"`` (3.11 fallback, selectable everywhere) — a global
      ``sys.settrace`` hook that declines to trace every frame whose code
      object is not woven.  Inherent ``settrace`` limitation: threads
      already running when :meth:`weave` is first called are never
      instrumented (``threading.settrace`` only affects threads started
      afterwards); start monitoring before worker threads, or use the
      ``sys.monitoring`` backend, which covers all threads.

    ``sink`` is anything with the engine ``emit`` signature — normally a
    :class:`LiveSession`, so emitted parameters are death-watched.  Use as
    a context manager or call :meth:`unweave` to restore the interpreter
    hooks.
    """

    def __init__(self, sink: Any, backend: str | None = None):
        if backend is None:
            backend = "monitoring" if hasattr(sys, "monitoring") else "settrace"
        if backend == "monitoring" and not hasattr(sys, "monitoring"):
            raise ReproError("sys.monitoring requires Python 3.12+")
        if backend not in ("monitoring", "settrace"):
            raise ReproError(f"unknown trace backend {backend!r}")
        self.sink = sink
        self.backend = backend
        self._by_code: dict[Any, _CodeHooks] = {}
        self._installed = False
        self._previous_trace: Any = None
        self._previous_threading_trace: Any = None
        self._tool_id: int | None = None

    # -- weaving -----------------------------------------------------------

    def weave(
        self, pointcuts: "FunctionPointcut | Iterable[FunctionPointcut]"
    ) -> "TraceWeaver":
        """Install advice; several pointcuts may share one function."""
        if isinstance(pointcuts, FunctionPointcut):
            pointcuts = [pointcuts]
        for pointcut in pointcuts:
            hooks = self._by_code.get(pointcut.code)
            if hooks is None:
                hooks = self._by_code[pointcut.code] = _CodeHooks()
                fresh = True
            else:
                fresh = False
            if pointcut.when == "call":
                bucket, fires = hooks.calls, hooks.call_fires
            else:
                bucket, fires = hooks.returns, hooks.return_fires
            if pointcut not in bucket:
                fires.append(pointcut.compile(self.sink))
                bucket.append(pointcut)
            if not self._installed:
                self._install()
            if self.backend == "monitoring" and fresh:
                self._watch_code(pointcut.code)
        return self

    def unweave(self) -> None:
        """Remove every advice and restore the interpreter hooks."""
        if not self._installed:
            self._by_code.clear()
            return
        if self.backend == "settrace":
            sys.settrace(self._previous_trace)
            threading.settrace(self._previous_threading_trace)
        else:
            monitoring = sys.monitoring
            for code in self._by_code:
                try:
                    monitoring.set_local_events(self._tool_id, code, 0)
                except ValueError:
                    pass
            monitoring.register_callback(
                self._tool_id, monitoring.events.PY_START, None
            )
            monitoring.register_callback(
                self._tool_id, monitoring.events.PY_RETURN, None
            )
            monitoring.free_tool_id(self._tool_id)
            self._tool_id = None
        self._by_code.clear()
        self._installed = False

    def __enter__(self) -> "TraceWeaver":
        return self

    def __exit__(self, *_exc: Any) -> None:
        self.unweave()

    # -- advice firing -----------------------------------------------------

    @staticmethod
    def _fire(
        fires: list[Callable[[FunctionContext], None]], context: FunctionContext
    ) -> None:
        for fire in fires:
            fire(context)

    # -- settrace backend --------------------------------------------------

    def _install(self) -> None:
        if self.backend == "settrace":
            self._previous_trace = sys.gettrace()
            self._previous_threading_trace = threading.gettrace()
            sys.settrace(self._global_trace)
            threading.settrace(self._global_trace)
        else:
            self._install_monitoring()
        self._installed = True

    def _global_trace(self, frame: Any, event: str, _arg: Any) -> Any:
        if event != "call":
            return None
        hooks = self._by_code.get(frame.f_code)
        if hooks is None:
            return None  # decline: no line/return tracing for foreign frames
        if hooks.call_fires:
            self._fire(hooks.call_fires, FunctionContext(frame.f_locals))
        if not hooks.return_fires:
            return None
        raised = False

        def local_trace(frame: Any, event: str, arg: Any) -> Any:
            nonlocal raised
            if event == "exception":
                raised = True
            elif event == "line":
                # Execution resumed after the exception was caught inside
                # the frame; an exceptional unwind goes straight from
                # "exception" to "return" with no line in between.
                raised = False
            elif event == "return" and not raised:
                self._fire(hooks.return_fires, FunctionContext(frame.f_locals, arg))
            return local_trace

        return local_trace

    # -- sys.monitoring backend (3.12+) ------------------------------------

    def _install_monitoring(self) -> None:
        monitoring = sys.monitoring
        tool_id = None
        for candidate in range(6):
            if monitoring.get_tool(candidate) is None:
                try:
                    monitoring.use_tool_id(candidate, "repro-live")
                except ValueError:  # raced another tool; keep looking
                    continue
                tool_id = candidate
                break
        if tool_id is None:
            raise ReproError("no free sys.monitoring tool id")
        self._tool_id = tool_id
        monitoring.register_callback(
            tool_id, monitoring.events.PY_START, self._on_py_start
        )
        monitoring.register_callback(
            tool_id, monitoring.events.PY_RETURN, self._on_py_return
        )

    def _watch_code(self, code: Any) -> None:
        monitoring = sys.monitoring
        monitoring.set_local_events(
            self._tool_id, code,
            monitoring.events.PY_START | monitoring.events.PY_RETURN,
        )

    def _on_py_start(self, code: Any, _offset: int) -> Any:
        hooks = self._by_code.get(code)
        if hooks is not None and hooks.call_fires:
            # The callback runs as a regular call from the instrumented
            # frame, so that frame is our immediate caller.
            frame = sys._getframe(1)
            self._fire(hooks.call_fires, FunctionContext(frame.f_locals))
        return None

    def _on_py_return(self, code: Any, _offset: int, retval: Any) -> Any:
        hooks = self._by_code.get(code)
        if hooks is not None and hooks.return_fires:
            frame = sys._getframe(1)
            self._fire(hooks.return_fires, FunctionContext(frame.f_locals, retval))
        return None


# ---------------------------------------------------------------------------
# The ambient-session decorator API.
# ---------------------------------------------------------------------------

#: Innermost-last stack of active sessions; @emits-wrapped functions emit to
#: every active session (mutated only under the GIL from session enter/exit).
_ACTIVE_SESSIONS: list["LiveSession"] = []


def active_sessions() -> tuple["LiveSession", ...]:
    """The currently active sessions, outermost first."""
    return tuple(_ACTIVE_SESSIONS)


def _probe_wrapper(
    func: Callable,
    event: str,
    when: str,
    sources: tuple,
    condition: Callable[[FunctionContext], bool] | None,
    dispatch: Callable[[str, tuple, Any, FunctionContext], None],
    skip: Callable[[], bool] | None = None,
) -> Callable:
    """The shared wrapper behind :func:`emits` and :meth:`LiveSession.probe`.

    ``sources`` pairs each spec parameter with its compiled getter
    (:func:`_getters`); ``dispatch(event, sources, condition, context)``
    performs the emission; ``skip`` (optional) short-circuits to the plain
    call when nobody is listening.
    """
    if when not in ("call", "return"):
        raise ReproError(f"unknown advice position {when!r}")
    signature = inspect.signature(func)

    @functools.wraps(func)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        if skip is not None and skip():
            return func(*args, **kwargs)
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        context = FunctionContext(bound.arguments)
        if when == "call":
            dispatch(event, sources, condition, context)
            return func(*args, **kwargs)
        result = func(*args, **kwargs)
        context.result = result
        dispatch(event, sources, condition, context)
        return result

    return wrapper


def emits(
    event: str,
    when: str = "call",
    bind: dict[str, Any] | None = None,
    condition: Callable[[FunctionContext], bool] | None = None,
) -> Callable:
    """Decorator: annotate a function so its calls emit a parametric event.

    The emission goes to every *active* :class:`LiveSession` (see
    :meth:`LiveSession.__enter__`); with none active the function runs
    unobserved at plain wrapper cost.  This is how library code is
    annotated once and monitored only when a session chooses to listen.

    ``bind`` maps spec parameters to sources (``"arg:<name>"``,
    ``"self"``, ``"result"``, ``"thread"``, or a callable on the
    :class:`FunctionContext`); ``when`` is ``"call"`` or ``"return"``.
    """
    sources = _getters((bind or {}).items())

    def decorate(func: Callable) -> Callable:
        return _probe_wrapper(
            func, event, when, sources, condition, _emit_ambient,
            skip=lambda: not _ACTIVE_SESSIONS,
        )

    return decorate


def _emit_ambient(
    event: str,
    sources: tuple,
    condition: Callable[[FunctionContext], bool] | None,
    context: FunctionContext,
) -> None:
    if condition is not None and not condition(context):
        return
    values = {param: get(context) for param, get in sources}
    for session in _ACTIVE_SESSIONS:
        session.emit(event, _strict=False, **values)


# ---------------------------------------------------------------------------
# The live-monitoring session.
# ---------------------------------------------------------------------------


class LiveSession:
    """One live-monitoring run: engine/service + weavers.

    ``sink`` is an existing :class:`~repro.runtime.engine.MonitoringEngine`
    or :class:`~repro.service.MonitorService`; with ``sink=None`` the
    session builds its own engine from ``properties`` (any form the engine
    constructor accepts — catalogue entries, spec text, compiled specs)
    and ``engine_options`` (``gc=``, ``system=``, ``dispatch=``, ...).

    Entering the session activates it:

    * catalogue properties carrying default instrumentation (class
      pointcuts or a ``weave(session)`` hook) are woven;
    * the session joins the ambient stack, so :func:`emits`-decorated
      user code starts reporting to it;
    * with ``record=`` (a text sink), every event — and every parameter
      death, as explicit markers — is written as a tracelog for offline
      replay.

    Parameter deaths reach the sink's engines through their ledgers, which
    under eager propagation deliver them at the next event boundary;
    recorded death markers come from the recorder's symbol registry.
    Exiting restores all woven code and interpreter hooks; the sink stays
    alive for inspection.
    """

    def __init__(
        self,
        sink: Any = None,
        properties: Any = None,
        *,
        record: TextIO | None = None,
        backend: str | None = None,
        telemetry: "Telemetry | bool | None" = None,
        **engine_options: Any,
    ):
        #: Weave-overhead telemetry: an exact per-pointcut-event counter
        #: plus a sampled emit-boundary timer (the full cost the weaving
        #: adds per woven event).
        #: A session-built engine shares this registry.
        self.telemetry = as_telemetry(telemetry)
        self._props = self._resolve_properties(properties)
        if sink is None:
            if not self._props:
                raise ReproError("LiveSession needs a sink or properties")
            if self.telemetry is not None:
                engine_options.setdefault("telemetry", self.telemetry)
            sink = MonitoringEngine(
                [prop for prop, _hook in self._props], **engine_options
            )
        elif engine_options:
            raise ReproError(
                "engine options are only used when the session builds its "
                "own engine (sink=None)"
            )
        self.sink = sink
        self.engine = sink if isinstance(sink, MonitoringEngine) else None
        self.recorder: TraceRecorder | None = None
        if record is not None:
            if self.engine is None:
                raise ReproError("recording requires an engine sink")
            self.recorder = TraceRecorder(record, record_deaths=True).attach(
                self.engine
            )
        self._backend = backend
        self._weaver: Weaver | None = None
        self._trace_weaver: TraceWeaver | None = None
        #: (cls, method, original, patched) monkey-patches, LIFO-restored;
        #: ``original`` is None where the class only inherited the method.
        self._patches: list[tuple[type, str, Any, Any]] = []
        self._active = False
        self._m_live_events = None
        self._m_live_latency = None
        self._live_sampler = None
        self._live_counters: dict[str, Any] = {}
        self._live_timers: dict[str, Any] = {}
        if self.telemetry is not None:
            obs_registry = self.telemetry.registry
            self._m_live_events = _declare_metric(
                obs_registry, "repro_live_events_total"
            )
            self._m_live_latency = _declare_metric(
                obs_registry, "repro_live_pointcut_seconds"
            )
            self._live_sampler = self.telemetry.sampler()

    @staticmethod
    def _resolve_properties(properties: Any) -> list[tuple[Any, Any]]:
        """Normalize to (engine-consumable property, weave hook) pairs."""
        if properties is None:
            return []
        if isinstance(properties, (str, bytes)) or not isinstance(properties, (list, tuple)):
            properties = [properties]
        resolved: list[tuple[Any, Any]] = []
        for item in properties:
            if isinstance(item, str) and "{" not in item:
                from ..properties import CATALOGUE

                try:
                    item = CATALOGUE[item]
                except KeyError:
                    raise ReproError(
                        f"unknown property key {item!r} "
                        f"(known: {sorted(CATALOGUE)})"
                    ) from None
            resolved.append((item, getattr(item, "weave_hook", None)))
        return resolved

    # -- lifecycle ---------------------------------------------------------

    def activate(self) -> "LiveSession":
        """Weave default instrumentation and join the ambient stack."""
        if self._active:
            return self
        self._active = True
        _ACTIVE_SESSIONS.append(self)
        for prop, hook in self._props:
            factory = getattr(prop, "pointcut_factory", None)
            if factory is not None:
                pointcuts = factory()
                if pointcuts:
                    self.weave(pointcuts)
            if hook is not None:
                hook(self)
        return self

    def close(self) -> None:
        """Unweave everything and leave the ambient stack (idempotent)."""
        if self._trace_weaver is not None:
            self._trace_weaver.unweave()
            self._trace_weaver = None
        if self._weaver is not None:
            self._weaver.unweave()
            self._weaver = None
        for cls, method, original, patched in reversed(self._patches):
            if cls.__dict__.get(method) is patched:
                if original is None:
                    delattr(cls, method)  # inherited: follow the base again
                else:
                    setattr(cls, method, original)
        self._patches.clear()
        if self._active:
            self._active = False
            try:
                _ACTIVE_SESSIONS.remove(self)
            except ValueError:
                pass
        self.flush_deaths()

    def __enter__(self) -> "LiveSession":
        return self.activate()

    def __exit__(self, *_exc: Any) -> None:
        self.close()

    def enable_flight_recorder(self, recorder: Any = None) -> Any:
        """Attach a flight recorder to the session's sink engine.

        Convenience passthrough to
        :meth:`repro.runtime.engine.MonitoringEngine.enable_flight_recorder`
        (the sink must expose it — a bare engine or a durable engine);
        woven events then leave a bounded in-memory ring of recent
        history, dumped on verdict bursts for postmortems of live runs.
        """
        target = self.engine if self.engine is not None else self.sink
        enable = getattr(target, "enable_flight_recorder", None)
        if enable is None:
            raise ReproError(
                "this session's sink does not support a flight recorder"
            )
        return enable(recorder)

    # -- emission ----------------------------------------------------------

    def emit(self, event: str, _strict: bool = False, **params: Any) -> None:
        """Dispatch one event to the sink.

        This is the safe event boundary: an eager engine propagates the
        deaths its ledger observed since the last emission *before* the
        event, exactly where a recorded trace's death markers would land.
        """
        if self._m_live_events is not None:
            counter = self._live_counters.get(event)
            if counter is None:
                counter = self._live_counters[event] = self._m_live_events.labels(
                    event
                )
            counter.inc()
            if self._live_sampler.sample():
                timer = self._live_timers.get(event)
                if timer is None:
                    timer = self._live_timers[event] = self._m_live_latency.labels(
                        event
                    )
                start = perf_counter()
                try:
                    self.sink.emit(event, _strict=_strict, **params)
                finally:
                    timer.observe(perf_counter() - start)
                return
        self.sink.emit(event, _strict=_strict, **params)

    def flush_deaths(self) -> None:
        """Write buffered death markers outside an event (end-of-run
        accounting of a recording session)."""
        if self.recorder is not None:
            self.recorder.flush_deaths()

    # -- weaving utilities -------------------------------------------------

    def weave(self, pointcuts: "Pointcut | list[Pointcut]") -> "LiveSession":
        """Weave class-method pointcuts (restored on :meth:`close`)."""
        if self._weaver is None:
            self._weaver = Weaver(self)
        self._weaver.weave(pointcuts)
        return self

    def weave_functions(
        self, pointcuts: "FunctionPointcut | Iterable[FunctionPointcut]"
    ) -> "LiveSession":
        """Weave user-code function pointcuts through the trace backend."""
        if self._trace_weaver is None:
            self._trace_weaver = TraceWeaver(self, backend=self._backend)
        self._trace_weaver.weave(pointcuts)
        return self

    def patch_method(self, cls: type, method: str, around: Callable) -> None:
        """Install around-advice on ``cls.method`` (restored on close).

        ``around(original, *args, **kwargs)`` runs instead of the method
        and decides if/how to call ``original``.  This is the escape hatch
        for instrumentation a declarative pointcut cannot express (e.g.
        attaching completion callbacks to objects a call returns).
        """
        found = getattr(cls, method)
        own = method in cls.__dict__
        if own:
            original = found
        else:
            # Looked up per call, as the Weaver does: advice a base class
            # gets later (or loses) applies to this subclass too.
            def original(target: Any, *args: Any, **kwargs: Any) -> Any:
                return getattr(super(cls, target), method)(*args, **kwargs)

        @functools.wraps(found)
        def patched(*args: Any, **kwargs: Any) -> Any:
            return around(original, *args, **kwargs)

        setattr(cls, method, patched)
        self._patches.append((cls, method, found if own else None, patched))

    def probe(
        self,
        event: str,
        when: str = "call",
        bind: dict[str, Any] | None = None,
        condition: Callable[[FunctionContext], bool] | None = None,
    ) -> Callable:
        """Session-bound :func:`emits`: the wrapper reports only here."""
        sources = _getters((bind or {}).items())

        def decorate(func: Callable) -> Callable:
            return _probe_wrapper(
                func, event, when, sources, condition, self._emit_context
            )

        return decorate

    def _emit_context(
        self,
        event: str,
        sources: tuple,
        condition: Callable[[FunctionContext], bool] | None,
        context: FunctionContext,
    ) -> None:
        if condition is not None and not condition(context):
            return
        self.emit(event, **{param: get(context) for param, get in sources})
