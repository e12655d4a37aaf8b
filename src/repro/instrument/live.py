"""Live-program instrumentation: monitor real Python objects in real runs.

The rest of the stack learns about parameter-object deaths either lazily
(weak-keyed structures notice dead keys as they are touched) or from a
replayed trace's retirement points.  This module closes the loop for *live*
executions — the regime dynamic-analysis systems operate in — with three
pieces:

* :class:`LiveBinding` — an identity map over every object bound as a
  specification parameter.  Each watched object carries a ``weakref.ref``
  callback; when the interpreter reclaims it, the death is recorded as a
  coalesced ``(parameter name, id)`` pair and, at the next safe event
  boundary, injected into the engine through
  :meth:`~repro.runtime.engine.MonitoringEngine.note_deaths` — the same
  ``purge_ids`` flow the engine's own eager watcher feeds.  The paper's
  monitor GC is thereby driven by the *host garbage collector* instead of
  trace markers.
* :class:`TraceWeaver` — an aspect weaver for plain Python functions: on
  CPython 3.12+ it uses :pep:`669` ``sys.monitoring`` local events (near
  zero cost for unmonitored code); on 3.11 it falls back to
  ``sys.settrace``.  A :class:`FunctionPointcut` names a function, an
  advice position (``call``/``return``), parameter bindings, and an
  optional condition — the :mod:`repro.instrument.aspects` model lifted
  from monkey-patched methods to arbitrary user code.
* :class:`LiveSession` — the front door: owns (or wraps) a
  :class:`~repro.runtime.engine.MonitoringEngine` or
  :class:`~repro.service.MonitorService`, watches every emitted parameter
  in its :class:`LiveBinding`, drains deaths at event boundaries, weaves
  class pointcuts, function pointcuts and :func:`emits` decorators, and
  can record the run — *including explicit death markers* — to a
  tracelog for offline re-monitoring.

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
import weakref
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
    "LiveBinding",
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
# The weakref-driven death ledger.
# ---------------------------------------------------------------------------


class LiveBinding:
    """Identity map of live parameter objects with death callbacks.

    ``watch(name, value)`` registers one object under one parameter name
    (an object bound under several names is registered once with all its
    names).  When the interpreter reclaims a watched object, the
    ``weakref`` callback — which may run in any thread, possibly
    mid-dispatch — only appends to a pending ledger; :meth:`drain`
    coalesces the ledger into the ``{parameter name: {dead ids}}`` map
    that :meth:`MonitoringEngine.note_deaths` consumes at the next safe
    event boundary.

    Non-weak-referenceable values (ints, strings, tuples...) are treated
    as immortal and never watched — identical to
    :class:`~repro.runtime.refs.ParamRef` semantics.
    """

    __slots__ = ("_watched", "_pending", "_pending_lock")

    def __init__(self) -> None:
        #: id -> (weakref guard, parameter names the object is bound under).
        self._watched: dict[int, tuple[weakref.ref, set[str]]] = {}
        #: Deaths since the last drain: (parameter name, dead id).
        self._pending: list[tuple[str, int]] = []
        #: Guards the pending-swap in drain() against a death callback
        #: appending from another thread at the same moment.
        self._pending_lock = threading.Lock()

    def watch(self, name: str, value: Any) -> None:
        """Track ``value`` as a parameter object bound under ``name``."""
        key = id(value)
        entry = self._watched.get(key)
        if entry is not None:
            if entry[0]() is value:
                entry[1].add(name)
                return
            # Recycled id: the previous holder died but its callback has
            # not fired yet (reference cycles).  Record the missed death so
            # the new registration does not shadow it.
            del self._watched[key]
            self._note(entry[1], key)
        try:
            ref = weakref.ref(value, lambda _ref, _key=key: self._on_death(_key))
        except TypeError:
            return  # immortal value: it never dies, nothing to watch
        self._watched[key] = (ref, {name})

    def _on_death(self, key: int) -> None:
        entry = self._watched.get(key)
        if entry is None or entry[0]() is not None:
            # Handled at re-registration time, or the id was re-registered
            # for a new live object.
            return
        del self._watched[key]
        self._note(entry[1], key)

    def _note(self, names: Iterable[str], dead_id: int) -> None:
        with self._pending_lock:
            pending = self._pending
            for name in names:
                pending.append((name, dead_id))

    def drain(self) -> dict[str, set[int]]:
        """Coalesced deaths since the last drain (empty dict when none)."""
        if not self._pending:
            return {}
        with self._pending_lock:
            pending, self._pending = self._pending, []
        dead: dict[str, set[int]] = {}
        for name, dead_id in pending:
            dead.setdefault(name, set()).add(dead_id)
        return dead

    @property
    def live_count(self) -> int:
        """How many watched objects are currently alive."""
        return len(self._watched)

    def __len__(self) -> int:
        return len(self._watched)


# ---------------------------------------------------------------------------
# Function pointcuts (the user-code analog of instrument.aspects).
# ---------------------------------------------------------------------------


@dataclass
class FunctionContext:
    """What a function advice can see: the call's locals and its result."""

    locals: Mapping[str, Any]
    result: Any = None


def _resolve_source(source: Any, context: FunctionContext) -> Any:
    """Extract one parameter object from a function call context."""
    if callable(source):
        return source(context)
    if source == "result":
        return context.result
    if source == "thread":
        return threading.current_thread()
    if source == "self":
        return context.locals["self"]
    if isinstance(source, str) and source.startswith("arg:"):
        return context.locals[source[4:]]
    raise ReproError(f"unknown function binding source {source!r}")


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

    def extract(self, context: FunctionContext) -> dict[str, Any]:
        """Bind the advice's spec parameters from one call."""
        return {
            param: _resolve_source(source, context) for param, source in self.bind
        }


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
    """The pointcuts woven into one code object, split by advice position."""

    __slots__ = ("calls", "returns")

    def __init__(self) -> None:
        self.calls: list[FunctionPointcut] = []
        self.returns: list[FunctionPointcut] = []


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
            bucket = hooks.calls if pointcut.when == "call" else hooks.returns
            if pointcut not in bucket:
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

    def _fire(self, pointcuts: list[FunctionPointcut], context: FunctionContext) -> None:
        emit = self.sink.emit
        for pointcut in pointcuts:
            if pointcut.condition is None or pointcut.condition(context):
                emit(pointcut.event, _strict=False, **pointcut.extract(context))

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
        if hooks.calls:
            self._fire(hooks.calls, FunctionContext(frame.f_locals))
        if not hooks.returns:
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
                self._fire(hooks.returns, FunctionContext(frame.f_locals, arg))
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
        if hooks is not None and hooks.calls:
            # The callback runs as a regular call from the instrumented
            # frame, so that frame is our immediate caller.
            frame = sys._getframe(1)
            self._fire(hooks.calls, FunctionContext(frame.f_locals))
        return None

    def _on_py_return(self, code: Any, _offset: int, retval: Any) -> Any:
        hooks = self._by_code.get(code)
        if hooks is not None and hooks.returns:
            frame = sys._getframe(1)
            self._fire(hooks.returns, FunctionContext(frame.f_locals, retval))
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

    ``dispatch(event, sources, condition, context)`` performs the
    emission; ``skip`` (optional) short-circuits to the plain call when
    nobody is listening.
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
    sources = tuple((bind or {}).items())

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
    values = {param: _resolve_source(source, context) for param, source in sources}
    for session in _ACTIVE_SESSIONS:
        session.emit(event, _strict=False, **values)


# ---------------------------------------------------------------------------
# The live-monitoring session.
# ---------------------------------------------------------------------------


class LiveSession:
    """One live-monitoring run: engine/service + death ledger + weavers.

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

    When the sink consumes injected deaths (eager propagation), every
    parameter of every emitted event is watched in the session's
    :class:`LiveBinding` and interpreter-observed deaths are drained and
    injected at the next event boundary; against a purely lazy sink the
    ledger is skipped — the weak-keyed structures notice dead keys on
    their own, and recorded death markers come from the recorder's symbol
    registry.  Exiting restores all woven code and interpreter hooks; the
    sink stays alive for inspection.
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
        #: plus a sampled emit-boundary timer (watch + death drain +
        #: dispatch — the full cost the weaving adds per woven event).
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
        self.binding = LiveBinding()
        #: The ledger matters only when the sink consumes injected deaths
        #: (eager propagation; note_deaths is a no-op under lazy, and the
        #: process backend tracks deaths through its symbol registry).
        #: Resolved once so the per-event hot path skips dead weight.
        self._track_deaths = self._sink_consumes_deaths(sink)
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
    def _sink_consumes_deaths(sink: Any) -> bool:
        """Whether injected deaths reach anything (see note_deaths docs)."""
        if isinstance(sink, MonitoringEngine):
            return sink.propagation != "lazy"
        engines = getattr(sink, "engines", None)
        if engines:  # inline service; the queued modes have none
            return any(engine.propagation != "lazy" for engine in engines)
        return False

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
        """Watch the parameters, inject pending deaths, dispatch the event.

        This is the safe event boundary: deaths the interpreter reported
        since the last emission are drained from the :class:`LiveBinding`
        and handed to the sink's ``note_deaths`` *before* the event, so
        eager propagation sees them exactly where a recorded trace's death
        markers would land.  Against a purely lazy sink the ledger is
        skipped entirely — the weak-keyed structures (and the recorder's
        symbol registry, for death markers) observe deaths on their own.
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
                    self._emit_inner(event, _strict, params)
                finally:
                    timer.observe(perf_counter() - start)
                return
        self._emit_inner(event, _strict, params)

    def _emit_inner(self, event: str, _strict: bool, params: dict[str, Any]) -> None:
        if self._track_deaths:
            watch = self.binding.watch
            for name, value in params.items():
                watch(name, value)
            dead = self.binding.drain()
            if dead:
                self.sink.note_deaths(dead)
        self.sink.emit(event, _strict=_strict, **params)

    def flush_deaths(self) -> None:
        """Drain the death ledger outside an event (end-of-run accounting)."""
        if self._track_deaths:
            dead = self.binding.drain()
            if dead:
                self.sink.note_deaths(dead)
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
        sources = tuple((bind or {}).items())

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
        self.emit(
            event,
            **{param: _resolve_source(source, context) for param, source in sources},
        )
