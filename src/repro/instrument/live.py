"""Live-program instrumentation: monitor real Python objects in real runs.

The engine learns about parameter-object deaths from its own identity
ledger (:class:`~repro.runtime.refs.ParamLedger`): every object it keys
carries one ``weakref`` whose callback stamps the death and, under eager
propagation, queues it for the next safe event boundary.  In a *live*
execution — the regime dynamic-analysis systems operate in — the paper's
monitor GC is thereby driven by the *host garbage collector* instead of
trace markers.  This module closes the loop with two pieces:

* :class:`TraceWeaver` — an aspect weaver for plain Python functions: it
  swaps each woven function's code for a generated trampoline that runs
  the advice around the original code, so only woven functions pay, on
  every thread.  A :class:`FunctionPointcut` names a function, an advice
  position (``call``/``return``), parameter bindings, and an optional
  condition — the :mod:`repro.instrument.aspects` model lifted from
  monkey-patched methods to arbitrary user code.
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
import threading
import types
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
    """What a function advice can see: the call's arguments by name (the
    same at return) and, at return, its result."""

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

    func: types.FunctionType  # the woven function
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


def _function_of(func: Any) -> types.FunctionType:
    """The Python function behind ``func`` (through wrapper decorators and
    bound methods), refused where a trampoline could not stand in for it.

    Generators and coroutines are refused because a woven call returns as
    soon as it has made the generator or coroutine: the return advice would
    see that object, not what the body returns, and a trampoline would turn
    a coroutine function into a plain one.  Wrap such functions with
    :func:`emits` (or a session :meth:`~LiveSession.probe`), which observes
    the call, instead.
    """
    func = inspect.unwrap(func)
    func = getattr(func, "__func__", func)
    if not isinstance(func, types.FunctionType):
        raise ReproError(
            f"{func!r} is not a Python function, so it has no __code__ to "
            "swap (wrap C callables with the emits decorator instead)"
        )
    flags = func.__code__.co_flags
    if flags & (inspect.CO_GENERATOR | inspect.CO_ASYNC_GENERATOR):
        raise ReproError(
            f"{func!r} is a generator function: its body runs when the "
            "generator is iterated, after a woven call has returned — use "
            "the emits decorator (observes the call) instead"
        )
    if flags & inspect.CO_COROUTINE:
        raise ReproError(
            f"{func!r} is a coroutine function: its body runs when the "
            "coroutine is awaited, and a trampoline would make it a plain "
            "function — use the emits decorator (observes the call) instead"
        )
    return func


def on_call(
    func: Any,
    event: str,
    bind: dict[str, Any],
    condition: Callable[[FunctionContext], bool] | None = None,
) -> FunctionPointcut:
    """Advice firing when ``func``'s body is entered."""
    return FunctionPointcut(_function_of(func), event, "call", tuple(bind.items()), condition)


def on_return(
    func: Any,
    event: str,
    bind: dict[str, Any],
    condition: Callable[[FunctionContext], bool] | None = None,
) -> FunctionPointcut:
    """Advice firing when ``func`` returns normally (sees ``result``)."""
    return FunctionPointcut(_function_of(func), event, "return", tuple(bind.items()), condition)


#: The module-global name under which trampolines find their advice: a
#: dict mapping ``id(function)`` to the woven function's :class:`_Advice`,
#: present while some function of that module is woven.  Trampoline names
#: share its prefix, which woven functions may therefore not use.
_ADVICE = "__repro_advice__"

#: Stands in for the woven function's key in a trampoline template.
_KEY = "__repro_key__"

#: Trampoline templates by original code: weaving a function again, or
#: another function of the same code, compiles nothing.
_TEMPLATES: "weakref.WeakKeyDictionary[types.CodeType, types.CodeType]" = (
    weakref.WeakKeyDictionary()
)


def _template(code: types.CodeType) -> types.CodeType:
    """A trampoline with ``code``'s signature and free variables, keyed by
    the :data:`_KEY` placeholder."""
    template = _TEMPLATES.get(code)
    if template is not None:
        return template
    count = code.co_argcount + code.co_kwonlyargcount
    star = bool(code.co_flags & inspect.CO_VARARGS)
    starstar = bool(code.co_flags & inspect.CO_VARKEYWORDS)
    names = code.co_varnames[: count + star + starstar]
    free = code.co_freevars
    if any(name.startswith("__repro_") for name in names + free):
        raise ReproError(f"{code.co_qualname} uses a name reserved for weaving")
    params = list(names[: code.co_argcount])
    args = params.copy()
    if code.co_posonlyargcount:
        params.insert(code.co_posonlyargcount, "/")
    if star:
        params.append(f"*{names[count]}")
        args.append(f"*{names[count]}")
    elif code.co_kwonlyargcount:
        params.append("*")
    params += names[code.co_argcount : count]
    args += [f"{name}={name}" for name in names[code.co_argcount : count]]
    if starstar:
        params.append(f"**{names[-1]}")
        args.append(f"**{names[-1]}")
    arguments = "{" + ", ".join(f"{name!r}: {name}" for name in names) + "}"
    # One line, so every instruction reports the original's first line; the
    # unreachable tail after the return gives it the original's free variables.
    namespace: dict[str, Any] = {}
    exec(
        f"def __repro_make__({', '.join(free)}):\n"
        f" def __repro_trampoline__({', '.join(params)}): "
        f"__repro_t__ = {_ADVICE}[{_KEY!r}]; "
        f"__repro_t__.enter({arguments}) if __repro_t__.calls else None; "
        f"__repro_r__ = __repro_t__.run({', '.join(args)}); "
        f"__repro_t__.leave({arguments}, __repro_r__) if __repro_t__.returns else None; "
        f"return __repro_r__" + "".join(f"; {name}" for name in free) + "\n"
        f" return __repro_trampoline__\n",
        namespace,
    )
    template = namespace["__repro_make__"](*free).__code__.replace(
        co_name=code.co_name,
        co_qualname=code.co_qualname,
        co_filename=code.co_filename,
        co_firstlineno=code.co_firstlineno,
    )
    _TEMPLATES[code] = template
    return template


class _Advice:
    """One woven function: its original code, that code rebuilt as a
    function (``run``, what the trampoline calls), and the advice every
    weaver put on it, as the ``calls``/``returns`` fire tuples the
    trampoline reads."""

    __slots__ = ("func", "original", "run", "woven", "calls", "returns")

    def __init__(self, func: types.FunctionType):
        self.func = func
        self.original = func.__code__
        self.run = types.FunctionType(
            self.original, func.__globals__, func.__name__, func.__defaults__,
            func.__closure__,
        )
        self.run.__kwdefaults__ = func.__kwdefaults__
        #: ``(weaver, pointcut, fire)`` in weave order.
        self.woven: list[tuple[TraceWeaver, FunctionPointcut, Callable]] = []
        self.calls: tuple[Callable[[FunctionContext], None], ...] = ()
        self.returns: tuple[Callable[[FunctionContext], None], ...] = ()

    @staticmethod
    def of(func: types.FunctionType) -> "_Advice":
        """``func``'s advice, swapping in its trampoline if no weaver has."""
        tables = func.__globals__.get(_ADVICE)
        advice = None if tables is None else tables.get(id(func))
        if advice is None:
            template = _template(func.__code__)
            trampoline = template.replace(co_consts=tuple(
                id(func) if const == _KEY else const for const in template.co_consts
            ))
            advice = _Advice(func)
            func.__globals__.setdefault(_ADVICE, {})[id(func)] = advice
            func.__code__ = trampoline
        return advice

    def enter(self, arguments: dict[str, Any]) -> None:
        context = FunctionContext(arguments)
        for fire in self.calls:
            fire(context)

    def leave(self, arguments: dict[str, Any], result: Any) -> None:
        context = FunctionContext(arguments, result)
        for fire in self.returns:
            fire(context)

    def refresh(self) -> None:
        """Rebuild the fire tuples (replaced whole: a call in flight keeps
        the tuple it read), and restore the original code once no weaver
        advises the function."""
        self.calls = tuple(fire for _, cut, fire in self.woven if cut.when == "call")
        self.returns = tuple(fire for _, cut, fire in self.woven if cut.when == "return")
        if not self.woven:
            func = self.func
            func.__code__ = self.original
            tables = func.__globals__[_ADVICE]
            del tables[id(func)]
            if not tables:
                del func.__globals__[_ADVICE]


class TraceWeaver:
    """Weave :class:`FunctionPointcut` advice into running user code.

    Weaving swaps each woven function's ``__code__`` for a generated
    *trampoline* with the same signature: the same parameters,
    positional-only marker, keyword-only parameters, ``*args``/``**kwargs``
    and free variables, so defaults, closures, zero-argument ``super()``
    and :func:`inspect.signature` are unchanged.  The trampoline runs the
    call advice, the original code, then the return advice.  Only woven
    functions pay, on every thread (running ones included), and no
    interpreter-wide trace hook is touched.  A trampoline finds its advice
    in its module's globals under one reserved name, removed when the
    module's last woven function is unwoven; so unweave while the woven
    functions are idle, since a call entering a trampoline just as its
    function is restored finds no advice.

    Every weaver of a function shares its one advice table, so weavers may
    unweave in any order.  ``sink`` is anything with the engine ``emit``
    signature — normally a :class:`LiveSession`, so emitted parameters are
    death-watched.  Use as a context manager or call :meth:`unweave`.
    """

    def __init__(self, sink: Any):
        self.sink = sink
        self._woven: list[_Advice] = []

    def weave(
        self, pointcuts: "FunctionPointcut | Iterable[FunctionPointcut]"
    ) -> "TraceWeaver":
        """Install advice; several pointcuts may share one function.

        An unknown binding source fails here, before the function is
        touched; an identical pointcut is woven once per weaver."""
        if isinstance(pointcuts, FunctionPointcut):
            pointcuts = [pointcuts]
        for pointcut in pointcuts:
            fire = pointcut.compile(self.sink)
            advice = _Advice.of(pointcut.func)
            if any(owner is self and cut == pointcut for owner, cut, _ in advice.woven):
                continue
            advice.woven.append((self, pointcut, fire))
            advice.refresh()
            if advice not in self._woven:
                self._woven.append(advice)
        return self

    def unweave(self) -> None:
        """Remove this weaver's advice (idempotent); a function no weaver
        advises any more gets its original code back."""
        for advice in reversed(self._woven):
            advice.woven = [entry for entry in advice.woven if entry[0] is not self]
            advice.refresh()
        self._woven.clear()

    def __enter__(self) -> "TraceWeaver":
        return self

    def __exit__(self, *_exc: Any) -> None:
        self.unweave()


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
    Exiting restores all woven code and patched methods; the sink stays
    alive for inspection.
    """

    def __init__(
        self,
        sink: Any = None,
        properties: Any = None,
        *,
        record: TextIO | None = None,
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
        """Weave user-code function pointcuts (restored on :meth:`close`)."""
        if self._trace_weaver is None:
            self._trace_weaver = TraceWeaver(self)
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
