"""Aspect weaving — the Python substitute for AspectJ (Section 5 settings).

The paper's event declarations attach AspectJ pointcuts (``call``,
``target``, ``returning``, ``condition``, ``thread``) to monitored events.
This module provides the same capability by monkey-patching methods: a
:class:`Pointcut` names a class, a method, an advice position (``before`` /
``after``), how to bind spec parameters from the call, and an optional
``condition`` — a predicate over the :class:`CallContext` (the paper's
``condition`` pointcut extension: unlike ``if``, it can see the value
returned by the call, which is what distinguishes ``hasnexttrue`` from
``hasnextfalse``; it also sees the receiver, which the synchronization
properties use to test lock ownership).

Binding sources:

* ``"target"``  — the receiver (AspectJ ``target``);
* ``"result"``  — the return value (``after returning``);
* ``"thread"``  — the current thread object (the ``thread`` extension);
* ``"arg0"``, ``"arg1"``, ... — positional arguments;
* any callable — receives the :class:`CallContext` and returns the object.

Advice is compiled per join point at weave time, as AspectJ compiles it
into each call site: every pointcut becomes one *fire* function whose
bindings are direct expressions (``target``, ``result``, ``args[1]``, ...)
and which calls the sink's ``emit`` bound when it was woven, so a binding
source is checked by :meth:`Weaver.weave`, not at the first call.  Each
join point carries one advice that runs its before-fires, the method and
its after-fires; a :class:`CallContext` is built only when a condition or
a callable source on that join point needs one.

A :class:`Weaver` installs pointcuts and restores the original methods on
:meth:`~Weaver.unweave` (or when used as a context manager), so monitored
and unmonitored runs of the same workload are possible in one process —
that is how the benchmark harness measures *overhead* like Figure 9(A).
"""

from __future__ import annotations

import functools
import keyword
import threading
from dataclasses import dataclass, field
from typing import Any, Callable

from ..core.errors import ReproError
from ..runtime.engine import MonitoringEngine

__all__ = ["CallContext", "Pointcut", "Weaver", "before", "after_returning"]


@dataclass(slots=True)
class CallContext:
    """Everything an advice can see about one intercepted call."""

    target: Any
    args: tuple
    kwargs: dict
    result: Any = None


#: How to extract one parameter object from a call.
BindSource = "str | Callable[[CallContext], Any]"


@dataclass(frozen=True)
class Pointcut:
    """One advice: intercept ``cls.method`` and emit ``event``."""

    cls: type
    method: str
    event: str
    when: str  # "before" | "after"
    bind: tuple[tuple[str, Any], ...]
    condition: Callable[[Any], bool] | None = None


def before(
    cls: type,
    method: str,
    event: str,
    bind: dict[str, Any],
    condition: Callable[[Any], bool] | None = None,
) -> Pointcut:
    """``before(...) : call(...)`` advice."""
    return Pointcut(cls, method, event, "before", tuple(bind.items()), condition)


def after_returning(
    cls: type,
    method: str,
    event: str,
    bind: dict[str, Any],
    condition: Callable[[Any], bool] | None = None,
) -> Pointcut:
    """``after(...) returning(r) : call(...) && condition(...)`` advice."""
    return Pointcut(cls, method, event, "after", tuple(bind.items()), condition)


_EXPRESSIONS = {"target": "target", "result": "result", "thread": "current_thread()"}

#: Fire-function factories by binding shape: ``((param, expression), ...)``
#: and whether a condition guards the emit.  Event, condition and getters
#: are factory arguments, so one ``exec`` serves every pointcut of a shape.
_FACTORIES: dict[tuple, Callable[..., Callable]] = {}


def _expression(param: str, source: Any, getters: list) -> str:
    if not param.isidentifier() or keyword.iskeyword(param):
        raise ReproError(f"binding name {param!r} is not an identifier")
    if callable(source):
        getters.append(source)
        return f"g{len(getters) - 1}(context)"
    if isinstance(source, str):
        if source in _EXPRESSIONS:
            return _EXPRESSIONS[source]
        if source.startswith("arg") and source[3:].isdigit():
            return f"args[{int(source[3:])}]"
    raise ReproError(f"unknown binding source {source!r}")


def _compile(pointcut: Pointcut, emit: Callable) -> tuple[Callable, bool]:
    """The pointcut's fire function, and whether it needs a CallContext."""
    getters: list = []
    binds = tuple(
        (param, _expression(param, source, getters)) for param, source in pointcut.bind
    )
    conditional = pointcut.condition is not None
    factory = _FACTORIES.get((binds, conditional))
    if factory is None:
        call = "emit(event, False" + "".join(f", {p}={e}" for p, e in binds) + ")"
        if conditional:
            call = f"if condition(context):\n            {call}"
        names = "".join(f", g{index}" for index in range(len(getters)))
        namespace = {"current_thread": threading.current_thread}
        exec(
            f"def factory(emit, event, condition{names}):\n"
            f"    def fire(target, args, result, context):\n"
            f"        {call}\n"
            f"    return fire\n",
            namespace,
        )
        factory = _FACTORIES[(binds, conditional)] = namespace["factory"]
    fire = factory(emit, pointcut.event, pointcut.condition, *getters)
    return fire, conditional or bool(getters)


@dataclass(eq=False, slots=True)
class _JoinPoint:
    """One advised method: what to restore, and its compiled fire lists."""

    cls: type
    method: str
    original: Any
    own: bool  # the class itself defined the method (else: inherited)
    pointcuts: list[Pointcut] = field(default_factory=list)
    before: list[Callable] = field(default_factory=list)
    after: list[Callable] = field(default_factory=list)
    contextual: bool = False
    woven: bool = True


@dataclass
class Weaver:
    """Installs pointcuts into classes and emits their events to an engine."""

    engine: MonitoringEngine
    #: (class, method) -> its join point, in weave order.
    _joinpoints: dict[tuple[type, str], _JoinPoint] = field(default_factory=dict)

    def weave(self, pointcuts: "Pointcut | list[Pointcut]") -> "Weaver":
        """Install advice; multiple pointcuts may share one join point.

        Identical pointcuts are woven once: several specifications may
        observe the same program event (HASNEXT's and UNSAFEITER's ``next``
        are the same observation), and one advice must feed all of them —
        exactly as a single AspectJ advice serves every matching JavaMOP
        specification.  Without the deduplication, monitoring the five
        evaluated properties together would double-count shared events.
        """
        if isinstance(pointcuts, Pointcut):
            pointcuts = [pointcuts]
        emit = self.engine.emit
        for pointcut in pointcuts:
            key = (pointcut.cls, pointcut.method)
            joinpoint = self._joinpoints.get(key)
            if joinpoint is not None and pointcut in joinpoint.pointcuts:
                continue
            fire, contextual = _compile(pointcut, emit)
            if joinpoint is None:
                joinpoint = self._joinpoints[key] = self._install(*key)
            joinpoint.pointcuts.append(pointcut)
            fires = joinpoint.before if pointcut.when == "before" else joinpoint.after
            fires.append(fire)
            joinpoint.contextual = joinpoint.contextual or contextual
        return self

    def _install(self, cls: type, method: str) -> _JoinPoint:
        try:
            original = getattr(cls, method)
        except AttributeError:
            raise ReproError(f"{cls.__name__} has no method {method!r}") from None
        joinpoint = _JoinPoint(cls, method, original, method in cls.__dict__)
        before, after = joinpoint.before, joinpoint.after
        call = original
        if not joinpoint.own:
            # Looked up per call, so advice a base class gets later (or
            # loses) applies to this subclass too, whatever the weave order.
            def call(target: Any, *args: Any, **kwargs: Any) -> Any:
                return getattr(super(cls, target), method)(*args, **kwargs)

        @functools.wraps(original)
        def advised(target: Any, *args: Any, **kwargs: Any) -> Any:
            # Unwoven, the fire lists are empty: a stale advice left on the
            # class by out-of-order teardown is a transparent pass-through.
            context = CallContext(target, args, kwargs) if joinpoint.contextual else None
            for fire in before:
                fire(target, args, None, context)
            result = call(target, *args, **kwargs)
            if context is not None:
                context.result = result
            for fire in after:
                fire(target, args, result, context)
            return result

        advised.__rv_original__ = original  # type: ignore[attr-defined]
        advised.__rv_joinpoint__ = joinpoint  # type: ignore[attr-defined]
        setattr(cls, method, advised)
        return joinpoint

    def unweave(self) -> None:
        """Restore every original method (idempotent).

        Weavers sharing a join point should unweave in LIFO order (last
        woven, first unwoven) — the usual monkey-patch discipline.  If
        another weaver's advice is currently on top, this weaver leaves the
        class attribute alone: its own advice already degrades to a
        pass-through (its fire lists are cleared), and the top weaver, when
        it restores, skips down the ``__rv_original__`` chain past every
        advice whose weaver has unwoven.  A method the class only inherited
        is deleted again rather than restored, so the subclass keeps
        following its base class.
        """
        for joinpoint in reversed(self._joinpoints.values()):
            joinpoint.before.clear()
            joinpoint.after.clear()
            joinpoint.contextual = joinpoint.woven = False
            cls, method = joinpoint.cls, joinpoint.method
            top = getattr(cls.__dict__.get(method), "__rv_joinpoint__", None)
            if top is not None and top is not joinpoint:
                continue
            restore = joinpoint
            while restore.own:
                below = getattr(restore.original, "__rv_joinpoint__", None)
                if below is None or below.woven:
                    break
                restore = below
            if restore.own:
                setattr(cls, method, restore.original)
            else:
                delattr(cls, method)
        self._joinpoints.clear()

    def __enter__(self) -> "Weaver":
        return self

    def __exit__(self, *_exc: Any) -> None:
        self.unweave()
