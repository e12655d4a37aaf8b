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

A :class:`Weaver` installs pointcuts and restores the original methods on
:meth:`~Weaver.unweave` (or when used as a context manager), so monitored
and unmonitored runs of the same workload are possible in one process —
that is how the benchmark harness measures *overhead* like Figure 9(A).
"""

from __future__ import annotations

import functools
import threading
from dataclasses import dataclass, field
from typing import Any, Callable

from ..core.errors import ReproError
from ..runtime.engine import MonitoringEngine

__all__ = ["CallContext", "Pointcut", "Weaver", "before", "after_returning"]


@dataclass
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

    def extract(self, context: CallContext) -> dict[str, Any]:
        """Bind the advice's spec parameters from one intercepted call."""
        values: dict[str, Any] = {}
        for param, source in self.bind:
            values[param] = _resolve(source, context)
        return values


def _resolve(source: Any, context: CallContext) -> Any:
    if callable(source):
        return source(context)
    if source == "target":
        return context.target
    if source == "result":
        return context.result
    if source == "thread":
        return threading.current_thread()
    if isinstance(source, str) and source.startswith("arg"):
        index = int(source[3:])
        return context.args[index]
    raise ReproError(f"unknown binding source {source!r}")


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


@dataclass
class Weaver:
    """Installs pointcuts into classes and emits their events to an engine."""

    engine: MonitoringEngine
    #: (class, method, original, whether the class itself defined it).
    _installed: list[tuple[type, str, Any, bool]] = field(default_factory=list)
    #: (class, method) -> list of pointcuts sharing that join point.
    _by_joinpoint: dict[tuple[type, str], list[Pointcut]] = field(default_factory=dict)

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
        for pointcut in pointcuts:
            key = (pointcut.cls, pointcut.method)
            if key not in self._by_joinpoint:
                self._by_joinpoint[key] = []
                self._install(pointcut.cls, pointcut.method)
            if pointcut not in self._by_joinpoint[key]:
                self._by_joinpoint[key].append(pointcut)
        return self

    def _install(self, cls: type, method: str) -> None:
        try:
            original = getattr(cls, method)
        except AttributeError:
            raise ReproError(f"{cls.__name__} has no method {method!r}") from None
        key = (cls, method)
        weaver = self

        @functools.wraps(original)
        def advised(target: Any, *args: Any, **kwargs: Any) -> Any:
            context = CallContext(target=target, args=args, kwargs=kwargs)
            # .get: a stale wrapper may briefly survive on a class if
            # weavers are torn down out of LIFO order; it then degrades to a
            # transparent pass-through instead of crashing the program.
            for pointcut in weaver._by_joinpoint.get(key, ()):
                if pointcut.when == "before" and weaver._passes(pointcut, context):
                    weaver.engine.emit(
                        pointcut.event, _strict=False, **pointcut.extract(context)
                    )
            context.result = original(target, *args, **kwargs)
            for pointcut in weaver._by_joinpoint.get(key, ()):
                if pointcut.when == "after" and weaver._passes(pointcut, context):
                    weaver.engine.emit(
                        pointcut.event, _strict=False, **pointcut.extract(context)
                    )
            return context.result

        advised.__rv_original__ = original  # type: ignore[attr-defined]
        advised.__rv_weaver__ = weaver  # type: ignore[attr-defined]
        own = method in cls.__dict__
        setattr(cls, method, advised)
        self._installed.append((cls, method, original, own))

    @staticmethod
    def _passes(pointcut: Pointcut, context: CallContext) -> bool:
        if pointcut.condition is None:
            return True
        return bool(pointcut.condition(context))

    def unweave(self) -> None:
        """Restore every original method (idempotent).

        Weavers sharing a join point must unweave in LIFO order (last woven,
        first unwoven) — the usual monkey-patch discipline.  If another
        weaver's wrapper is currently on top, this weaver leaves the class
        attribute alone: its own advice already degrades to a pass-through
        (``_by_joinpoint`` is cleared), so out-of-order teardown cannot
        break the program; the attribute is restored when the top weaver
        exits.  A method the class only inherited is deleted again rather
        than restored, so the subclass keeps following its base class.
        """
        for cls, method, original, own in reversed(self._installed):
            current = cls.__dict__.get(method)
            foreign_wrapper = (
                current is not None
                and getattr(current, "__rv_original__", None) is not None
                and getattr(current, "__rv_weaver__", None) is not self
            )
            if foreign_wrapper:
                continue
            if own:
                setattr(cls, method, original)
            else:
                delattr(cls, method)
        self._installed.clear()
        self._by_joinpoint.clear()

    def __enter__(self) -> "Weaver":
        return self

    def __exit__(self, *_exc: Any) -> None:
        self.unweave()
