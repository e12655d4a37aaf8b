"""Shared test fixtures and helpers."""

from __future__ import annotations

import socket
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.instrument import collections_shim
from repro.instrument.live import _ADVICE

#: Classes the shipped pointcuts weave into, with their unwoven attributes.
_WOVEN_CLASSES = {
    cls: dict(vars(cls))
    for cls in [
        value
        for value in vars(collections_shim).values()
        if isinstance(value, type) and value.__module__ == collections_shim.__name__
    ]
    + [socket.socket, tempfile.TemporaryDirectory, ThreadPoolExecutor]
}


@pytest.fixture(autouse=True)
def no_leaked_advice():
    """Fail a test that leaves a woven method or function behind.

    Advice binds its sink's ``emit`` at weave time, so a leaked advice
    would go on feeding a stale engine in every later test, silently.  A
    woven function is found by the advice table its module's globals hold
    while it is woven.
    """
    yield
    leaked = [
        (cls, name)
        for cls, unwoven in _WOVEN_CLASSES.items()
        for name, value in vars(cls).items()
        if value is not unwoven.get(name)
        and (hasattr(value, "__rv_original__") or hasattr(value, "__wrapped__"))
    ]
    for cls, name in leaked:  # restore, so only the leaking test fails
        if name in _WOVEN_CLASSES[cls]:
            setattr(cls, name, _WOVEN_CLASSES[cls][name])
        else:
            delattr(cls, name)
    names = [f"{cls.__name__}.{name}" for cls, name in leaked]
    for module in list(sys.modules.values()):
        tables = getattr(module, "__dict__", {}).get(_ADVICE)
        for advice in list((tables or {}).values()):
            names.append(advice.func.__qualname__)
            advice.woven.clear()
            advice.refresh()
    if names:
        pytest.fail(f"woven methods or functions left behind: {', '.join(sorted(names))}")


class Obj:
    """A weak-referenceable identity token used as a parameter object.

    Parameter values are compared by identity throughout the library (as in
    Java), so tests must create explicit objects rather than rely on interned
    strings or small ints.
    """

    __slots__ = ("name", "__weakref__")

    def __init__(self, name: str = "o"):
        self.name = name

    def __repr__(self) -> str:
        return f"Obj({self.name})"


@pytest.fixture
def obj():
    """Factory fixture: ``obj("c1")`` makes a fresh parameter object."""
    return Obj


def make_objs(*names: str) -> list[Obj]:
    return [Obj(name) for name in names]
