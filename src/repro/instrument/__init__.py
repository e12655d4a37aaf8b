"""Instrumentation: aspect weaving, live-program monitoring, and the
monitored-program substrate.

Three layers:

* :mod:`~repro.instrument.aspects` — AspectJ-style pointcuts woven into
  Python classes by monkey-patching (the Section 5 setting);
* :mod:`~repro.instrument.live` — monitoring *real running programs*:
  ``LiveSession`` (engine/service front door; deaths reach the engines
  through their identity ledgers), ``TraceWeaver`` (weaves plain
  functions by swapping their code for advice trampolines), and the
  ``emits`` decorator;
* :mod:`~repro.instrument.collections_shim` — the Java-collections
  substrate the DaCapo-analog workloads run against.
"""

from .aspects import CallContext, Pointcut, Weaver, after_returning, before
from .live import (
    FunctionContext,
    FunctionPointcut,
    LiveSession,
    TraceWeaver,
    emits,
    on_call,
    on_return,
)
from .collections_shim import (
    ConcurrentModificationError,
    HashedObject,
    MethodBody,
    MonitoredCollection,
    MonitoredFile,
    MonitoredHashSet,
    MonitoredIterator,
    MonitoredLock,
    MonitoredMap,
    MonitoredMapView,
    NoSuchElementError,
    SynchronizedCollection,
    SynchronizedMap,
    SynchronizedMapView,
)

__all__ = [
    "CallContext",
    "Pointcut",
    "Weaver",
    "after_returning",
    "before",
    "FunctionContext",
    "FunctionPointcut",
    "LiveSession",
    "TraceWeaver",
    "emits",
    "on_call",
    "on_return",
    "ConcurrentModificationError",
    "HashedObject",
    "MethodBody",
    "MonitoredCollection",
    "MonitoredFile",
    "MonitoredHashSet",
    "MonitoredIterator",
    "MonitoredLock",
    "MonitoredMap",
    "MonitoredMapView",
    "NoSuchElementError",
    "SynchronizedCollection",
    "SynchronizedMap",
    "SynchronizedMapView",
]
