"""repro — a Python reproduction of *Garbage Collection for Monitoring
Parametric Properties* (Jin, Meredith, Griffith, Roșu; PLDI 2011).

The library implements the full RV-system stack from scratch:

* parametric trace slicing and the abstract monitoring algorithm
  (:mod:`repro.core`);
* four specification formalisms — FSM, extended regular expressions,
  past-time LTL, and context-free grammars (:mod:`repro.formalism`);
* the coenable/enable-set static analyses and ALIVENESS formula
  compilation (:mod:`repro.core.coenable`, :mod:`repro.core.aliveness`);
* the RV specification language (:mod:`repro.spec`);
* a monitoring runtime with weak-keyed indexing trees and lazy monitor
  garbage collection (:mod:`repro.runtime`);
* aspect-weaving instrumentation, *live-program* monitoring (weakref-
  driven monitor GC over real Python objects, code-swap weaving of plain
  functions), and a Java-collections substrate
  (:mod:`repro.instrument`);
* the paper's ten properties (:mod:`repro.properties`) and the
  DaCapo-analog benchmark harness (:mod:`repro.bench`);
* a sharded monitoring service with thread, inline, and multiprocess
  shard backends (:mod:`repro.service`);
* checkpoint & recovery — engine snapshots, a write-ahead tracelog, and
  crash recovery by snapshot + suffix replay (:mod:`repro.persist`);
* a dynamic property registry — hot load/unload of properties across the
  engine, the service, and persistence (:mod:`repro.spec.registry`);
* a runtime telemetry plane — exact counters, sampled timers, Prometheus
  exposition, and verdict provenance with WAL-slice replay
  (:mod:`repro.obs`).

Quickstart::

    from repro import MonitoringEngine, compile_spec

    spec = compile_spec('''
        HasNext(i) {
          event hasnexttrue(i)
          event hasnextfalse(i)
          event next(i)
          ltl: [](next => (*)hasnexttrue)
          @violation "improper Iterator use found!"
        }
    ''')
    engine = MonitoringEngine(spec, system="rv")
    engine.emit("next", i=some_iterator)      # fires the violation handler

See README.md and ``examples/`` for more.
"""

from .core.events import EventDefinition, ParametricEvent
from .core.params import EMPTY_BINDING, Binding
from .core.errors import ReproError
from .core import verdicts
from .runtime.engine import SYSTEMS, MonitoringEngine
from .runtime.statistics import MonitorStats
from .spec.compiler import CompiledProperty, CompiledSpec, compile_spec, load_spec
from .spec.registry import PropertyRegistry
from .instrument.aspects import Pointcut, Weaver, after_returning, before
from .instrument.live import LiveSession, TraceWeaver, emits
from .obs.telemetry import Telemetry
from .persist import DurableEngine, restore_engine, snapshot_engine
from .properties import ALL_PROPERTIES, CATALOGUE, EVALUATED_PROPERTIES, LIVE_PROPERTIES
from .service import MonitorService, VerdictRecord

__version__ = "1.0.0"

__all__ = [
    "EventDefinition",
    "ParametricEvent",
    "EMPTY_BINDING",
    "Binding",
    "ReproError",
    "verdicts",
    "SYSTEMS",
    "MonitoringEngine",
    "MonitorStats",
    "CompiledProperty",
    "CompiledSpec",
    "PropertyRegistry",
    "compile_spec",
    "load_spec",
    "Pointcut",
    "Weaver",
    "after_returning",
    "before",
    "LiveSession",
    "TraceWeaver",
    "emits",
    "ALL_PROPERTIES",
    "LIVE_PROPERTIES",
    "CATALOGUE",
    "EVALUATED_PROPERTIES",
    "MonitorService",
    "VerdictRecord",
    "DurableEngine",
    "snapshot_engine",
    "restore_engine",
    "__version__",
]
