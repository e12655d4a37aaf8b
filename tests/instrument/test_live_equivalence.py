"""Weakref-driven deaths must equal explicit-death-marker traces.

The live instrumentation layer's contract (ISSUE 5 acceptance): one
workload run

* **live** — real objects churn through woven classes, parameter deaths
  are interpreter refcount drops observed by the ``weakref`` callbacks of
  the engine's identity ledger, while a :class:`~repro.runtime.tracelog.TraceRecorder` with
  ``record_deaths=True`` writes the event stream *plus* explicit death
  markers; and
* **replayed** — the recorded trace re-monitored in a fresh engine, with
  tokens dropped at the marked death points,

must produce the **identical verdict multiset and identical
monitors-created / monitors-collected counts**, across every GC strategy
and both dispatch paths (plus the eager propagation regimes).  The
comparison point keeps the workload's surviving window alive, so the
collection counts are death-driven, not end-of-test trivia.
"""

from __future__ import annotations

import gc
import io
import random
from collections import Counter

import pytest

from repro.instrument.collections_shim import MonitoredCollection, NoSuchElementError
from repro.instrument.live import LiveSession
from repro.properties import ALL_PROPERTIES
from repro.runtime.engine import MonitoringEngine
from repro.runtime.tracelog import replay

GC_STRATEGIES = ("none", "alldead", "coenable", "statebased")
DISPATCHES = ("codegen", "reference")

#: Extra propagation regimes beyond the default lazy matrix.
EAGER_CASES = (
    ("statebased", "codegen", "eager"),
    ("coenable", "codegen", "eager"),
    ("alldead", "reference", "eager"),
    ("coenable", "reference", "eager"),
)

SEED = 7


def churn(seed: int) -> list[MonitoredCollection]:
    """A deterministic iterator-churn workload over real shim objects.

    Collections slide through a live window (the oldest dies with its
    iterators — the paper's leak driver); iterators die young; some are
    used after their collection was updated (UNSAFEITER matches) and some
    are advanced past exhaustion without a hasNext (HASNEXT errors).
    Returns the surviving window so the caller controls which parameter
    objects are still alive at the comparison point.
    """
    rng = random.Random(seed)
    window: list[MonitoredCollection] = []
    for serial in range(40):
        collection = MonitoredCollection(range(4))
        window.append(collection)
        if len(window) > 8:
            window.pop(0)
        for _ in range(3):
            target = window[rng.randrange(len(window))]
            iterator = target.iterator()
            for _ in range(3):
                if not iterator.has_next():
                    break
                iterator.next()
            roll = rng.random()
            if roll < 0.45:
                target.add(serial)
                if iterator.has_next():
                    iterator.next()  # use after update: UNSAFEITER
            elif roll < 0.6:
                try:
                    iterator.next()  # no hasNext first: HASNEXT error
                except NoSuchElementError:
                    pass
            del iterator  # iterators die young
    return window


def build_engine(gc_kind: str, dispatch: str, propagation: str, verdicts: Counter):
    specs = [
        ALL_PROPERTIES["unsafeiter"].make().silence(),
        ALL_PROPERTIES["hasnext"].make().silence(),
    ]
    return MonitoringEngine(
        specs,
        gc=gc_kind,
        dispatch=dispatch,
        propagation=propagation,
        on_verdict=lambda prop, category, _monitor: verdicts.update(
            [(prop.spec_name, prop.formalism, category)]
        ),
    )


def settle_and_measure(engine: MonitoringEngine) -> dict:
    """Flush GC to a fixed point and snapshot the death-driven counters."""
    for _ in range(2):
        engine.flush_gc()
        gc.collect()
    return {
        key: (stats.events, stats.monitors_created, stats.monitors_collected)
        for key, stats in engine.stats().items()
    }


def run_live(gc_kind: str, dispatch: str, propagation: str):
    verdicts: Counter = Counter()
    engine = build_engine(gc_kind, dispatch, propagation, verdicts)
    buf = io.StringIO()
    session = LiveSession(
        engine,
        properties=[ALL_PROPERTIES["unsafeiter"], ALL_PROPERTIES["hasnext"]],
        record=buf,
    )
    with session:
        survivors = churn(SEED)
    counters = settle_and_measure(engine)
    del survivors
    return buf.getvalue(), verdicts, counters


def run_replay(trace: str, gc_kind: str, dispatch: str, propagation: str):
    verdicts: Counter = Counter()
    engine = build_engine(gc_kind, dispatch, propagation, verdicts)
    tokens = replay(trace.splitlines(), engine)
    counters = settle_and_measure(engine)
    del tokens
    return verdicts, counters


@pytest.mark.parametrize("dispatch", DISPATCHES)
@pytest.mark.parametrize("gc_kind", GC_STRATEGIES)
def test_live_equals_marked_trace(gc_kind: str, dispatch: str):
    trace, live_verdicts, live_counters = run_live(gc_kind, dispatch, "lazy")
    assert live_verdicts, "workload must produce verdicts to compare"
    assert '"die"' in trace, "live recording must contain death markers"
    replay_verdicts, replay_counters = run_replay(trace, gc_kind, dispatch, "lazy")
    assert replay_verdicts == live_verdicts
    assert replay_counters == live_counters


@pytest.mark.parametrize("gc_kind,dispatch,propagation", EAGER_CASES)
def test_live_equals_marked_trace_eager(gc_kind: str, dispatch: str, propagation: str):
    trace, live_verdicts, live_counters = run_live(gc_kind, dispatch, propagation)
    replay_verdicts, replay_counters = run_replay(
        trace, gc_kind, dispatch, propagation
    )
    assert replay_verdicts == live_verdicts
    assert replay_counters == live_counters


def test_trace_is_config_independent():
    """The recorded stream is a workload property, not an engine property."""
    traces = {
        run_live(gc_kind, "codegen", "lazy")[0]
        for gc_kind in ("none", "coenable")
    }
    assert len(traces) == 1


def test_collections_are_death_driven_not_trivial():
    """At the comparison point some monitors are alive: CM < M."""
    _trace, _verdicts, counters = run_live("coenable", "codegen", "lazy")
    unsafeiter = counters[("UnsafeIter", "ere")]
    _events, created, collected = unsafeiter
    assert collected > 0
    assert collected < created
