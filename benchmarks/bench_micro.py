"""Micro-benchmarks: the building blocks' costs.

Not a paper table — these guard the constants the macro results depend on:
per-event dispatch, weak-map operations under churn, static-analysis
(coenable/enable fixpoint) cost at spec-compile time (the paper argues this
is "a quick static operation"), and spec compilation end to end.
"""

from __future__ import annotations

import pytest

from repro.core.coenable import param_coenable_sets
from repro.formalism.ere import compile_ere
from repro.runtime.engine import MonitoringEngine
from repro.runtime.refs import ParamLedger
from repro.runtime.rvmap import RVMap
from repro.spec import compile_spec

UNSAFEITER = """
UnsafeIter(c, i) {
  event create(c, i)
  event update(c)
  event next(i)
  ere: update* create next* update+ next
  @match
}
"""


class Token:
    __slots__ = ("__weakref__",)


def test_micro_event_dispatch(benchmark):
    """Steady-state cost of one parametric event through the indexing trees."""
    engine = MonitoringEngine(compile_spec(UNSAFEITER), system="rv")
    collection = Token()
    iterators = [Token() for _ in range(64)]
    for iterator in iterators:
        engine.emit("create", c=collection, i=iterator)

    index = 0

    def dispatch():
        nonlocal index
        engine.emit("update", c=collection)
        engine.emit("next", i=iterators[index & 63])
        index += 1

    benchmark(dispatch)


def test_micro_monitor_creation(benchmark):
    """Cost of creating a fresh <c,i> monitor instance (defineTo path)."""
    engine = MonitoringEngine(compile_spec(UNSAFEITER), system="rv")
    collection = Token()

    def create():
        engine.emit("create", c=collection, i=Token())

    benchmark(create)


def test_micro_rvmap_churn(benchmark):
    """put/get churn with dead keys mixed in (the lazy-scan hot path)."""
    rvmap = RVMap(scan_budget=2)
    entry = ParamLedger().entry
    live = [Token() for _ in range(128)]
    for index, token in enumerate(live):
        rvmap.put(entry(token), index)
    cursor = 0

    def churn():
        nonlocal cursor
        rvmap.put(entry(Token()), cursor)  # immediately dead key
        rvmap.get(entry(live[cursor & 127]))
        cursor += 1

    benchmark(churn)


def test_micro_coenable_fixpoint(benchmark):
    """The Section 3 static analysis on the paper's UNSAFEITER pattern."""
    template = compile_ere(
        "update* create next* update+ next", {"create", "update", "next"}
    )
    goal = frozenset({"match"})

    def analyze():
        template._coenable_cache.clear()
        return template.coenable_sets(goal)

    benchmark(analyze)


def test_micro_spec_compilation(benchmark):
    """Full pipeline: parse + formalism compile + analyses + formulas."""
    benchmark(lambda: compile_spec(UNSAFEITER))


def test_micro_param_lift(benchmark):
    spec = compile_spec(UNSAFEITER)
    prop = spec.properties[0]
    benchmark(lambda: param_coenable_sets(prop.coenable, prop.definition))


@pytest.mark.parametrize("system", ("none", "mop", "rv", "tm"))
def test_micro_iterator_lifecycle(benchmark, system):
    """create + 3 events + death, per system — the per-iterator unit cost."""
    engine = MonitoringEngine(compile_spec(UNSAFEITER), system=system)
    collection = Token()

    def lifecycle():
        iterator = Token()
        engine.emit("create", c=collection, i=iterator)
        engine.emit("next", i=iterator)
        engine.emit("update", c=collection)
        del iterator

    benchmark(lifecycle)
