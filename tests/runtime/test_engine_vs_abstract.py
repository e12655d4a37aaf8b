"""Randomized equivalence: production engine vs Algorithm MONITOR (Figure 5).

The engine prunes monitor creation with enable sets and skips stale joins
with the disable/touched rule.  Both optimizations are *goal-preserving*:
every verdict in the goal set that the abstract algorithm reports must be
reported by the engine, for the same parameter instance, at the same event
— and vice versa.  We check this on random parametric traces for three
property shapes (1-param FSM, 2-param ERE, the cross-join ERE, and the
3-param UNSAFEMAPITER pattern).  The abstract algorithm knows no deaths,
so it is also the verdict oracle when a parameter dies mid-trace; the
last tests pin the one known loss, a dead join partner, in every tier,
GC strategy and propagation.
"""

from __future__ import annotations

import gc

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.events import ParametricEvent
from repro.core.parametric import AbstractParametricMonitor
from repro.core.params import Binding
from repro.properties import UNSAFESYNCMAP
from repro.runtime.engine import MonitoringEngine
from repro.spec import compile_spec

from ..conftest import Obj

SPECS = {
    "hasnext": """
        HasNext(i) {
          event hasnexttrue(i)
          event hasnextfalse(i)
          event next(i)
          fsm:
            unknown [ hasnexttrue -> more  hasnextfalse -> none  next -> error ]
            more    [ hasnexttrue -> more  next -> unknown ]
            none    [ hasnextfalse -> none  next -> error ]
            error   [ ]
          @error
        }
    """,
    "unsafeiter": """
        UnsafeIter(c, i) {
          event create(c, i)
          event update(c)
          event next(i)
          ere: update* create next* update+ next
          @match
        }
    """,
    "crossjoin": """
        AB(x, y) {
          event a(x)
          event b(y)
          event c(x, y)
          ere: a b c | a c
          @match
        }
    """,
    "mapiter": """
        UnsafeMapIter(m, c, i) {
          event createcoll(m, c)
          event createiter(c, i)
          event updatemap(m)
          event useiter(i)
          ere: updatemap* createcoll updatemap* createiter useiter* updatemap+ useiter
          @match
        }
    """,
}

_OBJECTS = [Obj(f"v{i}") for i in range(3)]


def trace_strategy(spec_key: str):
    spec = compile_spec(SPECS[spec_key])
    definition = spec.definition
    events = sorted(definition.alphabet)

    @st.composite
    def traces(draw):
        length = draw(st.integers(min_value=0, max_value=8))
        result = []
        for _ in range(length):
            name = draw(st.sampled_from(events))
            binding = {
                param: draw(st.sampled_from(_OBJECTS))
                for param in sorted(definition.params_of(name))
            }
            result.append(ParametricEvent(name, binding))
        return result

    return traces()


def goal_reports_abstract(spec_source: str, trace) -> list[tuple[str, Binding, int]]:
    """(category, instance, position) triples the abstract algorithm reports."""
    spec = compile_spec(spec_source)
    prop = spec.properties[0]
    monitor = AbstractParametricMonitor(prop.template, prop.definition)
    reports = []
    for position, event in enumerate(trace):
        for theta, category in monitor.process(event).items():
            if category in prop.goal:
                reports.append((category, theta, position))
    return reports


def goal_reports_engine(spec_source: str, trace) -> list[tuple[str, Binding, int]]:
    spec = compile_spec(spec_source)
    reports = []
    position_box = {"pos": 0}

    def on_verdict(prop, category, monitor):
        reports.append((category, monitor.binding(), position_box["pos"]))

    engine = MonitoringEngine(spec, gc="none", on_verdict=on_verdict)
    for position, event in enumerate(trace):
        position_box["pos"] = position
        engine.emit_binding(event.name, event.binding)
    return reports


def normalized(reports):
    return sorted(
        ((category, tuple(sorted((n, id(v)) for n, v in binding.items())), position)
         for category, binding, position in reports)
    )


@settings(max_examples=60, deadline=None)
@given(trace_strategy("hasnext"))
def test_hasnext_goal_equivalence(trace):
    assert normalized(goal_reports_engine(SPECS["hasnext"], trace)) == normalized(
        goal_reports_abstract(SPECS["hasnext"], trace)
    )


@settings(max_examples=60, deadline=None)
@given(trace_strategy("unsafeiter"))
def test_unsafeiter_goal_equivalence(trace):
    assert normalized(goal_reports_engine(SPECS["unsafeiter"], trace)) == normalized(
        goal_reports_abstract(SPECS["unsafeiter"], trace)
    )


@settings(max_examples=60, deadline=None)
@given(trace_strategy("crossjoin"))
def test_crossjoin_goal_equivalence(trace):
    assert normalized(goal_reports_engine(SPECS["crossjoin"], trace)) == normalized(
        goal_reports_abstract(SPECS["crossjoin"], trace)
    )


@settings(max_examples=40, deadline=None)
@given(trace_strategy("mapiter"))
def test_mapiter_goal_equivalence(trace):
    assert normalized(goal_reports_engine(SPECS["mapiter"], trace)) == normalized(
        goal_reports_abstract(SPECS["mapiter"], trace)
    )


@settings(max_examples=30, deadline=None)
@given(trace_strategy("unsafeiter"))
def test_gc_strategies_do_not_change_goal_reports(trace):
    """With every parameter object alive for the whole run, all strategies
    must report exactly the same goal verdicts as gc='none'."""
    baseline = normalized(goal_reports_engine(SPECS["unsafeiter"], trace))
    for gc_kind in ("alldead", "coenable", "statebased"):
        spec = compile_spec(SPECS["unsafeiter"])
        reports = []
        box = {"pos": 0}
        engine = MonitoringEngine(
            spec,
            gc=gc_kind,
            on_verdict=lambda prop, cat, mon: reports.append(
                (cat, mon.binding(), box["pos"])
            ),
        )
        for position, event in enumerate(trace):
            box["pos"] = position
            engine.emit_binding(event.name, event.binding)
        assert normalized(reports) == baseline, gc_kind


# -- a dead join partner (ROADMAP: "A dead join partner must not erase a
# verdict") -------------------------------------------------------------------

DEAD_JOIN_GRID = pytest.mark.parametrize(
    "dispatch, gc_kind, propagation",
    [
        (dispatch, gc_kind, propagation)
        for dispatch in ("codegen", "reference")
        for gc_kind in ("none", "alldead", "coenable", "statebased")
        for propagation in ("lazy", "eager")
    ],
)


def syncmap_trace(m, c, i):
    return [
        ("syncmap", {"m": m}),
        ("createset", {"m": m, "c": c}),
        ("asynciter", {"c": c, "i": i}),
    ]


def syncmap_abstract_matches() -> int:
    """Goal verdicts of Algorithm MONITOR on the trace; deaths do not exist
    there, so this is the count under any death schedule."""
    prop = UNSAFESYNCMAP.make().properties[0]
    monitor = AbstractParametricMonitor(prop.template, prop.definition)
    return sum(
        category in prop.goal
        for name, binding in syncmap_trace(Obj("m"), Obj("c"), Obj("i"))
        for category in monitor.process(ParametricEvent(name, binding)).values()
    )


def syncmap_engine_matches(dispatch, gc_kind, propagation, drop_map) -> int:
    """Goal verdicts of one engine on the trace; with ``drop_map`` the map
    ``m`` dies (and is collected) between ``createset`` and ``asynciter``."""
    matches = []
    engine = MonitoringEngine(
        UNSAFESYNCMAP.make().silence(),
        gc=gc_kind,
        propagation=propagation,
        dispatch=dispatch,
        on_verdict=lambda prop, category, monitor: matches.append(category),
    )
    m, c, i = Obj("m"), Obj("c"), Obj("i")
    syncmap, createset, asynciter = syncmap_trace(m, c, i)
    engine.emit_values(*syncmap)
    engine.emit_values(*createset)
    if drop_map:
        del m, syncmap, createset
        gc.collect()
    engine.emit_values(*asynciter)
    return len(matches)


@DEAD_JOIN_GRID
def test_live_join_partner_matches_the_abstract_monitor(dispatch, gc_kind, propagation):
    assert syncmap_abstract_matches() == 1
    assert syncmap_engine_matches(dispatch, gc_kind, propagation, False) == 1


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP 'A dead join partner must not erase a verdict': every "
    "join loop skips a candidate whose parameter died",
)
@DEAD_JOIN_GRID
def test_dead_join_partner_matches_the_abstract_monitor(dispatch, gc_kind, propagation):
    assert syncmap_engine_matches(
        dispatch, gc_kind, propagation, True
    ) == syncmap_abstract_matches()
