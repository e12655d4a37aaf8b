"""Direct strategy-level tests, including the precision hierarchy.

The paper (Section 3, Discussion) places the techniques on a precision
ladder: all-params-dead < event-indexed coenable (RV) <= state-indexed
(Tracematches).  The crafted property below separates the upper two:
after the trace  a b,  the monitor *state* already knows the b-branch was
taken, while the *last event* (b) is shared between two branches — so the
state-based check can flag on x's death where the event-based one cannot.
"""

from __future__ import annotations

import gc

import pytest

from repro.core.errors import UnsupportedFormalismError
from repro.runtime.engine import MonitoringEngine
from repro.runtime.gc_strategies import (
    STRATEGY_NAMES,
    AllParamsDead,
    CoenableGc,
    NoGc,
    StateBasedGc,
    make_strategy,
)
from repro.runtime.instance import MonitorInstance
from repro.runtime.refs import ParamLedger
from repro.spec import compile_spec

from ..conftest import Obj

# After 'a b', continuing to the goal needs x (event c<x>); after 'b' alone
# it needs y (event d<y>).  The event b is shared, so COENABLE(b) has the
# disjunction {x} | {y}, while SEEABLE(state after 'a b') = {{c}} exactly.
BRANCHY = """
Branchy(x, y) {
  event a(x)
  event b(y)
  event c(x)
  event d(y)
  ere: (a b c) | (b d)
  @match
}
"""


#: The identity ledger the instances under test hold their parameters through.
LEDGER = ParamLedger()

def make_instance(prop, trace, **params) -> MonitorInstance:
    base = prop.template.create()
    last = None
    for event in trace:
        base.step(event)
        last = event
    instance = MonitorInstance(
        prop, base, {k: LEDGER.entry(v) for k, v in params.items()}, serial=1
    )
    instance.last_event = last
    return instance


@pytest.fixture
def branchy_prop():
    return compile_spec(BRANCHY).properties[0]


class TestFactory:
    def test_all_names_construct(self, branchy_prop):
        for name in STRATEGY_NAMES:
            assert make_strategy(name, branchy_prop).name == name

    def test_unknown_name_rejected(self, branchy_prop):
        with pytest.raises(ValueError):
            make_strategy("bogus", branchy_prop)


class TestBasicStrategies:
    def test_nogc_never_flags(self, branchy_prop):
        instance = make_instance(branchy_prop, ["a"], x=Obj("x"))
        gc.collect()
        assert not NoGc().is_unnecessary(instance)

    def test_alldead_requires_every_param_dead(self, branchy_prop):
        keep = Obj("keep")
        instance = make_instance(branchy_prop, ["a"], x=keep, y=Obj("die"))
        gc.collect()
        strategy = AllParamsDead()
        assert not strategy.is_unnecessary(instance)
        del keep
        gc.collect()
        assert strategy.is_unnecessary(instance)

    def test_coenable_uses_last_event(self, branchy_prop):
        x = Obj("x")
        instance = make_instance(branchy_prop, ["a"], x=x)
        strategy = CoenableGc(branchy_prop)
        # COENABLE(a) needs b and c => x and y; y unbound counts alive.
        assert not strategy.is_unnecessary(instance)
        del x
        gc.collect()
        assert strategy.is_unnecessary(instance)

    def test_coenable_without_last_event_falls_back(self, branchy_prop):
        instance = MonitorInstance(
            branchy_prop,
            branchy_prop.template.create(),
            {"x": LEDGER.entry(Obj("die"))},
            serial=1,
        )
        gc.collect()
        assert CoenableGc(branchy_prop).is_unnecessary(instance)


class TestPrecisionHierarchy:
    def test_statebased_strictly_more_precise_after_shared_event(self, branchy_prop):
        """State after 'a b' needs c<x>; last event b alone allows the d<y>
        branch too.  Kill x: state-based flags, event-based cannot."""
        x, y = Obj("x"), Obj("y")
        instance = make_instance(branchy_prop, ["a", "b"], x=x, y=y)
        event_based = CoenableGc(branchy_prop)
        state_based = StateBasedGc(branchy_prop)
        del x
        gc.collect()
        assert not event_based.is_unnecessary(instance)   # {y} disjunct survives
        assert state_based.is_unnecessary(instance)       # state knows better
        del y

    def test_both_agree_when_event_determines_state(self, branchy_prop):
        x, y = Obj("x"), Obj("y")
        instance = make_instance(branchy_prop, ["a"], x=x, y=y)
        del x
        gc.collect()
        assert CoenableGc(branchy_prop).is_unnecessary(instance)
        assert StateBasedGc(branchy_prop).is_unnecessary(instance)
        del y

    def test_statebased_flags_fail_sink(self, branchy_prop):
        instance = make_instance(branchy_prop, ["c"], x=Obj("x"))  # c first: dead
        assert StateBasedGc(branchy_prop).is_unnecessary(instance)


class TestEngineLevelCollectionCounts:
    """Whole-engine runs on crafted traces: the strategies' flag/collect
    counts must reflect the precision ladder, not just the point checks."""

    @staticmethod
    def run_trace(gc_kind: str, events) -> dict:
        """Drive BRANCHY with per-step object lifetimes; returns the final
        E/M/FM/CM row plus the live-monitor count (captured while the
        engine is still alive — afterwards its finalizers keep counting).

        ``events`` is a list of (event, {param: key}, [keys to kill after]).
        """
        engine = MonitoringEngine(compile_spec(BRANCHY).silence(), gc=gc_kind)
        pool: dict[str, Obj] = {}
        for event, binding, kill in events:
            for key in binding.values():
                pool.setdefault(key, Obj(key))
            engine.emit(event, **{name: pool[key] for name, key in binding.items()})
            for key in kill:
                pool.pop(key, None)
            gc.collect()
        engine.flush_gc()
        gc.collect()
        stats = engine.stats_for("Branchy")
        return {**stats.as_row(), "live": stats.live_monitors}

    #: After 'a b' the joined (x,y) monitor's *state* needs c<x>; kill x.
    #: Event-indexed COENABLE(b) keeps the {y}-disjunct alive for it, the
    #: state-indexed check does not.  The dead-x {x}-monitors are caught
    #: by every strategy (their last event 'a' needs x ahead).
    SEPARATING = [
        ("a", {"x": "x1"}, []),
        ("b", {"y": "y1"}, ["x1"]),
        ("a", {"x": "x2"}, []),
        ("b", {"y": "y2"}, ["x2"]),
    ]

    def test_statebased_collects_where_coenable_cannot(self):
        event_based = self.run_trace("coenable", self.SEPARATING)
        state_based = self.run_trace("statebased", self.SEPARATING)
        assert event_based["M"] == state_based["M"]
        # The ladder, on whole-engine collection counts: the state-based
        # strategy additionally reclaims the joined monitors stuck after
        # 'a b' with x dead, which last-event coenable must keep.
        assert state_based["FM"] > event_based["FM"]
        assert state_based["CM"] > event_based["CM"]
        assert state_based["live"] < event_based["live"]

    def test_alldead_matches_coenable_here_and_nogc_flags_nothing(self):
        event_based = self.run_trace("coenable", self.SEPARATING)
        alldead = self.run_trace("alldead", self.SEPARATING)
        none = self.run_trace("none", self.SEPARATING)
        # On this trace the only monitors coenable can reclaim are the
        # all-params-dead ones, so the two lower rungs coincide ...
        assert alldead["FM"] == event_based["FM"] > 0
        # ... and the no-GC baseline reclaims nothing at all.
        assert none["FM"] == none["CM"] == 0
        assert none["live"] == none["M"]

    #: Killing x right after 'a' dooms the (a b c) branch for that slice;
    #: every non-trivial strategy sees it and the whole engine drains.
    AGREEING = [
        ("a", {"x": "x1"}, ["x1"]),
        ("a", {"x": "x2"}, ["x2"]),
    ]

    def test_all_strategies_agree_on_determined_traces(self):
        rows = {
            kind: self.run_trace(kind, self.AGREEING)
            for kind in ("coenable", "statebased", "alldead")
        }
        assert rows["coenable"] == rows["statebased"] == rows["alldead"]
        assert rows["coenable"]["CM"] == rows["coenable"]["M"]
        assert rows["coenable"]["live"] == 0


class TestStateBasedLimits:
    def test_cfg_rejected(self):
        prop = compile_spec(
            """
            SafeLock(l, t) {
              event acquire(l, t)
              event release(l, t)
              cfg: S -> S acquire S release | epsilon
              @match
            }
            """
        ).properties[0]
        with pytest.raises(UnsupportedFormalismError):
            StateBasedGc(prop)

    def test_engine_surfaces_the_rejection(self):
        spec = compile_spec(
            """
            SafeLock(l, t) {
              event acquire(l, t)
              event release(l, t)
              cfg: S -> S acquire S release | epsilon
              @match
            }
            """
        )
        with pytest.raises(UnsupportedFormalismError):
            MonitoringEngine(spec, system="tm")
