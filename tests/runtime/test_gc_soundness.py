"""GC soundness under randomized event/death interleavings.

Theorem 1 justifies collecting a monitor only when no goal verdict is
reachable anymore.  The observable consequence — and the strongest
invariant this library can assert — is that monitor garbage collection is
*verdict-transparent*: for any interleaving of parametric events and
parameter-object deaths, every GC strategy must report exactly the same
goal verdicts, at the same events, for the same instances, as the
no-collection baseline.  (A dead object cannot appear in future events, so
pruning its goal-unreachable monitors can never lose a report; and
flagging a goal-reachable monitor would lose one — which is what this test
would catch.)

Scenarios are random programs over symbolic objects: each step either
emits an event over live symbols or kills a symbol (dropping the only
strong reference; CPython reclaims it immediately).  Periodic flushes
exercise the notification/flagging machinery mid-run.
"""

from __future__ import annotations

import gc

from hypothesis import given, settings, strategies as st

from repro.runtime.engine import MonitoringEngine
from repro.spec import compile_spec

from ..conftest import Obj

UNSAFEITER = """
UnsafeIter(c, i) {
  event create(c, i)
  event update(c)
  event next(i)
  ere: update* create next* update+ next
  @match
}
"""

HASNEXT = """
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
"""

_EVENTS = {
    "unsafeiter": [("create", ("c", "i")), ("update", ("c",)), ("next", ("i",))],
    "hasnext": [("hasnexttrue", ("i",)), ("hasnextfalse", ("i",)), ("next", ("i",))],
}
_SPECS = {"unsafeiter": UNSAFEITER, "hasnext": HASNEXT}
_SYMBOLS = [f"s{i}" for i in range(4)]


@st.composite
def scenarios(draw, spec_key):
    """A list of ops: ('emit', name, {param: symbol}) / ('kill', symbol) /
    ('flush',)."""
    length = draw(st.integers(min_value=0, max_value=12))
    ops = []
    for _ in range(length):
        kind = draw(st.sampled_from(["emit", "emit", "emit", "kill", "flush"]))
        if kind == "emit":
            name, params = draw(st.sampled_from(_EVENTS[spec_key]))
            binding = {param: draw(st.sampled_from(_SYMBOLS)) for param in params}
            ops.append(("emit", name, binding))
        elif kind == "kill":
            ops.append(("kill", draw(st.sampled_from(_SYMBOLS))))
        else:
            ops.append(("flush",))
    return ops


def run_scenario(spec_key: str, ops, gc_kind: str, propagation: str = "lazy"):
    """Execute a scenario; returns the normalized goal-report list."""
    spec = compile_spec(_SPECS[spec_key])
    reports: list[tuple] = []
    step_box = {"step": 0}

    def on_verdict(prop, category, monitor):
        names = tuple(sorted(monitor.params))
        symbols = tuple(
            objects_symbols.get(id(monitor.params[name]()), "<dead>")
            for name in names
        )
        reports.append((step_box["step"], category, names, symbols))

    engine = MonitoringEngine(
        spec, gc=gc_kind, propagation=propagation, on_verdict=on_verdict
    )
    objects: dict[str, Obj] = {}
    objects_symbols: dict[int, str] = {}
    for step, op in enumerate(ops):
        step_box["step"] = step
        if op[0] == "emit":
            _tag, name, binding = op
            values = {}
            for param, symbol in binding.items():
                if symbol not in objects:
                    objects[symbol] = Obj(symbol)
                    objects_symbols[id(objects[symbol])] = symbol
                values[param] = objects[symbol]
            engine.emit(name, **values)
        elif op[0] == "kill":
            _tag, symbol = op
            victim = objects.pop(symbol, None)
            if victim is not None:
                del victim
                gc.collect()
        else:
            engine.flush_gc()
    return reports


@settings(max_examples=50, deadline=None)
@given(scenarios("unsafeiter"))
def test_unsafeiter_gc_is_verdict_transparent(ops):
    baseline = run_scenario("unsafeiter", ops, "none")
    for gc_kind in ("alldead", "coenable", "statebased"):
        assert run_scenario("unsafeiter", ops, gc_kind) == baseline, gc_kind


@settings(max_examples=40, deadline=None)
@given(scenarios("hasnext"))
def test_hasnext_gc_is_verdict_transparent(ops):
    baseline = run_scenario("hasnext", ops, "none")
    for gc_kind in ("alldead", "coenable", "statebased"):
        assert run_scenario("hasnext", ops, gc_kind) == baseline, gc_kind


@settings(max_examples=30, deadline=None)
@given(scenarios("unsafeiter"))
def test_eager_propagation_is_verdict_transparent(ops):
    baseline = run_scenario("unsafeiter", ops, "none")
    assert run_scenario("unsafeiter", ops, "coenable", propagation="eager") == baseline


@settings(max_examples=30, deadline=None)
@given(scenarios("unsafeiter"))
def test_flagged_monitors_never_fire(ops):
    """Direct statement of soundness: a monitor reported at some step was
    never flagged at any earlier step (flagging is terminal and silent)."""
    spec = compile_spec(UNSAFEITER)
    fired_flagged = []

    def on_verdict(prop, category, monitor):
        if monitor.flagged:
            fired_flagged.append(monitor)

    engine = MonitoringEngine(spec, gc="coenable", on_verdict=on_verdict)
    objects: dict[str, Obj] = {}
    for op in ops:
        if op[0] == "emit":
            _tag, name, binding = op
            values = {}
            for param, symbol in binding.items():
                objects.setdefault(symbol, Obj(symbol))
                values[param] = objects[symbol]
            engine.emit(name, **values)
        elif op[0] == "kill":
            objects.pop(op[1], None)
            gc.collect()
        else:
            engine.flush_gc()
    assert fired_flagged == []
