"""Tentpole (a): live verdicts == replayed trace, across the GC×dispatch matrix.

Each cell runs the full monitored scenario **live** (real asyncio server,
real parameter deaths observed by weakrefs, trace recorded with death
markers) and then re-monitors the recorded trace in a fresh engine of the
same configuration.  Verdict multisets *and* the death-driven
events/created/collected counters must be identical — the app-scale
restatement of ``tests/instrument/test_live_equivalence.py``.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.runtime.tracelog import replay

from .conftest import (
    APP_CONFIG,
    build_engine,
    expected_verdicts,
    run_app_live,
    settle,
)

#: The acceptance matrix: {lazy, eager} propagation × {codegen, reference}.
PROPAGATIONS = ("lazy", "eager")
DISPATCHES = ("codegen", "reference")


def run_replay(trace: str, *, dispatch: str, propagation: str):
    verdicts: Counter = Counter()
    engine = build_engine(verdicts, dispatch=dispatch, propagation=propagation)
    tokens = replay(trace.splitlines(), engine)
    counters = settle(engine)
    del tokens
    return verdicts, counters


@pytest.mark.parametrize("dispatch", DISPATCHES)
@pytest.mark.parametrize("propagation", PROPAGATIONS)
def test_live_equals_replay(propagation: str, dispatch: str):
    trace, live_verdicts, live_counters, _stats = run_app_live(
        dispatch=dispatch, propagation=propagation
    )
    assert live_verdicts, "the scenario mix must produce verdicts"
    assert '"die"' in trace, "live recording must contain death markers"
    replay_verdicts, replay_counters = run_replay(
        trace, dispatch=dispatch, propagation=propagation
    )
    assert replay_verdicts == live_verdicts
    assert replay_counters == live_counters


def test_verdicts_are_the_seeded_mix():
    """Ground truth: the protocol verdicts are exactly the misbehaving
    slots of the driver's plan — one REQLIFE error per /boom, one
    CONNREUSE error per /push, one HANDLERLEAK match per /leak."""
    _trace, verdicts, _counters, _stats = run_app_live()
    want = expected_verdicts(APP_CONFIG)
    protocol = Counter({
        key: count for key, count in verdicts.items()
        if key[0] in ("ReqLife", "ConnReuse", "HandlerLeak")
    })
    assert protocol == want
    # The clean traffic must stay clean: no resource-catalogue verdicts.
    assert protocol == verdicts


def test_monitor_gc_is_death_driven():
    """Request/connection churn retires monitors while the run is alive:
    collected > 0 and (for the per-request property) most of created."""
    _trace, _verdicts, counters, _stats = run_app_live()
    events, created, collected = counters[("ReqLife", "fsm")]
    assert events > 0
    assert created > 0
    assert collected > 0
    # Every request object is dead by settle time; the only uncollected
    # monitors are at most bookkeeping slices.
    assert collected >= created - 2
