"""Shared harness for the app scenario: one seeded workload, many configs.

Every test in this package drives the same reference app
(:class:`repro.app.AppServer`) with the same seeded
:class:`~repro.app.DriverConfig`, so the request mix — and therefore the
expected verdict multiset — is a pure function of the configuration
constants below.  The helpers centralize the live-run/record/replay
plumbing the equivalence tests repeat across engine configurations.
"""

from __future__ import annotations

import asyncio
import gc
import io
from collections import Counter

import pytest

from repro.app import AppServer, DriverConfig, app_specs, run_driver, weave_app
from repro.instrument.live import LiveSession
from repro.runtime.engine import MonitoringEngine
from repro.runtime.tracelog import read_trace, split_death_markers

#: Server-side per-read deadline; stalls must exceed it deterministically.
READ_TIMEOUT = 0.25

#: The standard scenario mix: mostly clean keep-alive traffic, with every
#: misbehaviour class present — disconnects, stalls, handler errors
#: (REQLIFE), response interleaves (CONNREUSE), task leaks (HANDLERLEAK).
APP_CONFIG = DriverConfig(
    connections=5,
    requests_per_connection=6,
    seed=20110604,
    disconnect_fraction=0.08,
    stall_fraction=0.08,
    error_fraction=0.12,
    push_fraction=0.10,
    leak_fraction=0.10,
    stall_seconds=0.6,
)


def drive(config: DriverConfig = APP_CONFIG,
          read_timeout: float = READ_TIMEOUT):
    """One full (server, driver) run on a private loop; returns the stats."""

    async def run():
        async with AppServer(read_timeout=read_timeout) as server:
            return await run_driver(server.host, server.port, config)

    return asyncio.run(run())


def expected_verdicts(config: DriverConfig = APP_CONFIG) -> Counter:
    """The exact protocol-verdict multiset the seeded mix must produce:
    one REQLIFE error per /boom, one CONNREUSE error per /push, one
    HANDLERLEAK match per /leak."""
    mix = config.mix()
    want: Counter = Counter()
    if mix.get("boom"):
        want[("ReqLife", "fsm", "error")] = mix["boom"]
    if mix.get("push"):
        want[("ConnReuse", "fsm", "error")] = mix["push"]
    if mix.get("leak"):
        want[("HandlerLeak", "ere", "match")] = mix["leak"]
    return want


def build_engine(verdicts: Counter, *, gc_kind: str = "statebased",
                 dispatch: str = "codegen",
                 propagation: str = "lazy") -> MonitoringEngine:
    """An engine over the app property set, counting verdicts by
    (spec, formalism, category)."""
    return MonitoringEngine(
        [prop.make().silence() for prop in app_specs()],
        gc=gc_kind,
        dispatch=dispatch,
        propagation=propagation,
        on_verdict=lambda prop, category, _monitor: verdicts.update(
            [(prop.spec_name, prop.formalism, category)]
        ),
    )


def settle(engine: MonitoringEngine) -> dict:
    """Flush GC to a fixed point; snapshot the death-driven counters."""
    for _ in range(2):
        engine.flush_gc()
        gc.collect()
    return {
        key: (stats.events, stats.monitors_created, stats.monitors_collected)
        for key, stats in engine.stats().items()
    }


def run_app_live(*, gc_kind: str = "statebased", dispatch: str = "codegen",
                 propagation: str = "lazy",
                 config: DriverConfig = APP_CONFIG):
    """One monitored live run, recorded with death markers.

    Returns ``(trace_text, verdict_multiset, settled_counters, stats)``.
    """
    verdicts: Counter = Counter()
    engine = build_engine(verdicts, gc_kind=gc_kind, dispatch=dispatch,
                          propagation=propagation)
    buf = io.StringIO()
    session = LiveSession(engine, record=buf)
    with session:
        weave_app(session)
        stats = drive(config)
    counters = settle(engine)
    return buf.getvalue(), verdicts, counters, stats


@pytest.fixture(scope="session")
def recorded_app_run():
    """One canonical recorded run shared by the replay-side test matrix:
    ``(trace_text, live_verdicts)`` from a lazy/compiled live run."""
    trace, verdicts, _counters, _stats = run_app_live()
    return trace, verdicts


@pytest.fixture(scope="session")
def recorded_app_entries(recorded_app_run):
    """The canonical trace pre-parsed into (entries, deaths)."""
    trace, _verdicts = recorded_app_run
    return split_death_markers(read_trace(trace.splitlines()))
