"""Live-instrumentation benchmark: monitoring overhead on a real program.

Figure 9(A)'s methodology applied to the live layer: the same user
program runs **uninstrumented** and **monitored**, and the overhead is
the wall-clock ratio.  Three instrumentation paths are measured:

1. **wrapper** — the program's resource helpers are annotated with
   :func:`repro.instrument.live.emits` decorators (the deployment style:
   passthrough cost when no session listens, full monitoring when one
   does);
2. **woven** — the *unmodified* helpers are woven with
   :class:`~repro.instrument.live.TraceWeaver` function pointcuts (each
   woven function's code is swapped for a trampoline that runs the
   advice around it);
3. **resources** — real ``ThreadPoolExecutor`` + ``TemporaryDirectory``
   churn under the EXECUTOR and TEMPDIR catalogue properties' default
   class weaving.

The wrapper path additionally records its run — death markers included —
and replays it into a fresh engine, asserting the live and offline
verdict multisets agree (the live layer's equivalence contract).

Run directly (writes ``BENCH_live.json``)::

    PYTHONPATH=src python benchmarks/bench_live.py
    REPRO_BENCH_SCALE=0.2 PYTHONPATH=src python benchmarks/bench_live.py --out BENCH_live.json
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import tempfile
from collections import Counter
from concurrent.futures import ThreadPoolExecutor

from repro.bench.harness import timed_call
from repro.instrument.live import LiveSession, emits, on_call, on_return
from repro.properties import LIVE_PROPERTIES
from repro.runtime.engine import MonitoringEngine
from repro.runtime.tracelog import replay
from repro.spec.compiler import compile_spec

#: The monitored discipline of the synthetic user program: a handle must
#: not be used after release (the SOCKETUSE/CURSORSAFE shape).
HANDLE_SPEC = """
HandleSafe(h) {
  event h_open(h)
  event h_use(h)
  event h_close(h)

  fsm:
    fresh  [ h_open -> live ]
    live   [ h_use -> live  h_close -> dead ]
    dead   [ h_close -> dead  h_use -> error ]
    error  [ ]
  @error "handle used after release"
}
"""

USES_PER_HANDLE = 4
#: Every Nth handle is (incorrectly) used once after release.
VIOLATION_STRIDE = 50


class Handle:
    """A stand-in resource: cheap to create, weak-referenceable."""

    __slots__ = ("serial", "closed", "__weakref__")

    def __init__(self, serial: int):
        self.serial = serial
        self.closed = False


# -- the user program, wrapper-annotated flavor ------------------------------


@emits("h_open", when="return", bind={"h": "result"})
def open_handle_w(serial: int) -> Handle:
    return Handle(serial)


@emits("h_use", bind={"h": "arg:handle"})
def use_handle_w(handle: Handle) -> int:
    return handle.serial


@emits("h_close", bind={"h": "arg:handle"})
def close_handle_w(handle: Handle) -> None:
    handle.closed = True


# -- the same program, plain flavor (woven externally) -----------------------


def open_handle_p(serial: int) -> Handle:
    return Handle(serial)


def use_handle_p(handle: Handle) -> int:
    return handle.serial


def close_handle_p(handle: Handle) -> None:
    handle.closed = True


def run_program(opener, user, closer, handles: int) -> int:
    """The user program: open/use/close churn with occasional misuse."""
    touched = 0
    for serial in range(handles):
        handle = opener(serial)
        for _ in range(USES_PER_HANDLE):
            touched += user(handle)
        closer(handle)
        if serial % VIOLATION_STRIDE == 0:
            user(handle)  # use-after-release: the monitored violation
        del handle  # handles die young: the weakref ledger's food
    return touched


def timed(fn) -> float:
    return timed_call(fn)[1]


def make_engine(verdicts: Counter) -> MonitoringEngine:
    return MonitoringEngine(
        compile_spec(HANDLE_SPEC).silence(),
        gc="coenable",
        on_verdict=lambda _p, category, _m: verdicts.update([category]),
    )


def expected_violations(handles: int) -> int:
    return len(range(0, handles, VIOLATION_STRIDE))


def bench_wrapper(handles: int) -> dict:
    events = handles * (1 + USES_PER_HANDLE + 1) + expected_violations(handles)
    baseline = timed(lambda: run_program(open_handle_w, use_handle_w,
                                         close_handle_w, handles))
    verdicts: Counter = Counter()
    with LiveSession(make_engine(verdicts)):
        monitored = timed(lambda: run_program(open_handle_w, use_handle_w,
                                              close_handle_w, handles))
    assert verdicts["error"] == expected_violations(handles)

    # A second, recorded run (death markers included) replayed offline:
    # the live layer's equivalence contract, asserted inline.
    recorded_verdicts: Counter = Counter()
    trace = io.StringIO()
    with LiveSession(make_engine(recorded_verdicts), record=trace):
        recorded = timed(lambda: run_program(open_handle_w, use_handle_w,
                                             close_handle_w, handles))
    offline: Counter = Counter()
    replay(trace.getvalue().splitlines(), make_engine(offline))
    assert offline == recorded_verdicts == verdicts, (offline, verdicts)

    return {
        "events": events,
        "uninstrumented_s": round(baseline, 4),
        "monitored_s": round(monitored, 4),
        "recorded_s": round(recorded, 4),
        "overhead_x": round(monitored / baseline, 2),
        "per_event_us": round(1e6 * (monitored - baseline) / events, 2),
        "events_per_sec": round(events / monitored),
        "verdicts": dict(verdicts),
        "replay_verdicts_identical": True,
    }


def bench_woven(handles: int) -> dict:
    events = handles * (1 + USES_PER_HANDLE + 1) + expected_violations(handles)
    baseline = timed(lambda: run_program(open_handle_p, use_handle_p,
                                         close_handle_p, handles))
    verdicts: Counter = Counter()
    session = LiveSession(make_engine(verdicts))
    with session:
        session.weave_functions([
            on_return(open_handle_p, "h_open", {"h": "result"}),
            on_call(use_handle_p, "h_use", {"h": "arg:handle"}),
            on_call(close_handle_p, "h_close", {"h": "arg:handle"}),
        ])
        monitored = timed(lambda: run_program(open_handle_p, use_handle_p,
                                              close_handle_p, handles))
    assert verdicts["error"] == expected_violations(handles)
    return {
        "events": events,
        "uninstrumented_s": round(baseline, 4),
        "monitored_s": round(monitored, 4),
        "overhead_x": round(monitored / baseline, 2),
        "per_event_us": round(1e6 * (monitored - baseline) / events, 2),
        "events_per_sec": round(events / monitored),
    }


def resource_churn(rounds: int) -> None:
    for _ in range(rounds):
        with tempfile.TemporaryDirectory() as scratch:
            with ThreadPoolExecutor(max_workers=2) as pool:
                results = [pool.submit(len, scratch) for _ in range(4)]
                for future in results:
                    future.result()


def bench_resources(rounds: int) -> dict:
    baseline = timed(lambda: resource_churn(rounds))
    verdicts: Counter = Counter()
    session = LiveSession(
        properties=[LIVE_PROPERTIES["executor"].make().silence(),
                    LIVE_PROPERTIES["tempdir"].make().silence()],
        gc="coenable",
        on_verdict=lambda _p, category, _m: verdicts.update([category]),
    )
    with session:
        session.weave(LIVE_PROPERTIES["executor"].pointcuts())
        session.weave(LIVE_PROPERTIES["tempdir"].pointcuts())
        monitored = timed(lambda: resource_churn(rounds))
    assert not verdicts  # clean churn: monitoring must stay silent
    return {
        "rounds": rounds,
        "uninstrumented_s": round(baseline, 4),
        "monitored_s": round(monitored, 4),
        "overhead_x": round(monitored / baseline, 2),
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--scale",
        type=float,
        default=float(os.environ.get("REPRO_BENCH_SCALE", "1.0")),
        help="workload scale factor (default: REPRO_BENCH_SCALE or 1.0)",
    )
    parser.add_argument("--out", default="BENCH_live.json")
    args = parser.parse_args()

    handles = max(100, round(6000 * args.scale))
    rounds = max(5, round(60 * args.scale))

    report = {
        "benchmark": "live-instrumentation overhead",
        "scale": args.scale,
        "python": platform.python_version(),
        "wrapper": bench_wrapper(handles),
        "woven": bench_woven(handles),
        "resources": bench_resources(rounds),
    }

    with open(args.out, "w") as handle:
        json.dump(report, handle, indent=2)
    print(json.dumps(report, indent=2))


if __name__ == "__main__":
    main()
