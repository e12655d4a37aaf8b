"""The two DaCapo-analog workloads: ``bloat-rv`` and ``avrora-tm-durable``.

Both run the *live* woven program: the five evaluated properties are woven
into the collections shim by ``repro.instrument.aspects.Weaver`` and the
seeded analog (``repro.bench.workloads.run_workload``) runs against it, so
parameter objects die exactly when the program drops them.

* ``bloat-rv`` feeds a default engine (``rv``: coenable GC, lazy
  propagation).  No persistence.
* ``avrora-tm-durable`` feeds a ``DurableEngine`` under ``tm`` (state-based
  GC, eager propagation) with periodic checkpoints; every window ends with
  a timed ``DurableEngine.recover`` from what it wrote.

A run's seed picks ``PROGRAMS`` programs (one analog, different seeds);
window ``i`` runs program ``i % PROGRAMS``, so a metric's median is not
hostage to one program's shape.  One window is: a reference, unmonitored
runs of the program, a fresh set-up (compile, engine, weave), one
monitored run, a reference, then untimed checks and a timed recovery
followed by another reference.  Every woven event goes through a latency
probe (two clock reads and an append: about a tenth of ``bloat-rv``'s
monitored time, the same on every commit); a latency percentile is the
median over the windows of each window's percentile of its own events.
"""

from __future__ import annotations

import dataclasses
import gc
import json
import os
import shutil
import statistics
from collections import Counter
from time import perf_counter
from typing import Any

from repro.bench.workloads import WORKLOADS, run_workload
from repro.instrument.aspects import Weaver
from repro.persist.codec import restore_engine, snapshot_engine
from repro.persist.recovery import DurableEngine, checkpoint_files
from repro.properties import EVALUATED_PROPERTIES
from repro.runtime.engine import MonitoringEngine

from common import (Segment, Timeline, Tracer, diff_totals, engine_totals,
                    maybe_span, measure, percentile, rss_mb, settle,
                    verdict_counter)

#: Per workload: the analog it scales down, its size, and the engine.
#: Sizes keep each monitored run near 0.3 s, short against the host's
#: regime flips; the live-window/collections ratio of the full analog is
#: kept, so collections still outlive the iterators hanging off them.
SHAPES: dict[str, dict[str, Any]] = {
    "bloat-rv": {"analog": "bloat", "collections": 40, "live_window": 16,
                 "system": "rv", "durable": False},
    "avrora-tm-durable": {"analog": "avrora", "collections": 160,
                          "live_window": 36, "system": "tm", "durable": True},
}
#: Regime exponents ``(fast, slow)`` per segment kind (``common`` module
#: docstring).  The durable run spends part of its time encoding and
#: decoding WAL records, which follows the fast regime's drift more.
EXPONENTS = {
    "bloat-rv": {"unmonitored": (1.0, 0.92), "setup": (1.0, 0.44),
                 "monitored": (1.0, 0.44), "recover": (1.0, 0.36)},
    "avrora-tm-durable": {"unmonitored": (1.0, 0.92), "setup": (1.0, 0.44),
                          "monitored": (1.25, 0.45), "recover": (1.0, 0.65)},
}
#: Programs per run; ``peak_live_monitors`` is their mean peak.
PROGRAMS = 12
#: Unmonitored program runs averaged into one ``overhead_x`` denominator.
UNMONITORED_RUNS = 8
#: Durable engine: checkpoint period in program events, and an fsync
#: interval beyond any window (disk fsync is deliberately not measured).
CHECKPOINT_EVERY = 2000
FSYNC_NEVER = 1 << 40


class Pin:
    """Emit target of the oracle run: keeps every parameter object alive,
    so no death and no id reuse can reach the verdicts."""

    def __init__(self, engine: MonitoringEngine):
        self.engine = engine
        self.kept: list[Any] = []

    def emit(self, event: str, _strict: bool = True, **params: Any) -> None:
        self.kept.extend(params.values())
        self.engine.emit(event, _strict=_strict, **params)


class LatencyProbe:
    """Emit target that times each woven event's trip through the engine."""

    def __init__(self, target: Any):
        self.target = target
        self.samples: list[float] = []

    def emit(self, event: str, _strict: bool = True, **params: Any) -> None:
        start = perf_counter()
        self.target.emit(event, _strict=_strict, **params)
        self.samples.append(perf_counter() - start)


class Setup:
    """Compile the specs, build the engine, weave the program."""

    def __init__(self, shape: dict, directory: str, verdicts: Counter,
                 tracer: "Tracer | None"):
        self.specs = []
        for prop in EVALUATED_PROPERTIES:
            with maybe_span(tracer, "spec.compile"):
                self.specs.append(prop.make().silence())
        on_verdict = verdict_counter(verdicts)
        with maybe_span(tracer, "runtime.engine_build"):
            if shape["durable"]:
                self.durable = DurableEngine(
                    self.specs, directory, system=shape["system"],
                    on_verdict=on_verdict, fsync_interval=FSYNC_NEVER,
                    checkpoint_every=CHECKPOINT_EVERY,
                )
                self.engine = self.durable.engine
                target: Any = self.durable
            else:
                self.durable = None
                self.engine = MonitoringEngine(
                    self.specs, system=shape["system"], on_verdict=on_verdict
                )
                target = self.engine
        if tracer is not None:
            tracer.wrap(self.engine, "emit", "runtime.emit")
            if self.durable is not None:
                tracer.wrap(self.durable.wal, "append", "persist.wal_append")
                tracer.wrap(self.durable, "checkpoint", "persist.checkpoint")
        self.probe = LatencyProbe(target)
        with maybe_span(tracer, "instrument.weave"):
            self.weaver = Weaver(self.probe)
            for prop in EVALUATED_PROPERTIES:
                prop.instrument(self.engine, self.weaver)


def oracle(shape: dict, profile: Any) -> tuple[Counter, int]:
    """Verdicts and event count of the pinned-object run (untimed)."""
    verdicts: Counter = Counter()
    engine = MonitoringEngine(
        [prop.make().silence() for prop in EVALUATED_PROPERTIES],
        system=shape["system"], on_verdict=verdict_counter(verdicts),
    )
    pin = Pin(engine)
    weaver = Weaver(pin)
    for prop in EVALUATED_PROPERTIES:
        prop.instrument(engine, weaver)
    try:
        run_workload(profile)
    finally:
        weaver.unweave()
    events = engine_totals(engine)["E"]
    pin.kept.clear()
    return verdicts, events


def _dir_bytes(directory: str, prefix: str) -> int:
    return sum(
        os.path.getsize(os.path.join(directory, name))
        for name in os.listdir(directory)
        if name.startswith(prefix)
    )


class Window:
    """Everything one window measured."""

    def __init__(self, index: int, program: int, traced: bool):
        self.index = index
        self.program = program
        self.traced = traced
        self.unmonitored: Segment | None = None
        self.setup: Segment | None = None
        self.monitored: Segment | None = None
        self.recover: Segment | None = None
        self.totals: dict[str, int] = {}
        self.iterators = 0
        self.latency_p50 = 0.0
        self.latency_p99 = 0.0
        self.verdicts: Counter = Counter()
        self.failures: list[tuple[str, str]] = []  # (operation, message)
        self.layers: dict[str, float] = {}
        self.wall = 0.0
        self.top_level = 0.0


def run_window(shape: dict, profile: Any, work_dir: str, timeline: Timeline,
               window: Window, tracer: "Tracer | None") -> None:
    """One window; segments are closed by the references it runs."""
    directory = os.path.join(work_dir, f"w{window.index}")
    os.makedirs(directory)
    before = tracer.snapshot() if tracer is not None else {}

    with maybe_span(tracer, "bench.unmonitored"):
        gc.collect()
        start = perf_counter()
        for _ in range(UNMONITORED_RUNS):
            run_workload(profile)
        window.unmonitored = timeline.add(
            "unmonitored", (perf_counter() - start) / UNMONITORED_RUNS
        )

    with maybe_span(tracer, "bench.setup"):
        gc.collect()
        setup, window.setup = timeline.timed(
            "setup", Setup, shape, directory, window.verdicts, tracer,
        )

    with maybe_span(tracer, "program.monitored"):
        gc.collect()
        result, window.monitored = timeline.timed("monitored", run_workload, profile)
        setup.weaver.unweave()
    window.iterators = result.iterators_created
    timeline.ref()
    scale = window.monitored.scale
    window.latency_p50 = percentile(setup.probe.samples, 0.50) * scale
    window.latency_p99 = percentile(setup.probe.samples, 0.99) * scale

    with maybe_span(tracer, "bench.verify"):
        engine = setup.engine
        settle(engine)
        window.totals = engine_totals(engine)
        specs = [prop.make().silence() for prop in EVALUATED_PROPERTIES]
        if setup.durable is not None:
            setup.durable.close()
            checkpoints = checkpoint_files(directory)
            replayed = setup.durable.wal.seq - (checkpoints[-1][0] if checkpoints else 0)
            wal_bytes = _dir_bytes(directory, "wal-")
            checkpoint_bytes = _dir_bytes(directory, "checkpoint-")
        else:
            with maybe_span(tracer, "persist.checkpoint"):
                snapshot = snapshot_engine(engine)
            checkpoint_bytes = len(json.dumps(snapshot)) if tracer is not None else 0
            replayed = wal_bytes = 0
        del engine, setup

    gc.collect()
    with maybe_span(tracer, "persist.recover"):
        if shape["durable"]:
            (recovered, tokens), window.recover = timeline.timed(
                "recover", _recover, specs, directory, shape
            )
        else:
            recovered, window.recover = timeline.timed(
                "recover", restore_engine, snapshot, specs
            )
            tokens = None

    with maybe_span(tracer, "bench.verify"):
        if shape["durable"]:
            del tokens
            engine = recovered.engine
            settle(engine)
            got = engine_totals(engine)
            for key in ("E", "M", "CM"):
                if got[key] != window.totals[key]:
                    window.failures.append((
                        "recover",
                        f"recovered {key} {got[key]} != live {window.totals[key]}",
                    ))
            recovered.close()
        del recovered
        shutil.rmtree(directory)

    timeline.ref()
    if tracer is not None:
        spent = diff_totals(tracer.snapshot(), before)
        window.layers = _layers(spent, window, replayed, wal_bytes, checkpoint_bytes)


def _recover(specs: list, directory: str, shape: dict) -> tuple[Any, Any]:
    return DurableEngine.recover(
        specs, directory, system=shape["system"], fsync_interval=FSYNC_NEVER
    )


def _layers(spent: dict, window: Window, replayed: int, wal_bytes: int,
            checkpoint_bytes: int) -> dict[str, float]:
    """The per-layer numbers of one traced window (seconds calibrated as
    the monitored run is)."""
    scale = window.monitored.scale

    def calls(name: str) -> float:
        return spent.get(name, (0, 0.0, 0.0))[0]

    def inclusive(name: str) -> float:
        return spent.get(name, (0, 0.0, 0.0))[1] * scale

    def own(name: str) -> float:
        return spent.get(name, (0, 0.0, 0.0))[2] * scale

    totals = window.totals
    unmonitored = window.unmonitored.calibrated
    # Everything the woven program spent outside the engine and the WAL:
    # the Weaver's advice is also its interception hook.
    advice = own("program.monitored") - unmonitored
    return {
        "spec.compile.calls": calls("spec.compile"),
        "spec.compile.s": own("spec.compile"),
        "runtime.engine_build.s": own("runtime.engine_build"),
        "runtime.emit.calls": calls("runtime.emit"),
        "runtime.emit.self_s": own("runtime.emit"),
        "runtime.events": totals["E"],
        "runtime.monitors_created": totals["M"],
        "runtime.monitors_flagged": totals["FM"],
        "runtime.monitors_collected": totals["CM"],
        "runtime.collected_ratio": totals["CM"] / totals["M"] if totals["M"] else 0.0,
        "instrument.weave.s": own("instrument.weave"),
        "instrument.advice.self_s": advice,
        "instrument.hook.self_s": advice,
        "instrument.live_emit.calls": 0,
        "instrument.live_emit.share": 0.0,
        "persist.wal_append.calls": calls("persist.wal_append"),
        "persist.wal_append.share": spent.get("persist.wal_append", (0, 0.0, 0.0))[1]
        / window.monitored.raw,
        "persist.checkpoint.calls": calls("persist.checkpoint"),
        "persist.checkpoint.s": inclusive("persist.checkpoint"),
        "persist.checkpoint.bytes": checkpoint_bytes,
        "persist.wal.bytes": wal_bytes,
        "persist.recover.replayed_events": replayed,
        "persist.recover.s": inclusive("persist.recover"),
        "bench.unmonitored.s": unmonitored,
        "bench.unmonitored.request_s": unmonitored / window.iterators,
        "app.requests": 0,
    }


def programs(workload: str, seed: int) -> list[Any]:
    """The run's ``PROGRAMS`` seeded profiles of the workload's analog."""
    shape = SHAPES[workload]
    base = dataclasses.replace(
        WORKLOADS[shape["analog"]],
        collections=shape["collections"],
        live_window=shape["live_window"],
    )
    return [base.reseeded(seed * PROGRAMS + k) for k in range(PROGRAMS)]


def run(workload: str, seed: int, seconds: float, trace: bool,
        work_dir: str) -> dict[str, Any]:
    """Measure ``workload`` for ``seconds``; the outcome for ``run.py``."""
    shape = SHAPES[workload]
    profiles = programs(workload, seed)
    tracer = Tracer(f"{workload}-{seed}") if trace else None
    timeline = Timeline(EXPONENTS[workload])
    # A discarded first window: imports, code caches, first allocations.
    run_window(shape, profiles[0], work_dir, timeline, Window(-1, 0, False), None)

    windows = measure(
        seconds, PROGRAMS, tracer, timeline,
        lambda index, traced: Window(index, index % PROGRAMS, traced),
        lambda window, traced_by: run_window(
            shape, profiles[window.program], work_dir, timeline, window, traced_by
        ),
    )
    rss = rss_mb()

    oracles = [oracle(shape, profile) for profile in profiles]
    for window in windows:
        expected, expected_events = oracles[window.program]
        if window.verdicts != expected:
            window.failures.append((
                "monitored",
                f"program {window.program}: verdicts {dict(window.verdicts)} "
                f"!= oracle {dict(expected)}",
            ))
        if window.totals["E"] != expected_events:
            window.failures.append((
                "monitored",
                f"program {window.program}: events {window.totals['E']} "
                f"!= oracle {expected_events}",
            ))
    untraced = [w for w in windows if not w.traced]
    probed = timeline.select((w, [w.monitored]) for w in untraced)
    peaks = [
        statistics.median(w.totals["peak"] for w in windows if w.program == k)
        for k in range(PROGRAMS)
    ]
    series = {
        "events_per_s": timeline.select(
            (w.totals["E"] / w.monitored.calibrated, [w.monitored]) for w in untraced
        ),
        "requests_per_s": timeline.select(
            (w.iterators / w.monitored.calibrated, [w.monitored]) for w in untraced
        ),
        "overhead_x": timeline.select(
            (w.monitored.calibrated / w.unmonitored.calibrated, [w.monitored])
            for w in untraced
        ),
        "setup_s": timeline.select((w.setup.calibrated, [w.setup]) for w in windows),
        "recover_s": timeline.select(
            (w.recover.calibrated, [w.recover]) for w in windows
        ),
        "raw monitored_s": [w.monitored.raw for w in untraced],
        "raw setup_s": [w.setup.raw for w in windows],
    }
    verdict_total = sum(sum(v.values()) for v, _ in oracles)
    return {
        "windows": windows,
        "spans": tracer.chrome() if tracer is not None else [],
        "series": series,
        "ratios": timeline.ratios,
        # One monitored program run and one recovery per window.
        "attempted": 2 * len(windows),
        "failed": sum(len({op for op, _ in w.failures}) for w in windows),
        "failures": [message for w in windows for _, message in w.failures],
        "notes": [
            f"programs: {PROGRAMS} seeds of {shape['analog']} "
            f"({shape['collections']} collections, live window "
            f"{shape['live_window']}); oracle: pinned-object runs, "
            f"{verdict_total} verdicts in all",
            f"peak live monitors per program: {peaks}",
            f"latency: median of per-window percentiles of every woven event, "
            f"over {len(probed)} selected windows",
        ],
        "e2e": {
            "latency_p50_ms": statistics.median(w.latency_p50 for w in probed) * 1e3,
            "latency_p99_ms": statistics.median(w.latency_p99 for w in probed) * 1e3,
            "peak_live_monitors": statistics.mean(peaks),
            "rss_peak_mb": rss,
        },
    }
