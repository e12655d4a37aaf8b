"""The ``app-live`` workload: the asyncio ``AppServer``, monitored unmodified.

The server runs in this process and is woven through ``LiveSession`` +
``weave_app`` (on CPython 3.11 ``TraceWeaver`` uses ``settrace``).  Load is
a closed loop over two connections: each client sends its next request
only after the previous response arrived.  The slot plan is
``DriverConfig.plan`` of a seeded mix of clean slots and fault slots
(boom, push, leak, disconnect).  The clean routes are the driver's minus
``/sleep``, whose fixed 50 ms timer would make throughput measure the
clock; stalls are left out for the same reason.

A run's seed picks ``PLANS`` driver seeds; window ``i`` runs plan
``i % PLANS``, so a metric's median is not hostage to one mix.  One window
is: a reference, an unmonitored pass of the plan, a fresh set-up (compile,
engine, session, weave), a monitored pass, a reference, untimed checks, a
timed restore of an end-of-window engine snapshot, and a reference.  Every
slot's response is checked against the plan, and each monitored pass's
verdicts against the multiset the plan implies.

Unlike the DaCapo workloads, a gated metric here is taken over *every*
window, not over the fast-regime ones (``Timeline.select``): a pass is
mostly socket syscalls and event-loop wake-ups, and on a host that is in
its slow regime most of the time the few windows whose references read
fast scatter widest.  Over eight runs on the 2-core host of the
``common`` docstring, the median p50 of those windows ranged 1.7-2.5 ms
where that of all windows ranged 1.7-1.9 ms.
Latency percentiles pool the calibrated responses of every untraced
window (thousands, so more than 10 lie beyond p99).
"""

from __future__ import annotations

import asyncio
import gc
import json
import random
import statistics
import tempfile
from collections import Counter
from time import perf_counter
from typing import Any

from repro.app import AppServer, DriverConfig, app_specs, weave_app
from repro.instrument.live import LiveSession
from repro.persist.codec import restore_engine, snapshot_engine
from repro.runtime.engine import MonitoringEngine

from common import (Segment, Timeline, Tracer, diff_totals, engine_totals,
                    maybe_span, measure, percentile, rss_mb, settle,
                    verdict_counter)

CONNECTIONS = 2
SLOTS_PER_CONNECTION = 60
#: Driver seeds per run; ``peak_live_monitors`` is their mean peak.
PLANS = 24
#: Regime exponents ``(fast, slow)`` per segment kind (``common`` module
#: docstring); the passes spend much of their time in socket syscalls.
EXPONENTS = {"unmonitored": (1.3, 0.0), "setup": (1.0, 0.44),
             "monitored": (1.3, 0.26), "recover": (1.0, 0.36)}
FAULTS = {
    "disconnect_fraction": 0.05,
    "error_fraction": 0.08,
    "push_fraction": 0.06,
    "leak_fraction": 0.06,
}
#: ``repro.app.driver.NORMAL_ROUTES`` without ``/sleep``.
ROUTES = ("/", "/items", "/items@post", "/work", "/scratch", "/stream")
#: The status each slot kind must get (``None``: the client hangs up).
EXPECTED_STATUS = {"normal": 200, "boom": 500, "push": 200, "leak": 200,
                   "disconnect": None}


def expected_verdicts(config: DriverConfig) -> Counter:
    """One REQLIFE error per /boom, one CONNREUSE error per /push, one
    HANDLERLEAK match per /leak (the app test suite's rule)."""
    mix = config.mix()
    want: Counter = Counter()
    if mix.get("boom"):
        want[("ReqLife", "fsm", "error")] = mix["boom"]
    if mix.get("push"):
        want[("ConnReuse", "fsm", "error")] = mix["push"]
    if mix.get("leak"):
        want[("HandlerLeak", "ere", "match")] = mix["leak"]
    return want


class Client:
    """One closed-loop client executing its planned slots."""

    def __init__(self, port: int, config: DriverConfig, index: int, record: list):
        self.port = port
        self.plan = config.plan(index)
        self.payload = random.Random(f"{config.seed}:{index}:payload")
        self.record = record  # (kind, status or None, latency seconds)
        self.route = 0
        self.reader: Any = None
        self.writer: Any = None

    async def run(self) -> None:
        try:
            for kind in self.plan:
                await getattr(self, f"_{kind}")()
        finally:
            await self._close()

    async def _connect(self) -> None:
        if self.writer is None:
            self.reader, self.writer = await asyncio.open_connection(
                "127.0.0.1", self.port
            )

    async def _close(self) -> None:
        if self.writer is not None:
            writer, self.writer, self.reader = self.writer, None, None
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _response(self) -> "int | None":
        try:
            line = await self.reader.readline()
            if not line:
                return None
            status = int(line.split()[1])
            length = 0
            close = False
            while True:
                header = await self.reader.readline()
                if header in (b"\r\n", b""):
                    break
                name, _, value = header.decode("latin-1").partition(":")
                name = name.strip().lower()
                if name == "content-length":
                    length = int(value)
                elif name == "connection" and value.strip() == "close":
                    close = True
            if length:
                await self.reader.readexactly(length)
            if close:
                await self._close()
            return status
        except (ConnectionError, asyncio.IncompleteReadError, ValueError, IndexError):
            return None

    async def _request(self, kind: str, route: str, body: bytes = b"") -> "int | None":
        await self._connect()
        path, _, tag = route.partition("@")
        head = (
            f"{tag.upper() or 'GET'} {path} HTTP/1.1\r\nhost: app\r\n"
            f"content-length: {len(body)}\r\n\r\n"
        ).encode("latin-1")
        start = perf_counter()
        self.writer.write(head + body)
        await self.writer.drain()
        status = await self._response()
        self.record.append((kind, status, perf_counter() - start))
        if status is None:
            await self._close()
        return status

    async def _normal(self) -> None:
        route = ROUTES[self.route % len(ROUTES)]
        self.route += 1
        body = b""
        if route.endswith("@post"):
            body = f"item-{self.payload.randrange(1_000_000)}".encode()
        await self._request("normal", route, body)

    async def _boom(self) -> None:
        await self._request("boom", "/boom")

    async def _leak(self) -> None:
        await self._request("leak", "/leak")

    async def _push(self) -> None:
        if await self._request("push", "/push") is not None:
            await self._response()  # the unsolicited second response
        await self._close()

    async def _disconnect(self) -> None:
        await self._connect()
        self.writer.write(b"GET /items HTTP/1.1\r\nhost: app\r\n")
        await self.writer.drain()
        await self._close()
        self.record.append(("disconnect", None, 0.0))


class Pass:
    """One run of the plan against a fresh server."""

    def __init__(self) -> None:
        self.record: list[tuple[str, "int | None", float]] = []
        self.elapsed = 0.0
        self.events = 0
        self.layers: dict[str, tuple] = {}


async def _drive(config: DriverConfig, out: Pass, engine: "MonitoringEngine | None",
                 tracer: "Tracer | None") -> None:
    async with AppServer() as server:
        clients = [Client(server.port, config, index, out.record)
                   for index in range(config.connections)]
        before_events = _events(engine)
        before = tracer.snapshot() if tracer is not None else {}
        start = perf_counter()
        await asyncio.gather(*(client.run() for client in clients))
        out.elapsed = perf_counter() - start
        if tracer is not None:
            out.layers = diff_totals(tracer.snapshot(), before)
        out.events = _events(engine) - before_events


def _events(engine: "MonitoringEngine | None") -> int:
    return 0 if engine is None else engine_totals(engine)["E"]


class Setup:
    """Compile the app specs, build the engine and session, weave the app."""

    def __init__(self, verdicts: Counter, tracer: "Tracer | None"):
        specs = []
        for prop in app_specs():
            with maybe_span(tracer, "spec.compile"):
                specs.append(prop.make().silence())

        on_verdict = verdict_counter(verdicts)
        with maybe_span(tracer, "runtime.engine_build"):
            self.engine = MonitoringEngine(specs, gc="statebased",
                                           on_verdict=on_verdict)
        self.session = LiveSession(self.engine)
        if tracer is not None:
            tracer.wrap(self.engine, "emit", "runtime.emit")
            tracer.wrap(self.session, "emit", "instrument.live_emit")
        with maybe_span(tracer, "instrument.weave"):
            self.session.activate()
            weave_app(self.session)


class Window:
    """Everything one window measured."""

    def __init__(self, index: int, plan: int, traced: bool):
        self.index = index
        self.plan = plan
        self.traced = traced
        self.unmonitored: Segment | None = None
        self.setup: Segment | None = None
        self.monitored: Segment | None = None
        self.recover: Segment | None = None
        self.mon_latencies: list[float] = []
        self.unmon_latencies: list[float] = []
        self.responses = 0
        self.events = 0
        self.totals: dict[str, int] = {}
        self.verdicts: Counter = Counter()
        self.failures: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.layers: dict[str, float] = {}
        self.wall = 0.0
        self.top_level = 0.0


def _check(kind_pass: str, record: list, config: DriverConfig, window: Window) -> None:
    """Every planned slot must get its planned response."""
    planned = [kind for index in range(config.connections) for kind in config.plan(index)]
    window.attempted += len(planned)
    got = Counter((kind, status) for kind, status, _ in record)
    want = Counter((kind, EXPECTED_STATUS[kind]) for kind in planned)
    if got != want:
        window.failed += sum((want - got).values())
        window.failures.append(f"{kind_pass} responses {dict(got)} != plan {dict(want)}")


def run_window(config: DriverConfig, timeline: Timeline, window: Window,
               tracer: "Tracer | None") -> None:
    """One window; segments are closed by the references it runs."""
    before = tracer.snapshot() if tracer is not None else {}
    unmon = Pass()
    with maybe_span(tracer, "bench.unmonitored"):
        gc.collect()
        asyncio.run(_drive(config, unmon, None, None))
        window.unmonitored = timeline.add("unmonitored", unmon.elapsed)

    mon = Pass()
    with maybe_span(tracer, "bench.setup"):
        gc.collect()
        setup, window.setup = timeline.timed("setup", Setup, window.verdicts, tracer)
    with maybe_span(tracer, "program.monitored"):
        try:
            asyncio.run(_drive(config, mon, setup.engine, tracer))
        finally:
            setup.session.close()
        window.monitored = timeline.add("monitored", mon.elapsed)
    timeline.ref()
    scale = window.unmonitored.scale
    window.unmon_latencies = [lat * scale for _, status, lat in unmon.record
                              if status is not None]
    scale = window.monitored.scale
    window.mon_latencies = [lat * scale for _, status, lat in mon.record
                            if status is not None]
    window.responses = len(window.mon_latencies)
    window.events = mon.events

    with maybe_span(tracer, "bench.verify"):
        engine = setup.engine
        settle(engine)
        window.totals = engine_totals(engine)
        _check("unmonitored", unmon.record, config, window)
        _check("monitored", mon.record, config, window)
        expected = expected_verdicts(config)
        window.attempted += 1
        if window.verdicts != expected:
            window.failed += 1
            window.failures.append(
                f"verdicts {dict(window.verdicts)} != plan {dict(expected)}"
            )
        with maybe_span(tracer, "persist.checkpoint"):
            snapshot = snapshot_engine(engine)
        checkpoint_bytes = len(json.dumps(snapshot)) if tracer is not None else 0
        specs = [prop.make().silence() for prop in app_specs()]
        del engine, setup

    gc.collect()
    with maybe_span(tracer, "persist.recover"):
        restored, window.recover = timeline.timed(
            "recover", restore_engine, snapshot, specs
        )
        del restored
    timeline.ref()

    if tracer is not None:
        spent = diff_totals(tracer.snapshot(), before)
        window.layers = _layers(spent, mon.layers, window, checkpoint_bytes)


def _layers(spent: dict, during: dict, window: Window,
            checkpoint_bytes: int) -> dict[str, float]:
    """The per-layer numbers of one traced window (seconds calibrated as
    the monitored pass is)."""
    scale = window.monitored.scale

    def get(table: dict, name: str, field: int) -> float:
        return table.get(name, (0, 0.0, 0.0))[field]

    totals = window.totals
    monitored = window.monitored.calibrated
    unmonitored = window.unmonitored.calibrated
    return {
        "spec.compile.calls": get(spent, "spec.compile", 0),
        "spec.compile.s": get(spent, "spec.compile", 2) * scale,
        "runtime.engine_build.s": get(spent, "runtime.engine_build", 2) * scale,
        "runtime.emit.calls": get(during, "runtime.emit", 0),
        "runtime.emit.self_s": get(during, "runtime.emit", 2) * scale,
        "runtime.events": totals["E"],
        "runtime.monitors_created": totals["M"],
        "runtime.monitors_flagged": totals["FM"],
        "runtime.monitors_collected": totals["CM"],
        "runtime.collected_ratio": totals["CM"] / totals["M"] if totals["M"] else 0.0,
        "instrument.weave.s": get(spent, "instrument.weave", 2) * scale,
        # Woven pass minus unwoven pass minus the engine: session + hooks.
        "instrument.advice.self_s": monitored - unmonitored
        - get(during, "runtime.emit", 1) * scale,
        # ... minus the session too: what settrace itself costs.
        "instrument.hook.self_s": monitored - unmonitored
        - get(during, "instrument.live_emit", 1) * scale,
        "instrument.live_emit.calls": get(during, "instrument.live_emit", 0),
        "instrument.live_emit.share": get(during, "instrument.live_emit", 2)
        / window.monitored.raw,
        "persist.wal_append.calls": 0,
        "persist.wal_append.share": 0.0,
        "persist.checkpoint.calls": get(spent, "persist.checkpoint", 0),
        "persist.checkpoint.s": get(spent, "persist.checkpoint", 1) * scale,
        "persist.checkpoint.bytes": checkpoint_bytes,
        "persist.wal.bytes": 0,
        "persist.recover.replayed_events": 0,
        "persist.recover.s": get(spent, "persist.recover", 1) * scale,
        "app.requests": window.responses,
        "bench.unmonitored.s": unmonitored,
    }


def plans(seed: int) -> list[DriverConfig]:
    """The run's ``PLANS`` seeded load plans."""
    return [
        DriverConfig(connections=CONNECTIONS,
                     requests_per_connection=SLOTS_PER_CONNECTION,
                     seed=seed * PLANS + k, **FAULTS)
        for k in range(PLANS)
    ]


def run(workload: str, seed: int, seconds: float, trace: bool,
        work_dir: str) -> dict[str, Any]:
    """Measure ``app-live`` for ``seconds``; the outcome for ``run.py``."""
    tempfile.tempdir = work_dir  # the app's scratch dirs stay in the checkout
    configs = plans(seed)
    tracer = Tracer(f"{workload}-{seed}") if trace else None
    timeline = Timeline(EXPONENTS)
    run_window(configs[0], timeline, Window(-1, 0, False), None)  # warm-up

    windows = measure(
        seconds, PLANS, tracer, timeline,
        lambda index, traced: Window(index, index % PLANS, traced),
        lambda window, traced_by: run_window(
            configs[window.plan], timeline, window, traced_by
        ),
    )
    rss = rss_mb()

    untraced = [w for w in windows if not w.traced]
    latencies = [lat for w in untraced for lat in w.mon_latencies]
    unmon_latencies = [lat for w in windows for lat in w.unmon_latencies]
    peaks = [
        statistics.median(w.totals["peak"] for w in windows if w.plan == k)
        for k in range(PLANS)
    ]
    series = {
        "events_per_s": [w.events / w.monitored.calibrated for w in untraced],
        "requests_per_s": [w.responses / w.monitored.calibrated for w in untraced],
        "overhead_x": [w.monitored.calibrated / w.unmonitored.calibrated
                       for w in untraced],
        "setup_s": [w.setup.calibrated for w in windows],
        "recover_s": [w.recover.calibrated for w in windows],
        "raw monitored_s": [w.monitored.raw for w in untraced],
        "raw setup_s": [w.setup.raw for w in windows],
    }
    mixes = Counter()
    for config in configs:
        mixes.update(config.mix())
    return {
        "windows": windows,
        "spans": tracer.chrome() if tracer is not None else [],
        "series": series,
        "ratios": timeline.ratios,
        "attempted": sum(w.attempted for w in windows),
        "failed": sum(w.failed for w in windows),
        "failures": [f for w in windows for f in w.failures],
        "notes": [
            f"plans: {PLANS} seeds x {CONNECTIONS} connections x "
            f"{SLOTS_PER_CONNECTION} slots, summed mix {dict(mixes)}",
            f"peak live monitors per plan: {peaks}",
            f"latency: {len(latencies)} monitored responses pooled from all "
            f"{len(untraced)} untraced windows "
            f"({len(latencies) - int(len(latencies) * 0.99)} beyond p99)",
        ],
        "e2e": {
            "latency_p50_ms": percentile(latencies, 0.50) * 1e3,
            "latency_p99_ms": percentile(latencies, 0.99) * 1e3,
            "peak_live_monitors": statistics.mean(peaks),
            "rss_peak_mb": rss,
        },
        "unmonitored_request_s": unmon_latencies,
    }
