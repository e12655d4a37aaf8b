"""App macro benchmark: monitored vs unmonitored throughput and latency.

The repo's DaCapo analog: the reference asyncio server
(:mod:`repro.app.server`) under the seeded load driver, measured at
rising connection counts — first **unmonitored**, then **monitored** (the
full app property set woven through ``LiveSession``/``TraceWeaver``,
single engine).  Each scale reports req/s and p50/p99 latency
for both runs plus the overhead ratio; the resulting curve is the
standing macro benchmark every future perf PR must not regress.

The throughput mix is clean keep-alive traffic (no stalls or disconnects
— those measure the driver's sleeps, not the server), so req/s compares
the same byte streams.  A separate small *mixed* run (errors, pushes,
leaks) is recorded live and replayed offline, asserting the verdict
multisets agree — the equivalence contract, checked inline on every
benchmark run like ``bench_live.py`` does.

Run directly (writes ``BENCH_app.json``)::

    PYTHONPATH=src python benchmarks/bench_app.py
    REPRO_BENCH_SCALE=0.2 PYTHONPATH=src python benchmarks/bench_app.py --seed 7
"""

from __future__ import annotations

import argparse
import asyncio
import io
import json
import os
import platform
import sys
from collections import Counter

from repro.app import AppServer, DriverConfig, app_specs, run_driver, weave_app
from repro.instrument.live import LiveSession
from repro.runtime.engine import MonitoringEngine
from repro.runtime.tracelog import replay

#: Concurrent-connection scales of the curve (multiplied by --scale).
CONNECTION_SCALES = (4, 16, 48)
REQUESTS_PER_CONNECTION = 25


def make_engine(verdicts: Counter) -> MonitoringEngine:
    return MonitoringEngine(
        [prop.make().silence() for prop in app_specs()],
        gc="statebased",
        on_verdict=lambda prop, category, _m: verdicts.update(
            [(prop.spec_name, category)]
        ),
    )


def drive(config: DriverConfig, read_timeout: float = 5.0):
    async def run():
        async with AppServer(read_timeout=read_timeout) as server:
            return await run_driver(server.host, server.port, config)

    return asyncio.run(run())


def clean_config(connections: int, seed: int) -> DriverConfig:
    """Pure keep-alive throughput traffic: every slot a normal request."""
    return DriverConfig(
        connections=connections,
        requests_per_connection=REQUESTS_PER_CONNECTION,
        seed=seed,
    )


def bench_scale_point(connections: int, seed: int) -> dict:
    config = clean_config(connections, seed)
    baseline = drive(config)

    verdicts: Counter = Counter()
    session = LiveSession(make_engine(verdicts))
    with session:
        weave_app(session)
        monitored = drive(config)
    assert not verdicts, f"clean traffic produced verdicts: {verdicts}"
    assert monitored.responses == baseline.responses

    return {
        "connections": connections,
        "requests": baseline.responses,
        "unmonitored": {
            "rps": round(baseline.rps, 1),
            "p50_ms": round(baseline.p50_ms, 3),
            "p99_ms": round(baseline.p99_ms, 3),
        },
        "monitored": {
            "rps": round(monitored.rps, 1),
            "p50_ms": round(monitored.p50_ms, 3),
            "p99_ms": round(monitored.p99_ms, 3),
        },
        "overhead_x": round(baseline.rps / monitored.rps, 2)
        if monitored.rps else None,
    }


def assert_live_replay_equivalence(seed: int) -> dict:
    """A small mixed run, recorded live and re-monitored offline."""
    config = DriverConfig(
        connections=4,
        requests_per_connection=8,
        seed=seed,
        disconnect_fraction=0.08,
        error_fraction=0.12,
        push_fraction=0.10,
        leak_fraction=0.10,
    )
    live: Counter = Counter()
    trace = io.StringIO()
    session = LiveSession(make_engine(live), record=trace)
    with session:
        weave_app(session)
        drive(config)
    offline: Counter = Counter()
    replay(trace.getvalue().splitlines(), make_engine(offline))
    assert offline == live, (offline, live)
    assert live, "the mixed run must produce verdicts"
    return {
        "events": len(trace.getvalue().splitlines()),
        "verdicts": {f"{name}:{cat}": n for (name, cat), n in sorted(live.items())},
        "replay_verdicts_identical": True,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--scale",
        type=float,
        default=float(os.environ.get("REPRO_BENCH_SCALE", "1.0")),
        help="workload scale factor (default: REPRO_BENCH_SCALE or 1.0)",
    )
    parser.add_argument("--seed", type=int, default=20110604,
                        help="driver mix seed (the repo-wide convention)")
    parser.add_argument("--out", default="BENCH_app.json")
    args = parser.parse_args()

    scales = [max(2, round(base * args.scale)) for base in CONNECTION_SCALES]
    # The curve needs >= 3 *distinct* rising scales even when --scale
    # squashes the small end together.
    for index in range(1, len(scales)):
        scales[index] = max(scales[index], scales[index - 1] + 2)

    report = {
        "benchmark": "app scenario: monitored vs unmonitored server",
        "scale": args.scale,
        "seed": args.seed,
        "python": platform.python_version(),
        "has_sys_monitoring": hasattr(sys, "monitoring"),
        "properties": list(
            prop.key for prop in app_specs()
        ),
        "requests_per_connection": REQUESTS_PER_CONNECTION,
        "curve": [bench_scale_point(conns, args.seed) for conns in scales],
        "live_vs_replay": assert_live_replay_equivalence(args.seed),
    }

    with open(args.out, "w") as handle:
        json.dump(report, handle, indent=2)
    print(json.dumps(report, indent=2))


if __name__ == "__main__":
    main()
