"""Persistence benchmarks: snapshot/restore cost and process-shard scaling.

Three measurements over the bloat workload (UNSAFEITER, the paper's
pathological leak case):

1. **Snapshot/restore round trip** — serialize a mid-run engine (monitors,
   disable knowledge, stats) to the versioned binary format and restore
   it; verifies replay equivalence on the spot (suffix replay after
   restore must reproduce the uninterrupted run's verdicts and E/M/CM)
   and reports timings plus the compressed snapshot size.
2. **Write-ahead log** — sustained append throughput at the default fsync
   interval, plus a full crash-recovery (snapshot + suffix replay) timing.
3. **Thread vs process backend** — the same CPU-bound configuration
   (eager propagation: a death step at every event boundary) ingested
   by ``mode="thread"`` and ``mode="process"`` services.  Thread shards
   interleave under the GIL; process shards use real cores.  The headline
   ``process_speedup_vs_thread`` exceeds 1 only when the machine has
   cores to parallelize over — the report records ``cpu_count`` and sets
   ``multicore`` accordingly (on a 1-core container the expected result
   is < 1: same total CPU plus serialization overhead).

Run directly (writes ``BENCH_persist.json`` for the perf trajectory)::

    PYTHONPATH=src python benchmarks/bench_persist.py
    REPRO_BENCH_SCALE=0.2 PYTHONPATH=src python benchmarks/bench_persist.py --out BENCH_persist.json
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import tempfile
from collections import Counter

from repro.bench.harness import timed_call
from repro.bench.workloads import WORKLOADS, record_workload_events
from repro.persist import (
    DurableEngine,
    restore_engine,
    snapshot_engine,
    snapshot_from_bytes,
    snapshot_to_bytes,
)
from repro.properties import UNSAFEITER
from repro.runtime.engine import MonitoringEngine
from repro.runtime.tracelog import ReplayToken, replay_entries
from repro.service import MonitorService

SHARDS = 4
BATCH = 512


def build_trace(scale: float, seed: "int | None" = None):
    profile = WORKLOADS["bloat"].scaled(scale).reseeded(seed)
    return record_workload_events(profile, [UNSAFEITER])


# -- part 1: snapshot/restore round trip -------------------------------------


def verdict_key(prop, category, monitor):
    pairs = [
        (name, getattr(value, "symbol", value))
        for name, value in monitor.binding().items()
    ]
    return (prop.spec_name, category, tuple(sorted(pairs)))


def bench_snapshot(entries) -> dict:
    cut = len(entries) // 2

    want: Counter = Counter()
    full = MonitoringEngine(
        UNSAFEITER.make().silence(),
        gc="coenable",
        on_verdict=lambda p, c, m: want.update([verdict_key(p, c, m)]),
    )
    replay_entries(entries, full, retire_after_last_use=True)
    full.flush_gc()
    gc.collect()
    want_stats = full.stats_for("UnsafeIter")

    got: Counter = Counter()
    prefix = MonitoringEngine(
        UNSAFEITER.make().silence(),
        gc="coenable",
        on_verdict=lambda p, c, m: got.update([verdict_key(p, c, m)]),
    )
    prefix_tokens = replay_entries(
        entries, prefix, retire_after_last_use=True, stop=cut
    )
    live_monitors = prefix.total_live_monitors()

    payload, snapshot_seconds = timed_call(
        lambda: snapshot_to_bytes(snapshot_engine(prefix))
    )
    del prefix, prefix_tokens
    gc.collect()

    (restored, tokens), restore_seconds = timed_call(
        restore_engine,
        snapshot_from_bytes(payload),
        UNSAFEITER.make().silence(),
        on_verdict=lambda p, c, m: got.update([verdict_key(p, c, m)]),
    )
    replay_entries(
        entries, restored, retire_after_last_use=True, start=cut, tokens=tokens
    )
    restored.flush_gc()
    gc.collect()
    restored_stats = restored.stats_for("UnsafeIter")

    equivalent = (
        got == want
        and restored_stats.events == want_stats.events
        and restored_stats.monitors_created == want_stats.monitors_created
        and restored_stats.monitors_collected == want_stats.monitors_collected
    )
    if not equivalent:
        raise AssertionError(
            f"snapshot/restore is not replay-equivalent: "
            f"verdicts {sum(got.values())} vs {sum(want.values())}, "
            f"rows {restored_stats.as_row()} vs {want_stats.as_row()}"
        )
    return {
        "cut_event": cut,
        "live_monitors_at_cut": live_monitors,
        "snapshot_bytes": len(payload),
        "snapshot_seconds": snapshot_seconds,
        "restore_seconds": restore_seconds,
        "equivalence_verified": True,
        "verdicts": sum(want.values()),
    }


# -- part 2: write-ahead log ---------------------------------------------------


def bench_wal(entries) -> dict:
    with tempfile.TemporaryDirectory() as directory:
        durable = DurableEngine(
            UNSAFEITER.make().silence(),
            directory,
            gc="coenable",
            segment_events=50_000,
            fsync_interval=256,
        )
        tokens: dict = {}
        _, append_seconds = timed_call(
            replay_entries, entries, durable.engine, tokens=tokens
        )
        durable.checkpoint()
        del durable, tokens
        gc.collect()

        (recovered, _tokens), recover_seconds = timed_call(
            DurableEngine.recover, UNSAFEITER.make().silence(), directory
        )
        events = recovered.engine.stats_for("UnsafeIter").events
        recovered.close()
    return {
        "events": events,
        "append_events_per_second": len(entries) / append_seconds if append_seconds else 0.0,
        "fsync_interval": 256,
        "recover_seconds": recover_seconds,
    }


# -- part 3: thread vs process shard backends ---------------------------------


def ingest_batched(service, entries, chunk: int = BATCH) -> None:
    """Chunked token-materializing ingestion (retire after last use)."""
    last_use: dict[str, int] = {}
    for index, (_event, symbols) in enumerate(entries):
        for symbol in symbols.values():
            last_use[symbol] = index
    tokens: dict = {}
    batch = []
    for index, (event, symbols) in enumerate(entries):
        params = {}
        for name, symbol in symbols.items():
            token = tokens.get(symbol)
            if token is None:
                token = symbol if symbol.startswith("v:") else ReplayToken(symbol)
                tokens[symbol] = token
            params[name] = token
        batch.append((event, params))
        if len(batch) >= chunk:
            service.emit_batch(batch)
            batch.clear()
        for symbol in symbols.values():
            if last_use[symbol] == index:
                tokens.pop(symbol, None)
    if batch:
        service.emit_batch(batch)


def bench_backend(entries, mode: str) -> dict:
    service = MonitorService(
        UNSAFEITER.make().silence(),
        shards=SHARDS,
        gc="coenable",
        propagation="eager",  # CPU-bound: a death step at every boundary
        mode=mode,
        keep_verdict_log=False,
    )
    def ingest_and_drain():
        ingest_batched(service, entries)
        service.drain()

    _, seconds = timed_call(ingest_and_drain)
    stats = service.stats_for("UnsafeIter")
    verdicts = sum(stats.verdicts.values())
    service.close()
    return {
        "mode": mode,
        "shards": SHARDS,
        "seconds": seconds,
        "events_per_second": len(entries) / seconds if seconds else 0.0,
        "verdict_events": verdicts,
        "monitors_created": stats.monitors_created,
    }


def run(scale: float, seed: "int | None" = None) -> dict:
    entries = build_trace(scale, seed)
    print(f"workload: bloat x{scale} -> {len(entries)} events")

    snapshot_report = bench_snapshot(entries)
    print(
        f"snapshot: {snapshot_report['snapshot_bytes']:,} bytes in "
        f"{snapshot_report['snapshot_seconds']*1e3:.1f} ms, restore "
        f"{snapshot_report['restore_seconds']*1e3:.1f} ms (equivalence verified)"
    )

    wal_report = bench_wal(entries)
    print(
        f"wal: {wal_report['append_events_per_second']:,.0f} appends/s, "
        f"recovery in {wal_report['recover_seconds']*1e3:.1f} ms"
    )

    backends = [bench_backend(entries, mode) for mode in ("thread", "process")]
    for row in backends:
        print(
            f"{row['mode']:>7} x{row['shards']}: {row['events_per_second']:>10,.0f} ev/s"
            f"  ({row['seconds']:.2f}s, {row['monitors_created']} monitors)"
        )
    thread_row = next(row for row in backends if row["mode"] == "thread")
    process_row = next(row for row in backends if row["mode"] == "process")
    if thread_row["monitors_created"] != process_row["monitors_created"]:
        raise AssertionError("backends diverged on monitor accounting")
    speedup = thread_row["seconds"] / process_row["seconds"]
    cpu_count = os.cpu_count() or 1
    print(
        f"headline: process backend {speedup:.2f}x vs thread backend "
        f"on {cpu_count} core(s)"
        + ("" if cpu_count > 1 else "  [single core: < 1x is expected]")
    )
    return {
        "benchmark": "persist",
        "workload": "bloat (unsafe-iterator)",
        "scale": scale,
        "trace_events": len(entries),
        "cpu_count": cpu_count,
        "multicore": cpu_count > 1,
        "snapshot": snapshot_report,
        "wal": wal_report,
        "backends": backends,
        "process_speedup_vs_thread": speedup,
        "expected_speedup_gt_1": cpu_count > 1,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--scale",
        type=float,
        default=float(os.environ.get("REPRO_BENCH_SCALE", "0.5")),
        help="workload scale factor (default: REPRO_BENCH_SCALE or 0.5)",
    )
    parser.add_argument("--out", default="BENCH_persist.json", help="JSON report path")
    parser.add_argument("--seed", type=int, default=None,
                        help="workload RNG seed (default: profile's baked seed)")
    args = parser.parse_args()
    report = run(args.scale, args.seed)
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2)
    print(f"-> {args.out}")


if __name__ == "__main__":
    main()
