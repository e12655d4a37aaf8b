"""Sharded-service scaling: event throughput vs shard count.

Measures ``MonitorService`` ingestion throughput on the unsafe-iterator
workload (UNSAFEITER over the ``bloat`` DaCapo analog — the paper's
pathological leak case) for 1, 2 and 4 shards, in two engine regimes:

* ``eager`` propagation (the Tracematches-style regime): every parameter
  death is propagated at the next event boundary, through the dead
  object's back-links to the maps that key it, so its cost grows with
  where the object was keyed, not with engine state.  Sharding divides
  nothing that eager death propagation pays for, so on one core it buys
  no speedup (the headline ``headline_speedup_eager_4_shards`` reports
  the ratio as measured).
* ``lazy`` propagation (the paper's design): per-event cost is already
  O(1) in engine state, so on a single core sharding buys no speedup —
  expect ~0.7-1.0x (routing overhead).  With real parallelism the lazy
  regime is where worker threads/processes would earn their keep.

The lazy 1-shard row is the recorded baseline of
``benchmarks/bench_dispatch.py --check-baseline``.

The run is deterministic end to end: the workload trace is recorded once
(symbolic identities) and ingested by every configuration via
``ingest_symbolic`` with ``retire_after_last_use=True``, so parameter
deaths — the GC driver — happen during ingestion exactly as in live
traffic.  The benchmark also asserts the verdict multiset is identical
across all shard counts (the service's determinism guarantee).

Run directly (writes ``BENCH_service.json`` for the perf trajectory)::

    PYTHONPATH=src python benchmarks/bench_service_scaling.py
    REPRO_BENCH_SCALE=0.2 PYTHONPATH=src python benchmarks/bench_service_scaling.py --out BENCH_service.json
"""

from __future__ import annotations

import argparse
import json
import os
from collections import Counter

from repro.bench.harness import best_of_n, timed_call
from repro.bench.workloads import WORKLOADS, record_workload_events
from repro.properties import UNSAFEITER
from repro.service import MonitorService, ingest_symbolic

SHARD_COUNTS = (1, 2, 4)
PROPAGATIONS = ("eager", "lazy")
REPEATS = 2


def build_trace(scale: float, seed: "int | None" = None) -> list[tuple[str, dict[str, str]]]:
    profile = WORKLOADS["bloat"].scaled(scale).reseeded(seed)
    return record_workload_events(profile, [UNSAFEITER])


def run_config(
    entries: list[tuple[str, dict[str, str]]], shards: int, propagation: str
) -> dict:
    """Best-of-``REPEATS`` timing (fresh service per repeat); the verdict
    multiset and created-monitor count must agree across repeats."""

    def repeat():
        service = MonitorService(
            UNSAFEITER.make().silence(),
            shards=shards,
            gc="coenable",
            propagation=propagation,
            mode="inline",
        )
        _, elapsed = timed_call(
            ingest_symbolic, service, entries, retire_after_last_use=True
        )
        verdicts = Counter(
            (record.spec_name, record.category) for record in service.verdicts()
        )
        stats = service.stats_for("UnsafeIter")
        service.close()
        return elapsed, (tuple(sorted(verdicts.items())), stats.monitors_created)

    run = best_of_n(
        repeat, REPEATS, cell=f"service/{propagation}-x{shards}"
    )
    multiset, monitors_created = run.identity
    return {
        "shards": shards,
        "propagation": propagation,
        "events": len(entries),
        "seconds": run.seconds,
        "events_per_second": len(entries) / run.seconds if run.seconds else 0.0,
        "verdicts": sum(count for _key, count in multiset),
        "monitors_created": monitors_created,
        "spread_seconds": run.spread(),
    }


def run_matrix(scale: float, seed: "int | None" = None) -> dict:
    entries = build_trace(scale, seed)
    results = []
    verdict_counts: set[int] = set()
    for propagation in PROPAGATIONS:
        for shards in SHARD_COUNTS:
            cell = run_config(entries, shards, propagation)
            base = next(
                (
                    row["events_per_second"]
                    for row in results
                    if row["propagation"] == propagation and row["shards"] == 1
                ),
                cell["events_per_second"],
            )
            cell["speedup_vs_1_shard"] = cell["events_per_second"] / base if base else 0.0
            results.append(cell)
            verdict_counts.add(cell["verdicts"])
            print(
                f"{propagation:>5} shards={shards}: "
                f"{cell['events_per_second']:>10,.0f} ev/s  "
                f"({cell['seconds']:.2f}s, {cell['speedup_vs_1_shard']:.2f}x, "
                f"{cell['verdicts']} verdicts)"
            )
    if len(verdict_counts) != 1:
        raise AssertionError(
            f"verdict counts diverged across configurations: {verdict_counts}"
        )
    eager_4 = next(
        row
        for row in results
        if row["propagation"] == "eager" and row["shards"] == 4
    )
    return {
        "benchmark": "service_scaling",
        "workload": "bloat (unsafe-iterator)",
        "property": "unsafeiter",
        "scale": scale,
        "trace_events": len(entries),
        "interpreter": interpreter_info(),
        "results": results,
        "headline_speedup_eager_4_shards": eager_4["speedup_vs_1_shard"],
        "verdicts_identical_across_configs": True,
    }


def interpreter_info() -> dict:
    """Which Python produced the numbers — the CI matrix includes a
    free-threaded (PEP 703) leg, whose artifact is distinguishable from the
    with-GIL legs only by this stamp."""
    import platform
    import sys

    gil_probe = getattr(sys, "_is_gil_enabled", None)
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "free_threading": (not gil_probe()) if gil_probe is not None else False,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--scale",
        type=float,
        default=float(os.environ.get("REPRO_BENCH_SCALE", "0.5")),
        help="workload scale factor (default: REPRO_BENCH_SCALE or 0.5)",
    )
    parser.add_argument(
        "--out", default="BENCH_service.json", help="JSON report path"
    )
    parser.add_argument("--seed", type=int, default=None,
                        help="workload RNG seed (default: profile's baked seed)")
    parser.add_argument(
        "--note", action="append", default=[],
        help="free-text note(s) recorded in the report (the free-threaded "
        "CI leg stamps its smoke result here)",
    )
    args = parser.parse_args()
    report = run_matrix(args.scale, args.seed)
    if args.note:
        report["notes"] = args.note
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2)
    headline = report["headline_speedup_eager_4_shards"]
    print(f"\nheadline: eager 4-shard speedup {headline:.2f}x -> {args.out}")


if __name__ == "__main__":
    main()
