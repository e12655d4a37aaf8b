"""Lazy vs eager propagation on live programs (docs/gc-strategies.md).

Runs the seeded programs of one ``perfbench`` DaCapo workload live: the
five evaluated properties are woven into the collections shim by
``repro.instrument.aspects.Weaver``, so parameter objects die when the
program drops them.  The programs and their sizes are perfbench's own
(``perfbench/dacapo.py``: ``programs`` and ``SHAPES``), run here without
perfbench's engine, WAL or checkpoints, under each configuration below.
Each configuration runs every program once per repetition, in a fresh
engine with a fresh weave.  Per configuration the report gives the
monitored time of all the programs summed (min and max over the
repetitions), the eager death step's share of it
(``MonitoringEngine._propagate_deaths``, timed around each call in one
more pass that the min and max leave out, with its call count), and the
per-program peak live monitors summed, so regimes that collect alike
show equal peaks::

    PYTHONPATH=src python benchmarks/bench_propagation.py --workload bloat-rv --repeats 3
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import sys
from time import perf_counter
from typing import Any

from repro.bench.workloads import run_workload
from repro.instrument.aspects import Weaver
from repro.properties import EVALUATED_PROPERTIES
from repro.runtime.engine import MonitoringEngine

# perfbench's modules import each other by bare name.
sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "perfbench"))
from dacapo import PROGRAMS, SHAPES, programs  # noqa: E402

#: The compared engines: name -> ``MonitoringEngine`` keyword arguments.
CONFIGS = {
    "rv (coenable, lazy)": {"system": "rv"},
    "coenable, eager": {"gc": "coenable", "propagation": "eager"},
    "tm (statebased, eager)": {"system": "tm"},
}


def run_program(
    profile: Any, config: dict, death_step: list | None = None
) -> tuple[float, int]:
    """One live monitored run: its seconds and the engine's summed
    per-property live peak.  With ``death_step`` (a two-item list), each
    death step's seconds and one count are added to it."""
    engine = MonitoringEngine(
        [prop.make().silence() for prop in EVALUATED_PROPERTIES], **config
    )
    if death_step is not None:
        inner = engine._propagate_deaths

        def timed() -> None:
            start = perf_counter()
            inner()
            death_step[0] += perf_counter() - start
            death_step[1] += 1

        engine._propagate_deaths = timed  # type: ignore[method-assign]
    weaver = Weaver(engine)
    for prop in EVALUATED_PROPERTIES:
        prop.instrument(engine, weaver)
    gc.collect()
    start = perf_counter()
    try:
        run_workload(profile)
    finally:
        elapsed = perf_counter() - start
        weaver.unweave()
    peak = sum(stats.peak_live_monitors for stats in engine.stats().values())
    return elapsed, peak


def measure(workload: str, seed: int, repeats: int) -> dict[str, Any]:
    profiles = programs(workload, seed)
    rows = []
    for name, config in CONFIGS.items():
        totals = [
            sum(run_program(profile, config)[0] for profile in profiles)
            for _repeat in range(repeats)
        ]
        death_step = [0.0, 0]
        traced = [run_program(profile, config, death_step) for profile in profiles]
        rows.append({
            "config": name,
            "seconds_min": min(totals),
            "seconds_max": max(totals),
            "seconds": totals,
            "death_step_share": death_step[0] / sum(seconds for seconds, _ in traced),
            "death_steps": death_step[1],
            "peak_live_monitors_sum": sum(peak for _, peak in traced),
        })
    return {
        "benchmark": "propagation",
        "workload": workload,
        "seed": seed,
        "programs": PROGRAMS,
        "repeats": repeats,
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "rows": rows,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=sorted(SHAPES), default="bloat-rv")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--out", default=None, help="optional JSON report path")
    args = parser.parse_args()
    report = measure(args.workload, args.seed, args.repeats)
    print(f"{args.workload}, seed {args.seed}: {PROGRAMS} programs summed, "
          f"{args.repeats} repetitions, CPython {report['python']}")
    for row in report["rows"]:
        print(
            f"{row['config']:<24} {row['seconds_min']:.2f}-{row['seconds_max']:.2f} s"
            f"  death step {row['death_step_share']:.1%} ({row['death_steps']} calls)"
            f"  peak live monitors {row['peak_live_monitors_sum']}"
        )
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(report, handle, indent=2)
            handle.write("\n")


if __name__ == "__main__":
    main()
