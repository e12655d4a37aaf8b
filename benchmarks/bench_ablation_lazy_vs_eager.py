"""Ablation: lazy vs eager collection (Section 4.2's design claim).

The paper: "Eager garbage collection of unnecessary monitors introduces a
very large amount of runtime overhead, which almost always overwhelms any
benefits ... Therefore, we use a lazy garbage collection scheme."

Here both configurations use the *same* coenable analysis; only the
propagation differs — lazy discovers deaths while structures are touched,
eager follows each dead parameter's back-links to the maps that key it
at the next event boundary, and its maps never scan on access.  The
benchmark shows the runtime gap.  In this reproduction the paper's claim
no longer holds: told which object died, the eager step costs less than
the lazy scans it replaces.  The shape tests assert what is measured
here: eager is not slower on the churny workload, flags the same
monitors as lazy by the end, and peaks no higher.
"""

from __future__ import annotations

import pytest

from repro.bench.harness import run_cell
from repro.runtime.engine import SYSTEMS

from conftest import make_monitored_runner

# A private "system" table for the ablation: same GC, different propagation.
SYSTEMS.setdefault("rv-eager", ("coenable", "eager"))


@pytest.mark.parametrize("propagation", ("lazy", "eager"))
def test_ablation_propagation_runtime(benchmark, propagation):
    system = "rv" if propagation == "lazy" else "rv-eager"
    run, engine, teardown = make_monitored_runner("bloat", "unsafeiter", system)
    try:
        benchmark(run)
        benchmark.extra_info["flagged"] = sum(
            stats.monitors_flagged for stats in engine.stats().values()
        )
    finally:
        teardown()


def test_ablation_shape_eager_is_not_slower():
    """Back-links name the maps that key each dead object and eager maps
    never scan on access, so eager runs no slower than lazy (about 0.9x
    on a 2-vCPU VM with CPython 3.11.7).  Rounds alternate the two, so a
    slow stretch of the host hits both; each side keeps its best time."""
    scale, repeats, rounds = 0.25, 3, 5
    lazy, eager = [], []
    for _round in range(rounds):
        lazy_cell = run_cell("bloat", "unsafeiter", "rv", scale=scale, repeats=repeats)
        eager_cell = run_cell(
            "bloat", "unsafeiter", "rv-eager", scale=scale, repeats=repeats,
            original_seconds=lazy_cell.original_seconds,
        )
        lazy.append(lazy_cell.monitored_seconds)
        eager.append(eager_cell.monitored_seconds)
    assert min(eager) <= min(lazy), (eager, lazy)


def test_ablation_shape_same_final_collection_outcome():
    """Eagerness buys promptness, not reach: by the end-of-run flush both
    configurations have flagged the same unnecessary monitors."""
    scale = 0.2
    lazy = run_cell("bloat", "unsafeiter", "rv", scale=scale).totals()
    eager = run_cell("bloat", "unsafeiter", "rv-eager", scale=scale).totals()
    assert lazy["M"] == eager["M"]
    assert lazy["FM"] == eager["FM"]


def test_ablation_shape_eager_has_lower_peak():
    """What eagerness does buy: the monitor population peaks lower."""
    scale = 0.25
    lazy = run_cell("bloat", "unsafeiter", "rv", scale=scale)
    eager = run_cell("bloat", "unsafeiter", "rv-eager", scale=scale)
    assert eager.peak_live_monitors <= lazy.peak_live_monitors
