"""Benchmark harness: the machinery behind Figures 9(A), 9(B) and 10.

A *cell* of the paper's tables is (workload, property-set, system):

* the workload runs once **unwoven** (the ORIG column of Figure 9) and once
  **woven** with the property's pointcuts feeding a
  :class:`~repro.runtime.engine.MonitoringEngine` configured as one of the
  three systems — ``tm`` (Tracematches analog: state-based GC, eager
  propagation), ``mop`` (JavaMOP analog: all-parameters-dead GC, lazy) and
  ``rv`` (the paper's system: coenable GC, lazy);
* runtime overhead is ``(monitored - original) / original`` in percent
  (Figure 9A);
* memory is both the peak count of simultaneously live monitor instances
  and, optionally, ``tracemalloc`` peak bytes (Figure 9B);
* the engine's E/M/FM/CM counters are Figure 10.

Absolute numbers are not comparable with the paper's (different host, VM,
and substituted workloads); the *shape* — which system wins, roughly by how
much, and where nothing happens — is what the benchmark suite asserts.
"""

from __future__ import annotations

import gc
import time
import tracemalloc
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from typing import Any, Callable

from ..core.errors import UnsupportedFormalismError
from ..properties import ALL_PROPERTIES, PaperProperty
from ..runtime.engine import SYSTEMS, MonitoringEngine
from ..runtime.statistics import MonitorStats
from .workloads import WORKLOADS, WorkloadProfile, run_workload

__all__ = [
    "CellResult",
    "run_cell",
    "run_grid",
    "GridResult",
    "baseline_time",
    "timed_call",
    "best_of_n",
    "BestOfN",
]


# -- shared timing loops (used by every benchmarks/bench_*.py script) ---------


@dataclass
class BestOfN:
    """The outcome of one best-of-N timing loop."""

    cell: str
    #: The best (minimum) repeat — the number benchmarks report.
    seconds: float
    #: Every repeat's wall time, in run order.
    times: list[float]
    #: The identity payload the repeats agreed on (None when untracked).
    identity: Any = None

    @property
    def max_seconds(self) -> float:
        return max(self.times) if self.times else 0.0

    @property
    def stdev_seconds(self) -> float:
        if len(self.times) < 2:
            return 0.0
        mean = sum(self.times) / len(self.times)
        return (sum((t - mean) ** 2 for t in self.times) / (len(self.times) - 1)) ** 0.5

    def spread(self) -> dict[str, float]:
        """The repeat spread benchmarks persist next to the best number.

        Best-of-N hides run-to-run variance; on shared/noisy hosts that
        variance is often larger than the effect being measured, so the
        recorded JSON carries ``{min, max, stdev}`` seconds alongside the
        reported minimum — a reader can judge whether two rows differ by
        more than the machine's own jitter.
        """
        return {
            "min": self.seconds,
            "max": self.max_seconds,
            "stdev": self.stdev_seconds,
        }


def timed_call(
    fn: Callable[..., Any],
    *args: Any,
    telemetry: Any = None,
    cell: str = "call",
    **kwargs: Any,
) -> tuple[Any, float]:
    """Time one call of ``fn`` after a full host GC; ``(result, seconds)``.

    The ``gc.collect()`` keeps collector debt from a previous repeat out
    of this one's window — the discipline every benchmark's inline timing
    loop used before being deduplicated here.  With ``telemetry`` the
    elapsed time is observed in ``repro_bench_run_seconds{cell=...}``.
    """
    gc.collect()
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    elapsed = time.perf_counter() - start
    if telemetry is not None:
        _observe_run(telemetry, cell, elapsed)
    return result, elapsed


def best_of_n(
    repeat: Callable[[], "tuple[float, Any]"],
    repeats: int = 3,
    *,
    cell: str = "cell",
    telemetry: Any = None,
) -> BestOfN:
    """The shared best-of-N loop behind the benchmark scripts.

    ``repeat()`` performs one full measurement — typically timing its
    critical section with :func:`timed_call` — and returns ``(seconds,
    identity)``.  The identity payload (verdict counts, monitors
    created, ...) must be equal across repeats; a divergence raises
    ``AssertionError``, which is how the benchmarks assert determinism
    while they measure.  Every repeat's wall time feeds
    ``repro_bench_run_seconds{cell=...}`` when ``telemetry`` is given;
    the returned :class:`BestOfN` carries the minimum.
    """
    best: float | None = None
    identity: Any = None
    times: list[float] = []
    for index in range(max(1, repeats)):
        elapsed, run_identity = repeat()
        times.append(elapsed)
        if telemetry is not None:
            _observe_run(telemetry, cell, elapsed)
        if index == 0:
            identity = run_identity
        elif identity != run_identity:
            raise AssertionError(
                f"{cell}: repeat diverged: {identity} vs {run_identity}"
            )
        if best is None or elapsed < best:
            best = elapsed
    return BestOfN(cell=cell, seconds=best or 0.0, times=times, identity=identity)


def _observe_run(telemetry: Any, cell: str, elapsed: float) -> None:
    from ..obs.catalogue import declare as _declare_metric

    _declare_metric(telemetry.registry, "repro_bench_run_seconds").labels(
        cell
    ).observe(elapsed)


@dataclass
class CellResult:
    """One (workload, properties, system) measurement."""

    workload: str
    properties: tuple[str, ...]
    system: str
    original_seconds: float
    monitored_seconds: float
    #: (spec name, formalism) -> statistics (Figure 10 counters).
    stats: dict[tuple[str, str], MonitorStats] = field(default_factory=dict)
    peak_live_monitors: int = 0
    tracemalloc_monitored: int | None = None
    tracemalloc_original: int | None = None
    unsupported: bool = False

    @property
    def overhead_pct(self) -> float:
        """Figure 9(A)'s number: percent slowdown over the unwoven run."""
        if self.original_seconds <= 0:
            return 0.0
        return 100.0 * (self.monitored_seconds - self.original_seconds) / self.original_seconds

    def totals(self) -> dict[str, int]:
        """Summed E/M/FM/CM over the cell's properties (the Figure 10 row)."""
        total = {"E": 0, "M": 0, "FM": 0, "CM": 0}
        for stats in self.stats.values():
            row = stats.as_row()
            for key in total:
                total[key] += row[key]
        return total


def _timed_run(profile: WorkloadProfile) -> float:
    return timed_call(run_workload, profile)[1]


def baseline_time(workload: str, scale: float = 1.0, repeats: int = 1) -> float:
    """Best-of-N unwoven runtime for a workload (the ORIG column)."""
    profile = WORKLOADS[workload].scaled(scale)
    return best_of_n(
        lambda: (_timed_run(profile), None), repeats, cell=f"orig/{workload}"
    ).seconds


def run_cell(
    workload: str,
    properties: "str | PaperProperty | Sequence[str | PaperProperty]",
    system: str,
    scale: float = 1.0,
    repeats: int = 1,
    measure_tracemalloc: bool = False,
    original_seconds: float | None = None,
) -> CellResult:
    """Measure one cell; ``properties`` may be one key or several ("ALL")."""
    if isinstance(properties, (str, PaperProperty)):
        properties = [properties]
    props: list[PaperProperty] = [
        ALL_PROPERTIES[item] if isinstance(item, str) else item for item in properties
    ]
    profile = WORKLOADS[workload].scaled(scale)
    result = CellResult(
        workload=workload,
        properties=tuple(prop.key for prop in props),
        system=system,
        original_seconds=0.0,
        monitored_seconds=0.0,
    )

    result.original_seconds = (
        original_seconds
        if original_seconds is not None
        else best_of_n(
            lambda: (_timed_run(profile), None), repeats, cell=f"orig/{workload}"
        ).seconds
    )

    gc_kind, propagation = SYSTEMS[system]
    specs = [prop.make().silence() for prop in props]
    try:
        engine = MonitoringEngine(specs, gc=gc_kind, propagation=propagation)
    except UnsupportedFormalismError:
        # The Tracematches analog cannot host CFG properties (Section 3).
        result.unsupported = True
        return result

    from ..instrument.aspects import Weaver

    weaver = Weaver(engine)
    for prop in props:
        prop.instrument(engine, weaver)
    try:
        if measure_tracemalloc:
            tracemalloc.start()
        result.monitored_seconds = best_of_n(
            lambda: (_timed_run(profile), None),
            repeats,
            cell=f"{workload}/{system}",
        ).seconds
        if measure_tracemalloc:
            _current, peak = tracemalloc.get_traced_memory()
            tracemalloc.stop()
            result.tracemalloc_monitored = peak
    finally:
        weaver.unweave()
    gc.collect()
    engine.flush_gc()
    result.stats = engine.stats()
    result.peak_live_monitors = sum(
        stats.peak_live_monitors for stats in result.stats.values()
    )

    if measure_tracemalloc:
        tracemalloc.start()
        run_workload(profile)
        _current, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        result.tracemalloc_original = peak
    return result


@dataclass
class GridResult:
    """A full table: workloads x properties x systems."""

    cells: list[CellResult] = field(default_factory=list)

    def cell(self, workload: str, prop_keys: tuple[str, ...], system: str) -> CellResult:
        for cell in self.cells:
            if (
                cell.workload == workload
                and cell.properties == prop_keys
                and cell.system == system
            ):
                return cell
        raise KeyError((workload, prop_keys, system))


def run_grid(
    workloads: Iterable[str],
    property_keys: Iterable[str],
    systems: Iterable[str],
    scale: float = 1.0,
    repeats: int = 1,
    include_all_column: bool = False,
) -> GridResult:
    """Run the full Figure 9/10 grid.

    The unwoven baseline is measured once per workload and shared across
    that workload's cells, as in the paper's per-benchmark ORIG column.
    With ``include_all_column`` the simultaneous-monitoring "ALL" cells are
    added for the ``rv`` system (the only configuration the paper could run
    them on).
    """
    workloads = list(workloads)
    property_keys = list(property_keys)
    systems = list(systems)
    grid = GridResult()
    for workload in workloads:
        baseline = baseline_time(workload, scale=scale, repeats=repeats)
        for key in property_keys:
            for system in systems:
                grid.cells.append(
                    run_cell(
                        workload,
                        key,
                        system,
                        scale=scale,
                        repeats=repeats,
                        original_seconds=baseline,
                    )
                )
        if include_all_column:
            grid.cells.append(
                run_cell(
                    workload,
                    property_keys,
                    "rv",
                    scale=scale,
                    repeats=repeats,
                    original_seconds=baseline,
                )
            )
    return grid
