"""Sampled per-property, per-stage overhead attribution.

Answers the question plain counters cannot: **where did the
millisecond go?**  On a deterministically sampled fraction of events
(riding the same lock-free :class:`~repro.obs.metrics.Sampler` family
as the latency timers), the engine decomposes the full wall time of
that event into pipeline stages and charges each slice to the property
that consumed it:

========== ==========================================================
stage      what it measures
========== ==========================================================
dispatch   per-event plan work minus the two timed sections below
           (binding extraction, creation, bookkeeping)
tree-walk  indexing-tree lookup (``DispatchPlan.tree.lookup_vals``)
fsm-step   stepping the monitors on the matched leaf (incl. verdicts)
gc         death propagation and budgeted sweeps inside the event
emit-batch the engine-level remainder of the event: routing, death
           bookkeeping, later observers (pseudo-property ``engine``)
queue-wait time the queue head sat waiting for a shard worker
           (charged to the pseudo-property ``shard:<n>``)
========== ==========================================================

The tallies are single-writer floats pulled into the catalogue
counters ``repro_prop_stage_seconds_total`` /
``repro_prop_stage_samples_total`` at snapshot time — the hot path
takes no lock and, when attribution is off, runs the exact
pre-observability code (the wrappers are never installed).

Property label values are **slot-stable**: ``"<slot>:<spec>/<formalism>"``.
Registry slots are never reused across detach/attach, so reloading a
property starts a fresh series instead of bleeding into the tombstoned
slot's history.  Sampled sums extrapolate uniformly (multiply by the
sampling interval); at ``sample_interval=1`` they *are* the engine wall
time, which is how the acceptance test prices the decomposition.
"""

from __future__ import annotations

from time import perf_counter
from typing import TYPE_CHECKING, Any, Iterator

from .catalogue import declare

if TYPE_CHECKING:  # pragma: no cover
    from .telemetry import Telemetry

__all__ = [
    "AttributionPlane",
    "StageCell",
    "STAGES",
    "ENGINE_LABEL",
    "prop_label",
    "stage_table",
]

#: The closed set of pipeline stages attribution decomposes into.
STAGES = ("dispatch", "tree-walk", "fsm-step", "gc", "emit-batch", "queue-wait")

#: Pseudo-property label carrying the engine-level batch remainder.
ENGINE_LABEL = "engine"

#: Sampler offset decorrelating the attribution tick from the per-slot
#: latency samplers (prime, far above any realistic slot count).
_SAMPLER_OFFSET = 7919


def prop_label(slot: int, spec_name: str, formalism: str) -> str:
    """The slot-stable attribution label for one property runtime."""
    return f"{slot}:{spec_name}/{formalism}"


class StageCell:
    """One (property, stage) tally: single-writer, pulled at snapshot."""

    __slots__ = ("seconds", "samples")

    def __init__(self) -> None:
        self.seconds = 0.0
        self.samples = 0

    def add(self, seconds: float) -> None:
        """Charge one sampled slice of wall time to this cell."""
        self.seconds += seconds
        self.samples += 1


class AttributionPlane:
    """Per-engine attribution state: the sampler, the cells, the scratch.

    One plane per engine (shard engines each build their own, so the
    ``active``/``charged`` scratch is only ever touched by that shard's
    worker).  Cells for the same label across planes pull into the same
    catalogue counter child, so inline shards sharing one registry
    aggregate exactly.

    The plane is itself the engine's first boundary observer: its
    ``before_event`` hook ticks the sampler and, on a sampled event, sets
    ``active`` until its ``after_event`` hook runs.  Runtime-level
    wrappers check ``active`` and, when set, run the timed decomposed
    path and add their elapsed time to ``charged``, so ``after_event``
    can charge the un-attributed remainder to ``emit-batch``.
    """

    __slots__ = (
        "interval", "sampler", "active", "charged", "_start", "_remainder",
        "_seconds", "_samples", "_cells",
    )

    def __init__(self, telemetry: "Telemetry") -> None:
        self.interval = telemetry.sample_interval
        self.sampler = telemetry.sampler(_SAMPLER_OFFSET)
        self.active = False
        self.charged = 0.0
        self._seconds = declare(telemetry.registry, "repro_prop_stage_seconds_total")
        self._samples = declare(telemetry.registry, "repro_prop_stage_samples_total")
        self._cells: dict[tuple[str, str], StageCell] = {}
        self._start = 0.0
        self._remainder = self.cell(ENGINE_LABEL, "emit-batch")

    def before_event(self, event: str, params: Any) -> None:
        """Boundary hook: start timing the event when the sampler picks it."""
        if self.sampler.sample():
            self.active = True
            self.charged = 0.0
            self._start = perf_counter()

    def after_event(self, event: str, params: Any) -> None:
        """Boundary hook: charge what no runtime charged to ``emit-batch``."""
        if self.active:
            self.active = False
            total = perf_counter() - self._start
            self._remainder.add(max(0.0, total - self.charged))

    def cell(self, label: str, stage: str) -> StageCell:
        """The (create-once) tally cell for one property label and stage."""
        if stage not in STAGES:
            raise ValueError(f"unknown attribution stage {stage!r}")
        key = (label, stage)
        cell = self._cells.get(key)
        if cell is None:
            cell = StageCell()
            self._seconds.labels(label, stage).add_pull(lambda c=cell: c.seconds)
            self._samples.labels(label, stage).add_pull(lambda c=cell: c.samples)
            self._cells[key] = cell
        return cell

    def cells(self) -> Iterator[tuple[str, str, StageCell]]:
        """Iterate ``(label, stage, cell)`` over every created cell."""
        for (label, stage), cell in self._cells.items():
            yield label, stage, cell


def stage_table(snapshot: dict[str, Any]) -> dict[str, dict[str, float]]:
    """Fold a registry snapshot into ``{property: {stage: seconds}}``.

    The read-side helper behind ``python -m repro.obs top``: accepts any
    snapshot (merged across shards and workers) and returns the
    attributed seconds per property and stage, plus a ``"total"`` key.
    """
    family = snapshot.get("repro_prop_stage_seconds_total")
    table: dict[str, dict[str, float]] = {}
    if not family:
        return table
    for labels, value in family.get("series", ()):
        label, stage = labels
        row = table.setdefault(label, {})
        row[stage] = row.get(stage, 0.0) + float(value)
        row["total"] = row.get("total", 0.0) + float(value)
    return table
