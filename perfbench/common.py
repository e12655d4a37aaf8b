"""Shared machinery: calibrated timing, statistics, span tracing.

Calibration.  On a shared host the same Python code runs in one of two
speed regimes that hold for a fraction of a second to tens of seconds
before they flip; the slow one takes about twice as long for the
reference below, and the fast one itself drifts by 20% over minutes.  A
:class:`Timeline` therefore runs a fixed reference between timed
segments, and every segment remembers the reference before and after it;
``ratio = mean(before, after) / NOMINAL_REF_S``.  Code does not follow the
reference uniformly.  Within the fast regime (``ratio <= KNEE``) the
programs track it one to one or a little more (the asyncio app about
1.3x in log terms); across the jump to the slow regime the monitored
programs, whose heaps of small dicts and weakrefs miss the caches, slow
only about 1.6x when the reference slows 2x, the unwoven shim about 1.9x,
the unmonitored app pass (largely socket syscalls) about 1.4x.  So each
segment kind has a pair of exponents ``(fast, slow)``: a segment is
divided by ``ratio ** fast`` up to the knee and by
``KNEE ** fast * (ratio / KNEE) ** slow`` beyond it.  The exponents are
slopes of log segment time against log reference time, measured on a
2-core Linux/CPython 3.11 host (Intel Xeon, KVM) over runs in both
regimes and at both ends of the fast regime's drift.  They differ with
the kind of interference, so the slow branch is good to about 5%; a gated
metric therefore prefers windows that ran in the fast regime
(``Timeline.select``).  Raw seconds are kept next to the calibrated ones
and printed, never gated.

Tracing.  A :class:`Tracer` records spans (name, start, end, parent, run
id) in memory.  Calls that happen tens of thousands of times per window
(``engine.emit``, ``wal.append``, ``LiveSession.emit``) are folded into
per-name aggregates instead of one record per call; their inclusive time
still counts as child time of the span that was open, so self times stay
exact.
"""

from __future__ import annotations

import gc
import math
import random
import resource
import statistics
import weakref
from collections import Counter
from contextlib import nullcontext
from time import perf_counter
from typing import Any, Callable, Iterable

#: Calibrated seconds are expressed in fast-regime seconds: this is one
#: reference pass in the fast regime of the host above.
NOMINAL_REF_S = 0.0018
_REF_REPEATS = 3
_REF_OPS = 3000
#: A segment is steady when its two references differ by at most this
#: share (no regime flip happened while it ran), and fast when both are
#: within ``FAST_MARGIN`` of the run's ``FAST_QUANTILE`` reference reading.
STEADY_TOLERANCE = 0.15
#: The ratio between the fast regime (0.8-1.1) and the slow one (1.6-2.2).
KNEE = 1.3
FAST_QUANTILE = 0.1
FAST_MARGIN = 1.3
#: ``Timeline.select`` falls back a tier when fewer rows than this qualify.
MIN_SELECTED = 5


class _Node:
    __slots__ = ("key", "state", "children", "__weakref__")

    def __init__(self, key: int):
        self.key = key
        self.state = 0
        self.children: dict[int, _Node] = {}


_ops = [random.Random(20110604).randrange(64) for _ in range(_REF_OPS)]


def _reference_once() -> float:
    """One pass of a miniature monitor: a two-level index of small slotted
    objects stepped like an FSM, weakrefs and an id-keyed table; seconds."""
    root = _Node(-1)
    table: dict[int, int] = {}
    refs: list[weakref.ref] = []
    start = perf_counter()
    for key in _ops:
        obj = _Node(key)
        refs.append(weakref.ref(obj))
        child = root.children.get(key & 15)
        if child is None:
            child = root.children[key & 15] = _Node(key)
        child.state = (child.state * 5 + key) & 7
        table[id(obj)] = key
        if len(refs) > 128:
            refs = []
            table.clear()
    return perf_counter() - start


def reference() -> float:
    """The median of a few reference passes (seconds), with the cyclic
    collector off so the reading does not depend on the process's heap."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        return statistics.median(_reference_once() for _ in range(_REF_REPEATS))
    finally:
        if enabled:
            gc.enable()


class Segment:
    """One timed segment; ``before``/``after`` are its bracketing references."""

    __slots__ = ("raw", "exponent", "before", "after")

    def __init__(self, raw: float, exponent: tuple[float, float], before: float):
        self.raw = raw
        self.exponent = exponent
        self.before = before
        self.after = math.nan

    @property
    def ratio(self) -> float:
        """Host regime: mean bracketing reference over the nominal one."""
        return (self.before + self.after) / 2 / NOMINAL_REF_S

    @property
    def scale(self) -> float:
        """Factor from raw to calibrated seconds for this segment's kind."""
        fast, slow = self.exponent
        ratio = self.ratio
        if ratio <= KNEE:
            return ratio ** -fast
        return KNEE ** -fast * (ratio / KNEE) ** -slow

    @property
    def calibrated(self) -> float:
        return self.raw * self.scale

    @property
    def steady(self) -> bool:
        low, high = sorted((self.before, self.after))
        return high - low <= STEADY_TOLERANCE * low


class Timeline:
    """Timed segments interleaved with reference runs.

    ``exponents`` maps a segment kind to its ``(fast, slow)`` regime
    exponents (see the module docstring).  ``timed`` runs a callable and queues its segment;
    ``ref`` runs the reference and closes every queued segment.
    """

    def __init__(self, exponents: dict[str, tuple[float, float]],
                 tracer: "Tracer | None" = None):
        self.exponents = exponents
        self.tracer = tracer
        self.pending: list[Segment] = []
        self.readings: list[float] = []
        self.previous = self._reference()

    def _reference(self) -> float:
        if self.tracer is None:
            value = reference()
        else:
            with self.tracer.span("bench.calibration"):
                value = reference()
        self.readings.append(value)
        return value

    def timed(self, kind: str, fn: Callable[..., Any], *args: Any) -> tuple[Any, Segment]:
        start = perf_counter()
        result = fn(*args)
        return result, self.add(kind, perf_counter() - start)

    def add(self, kind: str, raw: float) -> Segment:
        """Queue a segment timed by the caller."""
        segment = Segment(raw, self.exponents[kind], self.previous)
        self.pending.append(segment)
        return segment

    def ref(self) -> None:
        """Close the queued segments."""
        current = self._reference()
        for segment in self.pending:
            segment.after = current
        self.pending = []
        self.previous = current

    @property
    def ratios(self) -> list[float]:
        """Every reference reading over the nominal one (1.0 = fast regime)."""
        return [reading / NOMINAL_REF_S for reading in self.readings]

    def select(self, rows: Iterable[tuple[Any, Iterable[Segment]]]) -> list[Any]:
        """The values of the rows whose segments are all steady and fast;
        failing ``MIN_SELECTED`` of those, all steady; failing that, all."""
        ordered = sorted(self.readings)
        limit = FAST_MARGIN * ordered[int(FAST_QUANTILE * (len(ordered) - 1))]
        rows = [(value, list(segments)) for value, segments in rows]
        steady = [(value, segments) for value, segments in rows
                  if all(s.steady for s in segments)]
        fast = [value for value, segments in steady
                if all(s.after <= limit and s.before <= limit for s in segments)]
        for tier in (fast, [value for value, _ in steady]):
            if len(tier) >= MIN_SELECTED:
                return tier
        return [value for value, _ in rows]


# -- statistics ---------------------------------------------------------------


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def percentile(values: list[float], fraction: float) -> float:
    """Nearest-rank percentile of ``values``."""
    ordered = sorted(values)
    rank = max(1, math.ceil(fraction * len(ordered)))
    return ordered[rank - 1]


def summarize(name: str, unit: str, values: list[float]) -> str:
    """One report line: median and quartiles over the windows."""
    q1, q2, q3 = quartiles(values)
    spread = (q3 - q1) / q2 if q2 else 0.0
    return (
        f"  {name:<24} median {q2:.6g} {unit}  q1 {q1:.6g}  q3 {q3:.6g}  "
        f"iqr/median {spread:.1%}  n={len(values)}"
    )


# -- tracing ------------------------------------------------------------------


class _Frame:
    __slots__ = ("name", "start", "child", "index")

    def __init__(self, name: str, start: float, index: int):
        self.name = name
        self.start = start
        self.child = 0.0
        self.index = index


class Tracer:
    """In-memory spans with exact self times; see the module docstring."""

    #: Aggregated calls also keep this many individual spans per name, so
    #: a Chrome-trace export still shows what a single call looks like.
    SAMPLED_CALLS = 64

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict[str, Any]] = []
        self._stack: list[_Frame] = []
        #: name -> [calls, inclusive seconds, self seconds]
        self.totals: dict[str, list[float]] = {}

    def _open(self, name: str, index: int) -> _Frame:
        frame = _Frame(name, perf_counter(), index)
        self._stack.append(frame)
        if index >= 0:
            self.spans[index]["start"] = frame.start
        return frame

    def _close(self, frame: _Frame) -> None:
        end = perf_counter()
        self._stack.pop()
        duration = end - frame.start
        if self._stack:
            self._stack[-1].child += duration
        total = self.totals.get(frame.name)
        if total is None:
            total = self.totals[frame.name] = [0, 0.0, 0.0]
        total[0] += 1
        total[1] += duration
        total[2] += duration - frame.child
        if frame.index >= 0:
            span = self.spans[frame.index]
            span["end"] = end
            span["self"] = duration - frame.child

    def _record(self, name: str) -> int:
        parent = self._stack[-1].index if self._stack else -1
        self.spans.append(
            {"name": name, "start": 0.0, "end": 0.0, "parent": parent,
             "run": self.run_id, "self": 0.0}
        )
        return len(self.spans) - 1

    def span(self, name: str) -> "_SpanContext":
        """A recorded span around a ``with`` block."""
        return _SpanContext(self, name)

    def wrap(self, owner: Any, attr: str, name: str) -> None:
        """Instance-wrap ``owner.attr`` as an aggregated layer call."""
        inner = getattr(owner, attr)
        tracer = self
        sampled = [0]

        def traced(*args: Any, **kwargs: Any) -> Any:
            if sampled[0] < tracer.SAMPLED_CALLS:
                sampled[0] += 1
                index = tracer._record(name)
            else:
                index = -1
            frame = tracer._open(name, index)
            try:
                return inner(*args, **kwargs)
            finally:
                tracer._close(frame)

        setattr(owner, attr, traced)

    def snapshot(self) -> dict[str, tuple[float, float, float]]:
        return {name: tuple(total) for name, total in self.totals.items()}

    def chrome(self) -> list[dict[str, Any]]:
        """Spans in the shape ``repro.obs.trace.spans_to_chrome`` takes."""
        if not self.spans:
            return []
        origin = min(span["start"] for span in self.spans)
        return [
            {
                "name": span["name"],
                "cat": span["name"].split(".", 1)[0],
                "ts": (span["start"] - origin) * 1e6,
                "dur": max(0.0, span["end"] - span["start"]) * 1e6,
                "args": {"run": span["run"], "parent": span["parent"],
                         "self_us": span["self"] * 1e6},
            }
            for span in self.spans
        ]


class _SpanContext:
    __slots__ = ("tracer", "name", "frame")

    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self) -> "_SpanContext":
        self.frame = self.tracer._open(self.name, self.tracer._record(self.name))
        return self

    def __exit__(self, *_exc: Any) -> None:
        self.tracer._close(self.frame)


def maybe_span(tracer: "Tracer | None", name: str) -> Any:
    """``tracer.span(name)``, or a no-op context when tracing is off."""
    return nullcontext() if tracer is None else tracer.span(name)


def measure(seconds: float, minimum: int, tracer: "Tracer | None",
            timeline: Timeline, make: Callable[[int, bool], Any],
            run_window: Callable[[Any, "Tracer | None"], None]) -> list[Any]:
    """Run windows for ``seconds`` and at least ``minimum`` of them.

    ``make(index, traced)`` builds a window; ``run_window(window, tracer)``
    fills it.  With a tracer every other window is traced (the rest give
    the untraced baseline of the tracing overhead), and a traced window
    records its wall time and the summed duration of its top-level spans.
    """
    windows = []
    deadline = perf_counter() + seconds
    while perf_counter() < deadline or len(windows) < minimum:
        traced = tracer is not None and len(windows) % 2 == 0
        window = make(len(windows), traced)
        timeline.tracer = tracer if traced else None
        first_span = len(tracer.spans) if traced else 0
        start = perf_counter()
        run_window(window, tracer if traced else None)
        window.wall = perf_counter() - start
        if traced:
            window.top_level = sum(
                span["end"] - span["start"]
                for span in tracer.spans[first_span:]
                if span["parent"] == -1
            )
        windows.append(window)
    return windows


def diff_totals(
    after: dict[str, tuple[float, float, float]],
    before: dict[str, tuple[float, float, float]],
) -> dict[str, tuple[float, float, float]]:
    """Per-name ``(calls, inclusive, self)`` accumulated between snapshots."""
    out = {}
    for name, (calls, inclusive, own) in after.items():
        b = before.get(name, (0, 0.0, 0.0))
        out[name] = (calls - b[0], inclusive - b[1], own - b[2])
    return out


def engine_totals(engine: Any) -> dict[str, int]:
    """Figure 10's E/M/FM/CM and Figure 9B's peak, summed over properties."""
    stats = engine.stats().values()
    return {
        "E": sum(s.events for s in stats),
        "M": sum(s.monitors_created for s in stats),
        "FM": sum(s.monitors_flagged for s in stats),
        "CM": sum(s.monitors_collected for s in stats),
        "peak": sum(s.peak_live_monitors for s in stats),
    }


def settle(engine: Any) -> None:
    """Collect garbage and let the engine see every death."""
    for _ in range(2):
        gc.collect()
        engine.flush_gc()


def rss_mb() -> float:
    """``ru_maxrss`` of this process in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def verdict_counter(verdicts: Counter) -> Callable[..., None]:
    """An ``on_verdict`` callback counting ``(spec, formalism, category)``."""

    def on_verdict(prop: Any, category: str, _monitor: Any) -> None:
        verdicts[(prop.spec_name, prop.formalism, category)] += 1

    return on_verdict
