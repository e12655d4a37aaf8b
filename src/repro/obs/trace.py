"""Structured spans across the service boundary, Perfetto-exportable.

A :class:`Tracer` is a bounded, thread-safe span buffer that the service
layer writes batch-scoped spans into: ``service.emit_batch`` on the
producer side, ``shard.drain`` inside each shard worker (queued workers,
thread or process, record into their own rebuilt tracer and ship the
buffer back over the existing snapshot channel), and
``service.verdict_merge`` where the merged verdict stream is stitched
together.  Spans from many buffers are folded with :func:`merge_spans`
— the span analogue of ``merge_snapshots``.

Two exports:

* **NDJSON** — one span dict per line (:func:`write_spans_ndjson`), the
  at-rest format ``python -m repro.obs trace export`` consumes;
* **Chrome trace-event JSON** (:func:`spans_to_chrome`) — complete
  ``ph="X"`` duration events loadable in Perfetto / ``chrome://tracing``,
  checked by :func:`validate_chrome_trace` before anything is written.

Span timestamps are wall-clock (``time.time``) so buffers recorded in
different processes on the same host line up on one timeline; durations
are measured with ``perf_counter``.
"""

from __future__ import annotations

import json
import os
import threading
import time
from collections import deque
from typing import IO, Any, Iterable, Mapping, Sequence

__all__ = [
    "Tracer",
    "merge_spans",
    "spans_to_chrome",
    "validate_chrome_trace",
    "write_spans_ndjson",
    "read_spans_ndjson",
]

#: Default bounded capacity of one tracer's span ring.
DEFAULT_TRACE_CAPACITY = 4096


class Tracer:
    """A bounded ring of structured spans, safe to record from any thread."""

    __slots__ = ("_spans", "_lock", "_counter")

    def __init__(self, capacity: int = DEFAULT_TRACE_CAPACITY, counter: Any = None) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self._spans: deque[dict[str, Any]] = deque(maxlen=int(capacity))
        self._lock = threading.Lock()
        self._counter = counter  # optional repro_trace_spans_total family

    def record(
        self,
        name: str,
        cat: str = "repro",
        *,
        start: float,
        duration: float,
        **args: Any,
    ) -> dict[str, Any]:
        """Record one completed span.

        ``start`` is wall-clock seconds (``time.time``), ``duration`` in
        seconds; both are stored in microseconds, the trace-event unit.
        """
        span = {
            "name": name,
            "cat": cat,
            "ts": start * 1e6,
            "dur": max(0.0, duration) * 1e6,
            "pid": os.getpid(),
            "tid": threading.get_ident() % 1_000_000,
            "args": args,
        }
        with self._lock:
            self._spans.append(span)
        if self._counter is not None:
            self._counter.labels(name).inc()
        return span

    def span(self, name: str, cat: str = "repro", **args: Any) -> "_SpanContext":
        """Context manager that times its body and records it on exit."""
        return _SpanContext(self, name, cat, args)

    def snapshot(self) -> list[dict[str, Any]]:
        """Point-in-time copy of the buffered spans (oldest first)."""
        with self._lock:
            return [dict(span) for span in self._spans]

    def __len__(self) -> int:
        with self._lock:
            return len(self._spans)


class _SpanContext:
    """The timing body behind :meth:`Tracer.span`."""

    __slots__ = ("_tracer", "_name", "_cat", "_args", "_wall", "_t0")

    def __init__(self, tracer: Tracer, name: str, cat: str, args: dict[str, Any]) -> None:
        self._tracer = tracer
        self._name = name
        self._cat = cat
        self._args = args

    def __enter__(self) -> "_SpanContext":
        self._wall = time.time()
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self._tracer.record(
            self._name,
            self._cat,
            start=self._wall,
            duration=time.perf_counter() - self._t0,
            **self._args,
        )


def merge_spans(*buffers: Iterable[Mapping[str, Any]]) -> list[dict[str, Any]]:
    """Stitch span buffers from many shards/processes onto one timeline.

    The span analogue of ``merge_snapshots``: wall-clock timestamps make
    buffers from forked workers directly comparable, so merging is a
    timestamp sort (ties broken by pid/tid for determinism).
    """
    merged = [dict(span) for buffer in buffers for span in buffer]
    merged.sort(key=lambda s: (s.get("ts", 0.0), s.get("pid", 0), s.get("tid", 0)))
    return merged


def spans_to_chrome(spans: Iterable[Mapping[str, Any]]) -> dict[str, Any]:
    """Render spans as a Chrome trace-event JSON object (Perfetto-loadable).

    Every span becomes a complete duration event (``ph="X"``).  The
    result is validated by :func:`validate_chrome_trace` before return,
    so a payload this function hands out is loadable by construction.
    """
    events = [
        {
            "name": str(span.get("name", "")),
            "cat": str(span.get("cat", "repro")),
            "ph": "X",
            "ts": float(span.get("ts", 0.0)),
            "dur": float(span.get("dur", 0.0)),
            "pid": int(span.get("pid", 0)),
            "tid": int(span.get("tid", 0)),
            "args": dict(span.get("args", {})),
        }
        for span in spans
    ]
    payload = {"traceEvents": events, "displayTimeUnit": "ms"}
    validate_chrome_trace(payload)
    return payload


def validate_chrome_trace(payload: Any) -> None:
    """Validate a Chrome trace-event payload; raise ``ValueError`` if bad.

    Checks the JSON-object container shape and, per event: required keys,
    ``ph`` in the set we emit, numeric non-negative ``ts``/``dur``,
    integer ``pid``/``tid``, and a mapping ``args``.  This is the schema
    gate the CI smoke step and the export CLI run before uploading.
    """
    if not isinstance(payload, Mapping):
        raise ValueError("trace payload must be a JSON object")
    events = payload.get("traceEvents")
    if not isinstance(events, Sequence) or isinstance(events, (str, bytes)):
        raise ValueError("traceEvents must be an array")
    for index, event in enumerate(events):
        where = f"traceEvents[{index}]"
        if not isinstance(event, Mapping):
            raise ValueError(f"{where}: not an object")
        for key in ("name", "ph", "ts", "pid", "tid"):
            if key not in event:
                raise ValueError(f"{where}: missing required key {key!r}")
        if event["ph"] not in ("X", "B", "E", "i", "M"):
            raise ValueError(f"{where}: unsupported phase {event['ph']!r}")
        for key in ("ts", "dur"):
            if key in event:
                value = event[key]
                if not isinstance(value, (int, float)) or isinstance(value, bool):
                    raise ValueError(f"{where}: {key} must be a number")
                if value < 0:
                    raise ValueError(f"{where}: {key} must be >= 0")
        for key in ("pid", "tid"):
            if not isinstance(event[key], int) or isinstance(event[key], bool):
                raise ValueError(f"{where}: {key} must be an integer")
        if "args" in event and not isinstance(event["args"], Mapping):
            raise ValueError(f"{where}: args must be an object")


def write_spans_ndjson(spans: Iterable[Mapping[str, Any]], target: "str | IO[str]") -> int:
    """Write spans one-per-line to a path or text stream; returns the count."""
    def _dump(stream: IO[str]) -> int:
        count = 0
        for span in spans:
            stream.write(json.dumps({"kind": "span", **span}, sort_keys=True) + "\n")
            count += 1
        return count

    if isinstance(target, str):
        with open(target, "w", encoding="utf-8") as stream:
            return _dump(stream)
    return _dump(target)


def read_spans_ndjson(source: "str | IO[str]") -> list[dict[str, Any]]:
    """Read spans written by :func:`write_spans_ndjson` (skips blank lines)."""
    def _load(stream: IO[str]) -> list[dict[str, Any]]:
        spans = []
        for line in stream:
            line = line.strip()
            if not line:
                continue
            record = json.loads(line)
            record.pop("kind", None)
            spans.append(record)
        return spans

    if isinstance(source, str):
        with open(source, "r", encoding="utf-8") as stream:
            return _load(stream)
    return _load(source)
