"""Thread-safe metric primitives and the registry that holds them.

This is the telemetry core of the observability plane: counters, gauges,
and fixed-bucket histograms grouped into labelled families inside a
:class:`MetricsRegistry`.  Design constraints, in order:

1. **Exactness under concurrency.**  Every child metric guards its state
   with its own ``threading.Lock`` — attribute ``+=`` is *not* atomic in
   CPython once callbacks or tracing are involved — so counters and
   histograms exercised from all shard worker threads merge exactly.
2. **Cheap when hot.**  Call sites cache the *child* metric (not the
   family), so the hot path is one lock acquire plus one add.  Latency
   timers are additionally gated by a deterministic 1-in-N
   :class:`Sampler` so the generated dispatch path stays within the CI
   perf gate.
3. **Boundary-safe.**  :meth:`MetricsRegistry.snapshot` emits plain
   JSON-safe dicts; :func:`merge_snapshots` folds snapshots from other
   threads or processes exactly; :func:`render_prometheus` turns any
   snapshot into Prometheus text exposition format.

Snapshot schema (one entry per family)::

    {name: {"kind": "counter"|"gauge"|"histogram",
            "help": str,
            "labels": [label_name, ...],
            "series": [[[label_value, ...], value], ...]}}

where ``value`` is a number for counters/gauges and, for histograms,
``{"bounds": [...], "counts": [...], "sum": s, "count": n}`` with
``counts`` holding *per-bucket* (non-cumulative) tallies and one final
overflow bucket beyond the last bound.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from typing import Any, Callable, Iterable, Mapping, Sequence

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "Sampler",
    "MetricFamily",
    "MetricsRegistry",
    "merge_snapshots",
    "render_prometheus",
    "LATENCY_BUCKETS",
    "SIZE_BUCKETS",
]

#: Default histogram bounds for durations in seconds (5 µs .. 5 s).
LATENCY_BUCKETS: tuple[float, ...] = (
    5e-6, 1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4,
    1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2, 5e-2,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0,
)

#: Default histogram bounds for cardinalities (batch sizes, queue depths).
SIZE_BUCKETS: tuple[float, ...] = (
    1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 4096,
)


class Counter:
    """Monotonically increasing count; ``inc`` is lock-exact.

    Hot single-writer call sites can avoid the per-event lock entirely
    with :meth:`add_pull`: the writer keeps its own monotonic tally (a
    plain int only it mutates) and registers a zero-argument reader.
    ``snapshot_value`` sums the pushed value with every pulled tally —
    exact whenever the writers are quiescent (post-drain snapshots, the
    case tests pin) and never torn otherwise, since a single-writer int
    read is atomic under the GIL.
    """

    __slots__ = ("value", "_lock", "_pulls")

    def __init__(self) -> None:
        self.value: float = 0
        self._lock = threading.Lock()
        self._pulls: list[Callable[[], float]] = []

    def inc(self, amount: float = 1) -> None:
        """Add ``amount`` (must be >= 0) to the counter."""
        with self._lock:
            self.value += amount

    def add_pull(self, fn: Callable[[], float]) -> None:
        """Register a monotonic single-writer tally folded in at snapshot."""
        with self._lock:
            self._pulls.append(fn)

    def snapshot_value(self) -> float:
        """The current count (pushed value plus every pulled tally)."""
        with self._lock:
            return self.value + sum(fn() for fn in self._pulls)


class Gauge:
    """A value that can go up and down (queue depths, live monitors)."""

    __slots__ = ("value", "_lock")

    def __init__(self) -> None:
        self.value: float = 0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        """Replace the level outright."""
        with self._lock:
            self.value = value

    def inc(self, amount: float = 1) -> None:
        """Raise the level by ``amount`` (default 1)."""
        with self._lock:
            self.value += amount

    def dec(self, amount: float = 1) -> None:
        """Lower the level by ``amount`` (default 1)."""
        with self._lock:
            self.value -= amount

    def snapshot_value(self) -> float:
        """The current level (plain number)."""
        with self._lock:
            return self.value


class Histogram:
    """Fixed-bucket histogram with an implicit overflow bucket.

    ``bounds`` are inclusive upper bounds in ascending order; a value
    lands in the first bucket whose bound is >= the value, or in the
    final overflow bucket.  Per-bucket counts are kept raw (not
    cumulative); exposition cumulates them.
    """

    __slots__ = ("bounds", "counts", "sum", "count", "_lock")

    def __init__(self, bounds: Sequence[float] = LATENCY_BUCKETS) -> None:
        self.bounds: tuple[float, ...] = tuple(float(b) for b in bounds)
        if list(self.bounds) != sorted(set(self.bounds)):
            raise ValueError("histogram bounds must be strictly ascending")
        self.counts: list[int] = [0] * (len(self.bounds) + 1)
        self.sum: float = 0.0
        self.count: int = 0
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        """Record one observation."""
        index = bisect_left(self.bounds, value)
        with self._lock:
            self.counts[index] += 1
            self.sum += value
            self.count += 1

    def snapshot_value(self) -> dict[str, Any]:
        """Raw bucket counts, sum, and count as a plain dict."""
        with self._lock:
            return {
                "bounds": list(self.bounds),
                "counts": list(self.counts),
                "sum": self.sum,
                "count": self.count,
            }


class Sampler:
    """Deterministic 1-in-N sampler for hot-path timers.

    Samples the calls where ``tick % interval == phase`` with ``tick``
    counting from 0, so with ``interval=1`` every call is sampled and
    with ``phase=0`` the very first call is.  The tick update is not
    locked: samplers are owned by a single property runtime, which the
    service drives from one worker thread, so single-owner use — the
    case the determinism suite pins — is exactly periodic.  Racy use
    only skews *which* calls get timed, never the metrics themselves.
    """

    __slots__ = ("interval", "phase", "_tick")

    def __init__(self, interval: int = 128, phase: int = 0) -> None:
        if interval < 1:
            raise ValueError("sampler interval must be >= 1")
        self.interval = int(interval)
        self.phase = int(phase) % self.interval
        self._tick = 0

    def sample(self) -> bool:
        """True on the sampled 1-in-N calls; advances the tick."""
        tick = self._tick
        self._tick = tick + 1
        return tick % self.interval == self.phase

    @property
    def ticks(self) -> int:
        """Exact number of ``sample`` calls so far — a free event count,
        usable as a :meth:`Counter.add_pull` source by the call site that
        drives the sampler."""
        return self._tick


_KINDS: dict[str, Callable[..., Any]] = {
    "counter": lambda bounds: Counter(),
    "gauge": lambda bounds: Gauge(),
    "histogram": lambda bounds: Histogram(bounds),
}


class MetricFamily:
    """All series of one metric name, keyed by label-value tuples."""

    __slots__ = ("name", "kind", "help", "label_names", "buckets", "_children", "_lock")

    def __init__(
        self,
        name: str,
        kind: str,
        help: str = "",
        label_names: Sequence[str] = (),
        buckets: Sequence[float] = LATENCY_BUCKETS,
    ) -> None:
        if kind not in _KINDS:
            raise ValueError(f"unknown metric kind {kind!r}")
        self.name = name
        self.kind = kind
        self.help = help
        self.label_names: tuple[str, ...] = tuple(label_names)
        self.buckets: tuple[float, ...] = tuple(float(b) for b in buckets)
        if kind == "histogram" and list(self.buckets) != sorted(set(self.buckets)):
            raise ValueError(f"{name}: histogram bounds must be strictly ascending")
        self._children: dict[tuple[str, ...], Any] = {}
        self._lock = threading.Lock()

    def labels(self, *values: str) -> Any:
        """The child metric for one label-value tuple (created on demand).

        Hot call sites should cache the returned child, not re-resolve it
        per event.
        """
        if len(values) != len(self.label_names):
            raise ValueError(
                f"{self.name}: expected {len(self.label_names)} label values, "
                f"got {len(values)}"
            )
        key = tuple(str(v) for v in values)
        child = self._children.get(key)
        if child is None:
            with self._lock:
                child = self._children.get(key)
                if child is None:
                    child = _KINDS[self.kind](self.buckets)
                    self._children[key] = child
        return child

    def snapshot(self) -> dict[str, Any]:
        """This family as one snapshot entry (see module docstring)."""
        with self._lock:
            items = list(self._children.items())
        return {
            "kind": self.kind,
            "help": self.help,
            "labels": list(self.label_names),
            "series": [[list(key), child.snapshot_value()] for key, child in sorted(items)],
        }


class MetricsRegistry:
    """A named collection of metric families.

    ``counter`` / ``gauge`` / ``histogram`` are idempotent declarations:
    re-declaring an existing name returns the existing family after
    checking that kind and labels agree.
    """

    def __init__(self) -> None:
        self._families: dict[str, MetricFamily] = {}
        self._lock = threading.Lock()

    def _declare(
        self,
        name: str,
        kind: str,
        help: str,
        labels: Sequence[str],
        buckets: Sequence[float],
    ) -> MetricFamily:
        with self._lock:
            family = self._families.get(name)
            if family is None:
                family = MetricFamily(name, kind, help, labels, buckets)
                self._families[name] = family
                return family
        if family.kind != kind or family.label_names != tuple(labels):
            raise ValueError(
                f"metric {name!r} re-declared with conflicting kind or labels"
            )
        return family

    def counter(self, name: str, help: str = "", labels: Sequence[str] = ()) -> MetricFamily:
        """Declare (or fetch) a counter family."""
        return self._declare(name, "counter", help, labels, ())

    def gauge(self, name: str, help: str = "", labels: Sequence[str] = ()) -> MetricFamily:
        """Declare (or fetch) a gauge family."""
        return self._declare(name, "gauge", help, labels, ())

    def histogram(
        self,
        name: str,
        help: str = "",
        labels: Sequence[str] = (),
        buckets: Sequence[float] = LATENCY_BUCKETS,
    ) -> MetricFamily:
        """Declare (or fetch) a fixed-bucket histogram family."""
        return self._declare(name, "histogram", help, labels, buckets)

    def family(self, name: str) -> MetricFamily | None:
        """The family registered under ``name``, or None."""
        with self._lock:
            return self._families.get(name)

    def snapshot(self) -> dict[str, Any]:
        """Every family as a plain JSON-safe dict, sorted by name."""
        with self._lock:
            families = sorted(self._families.items())
        return {name: family.snapshot() for name, family in families}


def _merge_series_value(kind: str, left: Any, right: Any) -> Any:
    if kind == "histogram":
        if left["bounds"] != right["bounds"]:
            raise ValueError("cannot merge histograms with different bounds")
        return {
            "bounds": list(left["bounds"]),
            "counts": [a + b for a, b in zip(left["counts"], right["counts"])],
            "sum": left["sum"] + right["sum"],
            "count": left["count"] + right["count"],
        }
    # Counters add exactly; gauges add too — service-level gauges are
    # per-shard levels (queue depth, live monitors) whose meaningful
    # aggregate is the sum.
    return left + right


def merge_snapshots(*snapshots: Mapping[str, Any]) -> dict[str, Any]:
    """Fold registry snapshots (threads, shards, worker processes) exactly.

    Counter and histogram series with the same name + label values add;
    gauges add as well (they represent per-shard levels whose aggregate
    is the sum).  Input snapshots are not mutated.
    """
    merged: dict[str, Any] = {}
    for snap in snapshots:
        for name, entry in snap.items():
            target = merged.get(name)
            if target is None:
                merged[name] = {
                    "kind": entry["kind"],
                    "help": entry["help"],
                    "labels": list(entry["labels"]),
                    "series": [[list(k), _copy_value(entry["kind"], v)] for k, v in entry["series"]],
                }
                continue
            if target["kind"] != entry["kind"] or target["labels"] != list(entry["labels"]):
                raise ValueError(f"snapshot conflict for metric {name!r}")
            index = {tuple(k): i for i, (k, _) in enumerate(target["series"])}
            for key, value in entry["series"]:
                pos = index.get(tuple(key))
                if pos is None:
                    target["series"].append([list(key), _copy_value(entry["kind"], value)])
                else:
                    target["series"][pos][1] = _merge_series_value(
                        entry["kind"], target["series"][pos][1], value
                    )
    for entry in merged.values():
        entry["series"].sort(key=lambda kv: kv[0])
    return merged


def _copy_value(kind: str, value: Any) -> Any:
    if kind == "histogram":
        return {
            "bounds": list(value["bounds"]),
            "counts": list(value["counts"]),
            "sum": value["sum"],
            "count": value["count"],
        }
    return value


def _escape_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _format_number(value: float) -> str:
    if value == float("inf"):
        return "+Inf"
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(value)


def _label_text(names: Iterable[str], values: Iterable[str], extra: str = "") -> str:
    pairs = [f'{n}="{_escape_label(str(v))}"' for n, v in zip(names, values)]
    if extra:
        pairs.append(extra)
    return "{" + ",".join(pairs) + "}" if pairs else ""


def render_prometheus(snapshot: Mapping[str, Any]) -> str:
    """Render a registry snapshot in Prometheus text exposition format.

    Histograms are emitted cumulatively with ``_bucket``/``_sum``/
    ``_count`` series and a trailing ``+Inf`` bucket, per the format
    spec; the output ends with a newline as the format requires.
    """
    lines: list[str] = []
    for name in sorted(snapshot):
        entry = snapshot[name]
        kind = entry["kind"]
        label_names = entry["labels"]
        lines.append(f"# HELP {name} {entry['help']}")
        lines.append(f"# TYPE {name} {kind}")
        for values, value in entry["series"]:
            if kind == "histogram":
                cumulative = 0
                for bound, bucket in zip(
                    list(value["bounds"]) + [float("inf")], value["counts"]
                ):
                    cumulative += bucket
                    extra = f'le="{_format_number(float(bound))}"'
                    lines.append(
                        f"{name}_bucket{_label_text(label_names, values, extra)} {cumulative}"
                    )
                lines.append(
                    f"{name}_sum{_label_text(label_names, values)} {_format_number(value['sum'])}"
                )
                lines.append(
                    f"{name}_count{_label_text(label_names, values)} {value['count']}"
                )
            else:
                lines.append(
                    f"{name}{_label_text(label_names, values)} {_format_number(value)}"
                )
    return "\n".join(lines) + "\n"
