"""A segmented write-ahead tracelog (WAL) for parametric event streams.

Layered on the symbolic trace format of :mod:`repro.runtime.tracelog`: one
JSON line per event, parameters named by symbolic ref IDs from one
:class:`~repro.runtime.refs.SymbolRegistry`.  On top of the plain recorder
the WAL adds what crash recovery needs:

* **global sequence numbers** — every entry carries ``seq``; recovery
  replays exactly the entries after a checkpoint's sequence;
* **segment rotation** — ``wal-<n>.log`` files of bounded entry count, so
  retention is bounded and segments fully covered by a checkpoint can be
  pruned;
* **fsync points** — the file is flushed+fsynced every ``fsync_interval``
  appends and at every :meth:`sync`; a crash loses at most the tail after
  the last fsync point;
* **torn-tail tolerance** — a crash can leave a truncated last line; the
  reader stops at the first undecodable line of the final segment instead
  of failing (mid-log corruption, by contrast, raises).

Event and delivery records are encoded without ``json.dumps``: the writer
caches, per ``(event, parameter names in order)``, the encoded
``,"e":<event>,"p":{`` head and one ``"<name>":`` key per parameter, and
joins them with the C string escaper of :mod:`json.encoder`; an event's
symbols come already quoted from the registry, once per object.  The bytes
on disk are exactly what ``json.dumps(entry, separators=(",", ":"))``
writes.

The WAL records *events*, not object deaths — the caveat documented by
:mod:`repro.runtime.tracelog` applies to recovery replays as well.
"""

from __future__ import annotations

import json
import os
import re
from json.encoder import encode_basestring_ascii as _quote
from time import perf_counter
from typing import Any, Iterator, Mapping, Sequence

from ..core.errors import PersistError, WalWriteError
from ..obs.catalogue import declare as _declare_metric
from ..obs.telemetry import as_telemetry
from ..runtime.refs import SymbolRegistry

__all__ = [
    "WAL_VERSION",
    "WalWriter",
    "read_wal",
    "iter_wal",
    "iter_wal_records",
    "wal_segments",
    "repair_tail",
]

WAL_VERSION = 1

_SEGMENT_RE = re.compile(r"^wal-(\d{8})\.log$")


def _segment_name(index: int) -> str:
    return f"wal-{index:08d}.log"


def wal_segments(directory: str) -> list[tuple[int, str]]:
    """Sorted ``(segment index, path)`` pairs of the WAL segments in
    ``directory``."""
    segments = []
    try:
        names = os.listdir(directory)
    except FileNotFoundError:
        return []
    for name in names:
        match = _SEGMENT_RE.match(name)
        if match:
            segments.append((int(match.group(1)), os.path.join(directory, name)))
    segments.sort()
    return segments


class WalWriter:
    """Append parametric events durably; rotate; prune behind checkpoints.

    ``registry`` supplies the symbolic ref IDs — share it with the
    checkpoint codec (see :class:`repro.persist.recovery.DurableEngine`)
    so snapshots and log entries name objects consistently.
    """

    def __init__(
        self,
        directory: str,
        registry: SymbolRegistry | None = None,
        *,
        segment_events: int = 10_000,
        fsync_interval: int = 256,
        start_seq: int = 0,
        telemetry: Any = None,
        on_write_error: "Any | None" = None,
        fault_hook: "Any | None" = None,
        _repaired: bool = False,
    ):
        if segment_events < 1:
            raise PersistError("segment_events must be >= 1")
        if fsync_interval < 1:
            raise PersistError("fsync_interval must be >= 1")
        #: Set once any I/O failed; the writer refuses further appends.
        self.failed = False
        #: Supervisor-visible failure signal: called with the
        #: :class:`~repro.core.errors.WalWriteError` before it is raised.
        self.on_write_error = on_write_error
        #: Deterministic fault injection point: called with the operation
        #: name ("append" / "rotate" / "sync") before the real I/O.
        self._fault_hook = fault_hook
        os.makedirs(directory, exist_ok=True)
        # A previous crash may have left a torn trailing line in the last
        # segment.  Readers tolerate it only while that segment is last —
        # this writer is about to open a new one, so cut the tear off now
        # or every future read of the directory would fail on it (recovery,
        # which has just read the whole log, cuts it itself: ``_repaired``).
        if not _repaired:
            repair_tail(directory)
        self.directory = directory
        self.registry = registry if registry is not None else SymbolRegistry()
        self.segment_events = segment_events
        self.fsync_interval = fsync_interval
        self.seq = start_seq
        self._since_fsync = 0
        self._segment_entries = 0
        self.fsyncs = 0
        existing = wal_segments(directory)
        self._segment_index = existing[-1][0] + 1 if existing else 1
        #: first_seq per written segment index (prune decisions).
        self._first_seqs: dict[int, int] = {}
        self._handle = None
        #: (event, *parameter names) -> (encoded head, encoded name keys).
        self._heads: dict[tuple, tuple[str, list[str]]] = {}
        self._open_segment()
        self.telemetry = as_telemetry(telemetry)
        if self.telemetry is not None:
            self._wire_telemetry(self.telemetry)

    @property
    def segment_index(self) -> int:
        """Index of the segment currently being written (provenance)."""
        return self._segment_index

    def _wire_telemetry(self, telemetry: Any) -> None:
        """Interpose append/fsync/rotation instrumentation (off by default).

        Appends get an exact counter plus a 1-in-N sampled latency
        histogram (they sit on the durable ingest hot path); fsyncs and
        rotations are rare boundary operations and are timed unsampled.
        """
        registry = telemetry.registry
        appends = _declare_metric(registry, "repro_wal_appends_total").labels()
        append_time = _declare_metric(registry, "repro_wal_append_seconds").labels()
        fsync_time = _declare_metric(registry, "repro_wal_fsync_seconds").labels()
        rotate_time = _declare_metric(registry, "repro_wal_rotation_seconds").labels()
        sampler = telemetry.sampler()
        inner_append = self.append
        inner_sync = self.sync
        inner_rotate = self._rotate

        def append(event: str, params: Mapping[str, Any]) -> int:
            appends.inc()
            if not sampler.sample():
                return inner_append(event, params)
            start = perf_counter()
            try:
                return inner_append(event, params)
            finally:
                append_time.observe(perf_counter() - start)

        def sync() -> None:
            start = perf_counter()
            try:
                inner_sync()
            finally:
                fsync_time.observe(perf_counter() - start)

        def _rotate() -> None:
            start = perf_counter()
            try:
                inner_rotate()
            finally:
                rotate_time.observe(perf_counter() - start)

        self.append = append  # type: ignore[method-assign]
        self.sync = sync  # type: ignore[method-assign]
        self._rotate = _rotate  # type: ignore[method-assign]

    # -- the observer side ---------------------------------------------------

    def attach(self, engine: Any) -> "WalWriter":
        """Register on an engine's boundary observer list (like a
        TraceRecorder): every event is appended before dispatch."""
        engine.add_observer(self)
        return self

    def before_event(self, event: str, params: Mapping[str, Any]) -> None:
        # ``append`` is looked up per call: telemetry and tracers wrap it
        # on the instance.
        self.append(event, params)

    def _write_failed(self, op: str, exc: OSError) -> None:
        """Convert an ``OSError`` into the typed, supervisor-visible failure.

        Marks the writer failed (further appends refuse immediately — a
        half-written log must not keep growing past the failure point),
        notifies :attr:`on_write_error`, and raises
        :class:`~repro.core.errors.WalWriteError` carrying the errno.
        """
        self.failed = True
        error = WalWriteError(
            f"WAL {op} failed in {self.directory}: {exc}",
            errno=getattr(exc, "errno", None),
        )
        callback = self.on_write_error
        if callback is not None:
            try:
                callback(error)
            except Exception:  # pragma: no cover - observer must not mask
                pass
        raise error from exc

    def _write_line(self, line: str, op: str) -> None:
        try:
            # The injection point sits inside the conversion so a
            # simulated ENOSPC takes the exact path a real one does.
            if self._fault_hook is not None:
                self._fault_hook(op)
            self._handle.write(line)
        except OSError as exc:
            self._write_failed(op, exc)
        self._segment_entries += 1

    def _write_record(self, entry: dict) -> None:
        self._write_line(json.dumps(entry, separators=(",", ":")) + "\n", "append")

    def _next_seq(self, op: str) -> int:
        """Refuse on a closed or failed writer, rotate a full segment, and
        return the sequence number the next record takes."""
        if self._handle is None:
            raise PersistError(f"{op} on a closed WalWriter")
        if self.failed:
            raise WalWriteError(
                f"{op} on a failed WalWriter in {self.directory}"
            )
        if self._segment_entries >= self.segment_events:
            self._rotate()
        return self.seq + 1

    def _commit(self, seq: int) -> int:
        # The sequence counter commits only after the write lands: a
        # failed append must not consume a number, or the replacement
        # writer seeded from ``seq`` would leave a permanent gap that
        # poisons every future recovery read of the directory.
        self.seq = seq
        self._since_fsync += 1
        if self._since_fsync >= self.fsync_interval:
            self.sync()
        return seq

    def _event_line(
        self, seq: int, event: str, names: Any, quoted: Any, end: str
    ) -> str:
        """``{"q":<seq>,"e":<event>,"p":{<name:symbol,...>`` + ``end``, the
        bytes ``json.dumps`` writes for those keys, from the cached head and
        the symbols already quoted as JSON strings."""
        head = self._heads.get((event, *names))
        if head is None:
            head = self._heads[(event, *names)] = (
                ',"e":' + _quote(event) + ',"p":{',
                [_quote(name) + ":" for name in names],
            )
        return (
            '{"q":' + str(seq) + head[0]
            + ",".join([key + symbol for key, symbol in zip(head[1], quoted)])
            + end
        )

    def append(self, event: str, params: Mapping[str, Any]) -> int:
        """Durably record one parametric event; returns its sequence number."""
        seq = self._next_seq("append")
        quoted = map(self.registry.quoted_symbol, params.values())
        line = self._event_line(seq, event, params, quoted, "}}\n")
        self._write_line(line, "append")
        return self._commit(seq)

    def append_delivery(
        self, event: str, symbols: Mapping[str, str], plan: Any
    ) -> int:
        """Record one routed shard delivery for supervised crash recovery.

        ``symbols`` is the already-symbolized parameter binding and
        ``plan`` a JSON-safe encoding of the router's per-shard delivery
        plan — recovery replays the plan verbatim, bypassing the router,
        whose sticky state has moved on since the original routing.
        """
        seq = self._next_seq("append_delivery")
        end = '},"d":' + json.dumps(plan, separators=(",", ":")) + "}\n"
        quoted = map(_quote, symbols.values())
        line = self._event_line(seq, event, symbols, quoted, end)
        self._write_line(line, "append")
        return self._commit(seq)

    def append_deaths(self, symbols: "Sequence[str] | list[str]") -> int:
        """Record a batch of parameter deaths (retire broadcast) in order.

        Death positions matter for recovery exactness: a replayed shard
        must drop its tokens between the same two deliveries the live
        worker did, because verdict bindings omit dead parameters.
        """
        seq = self._next_seq("append_deaths")
        self._write_record({"q": seq, "x": list(symbols)})
        return self._commit(seq)

    def append_registry_op(self, op: Mapping[str, Any]) -> int:
        """Durably record one property-registry operation in stream order.

        Registry ops (property add / remove / enable / disable) take a
        sequence number like events do, so recovery replays them at
        exactly the trace position they originally happened; they are
        fsynced immediately — a lost registry op would silently change the
        meaning of every event after it.
        """
        seq = self._next_seq("append_registry_op")
        self._write_record({"q": seq, "r": dict(op)})
        self.seq = seq
        self.sync()
        return seq

    def sync(self) -> None:
        """An explicit fsync point: everything appended so far is durable."""
        if self._handle is None:
            return
        try:
            if self._fault_hook is not None:
                self._fault_hook("sync")
            self._handle.flush()
            os.fsync(self._handle.fileno())
        except OSError as exc:
            self._write_failed("sync", exc)
        self._since_fsync = 0
        self.fsyncs += 1

    def close(self) -> None:
        if self._handle is not None:
            self.sync()
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "WalWriter":
        return self

    def __exit__(self, *_exc: Any) -> None:
        self.close()

    # -- segments ------------------------------------------------------------

    def _open_segment(self) -> None:
        index = self._segment_index
        path = os.path.join(self.directory, _segment_name(index))
        try:
            self._handle = open(path, "a", encoding="utf-8")
            if self._handle.tell() == 0:
                header = {
                    "wal": WAL_VERSION, "segment": index, "first_seq": self.seq + 1,
                }
                self._handle.write(json.dumps(header, separators=(",", ":")) + "\n")
        except OSError as exc:
            self._write_failed("rotate", exc)
        self._first_seqs[index] = self.seq + 1
        self._segment_entries = 0

    def _rotate(self) -> None:
        try:
            if self._fault_hook is not None:
                self._fault_hook("rotate")
        except OSError as exc:
            self._write_failed("rotate", exc)
        self.sync()
        self._handle.close()
        self._segment_index += 1
        self._open_segment()

    def prune(self, checkpoint_seq: int) -> list[str]:
        """Remove segments fully covered by a checkpoint at
        ``checkpoint_seq``; returns the removed paths.

        A segment is removable when a *later* segment starts at or before
        ``checkpoint_seq + 1`` — every entry recovery could need lives in
        the later segments.
        """
        segments = wal_segments(self.directory)
        removed = []
        for position, (index, path) in enumerate(segments[:-1]):
            next_index, next_path = segments[position + 1]
            next_first = self._first_seqs.get(next_index)
            if next_first is None:
                next_first = self._first_seq_of(next_path)
            if next_first is not None and next_first <= checkpoint_seq + 1:
                os.remove(path)
                removed.append(path)
                self._first_seqs.pop(index, None)
            else:
                break
        return removed

    @staticmethod
    def _first_seq_of(path: str) -> int | None:
        try:
            with open(path, encoding="utf-8") as handle:
                header = json.loads(handle.readline())
            return int(header["first_seq"])
        except (OSError, ValueError, KeyError, TypeError):
            return None


def repair_tail(directory: str) -> int:
    """Truncate a torn trailing line off the *last* WAL segment.

    Keeps **exactly** what :func:`iter_wal` would replay — a final line
    that decodes to a complete record counts even without its trailing
    newline (the crash hit between the payload and the ``\\n``); it is
    kept and the newline is restored.  Anything else past the last intact
    record is cut.  Returns how many bytes were removed.  Idempotent;
    called by :class:`WalWriter` before it opens a fresh segment on an
    existing directory, because readers only tolerate a torn tail while
    its segment is still the last one.
    """
    segments = wal_segments(directory)
    if not segments:
        return 0
    tail: list = []
    for _record in _scan_segment(segments[-1][1], True, tail):
        pass
    return _cut_tail(*tail)


def _cut_tail(path: str, intact: int, missing_newline: bool) -> int:
    """Cut ``path`` back to its ``intact`` prefix (restoring a lost final
    newline) and fsync it; returns how many bytes were removed."""
    size = os.path.getsize(path)
    if intact < size or missing_newline:
        with open(path, "r+b") as handle:
            handle.truncate(intact)
            if missing_newline:
                handle.seek(0, os.SEEK_END)
                handle.write(b"\n")
            handle.flush()
            os.fsync(handle.fileno())
    return size - intact


def read_wal(
    directory: str, after_seq: int = 0
) -> list[tuple[str, dict[str, str]]]:
    """Entries with ``seq > after_seq``, ordered — the replay suffix.

    Tolerates a torn tail (truncated/corrupt trailing line of the *last*
    segment: the crash case); corruption anywhere else raises
    :class:`~repro.core.errors.PersistError`.
    """
    return [entry for _seq, entry in iter_wal(directory, after_seq)]


def iter_wal(
    directory: str, after_seq: int = 0
) -> Iterator[tuple[int, tuple[str, dict[str, str]]]]:
    """Like :func:`read_wal` but yielding ``(seq, (event, params))``.

    Registry-op records are skipped (their sequence numbers still
    participate in the gap check); use :func:`iter_wal_records` to see the
    full interleaved stream.
    """
    for seq, kind, payload in iter_wal_records(directory, after_seq):
        if kind == "event":
            yield seq, payload


def iter_wal_records(
    directory: str, after_seq: int = 0
) -> Iterator[tuple[int, str, Any]]:
    """The full WAL stream: ``(seq, kind, payload)`` triples in order.

    ``kind`` is ``"event"`` (payload ``(event, {param: symbol})``),
    ``"registry"`` (payload: the registry-op dict recorded by
    :meth:`WalWriter.append_registry_op`), ``"delivery"`` (payload
    ``(event, {param: symbol}, encoded plan)`` from
    :meth:`WalWriter.append_delivery` — the shard supervisor's journal
    records), or ``"deaths"`` (payload: the symbol list recorded by
    :meth:`WalWriter.append_deaths`).  Recovery consumes this form so
    property adds/removes — and supervised replays' retire points —
    replay at exactly the trace positions they originally happened.
    """
    return _records(directory, after_seq)


def _records(
    directory: str, after_seq: int = 0, tail: "list | None" = None
) -> Iterator[tuple[int, str, Any]]:
    """:func:`iter_wal_records`; once the stream is exhausted, ``tail``
    (when given) holds the :func:`_cut_tail` arguments of the last
    segment, so recovery repairs it without decoding it a second time."""
    segments = wal_segments(directory)
    expected = None
    for position, (_index, path) in enumerate(segments, 1):
        # Only the last segment may end torn — its header too, since
        # rotation writes it buffered: that reads as an empty tail segment.
        last = position == len(segments)
        scan = _scan_segment(path, last, tail if last else None)
        for line_number, seq, kind, payload in scan:
            if kind == "header":
                if payload != WAL_VERSION:
                    raise PersistError(f"{path}: unsupported WAL version {payload!r}")
                continue
            if expected is not None and seq != expected:
                raise PersistError(
                    f"{path}:{line_number}: sequence gap (got {seq}, "
                    f"expected {expected})"
                )
            expected = seq + 1
            if seq > after_seq:
                yield seq, kind, payload


def _scan_segment(
    path: str, tolerate: bool, tail: "list | None" = None
) -> Iterator[tuple[int, Any, str, Any]]:
    """Decode each line of one segment once: ``(line number, seq, kind,
    payload)``, the first line as kind ``"header"`` with its WAL version.

    A line that is not a complete record raises
    :class:`~repro.core.errors.PersistError`, or — with ``tolerate``, for
    the last segment, whose tail a crash may have torn — ends the scan.
    ``tail`` (optional) then receives ``[path, intact byte length, whether
    the last intact line lacks its newline]``.
    """
    intact, newline = 0, True
    with open(path, "rb") as handle:
        for line_number, line in enumerate(handle, 1):
            try:
                entry = json.loads(line)
            except ValueError:
                if tolerate:
                    break
                raise PersistError(f"{path}:{line_number}: corrupt WAL line") from None
            try:
                if line_number == 1:
                    record = (None, "header", entry["wal"])
                elif "r" in entry:
                    record = (entry["q"], "registry", entry["r"])
                elif "x" in entry:
                    record = (entry["q"], "deaths", entry["x"])
                elif "d" in entry:
                    payload = (entry["e"], entry["p"], entry["d"])
                    record = (entry["q"], "delivery", payload)
                else:
                    record = (entry["q"], "event", (entry["e"], entry["p"]))
            except (KeyError, TypeError):
                if tolerate:
                    break
                raise PersistError(f"{path}:{line_number}: malformed entry") from None
            intact += len(line)
            newline = line.endswith(b"\n")
            yield (line_number, *record)
    if tail is not None:
        tail[:] = [path, intact, not newline]
