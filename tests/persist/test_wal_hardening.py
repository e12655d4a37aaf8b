"""WAL write-failure hardening: typed errors, failure latch, writer rebuild.

The supervisor's journal survives ENOSPC/EACCES by treating a write
failure as a *recovery point*: the failed writer latches shut (a
half-written log must never keep growing past the failure), the
supervisor hears about it through ``on_write_error``, and a replacement
writer picks up the directory's segment numbering and sequence stream so
readers never see a gap.
"""

from __future__ import annotations

import errno

import pytest

from repro.core.errors import PersistError, WalWriteError
from repro.persist import WalWriter, wal_segments
from repro.persist.wal import iter_wal_records

from ..conftest import Obj


def _hook_failing_on(call: int, op: str = "append"):
    """A fault hook raising ``ENOSPC`` on the n-th occurrence of ``op``."""
    seen = {"n": 0}

    def hook(operation: str) -> None:
        if operation != op:
            return
        seen["n"] += 1
        if seen["n"] == call:
            raise OSError(errno.ENOSPC, "No space left on device")

    return hook


class TestTypedFailure:
    def test_append_failure_raises_wal_write_error_with_errno(self, tmp_path):
        writer = WalWriter(str(tmp_path), fault_hook=_hook_failing_on(2))
        writer.append_delivery("e0", {"p": "o:0"}, [[0], None, None, []])
        with pytest.raises(WalWriteError) as exc_info:
            writer.append_delivery("e1", {"p": "o:1"}, [[0], None, None, []])
        assert exc_info.value.errno == errno.ENOSPC
        assert isinstance(exc_info.value, PersistError)  # one except clause
        assert writer.failed is True

    def test_event_append_failure_consumes_no_sequence(self, tmp_path):
        writer = WalWriter(str(tmp_path), fault_hook=_hook_failing_on(2))
        first, second = Obj("first"), Obj("second")
        assert writer.append("e0", {"p": first}) == 1
        with pytest.raises(WalWriteError) as exc_info:
            writer.append("e1", {"p": second})
        assert exc_info.value.errno == errno.ENOSPC
        assert writer.seq == 1
        assert writer.failed is True
        with pytest.raises(WalWriteError):
            writer.append("e2", {"p": first})
        writer.close()
        _index, path = wal_segments(str(tmp_path))[-1]
        with open(path, encoding="utf-8") as handle:
            events = handle.read().splitlines()[1:]
        assert events == ['{"q":1,"e":"e0","p":{"p":"o1"}}']

    def test_failed_writer_latches_shut(self, tmp_path):
        writer = WalWriter(str(tmp_path), fault_hook=_hook_failing_on(1))
        with pytest.raises(WalWriteError):
            writer.append_delivery("e0", {}, None)
        # Every further append refuses immediately — no dead-device retry
        # loop, no record written past the failure point.
        with pytest.raises(WalWriteError):
            writer.append_delivery("e1", {}, None)
        with pytest.raises(WalWriteError):
            writer.append_deaths(["o:0"])
        suffix = list(iter_wal_records(str(tmp_path)))
        assert suffix == []

    def test_sync_failure_is_typed_too(self, tmp_path):
        writer = WalWriter(str(tmp_path), fault_hook=_hook_failing_on(1, "sync"))
        writer.append_delivery("e0", {}, None)
        with pytest.raises(WalWriteError) as exc_info:
            writer.sync()
        assert exc_info.value.errno == errno.ENOSPC
        assert writer.failed is True


class TestObserver:
    def test_on_write_error_fires_before_raise(self, tmp_path):
        heard: list[WalWriteError] = []
        writer = WalWriter(
            str(tmp_path),
            fault_hook=_hook_failing_on(1),
            on_write_error=heard.append,
        )
        with pytest.raises(WalWriteError) as exc_info:
            writer.append_delivery("e0", {}, None)
        assert heard == [exc_info.value]

    def test_observer_exceptions_never_mask_the_failure(self, tmp_path):
        def bad_observer(error):
            raise RuntimeError("observer bug")

        writer = WalWriter(
            str(tmp_path),
            fault_hook=_hook_failing_on(1),
            on_write_error=bad_observer,
        )
        with pytest.raises(WalWriteError):
            writer.append_delivery("e0", {}, None)


class TestWriterRebuild:
    def test_replacement_continues_segments_and_sequence(self, tmp_path):
        directory = str(tmp_path)
        writer = WalWriter(directory, fault_hook=_hook_failing_on(4))
        for n in range(3):
            writer.append_delivery(f"e{n}", {"p": f"o:{n}"}, None)
        with pytest.raises(WalWriteError):
            writer.append_delivery("e3", {"p": "o:3"}, None)
        old_seq = writer.seq
        writer.close()

        # The supervisor's recovery move: a fresh writer over the same
        # directory, seeded with the failed writer's sequence counter.
        replacement = WalWriter(directory, start_seq=old_seq)
        assert replacement.segment_index > 1  # numbering continues
        replacement.append_delivery("e3", {"p": "o:3"}, None)
        replacement.append_delivery("e4", {"p": "o:4"}, None)
        replacement.close()

        records = [
            (seq, payload[0])
            for seq, kind, payload in iter_wal_records(directory)
            if kind == "delivery"
        ]
        # The failed append consumed no sequence number, so the stream is
        # gapless across the writer swap — recovery reads never reject it.
        assert [seq for seq, _event in records] == [1, 2, 3, 4, 5]
        assert [event for _seq, event in records] == ["e0", "e1", "e2", "e3", "e4"]
        assert len(wal_segments(directory)) == 2

    def test_rebuild_without_start_seq_would_gap(self, tmp_path):
        # The contract the supervisor relies on, stated negatively: a
        # replacement writer NOT seeded with the old counter restarts at
        # seq 1 and the reader rejects the directory as corrupt.
        directory = str(tmp_path)
        writer = WalWriter(directory)
        writer.append_delivery("e0", {}, None)
        writer.append_delivery("e1", {}, None)
        writer.close()
        naive = WalWriter(directory)  # start_seq defaults to 0
        naive.append_delivery("e2", {}, None)
        naive.close()
        with pytest.raises(PersistError):
            list(iter_wal_records(directory))
