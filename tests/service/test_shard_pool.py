"""The shard pool's transport contracts: queue bounds, message sizes and
the control protocol's handling of stale replies."""

from __future__ import annotations

import queue

import pytest

from repro.properties import ALL_PROPERTIES
from repro.service import MonitorService
from repro.service.process_backend import _DeliveryQueue

from ..conftest import Obj

MODES = ("thread", "process")


def _events(count: int) -> tuple:
    return ("ev", [("next", {"i": "o1"}, ())] * count, None, 0.0, False)


def test_thread_queue_is_bounded_in_deliveries():
    shard_queue = _DeliveryQueue(8)
    shard_queue.put_nowait(_events(5))
    assert shard_queue.qsize() == 5
    # Admitted while fewer than 8 deliveries are queued.
    shard_queue.put_nowait(_events(5))
    assert shard_queue.qsize() == 10
    with pytest.raises(queue.Full):
        shard_queue.put_nowait(("rt", ["o1"]))
    shard_queue.get_nowait()
    shard_queue.put_nowait(("rt", ["o1"]))  # any other message weighs one
    assert shard_queue.qsize() == 6
    shard_queue.get_nowait()
    shard_queue.get_nowait()
    assert shard_queue.qsize() == 0


@pytest.mark.parametrize("mode", MODES)
def test_a_large_emit_batch_dispatches_in_batch_size_pieces(mode):
    service = MonitorService(
        ALL_PROPERTIES["hasnext"].make().silence(),
        shards=1,
        mode=mode,
        batch_size=4,
        telemetry=True,
    )
    i = Obj("i")
    service.emit_batch([("next", {"i": i})] * 10)
    service.drain()
    snapshot = service.metrics_snapshot()
    service.close()
    (batches,) = [
        value
        for labels, value in snapshot["repro_service_drain_batch_seconds"]["series"]
        if tuple(labels) == ("0",)
    ]
    assert batches["count"] == 3  # 4 + 4 + 2
    del i


def test_a_stale_reply_never_answers_a_new_request():
    service = MonitorService(
        ALL_PROPERTIES["hasnext"].make().silence(), shards=1, mode="thread"
    )
    i = Obj("i")
    service.emit("next", i=i)
    service.drain()
    pool = service._pool
    # What an abandoned checkpoint request and a heartbeat that missed its
    # deadline leave behind: replies carrying older tokens.
    pool._resp_qs[0].put(("ck", 0, {"stale": True}, 99))
    pool._resp_qs[0].put(("hb", 0))
    snapshot, sent = pool.checkpoint_shard_counted(0)
    assert snapshot["format"] == "repro-engine-snapshot" and sent != 99
    assert sent == len(service.verdict_log)
    assert service.stats_for("HasNext", "fsm").events == 1
    service.close()
    del i
