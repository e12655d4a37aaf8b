"""The sharded monitoring service: batched, multi-engine event ingestion.

Scales the single :class:`~repro.runtime.engine.MonitoringEngine` to N
engine shards behind one ``emit()`` interface, with anchor-parameter
routing (:mod:`repro.service.router`), shard workers behind bounded
queues with backpressure (:mod:`repro.service.process_backend`), and
merged verdict/statistics views
(:mod:`repro.service.aggregate`).  Verdict multisets are identical to a
single-engine run by construction.
"""

from .aggregate import VerdictLog, VerdictRecord, merge_stats
from .router import PropertyRoute, ShardRouter, choose_anchor, valid_anchors
from .service import (
    SERVICE_CHECKPOINT_FORMAT,
    SERVICE_CHECKPOINT_VERSION,
    MonitorService,
    ingest_symbolic,
)
from .supervisor import ShardSupervisor, supervise

__all__ = [
    "MonitorService",
    "ingest_symbolic",
    "ShardSupervisor",
    "supervise",
    "SERVICE_CHECKPOINT_FORMAT",
    "SERVICE_CHECKPOINT_VERSION",
    "ShardRouter",
    "PropertyRoute",
    "choose_anchor",
    "valid_anchors",
    "VerdictLog",
    "VerdictRecord",
    "merge_stats",
]
