"""Shard supervision: crash recovery, quarantine, shedding, health.

The acceptance property of the fault-tolerance plane: a supervised
service subjected to a seeded fault campaign yields the **same verdict
multiset** as an unfaulted single-engine run — restarts recover shard
state from checkpoint + journal suffix without creating, losing, or
duplicating a verdict, in thread and process mode alike.
"""

from __future__ import annotations

import random
import time
import zlib
from collections import Counter

import pytest

from repro.core.errors import ServiceError, SupervisionError
from repro.faults import FaultPlan, QuarantinePolicy
from repro.properties import ALL_PROPERTIES
from repro.runtime.engine import MonitoringEngine
from repro.service import MonitorService, ShardSupervisor, supervise

from ..conftest import Obj

POOL = 5
EVENTS = 400
MODES = ("thread", "process")


def synth_trace(definition, seed: int):
    rng = random.Random(seed)
    pools = {
        param: [Obj(f"{param}{n}") for n in range(POOL)]
        for param in definition.parameters
    }
    alphabet = sorted(definition.alphabet)
    trace = []
    for _ in range(EVENTS):
        event = rng.choice(alphabet)
        trace.append(
            (event, {p: rng.choice(pools[p]) for p in definition.params_of(event)})
        )
    return trace, pools


def single_engine_multiset(spec, trace) -> Counter:
    verdicts: Counter = Counter()

    def on_verdict(prop, category, monitor):
        verdicts[
            (
                prop.spec_name,
                prop.formalism,
                category,
                tuple(sorted((n, id(v)) for n, v in monitor.binding().items())),
            )
        ] += 1

    engine = MonitoringEngine(spec, system="rv", on_verdict=on_verdict)
    for event, params in trace:
        engine.emit(event, **params)
    return verdicts


def run_supervised(
    key, tmp_path, mode, plan, *, quarantine=None, options=None, shards=3
):
    paper = ALL_PROPERTIES[key]
    opts = {"checkpoint_interval": 48}
    opts.update(options or {})
    sup = supervise(
        paper.make().silence(),
        str(tmp_path / "sup"),
        plan=plan,
        quarantine=quarantine,
        shards=shards,
        system="rv",
        mode=mode,
        supervisor_options=opts,
    )
    return sup


@pytest.mark.parametrize("mode", MODES)
def test_crash_campaign_matches_single_engine(tmp_path, mode):
    key = "hasnext"
    paper = ALL_PROPERTIES[key]
    spec = paper.make().silence()
    trace, pools = synth_trace(spec.definition, seed=zlib.crc32(key.encode()))
    want = single_engine_multiset(spec, trace)

    plan = FaultPlan.crash_campaign(seed=11, shards=3, deliveries=EVENTS, crashes=3)
    # Routing hashes object identities, so which shard sees how many
    # deliveries varies run to run; a low-ordinal crash on every shard
    # guarantees at least one fires regardless of the spread.
    for shard in range(3):
        plan.add("crash", shard=shard, at=10)
    with run_supervised(key, tmp_path, mode, plan) as sup:
        for start in range(0, EVENTS, 37):
            sup.service.emit_batch(trace[start : start + 37])
        sup.drain()
        got = sup.service.verdict_multiset()
        restarts = sup.restarts()
        quarantined = sup.quarantined()
        shed = sup.shed_counts()
    assert got == want
    assert restarts >= 1, "the campaign never fired"
    assert quarantined == []
    assert shed == {"property": 0, "sampled": 0}


@pytest.mark.parametrize("mode", MODES)
def test_explicit_mid_stream_crash_recovers_from_checkpoint(tmp_path, mode):
    key = "unsafeiter"
    paper = ALL_PROPERTIES[key]
    spec = paper.make().silence()
    trace, pools = synth_trace(spec.definition, seed=7)
    want = single_engine_multiset(spec, trace)

    plan = FaultPlan()
    # Identity-hash routing spreads deliveries unpredictably across runs,
    # so arm the same mid-stream crash on every shard: whichever shard
    # reaches ordinal 60 dies there.
    for shard in range(3):
        plan.add("crash", shard=shard, at=60)
    with run_supervised(key, tmp_path, mode, plan) as sup:
        # Feed events until the busiest shard has ~30 deliveries (safely
        # before the crash ordinal), take a deterministic checkpoint
        # there, then pour in the rest — crashes fire past it.
        position = 0
        while max(s["deliveries"] for s in sup.health()["shards"]) < 30:
            sup.service.emit_batch(trace[position : position + 5])
            position += 5
        sup.drain()
        sup.checkpoint_now()
        checkpoints = [s["checkpoint"] for s in sup.health()["shards"]]
        sup.service.emit_batch(trace[position:])
        sup.drain()
        got = sup.service.verdict_multiset()
        health = sup.health()
    assert got == want
    restarted = [s for s in health["shards"] if s["restarts"]]
    assert restarted, "no shard reached the crash ordinal"
    for shard in restarted:
        assert shard["alive"] and shard["last_failure"] == "crash"
    # The checkpoint actually participated: every shard had one on disk
    # before any crash, so recovery replayed only the journal suffix.
    assert all(ckpt is not None for ckpt in checkpoints)
    assert max(ckpt["journal_seq"] for ckpt in checkpoints) > 0


@pytest.mark.parametrize("mode", MODES)
def test_poison_event_is_quarantined_with_provenance(tmp_path, mode):
    plan = FaultPlan()
    plan.add("poison", shard=0, at=10)
    key = "hasnext"
    paper = ALL_PROPERTIES[key]
    spec = paper.make().silence()
    trace, pools = synth_trace(spec.definition, seed=5)
    # One shard, so the poisoned ordinal is deterministic.
    with run_supervised(
        key, tmp_path, mode, plan, shards=1,
        quarantine=QuarantinePolicy(retries=2, backoff=0.001),
    ) as sup:
        sup.service.emit_batch(trace)
        sup.drain()
        records = sup.quarantined()
        health = sup.health()
    assert len(records) == 1
    record = records[0]
    assert record["shard"] == 0
    assert record["attempts"] == 3  # first try + two retries
    assert "InjectedPoison" in record["error"]
    assert record["event"] in spec.definition.alphabet
    assert record["position"] == 10
    assert health["quarantine"]["depth"] == 1
    # Monitoring continued: no shard died over the poison.
    assert all(shard["restarts"] == 0 for shard in health["shards"])


@pytest.mark.parametrize("mode", MODES)
def test_quarantine_record_carries_the_poison_dump(tmp_path, mode):
    plan = FaultPlan()
    plan.add("poison", shard=0, at=10)
    spec = ALL_PROPERTIES["hasnext"].make().silence()
    trace, pools = synth_trace(spec.definition, seed=5)
    sup = supervise(
        spec,
        str(tmp_path / "sup"),
        plan=plan,
        quarantine=QuarantinePolicy(retries=1, backoff=0.001),
        shards=1,
        system="rv",
        mode=mode,
        flight_recorder=True,
    )
    with sup:
        sup.service.emit_batch(trace)
        sup.drain()
        records = sup.quarantined()
    assert len(records) == 1
    dump = records[0]["dump"]
    assert dump["reason"] == "poison-event"
    assert dump["context"]["event"] == records[0]["event"]
    assert "InjectedPoison" in dump["context"]["error"]
    assert dump["entries"], "the dump holds the shard's recent history"


@pytest.mark.parametrize("mode", MODES)
def test_serialize_fault_quarantines_too(tmp_path, mode):
    plan = FaultPlan()
    plan.add("serialize", shard=0, at=5)
    with run_supervised(
        "hasnext", tmp_path, mode, plan, shards=1,
        quarantine=QuarantinePolicy(retries=1, backoff=0.001),
    ) as sup:
        spec = ALL_PROPERTIES["hasnext"].make().silence()
        trace, pools = synth_trace(spec.definition, seed=9)
        sup.service.emit_batch(trace)
        sup.drain()
        records = sup.quarantined()
    assert len(records) == 1
    assert "serialize" in records[0]["error"]


@pytest.mark.parametrize("mode", MODES)
def test_queue_stall_fault_only_delays(tmp_path, mode):
    """A queue-delay fault slows a put but loses nothing."""
    plan = FaultPlan()
    plan.add("queue", shard=0, at=2, duration=0.05)
    key = "hasnext"
    spec = ALL_PROPERTIES[key].make().silence()
    trace, pools = synth_trace(spec.definition, seed=3)
    want = single_engine_multiset(spec, trace)
    with run_supervised(key, tmp_path, mode, plan, shards=1) as sup:
        for start in range(0, EVENTS, 50):
            sup.service.emit_batch(trace[start : start + 50])
        sup.drain()
        got = sup.service.verdict_multiset()
    assert got == want
    assert not plan.armed(kind="queue")


@pytest.mark.parametrize("mode", MODES)
def test_stall_past_ipc_deadline_then_checkpoint_and_crash(tmp_path, mode):
    """A worker stalled past ``ipc_deadline`` with work queued behind it:
    a process is killed and restarted, a thread is reported hung until it
    drains again.  Either way a later checkpoint and crash recovery keep
    the verdicts exact."""
    key = "hasnext"
    spec = ALL_PROPERTIES[key].make().silence()
    trace, pools = synth_trace(spec.definition, seed=17)
    want = single_engine_multiset(spec, trace)
    plan = FaultPlan()
    plan.add("stall", shard=0, at=10, duration=1.0)
    plan.add("crash", shard=0, at=300)
    # No checkpoint falls due during the stall: its round trip would
    # block the emitting thread until the worker drains again.
    options = {"ipc_deadline": 0.2, "poll_interval": 0.02, "checkpoint_interval": 100}
    with run_supervised(key, tmp_path, mode, plan, shards=1, options=options) as sup:
        sup.service.emit_batch(trace[:20])
        time.sleep(0.1)  # the worker is inside the stall now
        for start in range(20, 60, 5):
            sup.service.emit_batch(trace[start : start + 5])
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline:
            shard = sup.health()["shards"][0]
            if shard["hung" if mode == "thread" else "restarts"]:
                break
            time.sleep(0.02)
        detected = sup.health()["shards"][0]
        sup.drain()
        sup.checkpoint_now()
        for start in range(60, EVENTS, 37):
            sup.service.emit_batch(trace[start : start + 37])
        sup.drain()
        got = sup.service.verdict_multiset()
        health = sup.health()["shards"][0]
    assert got == want
    assert health["last_failure"] == "crash" and not health["hung"]
    if mode == "thread":
        assert detected["hung"] and detected["restarts"] == 0
        assert health["restarts"] == 1
    else:
        assert detected["restarts"] == 1 and detected["last_failure"] == "hang"
        assert health["restarts"] == 2


def test_restart_budget_exhaustion_is_fatal(tmp_path):
    """A shard that keeps dying eventually fails the whole service."""
    plan = FaultPlan()
    for at in (2, 3, 4, 5):
        plan.add("crash", shard=0, at=at)
    paper = ALL_PROPERTIES["hasnext"]
    sup = supervise(
        paper.make().silence(),
        str(tmp_path / "sup"),
        plan=plan,
        shards=1,
        system="rv",
        mode="thread",
        supervisor_options={
            "restart_budget": 2,
            "restart_backoff": 0.001,
            "start": False,  # drive restarts explicitly, no health thread
        },
    )
    spec = paper.make().silence()
    trace, pools = synth_trace(spec.definition, seed=1)
    # Budget exhaustion surfaces as SupervisionError from ensure_healthy,
    # or as the service-level failure on the next emit — whichever the
    # caller hits first (both are ServiceError).
    with pytest.raises(ServiceError):
        for event, params in trace:
            sup.service.emit_batch([(event, params)])
            sup.ensure_healthy()
    assert sup.health()["fatal"] is not None
    # close() re-raises the stored failure so unattended callers see it.
    with pytest.raises(ServiceError):
        sup.service.close()


def test_supervisor_rejects_inline_mode(tmp_path):
    service = MonitorService(
        ALL_PROPERTIES["hasnext"].make().silence(), shards=2, mode="inline"
    )
    with pytest.raises(SupervisionError):
        ShardSupervisor(service, str(tmp_path / "sup"))
    service.close()


def test_health_snapshot_shape(tmp_path):
    with run_supervised("hasnext", tmp_path, "thread", None) as sup:
        i = Obj("i")
        sup.service.emit("next", i=i)
        sup.drain()
        health = sup.health()
        del i
    assert health["mode"] == "thread"
    assert len(health["shards"]) == 3
    for shard in health["shards"]:
        assert shard["alive"] is True
        assert shard["restarts"] == 0
        assert shard["queue_capacity"] > 0
        assert shard["journal_error"] is None
    assert health["quarantine"]["depth"] == 0
    assert health["shed"] == {"level": 0, "counts": {"property": 0, "sampled": 0}}


def test_shed_ladder_escalates_and_deescalates(tmp_path):
    """Drive the shed ladder directly: level 1 drops only events declared
    solely by sheddable properties; level 2 samples; de-escalation
    restores everything. Counts are exact."""
    paper = ALL_PROPERTIES["hasnext"]
    service = MonitorService(
        paper.make().silence(), shards=2, system="rv", mode="thread"
    )
    # Every property of the spec is sheddable, so every event it declares
    # may be dropped whole at level 1.
    all_indexes = [
        index for index, prop in enumerate(service.properties) if prop is not None
    ]
    sup = ShardSupervisor(
        service,
        str(tmp_path / "sup"),
        sheddable=all_indexes,
        start=False,
    )
    i1 = Obj("i1")
    try:
        service.emit("next", i=i1)
        sup._escalate_shed()  # -> property shedding
        assert sup.shed_level == 1
        for _ in range(5):
            service.emit("next", i=i1)
        assert sup.shed_counts()["property"] == 5
        sup._escalate_shed()  # -> sampled shedding on top
        assert sup.shed_level == 2
        sup._deescalate_shed()
        assert sup.shed_level == 0
        service.emit("next", i=i1)
        sup.drain()
        # Exactly the unshed events reached the shards.
        assert service.stats_for("HasNext", "fsm").events == 2
        health = sup.health()
        assert health["shed"]["counts"]["property"] == 5
    finally:
        sup.close()
        del i1


@pytest.mark.parametrize("mode", MODES)
def test_restart_metrics_are_recorded(tmp_path, mode):
    plan = FaultPlan()
    # On every shard: identity-hash routing means any single shard may be
    # starved of deliveries in a given run, but never all of them.
    plan.add("crash", shard=0, at=20)
    plan.add("crash", shard=1, at=20)
    paper = ALL_PROPERTIES["hasnext"]
    sup = supervise(
        paper.make().silence(),
        str(tmp_path / "sup"),
        plan=plan,
        shards=2,
        system="rv",
        mode=mode,
        telemetry=True,
        supervisor_options={"checkpoint_interval": 16},
    )
    spec = paper.make().silence()
    trace, pools = synth_trace(spec.definition, seed=13)
    with sup:
        sup.service.emit_batch(trace)
        sup.drain()
        snapshot = sup.service.metrics_snapshot()
        restarts = sup.restarts()
    assert restarts >= 1
    total = sum(
        value
        for _key, value in snapshot["repro_shard_restarts_total"]["series"]
    )
    assert total == restarts
    alive = {
        tuple(key): value
        for key, value in snapshot["repro_shard_alive"]["series"]
    }
    assert all(value == 1 for value in alive.values())
