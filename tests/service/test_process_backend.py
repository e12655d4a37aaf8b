"""Process shard backend: the determinism suite, across a real fork.

Mirrors ``test_determinism``'s acceptance property for ``mode="process"``:
for every library property, a 4-process service over a synthesized trace
yields the same verdict multiset and the same exact event/creation
accounting as a single in-process engine — routing, serialized delivery,
token materialization, retire propagation, and verdict return must never
create, lose, or duplicate anything.  Plus lifecycle (idempotent close,
context manager, worker teardown) and checkpoint/migration paths.
"""

from __future__ import annotations

import random
import zlib
from collections import Counter

import pytest

from repro.core.errors import ServiceError
from repro.properties import ALL_PROPERTIES
from repro.runtime.engine import MonitoringEngine
from repro.service import MonitorService, ingest_symbolic

from ..conftest import Obj

POOL = 5
EVENTS = 400


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


@pytest.mark.parametrize("key", sorted(ALL_PROPERTIES))
def test_process_backend_matches_single_engine(key):
    paper_prop = ALL_PROPERTIES[key]
    spec = paper_prop.make().silence()
    trace, pools = synth_trace(spec.definition, seed=zlib.crc32(key.encode()))
    want = single_engine_multiset(spec, trace)

    engine = MonitoringEngine(paper_prop.make().silence(), system="rv")
    for event, params in trace:
        engine.emit(event, **params)

    with MonitorService(
        paper_prop.make().silence(), shards=4, system="rv", mode="process"
    ) as service:
        service.emit_batch(trace)
        service.drain()
        got = service.verdict_multiset()
        stats = service.stats()
    assert got == want
    for (name, formalism), merged in stats.items():
        single = engine.stats_for(name, formalism)
        assert merged.events == single.events, (name, formalism)
        assert merged.monitors_created == single.monitors_created, (name, formalism)


def test_backend_keyword_is_a_mode_alias():
    with MonitorService(
        ALL_PROPERTIES["hasnext"].make().silence(), shards=2, backend="process"
    ) as service:
        assert service.mode == "process"
        i = Obj("i")
        service.emit("next", i=i)
        service.drain()
        assert service.stats_for("HasNext", "fsm").events == 1
        del i


def test_stats_survive_close_and_double_close():
    paper_prop = ALL_PROPERTIES["unsafeiter"]
    service = MonitorService(paper_prop.make().silence(), shards=2, mode="process")
    c, i = Obj("c"), Obj("i")
    service.emit("create", c=c, i=i)
    service.emit("update", c=c)
    service.close()
    service.close()  # idempotent
    stats = service.stats_for("UnsafeIter")
    assert stats.events == 2
    # create<c,i> plus the fresh {c}-slice opened by update<c> (update* prefix).
    assert stats.monitors_created == 2
    with pytest.raises(ServiceError):
        service.emit("update", c=c)
    del c, i


def test_workers_are_reaped_on_close():
    service = MonitorService(
        ALL_PROPERTIES["unsafeiter"].make().silence(), shards=3, mode="process"
    )
    procs = list(service._pool._workers)
    assert all(p.is_alive() for p in procs)
    service.close()
    assert all(not p.is_alive() for p in procs)


def test_context_manager_reaps_workers():
    with MonitorService(
        ALL_PROPERTIES["unsafeiter"].make().silence(), shards=2, mode="process"
    ) as service:
        procs = list(service._pool._workers)
    assert all(not p.is_alive() for p in procs)


def test_retire_propagation_drives_worker_gc():
    """Dropping a parent object must reach the workers and collect monitors."""
    paper_prop = ALL_PROPERTIES["unsafeiter"]
    with MonitorService(
        paper_prop.make().silence(), shards=2, gc="coenable", mode="process"
    ) as service:
        c = Obj("c")
        iterators = [Obj(f"i{n}") for n in range(8)]
        for index in range(len(iterators)):
            service.emit("create", c=c, i=iterators[index])
        service.drain()
        del iterators  # all iterators die; coenable flags their monitors
        import gc as _gc

        _gc.collect()
        service.emit("update", c=c)  # flush pending retires, tick the shards
        service.drain()
        stats = service.stats_for("UnsafeIter")
        assert stats.monitors_created >= 8
        service.close()
        # All 8 iterator monitors became unnecessary (their i died; the
        # coenable check needs a future next<i>) and were collected by the
        # workers' end-of-run flush; the {c}-slice monitor survives.
        final = service.stats_for("UnsafeIter")
        assert final.monitors_collected == 8
        del c


def test_per_shard_stats_keep_shape_after_close():
    paper_prop = ALL_PROPERTIES["hasnext"]
    service = MonitorService(paper_prop.make().silence(), shards=3, mode="process")
    i = Obj("i")
    service.emit("next", i=i)
    service.close()
    per_shard = service.per_shard_stats()
    assert len(per_shard) == 3  # one entry per shard, even after close
    assert sum(s.events for shard in per_shard for s in shard.values()) == 2
    del i


def test_immortal_binding_values_resolve_like_thread_mode():
    """Non-weakrefable parameters (ints, strings) must come back as the
    live values in verdict bindings, not as their 'v:...' symbol text."""
    paper_prop = ALL_PROPERTIES["hasnext"]
    records = []
    with MonitorService(
        paper_prop.make().silence(),
        shards=2,
        system="rv",
        mode="process",
        on_verdict=records.append,
    ) as service:
        service.emit("next", i=42)  # immortal parameter: next before hasnexttrue
        service.drain()
    assert records, "expected a verdict from next-without-hasnext"
    assert any(dict(record.binding).get("i") == 42 for record in records)


def test_drain_after_migration_still_waits_for_new_verdicts():
    """A restarted worker counts verdicts from zero; drain() must still
    wait for verdicts it produces after the migration."""
    paper_prop = ALL_PROPERTIES["hasnext"]
    iterators = [Obj(f"i{n}") for n in range(6)]
    round_one = [("next", {"i": iterators[n]}) for n in range(6)]
    round_two = [("hasnexttrue", {"i": iterators[n]}) for n in range(6)] + round_one

    # Reference: the same two rounds with no migration, inline.
    with MonitorService(
        paper_prop.make().silence(), shards=2, system="rv", mode="inline"
    ) as reference:
        reference.emit_batch(round_one + round_two)
        expected = len(reference.verdicts())

    records = []
    with MonitorService(
        paper_prop.make().silence(),
        shards=2,
        system="rv",
        mode="process",
        on_verdict=records.append,
    ) as service:
        service.emit_batch(round_one)
        service.drain()
        before = len(records)
        assert before > 0
        for shard in range(2):
            service.restart_shard(shard)
        service.emit_batch(round_two)
        service.drain()
        # The happens-before edge: every post-restart verdict is already
        # delivered when drain() returns, despite the counter reset.
        assert len(records) == expected
    del iterators


def test_on_verdict_exception_surfaces_instead_of_hanging():
    """A raising user callback must not kill the verdict drainer: the
    failure surfaces at the next drain, and close still completes."""
    paper_prop = ALL_PROPERTIES["hasnext"]

    def explode(_record):
        raise RuntimeError("callback boom")

    service = MonitorService(
        paper_prop.make().silence(),
        shards=2,
        system="rv",
        mode="process",
        on_verdict=explode,
    )
    i = Obj("i")
    service.emit("next", i=i)  # produces a verdict -> callback raises
    with pytest.raises(ServiceError, match="boom"):
        service.drain()
    with pytest.raises(ServiceError):
        service.close()
    del i


def test_shard_migration_preserves_run():
    """checkpoint → terminate → restore a worker mid-stream, seamlessly."""
    paper_prop = ALL_PROPERTIES["hasnext"]
    spec = paper_prop.make().silence()
    trace, pools = synth_trace(spec.definition, seed=411)
    want = single_engine_multiset(spec, trace)
    with MonitorService(
        paper_prop.make().silence(), shards=4, system="rv", mode="process"
    ) as service:
        service.emit_batch(trace[:200])
        for shard in range(4):
            service.restart_shard(shard)
        service.emit_batch(trace[200:])
        service.drain()
        assert service.verdict_multiset() == want


def test_process_checkpoint_restores_into_inline():
    """A process-mode checkpoint is mode-portable: restore inline."""
    paper_prop = ALL_PROPERTIES["unsafeiter"]
    spec = paper_prop.make().silence()
    trace, pools = synth_trace(spec.definition, seed=20110604)
    want = single_engine_multiset(spec, trace)

    got: Counter = Counter()

    def collect(record):
        got[record.key()] += 1

    service = MonitorService(
        paper_prop.make().silence(),
        shards=4,
        system="rv",
        mode="process",
        keep_verdict_log=False,
        on_verdict=collect,
    )
    service.emit_batch(trace[:200])
    checkpoint = service.checkpoint()
    service.close()

    restored = MonitorService.restore(
        checkpoint,
        paper_prop.make().silence(),
        mode="inline",
        keep_verdict_log=False,
        on_verdict=collect,
    )
    # The prefix's objects live on in the parent; map them to their
    # restored stand-ins through the symbol the service minted for them.
    remap = {
        id(service._registry.resolve(symbol)): token
        for symbol, token in restored.restored_tokens.items()
        if service._registry.resolve(symbol) is not None
    }
    for event, params in trace[200:]:
        restored.emit(
            event, **{n: remap.get(id(v), v) for n, v in params.items()}
        )
    restored.close()
    # Compare category totals: binding identities necessarily differ
    # between the original objects and their restored stand-ins.
    assert Counter(k[2] for k in got) == Counter(k[2] for k in want)
    rows = {k: s for k, s in restored.stats().items()}
    engine = MonitoringEngine(paper_prop.make().silence(), system="rv")
    for event, params in trace:
        engine.emit(event, **params)
    for (name, formalism), merged in rows.items():
        assert merged.events == engine.stats_for(name, formalism).events
