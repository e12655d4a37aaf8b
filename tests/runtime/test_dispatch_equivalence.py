"""Generated dispatch kernels must equal the retained reference path.

The codegen kernels (slot tuples, DispatchPlan creation strategies, flat
FSM transition tables, all baked into generated source) re-implement the
exact semantics of the reference interpretation kept in
``PropertyRuntime._handle_reference``.  This suite drives *both* engines
in lockstep over randomized traces with parameter deaths — every property
in the library x every GC strategy x a seed corpus — and asserts the
robust observables are identical:

* the verdict multiset (category + parameter-object identities),
* E (events) and M (monitors created),
* handler fires (== goal verdicts, robust to GC timing).

Against reference, FM/CM are deliberately excluded: they measure *when*
lazy scans discover deaths, which legitimately depends on the number of
map operations each path performs (the kernels fuse lookups); soundness
of flagging is covered by tests/runtime/test_gc_soundness.py.  Codegen's
monitor *lifetimes* — FM, CM and the live-monitor peak
(:data:`LIFETIME_FIELDS`) — are instead pinned row by row to
``pinned_lifetimes.json``, recorded from the interpreted plan tier that
codegen replaced and matched op for op.  A change that moves a scan, or
holds a monitor one frame longer, shows up there.

The lockstep construction shares one set of parameter objects between the
two engines, so deaths (CPython refcount drops) hit both at the same
boundary and binding identities compare directly.
"""

from __future__ import annotations

import gc
import json
import random
import zlib
from collections import Counter
from pathlib import Path

import pytest

from repro.core.errors import UnsupportedFormalismError
from repro.properties import ALL_PROPERTIES
from repro.runtime.engine import MonitoringEngine
from repro.runtime.tracelog import replay_entries

from ..conftest import Obj

GC_STRATEGIES = ("none", "alldead", "coenable", "statebased")
EVENTS = 350
POOL = 4
KILL_PROBABILITY = 0.12
SEEDS = (1, 2)


def synth_ops(definition, seed: int):
    """A reproducible op list: emits over the alphabet + object kills.

    Pools are small so bindings collide (shared sub-instances exercise the
    defineTo and join creation paths); kills replace a pooled object so the
    name can be re-bound by a fresh identity later (exercising recreation
    and the disable-knowledge checks).
    """
    rng = random.Random(seed)
    alphabet = sorted(definition.alphabet)
    parameters = sorted(definition.parameters)
    ops: list[tuple] = []
    for _ in range(EVENTS):
        if parameters and rng.random() < KILL_PROBABILITY:
            param = rng.choice(parameters)
            ops.append(("kill", param, rng.randrange(POOL)))
        event = rng.choice(alphabet)
        ops.append(
            (
                "emit",
                event,
                {
                    param: rng.randrange(POOL)
                    for param in sorted(definition.params_of(event))
                },
            )
        )
    return ops


#: Every dispatch implementation the lockstep oracle covers; ``reference``
#: is the semantic anchor codegen must match exactly.
DISPATCHES = ("reference", "codegen")
#: Lifetime observables pinned per row (not compared against reference).
LIFETIME_FIELDS = ("monitors_flagged", "monitors_collected", "peak_live_monitors")
#: Recorded lifetimes per corpus, keyed ``property/gc/seed/spec/formalism``.
PINNED_LIFETIMES = json.loads(
    Path(__file__).with_name("pinned_lifetimes.json").read_text()
)
assert tuple(PINNED_LIFETIMES["fields"]) == LIFETIME_FIELDS


def lifetime_rows(engine, prefix: str) -> dict[str, list[int]]:
    """``engine``'s lifetime observables, keyed like the pinned table."""
    return {
        f"{prefix}/{name}/{formalism}": [getattr(stats, f) for f in LIFETIME_FIELDS]
        for (name, formalism), stats in engine.stats().items()
    }


def pinned_rows(corpus: str, prefix: str) -> dict[str, list[int]]:
    """The pinned rows of one corpus case (every spec/formalism under it)."""
    table = PINNED_LIFETIMES[corpus]
    return {key: table[key] for key in table if key.startswith(prefix + "/")}


def run_lockstep(spec_factory, ops, gc_kind: str, dispatches=DISPATCHES):
    """Run one engine per dispatch over the same objects/deaths.

    Returns ``(engines, verdict_bags)`` keyed by dispatch name; each bag
    counts verdicts keyed by property identity plus the *binding identity*
    of the firing monitor, so a stale or duplicated monitor shows up even
    when verdict totals happen to agree.
    """

    def collector(bag: Counter):
        def on_verdict(prop, category, monitor):
            bag[
                (
                    prop.spec_name,
                    prop.formalism,
                    category,
                    tuple(
                        sorted(
                            (name, id(value))
                            for name, value in monitor.binding().items()
                        )
                    ),
                )
            ] += 1

        return on_verdict

    engines: dict[str, MonitoringEngine] = {}
    verdicts: dict[str, Counter] = {}
    for dispatch in dispatches:
        bag: Counter = Counter()
        engines[dispatch] = MonitoringEngine(
            spec_factory(), gc=gc_kind, on_verdict=collector(bag),
            dispatch=dispatch,
        )
        verdicts[dispatch] = bag
    pools: dict[str, list[Obj]] = {}
    serial = 0
    for op in ops:
        if op[0] == "kill":
            _tag, param, slot = op
            pool = pools.get(param)
            if pool is not None:
                serial += 1
                pool[slot] = Obj(f"{param}#{serial}")  # the old object dies here
        else:
            _tag, event, binding = op
            values = {}
            for param, slot in binding.items():
                pool = pools.get(param)
                if pool is None:
                    pool = pools[param] = [Obj(f"{param}{n}") for n in range(POOL)]
                values[param] = pool[slot]
            for engine in engines.values():
                engine.emit(event, **values)
    pools.clear()
    gc.collect()
    for engine in engines.values():
        engine.flush_gc()
    return engines, verdicts


@pytest.mark.parametrize("gc_kind", GC_STRATEGIES)
@pytest.mark.parametrize("key", sorted(ALL_PROPERTIES))
def test_dispatches_equal_reference(key, gc_kind):
    """The lockstep oracle: codegen matches reference exactly, and the
    pinned table on monitor lifetimes."""
    paper_prop = ALL_PROPERTIES[key]
    spec = paper_prop.make().silence()
    try:
        MonitoringEngine(paper_prop.make().silence(), gc=gc_kind)
    except UnsupportedFormalismError:
        pytest.skip(f"{key} does not support the {gc_kind} strategy (CFG)")
    for seed in SEEDS:
        ops = synth_ops(spec.definition, seed=zlib.crc32(f"{key}/{seed}".encode()))
        engines, verdicts = run_lockstep(
            lambda: paper_prop.make().silence(), ops, gc_kind
        )
        reference = engines["reference"]
        assert verdicts["codegen"] == verdicts["reference"], (key, gc_kind, seed)
        for (name, formalism), stats in engines["codegen"].stats().items():
            other = reference.stats_for(name, formalism)
            for field in ("events", "monitors_created", "handler_fires", "verdicts"):
                assert getattr(stats, field) == getattr(other, field), (
                    key, gc_kind, seed, field,
                )
        prefix = f"{key}/{gc_kind}/{seed}"
        assert lifetime_rows(engines["codegen"], prefix) == pinned_rows(
            "lockstep", prefix
        ), (key, gc_kind, seed)


def test_only_codegen_and_reference_are_dispatch_tiers():
    from repro.properties import HASNEXT

    for dispatch in ("compiled", "interpreted", ""):
        with pytest.raises(ValueError, match="unknown dispatch"):
            MonitoringEngine(HASNEXT.make().silence(), dispatch=dispatch)


def test_recycled_id_does_not_extend_a_dead_monitors_life():
    """HasNext, one iterator at a time: ``hasnexttrue`` then ``next`` on a
    fresh object that is dropped right after.  CPython hands the next
    iterator the dead one's id; it must get a fresh ledger entry, and no
    kernel local may keep the dead key's leaf (and its monitor) alive, or
    the next creation counts two live monitors."""
    from repro.properties import HASNEXT

    peaks = {}
    engine = MonitoringEngine(HASNEXT.make().silence(), dispatch="codegen")
    for _ in range(20):
        it = Obj("i")
        engine.emit("hasnexttrue", i=it)
        engine.emit("next", i=it)
        del it
    for (_name, formalism), stats in engine.stats().items():
        peaks[formalism] = stats.peak_live_monitors
    assert peaks and set(peaks.values()) == {1}, peaks


def test_all_properties_together_codegen_vs_reference():
    """One engine pair hosting every property at once (cross-spec events)."""
    rng = random.Random(20110604)
    specs = [prop.make().silence() for prop in ALL_PROPERTIES.values()]
    domains: dict[str, frozenset] = {}
    for spec in specs:
        for event in spec.definition.alphabet:
            domains[event] = domains.get(event, frozenset()) | spec.definition.params_of(event)
    parameters = sorted({param for domain in domains.values() for param in domain})
    alphabet = sorted(domains)

    def collector(bag: Counter):
        def on_verdict(prop, category, monitor):
            bag[
                (
                    prop.spec_name,
                    prop.formalism,
                    category,
                    tuple(
                        sorted(
                            (name, id(value))
                            for name, value in monitor.binding().items()
                        )
                    ),
                )
            ] += 1

        return on_verdict

    got: Counter = Counter()
    want: Counter = Counter()
    codegen = MonitoringEngine(
        [prop.make().silence() for prop in ALL_PROPERTIES.values()],
        gc="coenable",
        on_verdict=collector(got),
        dispatch="codegen",
    )
    reference = MonitoringEngine(
        [prop.make().silence() for prop in ALL_PROPERTIES.values()],
        gc="coenable",
        on_verdict=collector(want),
        dispatch="reference",
    )
    pools = {param: [Obj(f"{param}{n}") for n in range(POOL)] for param in parameters}
    serial = 0
    for _ in range(600):
        if rng.random() < KILL_PROBABILITY:
            param = rng.choice(parameters)
            serial += 1
            pools[param][rng.randrange(POOL)] = Obj(f"{param}#{serial}")
        event = rng.choice(alphabet)
        values = {param: rng.choice(pools[param]) for param in domains[event]}
        codegen.emit(event, _strict=False, **values)
        reference.emit(event, _strict=False, **values)
    assert got == want
    for key, stats in codegen.stats().items():
        other = reference.stats_for(*key)
        assert stats.events == other.events, key
        assert stats.monitors_created == other.monitors_created, key


@pytest.mark.parametrize("key", ("hasnext", "unsafeiter", "unsafemapiter", "safeenum"))
def test_targeted_eager_equals_full_eager(key):
    """The targeted eager propagation (purge only affected trees/buckets,
    evict flagged monitors directly) must match the historical full-scan
    eager regime on every robust observable, including flag counts — both
    deliver every pending death notification at the same event boundary."""
    paper_prop = ALL_PROPERTIES[key]
    spec = paper_prop.make().silence()
    ops = synth_ops(spec.definition, seed=zlib.crc32(key.encode()) ^ 0xE46E5)

    def run(propagation):
        verdicts: Counter = Counter()
        engine = MonitoringEngine(
            paper_prop.make().silence(),
            gc="coenable",
            propagation=propagation,
            on_verdict=lambda prop, cat, mon: verdicts.update(
                [(cat, tuple(sorted(name for name, _ in mon.binding().items())))]
            ),
        )
        pools: dict[str, list[Obj]] = {}
        serial = 0
        for op in ops:
            if op[0] == "kill":
                _tag, param, slot = op
                if param in pools:
                    serial += 1
                    pools[param][slot] = Obj(f"{param}#{serial}")
            else:
                _tag, event, binding = op
                values = {}
                for param, slot in binding.items():
                    pool = pools.setdefault(
                        param, [Obj(f"{param}{n}") for n in range(POOL)]
                    )
                    values[param] = pool[slot]
                engine.emit(event, **values)
        pools.clear()
        gc.collect()
        engine.flush_gc()
        stats = next(iter(engine.stats().values()))
        return (
            verdicts,
            stats.events,
            stats.monitors_created,
            stats.monitors_flagged,
        )

    assert run("eager") == run("eager_full")


BATCH_FIELDS = ("events", "monitors_created", *LIFETIME_FIELDS)


class _AfterOnly:
    def after_event(self, event, params):
        pass


class _BeforeEvent(_AfterOnly):
    def before_event(self, event, params):
        pass


@pytest.mark.parametrize(
    "observer", [None, _AfterOnly, _BeforeEvent], ids=["none", "after", "before"]
)
@pytest.mark.parametrize("dispatch", DISPATCHES)
@pytest.mark.parametrize("propagation", ("lazy", "eager"))
def test_batched_replay_equals_per_event_replay(propagation, dispatch, observer):
    """emit_batch ingestion lands deaths at the same boundaries: the same
    verdict sequence, event and creation counts and monitor lifetimes
    for any batch size, under either propagation, on either tier, with or
    without event hooks.  The trace ends on a fresh ``create`` and an
    event no property declares (replay is non-strict): the created pair
    dies right before that event, so on an eager engine its boundary alone
    collects their monitor."""
    from repro.bench.workloads import WORKLOADS, record_workload_events
    from repro.properties import UNSAFEITER

    entries = record_workload_events(WORKLOADS["bloat"].scaled(0.05), [UNSAFEITER])
    entries += [("create", {"c": "c-last", "i": "i-last"}), ("nosuchevent", {})]

    def run(batch_size):
        verdicts: list = []
        engine = MonitoringEngine(
            UNSAFEITER.make().silence(),
            gc="coenable",
            propagation=propagation,
            dispatch=dispatch,
            on_verdict=lambda prop, cat, mon: verdicts.append(
                (cat, sorted((name, obj.symbol) for name, obj in mon.binding().items()))
            ),
        )
        if observer is not None:
            engine.add_observer(observer())
        replay_entries(
            entries, engine, retire_after_last_use=True, batch_size=batch_size
        )
        stats = engine.stats_for("UnsafeIter")
        return verdicts, [getattr(stats, field) for field in BATCH_FIELDS]

    baseline = run(None)
    assert baseline[0]
    for batch_size in (1, 7, 64, 100000):
        assert run(batch_size) == baseline, batch_size


def test_emit_batch_counts_and_strictness():
    from repro.core.errors import UnknownEventError
    from repro.properties import UNSAFEITER

    engine = MonitoringEngine(UNSAFEITER.make().silence(), gc="coenable")
    c, i = Obj("c"), Obj("i")
    accepted = engine.emit_batch(
        [("create", {"c": c, "i": i}), ("nosuch", {}), ("next", {"i": i})],
        _strict=False,
    )
    assert accepted == 2
    assert engine.stats_for("UnsafeIter").events == 2
    with pytest.raises(UnknownEventError):
        engine.emit_batch([("nosuch", {})])
