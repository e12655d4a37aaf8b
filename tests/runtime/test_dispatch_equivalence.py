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
from repro.properties import ALL_PROPERTIES, CATALOGUE
from repro.runtime.engine import MonitoringEngine
from repro.runtime.tracelog import replay_entries

from ..conftest import Obj

GC_STRATEGIES = ("none", "alldead", "coenable", "statebased")
EVENTS = 350
POOL = 4
KILL_PROBABILITY = 0.12
SEEDS = (1, 2)


def synth_ops(definition, seed: int, burst: int = 1):
    """A reproducible op list: emits over the alphabet + object kills.

    Pools are small so bindings collide (shared sub-instances exercise the
    defineTo and join creation paths); kills replace a pooled object so the
    name can be re-bound by a fresh identity later (exercising recreation
    and the disable-knowledge checks).  ``burst`` > 1 lets up to that many
    kills land before one event, so one boundary sees several deaths (the
    default draws exactly the historical sequence).
    """
    rng = random.Random(seed)
    alphabet = sorted(definition.alphabet)
    parameters = sorted(definition.parameters)
    ops: list[tuple] = []
    for _ in range(EVENTS):
        if parameters and rng.random() < KILL_PROBABILITY:
            param = rng.choice(parameters)
            ops.append(("kill", param, rng.randrange(POOL)))
            for _extra in range(burst - 1):
                if rng.random() < 0.5:
                    ops.append(("kill", rng.choice(parameters), rng.randrange(POOL)))
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


class _DeathLog:
    """Records every ``on_deaths`` payload, in boundary order."""

    def __init__(self):
        self.payloads = []

    def on_deaths(self, dead):
        self.payloads.append({name: sorted(serials) for name, serials in dead.items()})


def run_lockstep(spec_factory, ops, gc_kind: str, configs=None):
    """Run one engine per configuration over the same objects/deaths.

    ``configs`` maps a name to ``(propagation, dispatch)``; the default is
    one lazy engine per :data:`DISPATCHES` entry, named by its dispatch.
    Returns ``(engines, verdict_bags, death_logs, live)`` keyed by name:
    each bag counts verdicts keyed by property identity plus the *binding
    identity* of the firing monitor, so a stale or duplicated monitor
    shows up even when verdict totals happen to agree; each log holds the
    engine's ``on_deaths`` payloads; ``live`` lists the engine's
    live-monitor count after every event.
    """
    if configs is None:
        configs = {dispatch: ("lazy", dispatch) for dispatch in DISPATCHES}

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
    logs: dict[str, _DeathLog] = {}
    live: dict[str, list[int]] = {name: [] for name in configs}
    for name, (propagation, dispatch) in configs.items():
        bag: Counter = Counter()
        engines[name] = MonitoringEngine(
            spec_factory(), gc=gc_kind, propagation=propagation,
            on_verdict=collector(bag), dispatch=dispatch,
        )
        verdicts[name] = bag
        logs[name] = engines[name].add_observer(_DeathLog())
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
            for name, engine in engines.items():
                engine.emit(event, **values)
                live[name].append(engine.total_live_monitors())
    pools.clear()
    gc.collect()
    for engine in engines.values():
        engine.flush_gc()
    return engines, verdicts, logs, live


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
        engines, verdicts, _logs, _live = run_lockstep(
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


#: The eager oracle's engines: targeted eager on generated kernels (dead
#: entries' back-links, generated eviction), targeted eager on the
#: reference tier (``_TreeBase.purge``, ``_evict_flagged``), and the
#: full-scan ablation.
EAGER_CONFIGS = {
    "codegen": ("eager", "codegen"),
    "reference": ("eager", "reference"),
    "full": ("eager_full", "codegen"),
}
#: Per-property observables the three eager regimes must agree on.
EAGER_FIELDS = ("events", "monitors_created", *LIFETIME_FIELDS)


@pytest.mark.parametrize("key", sorted(CATALOGUE))
def test_targeted_eager_equals_full_eager(key):
    """The targeted eager propagation (back-links on generated kernels,
    the purge walk on the reference tier; flagged monitors evicted
    directly) must match the full-scan eager regime under every GC
    strategy, on the verdicts with their binding identities, E and M, and
    the monitor lifetimes FM, CM and the live peak: all three deliver
    every pending death notification at the same event boundary, and
    leave no flagged monitor behind it, so the live-monitor count after
    every event agrees too.  The two targeted engines also
    report the same ``on_deaths`` payloads (the full scan reports none).
    Kills come in bursts, so a boundary can see a key and a key below it
    die together."""
    paper_prop = CATALOGUE[key]
    spec = paper_prop.make().silence()
    ops = synth_ops(spec.definition, seed=zlib.crc32(key.encode()) ^ 0xE46E5, burst=3)
    checked = 0
    for gc_kind in GC_STRATEGIES:
        try:
            MonitoringEngine(paper_prop.make().silence(), gc=gc_kind)
        except UnsupportedFormalismError:
            continue
        engines, verdicts, logs, live = run_lockstep(
            lambda: paper_prop.make().silence(), ops, gc_kind, EAGER_CONFIGS
        )
        for name in ("reference", "full"):
            assert verdicts[name] == verdicts["codegen"], (key, gc_kind, name)
            assert live[name] == live["codegen"], (key, gc_kind, name)
            for prop_key, stats in engines["codegen"].stats().items():
                other = engines[name].stats_for(*prop_key)
                for field in EAGER_FIELDS:
                    assert getattr(other, field) == getattr(stats, field), (
                        key, gc_kind, name, prop_key, field,
                    )
        assert logs["codegen"].payloads == logs["reference"].payloads, (key, gc_kind)
        assert not logs["full"].payloads
        checked += 1
    assert checked


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
