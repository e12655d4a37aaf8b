"""Kernel-cache correctness across the hot property lifecycle.

The codegen dispatch path compiles one generated module per property
*fingerprint* and shares it process-wide
(``repro.spec.codegen.shared_kernel_cache``).  The contract this suite
pins down:

* equal fingerprints yield byte-identical generated source, so a cache
  hit is always safe — a second engine, a second shard, or a hot
  re-attach reuses the compiled code objects while binding fresh
  per-runtime state;
* distinct fingerprints (different properties, changed semantics) miss by
  construction and get distinct modules;
* ``invalidate`` is purely a memory/perf event: the regenerated module is
  byte-identical and verdicts are unaffected;
* hot attach / detach / re-attach and disable / re-enable rebind kernels
  against the *current* runtime's trees — a detached slot's kernels never
  see another incarnation's state;
* process-backend workers recompile kernels in their own interpreter and
  still produce the inline verdict multiset;
* construction stays cheap: each property is fingerprinted once, kernels
  are bound on a runtime's first event, and a first build of the
  evaluated properties compiles factory by factory under a memory cap;
* the timed variant attribution runs is the plain module's scalar
  kernels plus timing probes, nothing else.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
import textwrap
from collections import Counter
from pathlib import Path

import pytest

from repro.properties import ALL_PROPERTIES, CATALOGUE
from repro.runtime.engine import MonitoringEngine
from repro.runtime.tracelog import replay_entries
from repro.service import MonitorService, ingest_symbolic
from repro.spec.codegen import kernel_source_for, shared_kernel_cache
from repro.spec.compiler import CompiledProperty

from ..conftest import Obj
from ..persist.conftest import (
    seed_for,
    symbolic_record_key,
    symbolic_verdict_key,
    synth_entries,
)


def _codegen_engine(key: str, **kwargs) -> MonitoringEngine:
    return MonitoringEngine(
        ALL_PROPERTIES[key].make().silence(),
        gc="coenable",
        dispatch="codegen",
        **kwargs,
    )


def _runtime(engine: MonitoringEngine):
    return next(r for r in engine.runtimes if r is not None)


def _prop(engine: MonitoringEngine):
    return next(p for p in engine.properties if p is not None)


def _bind_by_first_event(engine: MonitoringEngine) -> None:
    """Emit one event so every runtime binds its kernels (first-event
    binding), keeping the per-closure checks below from being vacuous."""
    engine.emit("create", c=Obj("c"), i=Obj("i"))


def test_same_fingerprint_reuses_cached_module():
    """A second engine hosting the same property is a pure cache hit:
    shared code objects, private kernel closures."""
    first = _codegen_engine("unsafeiter")
    fingerprint = _prop(first).fingerprint()
    assert fingerprint in shared_kernel_cache
    size, hits = len(shared_kernel_cache), shared_kernel_cache.hits
    second = _codegen_engine("unsafeiter")
    assert shared_kernel_cache.hits == hits + 1
    assert len(shared_kernel_cache) == size
    rt_first, rt_second = _runtime(first), _runtime(second)
    assert rt_first._kernel_module is rt_second._kernel_module
    _bind_by_first_event(first)
    _bind_by_first_event(second)
    # Same code, never shared state: each runtime's closures are its own.
    assert rt_first._kernels and rt_first._kernels is not rt_second._kernels
    for event, kernel in rt_first._kernels.items():
        assert kernel is not rt_second._kernels[event]


def test_distinct_fingerprints_get_distinct_modules():
    unsafeiter = _prop(_codegen_engine("unsafeiter"))
    hasnext = _prop(_codegen_engine("hasnext"))
    assert unsafeiter.fingerprint() != hasnext.fingerprint()
    assert kernel_source_for(unsafeiter) != kernel_source_for(hasnext)
    # Two compilations of the same specification: same fingerprint,
    # byte-identical source (the cache-safety invariant).
    again = _prop(_codegen_engine("unsafeiter"))
    assert again.fingerprint() == unsafeiter.fingerprint()
    assert kernel_source_for(again) == kernel_source_for(unsafeiter)


def test_invalidation_regenerates_byte_identical_module():
    engine = _codegen_engine("unsafeiter")
    _bind_by_first_event(engine)
    fingerprint = _prop(engine).fingerprint()
    module = _runtime(engine)._kernel_module
    assert shared_kernel_cache.invalidate(fingerprint)
    assert fingerprint not in shared_kernel_cache
    assert not shared_kernel_cache.invalidate(fingerprint)
    misses = shared_kernel_cache.misses
    rebuilt_engine = _codegen_engine("unsafeiter")
    assert shared_kernel_cache.misses == misses + 1
    _bind_by_first_event(rebuilt_engine)
    rebuilt = _runtime(rebuilt_engine)._kernel_module
    assert rebuilt is not module
    assert rebuilt.source == module.source
    assert fingerprint in shared_kernel_cache
    # The first engine keeps the kernels it bound from the dropped module.
    assert _runtime(engine)._kernels["create"].__code__ is not (
        _runtime(rebuilt_engine)._kernels["create"].__code__
    )


def test_building_an_engine_fingerprints_each_property_once(monkeypatch):
    """The fingerprint (json + sha256 over the whole template) is memoized
    on the property, with the value snapshots and WALs already store."""
    calls: Counter = Counter()
    descriptor = CompiledProperty._template_descriptor

    def counting(prop):
        calls[prop.formalism] += 1
        return descriptor(prop)

    monkeypatch.setattr(CompiledProperty, "_template_descriptor", counting)
    engine = MonitoringEngine(
        ALL_PROPERTIES["hasnext"].make().silence(), dispatch="codegen"
    )
    it = Obj("i")
    engine.emit("hasnexttrue", i=it)
    engine.emit("next", i=it)
    assert calls == Counter({"fsm": 1, "ltl": 1})
    # Byte-identical to the unmemoized value (pinned: snapshots store it).
    fresh = ALL_PROPERTIES["unsafeiter"].make().properties[0]
    assert fresh.fingerprint() == "5c8aef4150d1a4a93bfc251c019dff7a"
    assert fresh.fingerprint() is fresh.fingerprint()


def test_kernels_bind_on_first_event_and_never_replace_a_wrapper():
    engine = _codegen_engine("unsafeiter", telemetry=True)
    runtime = _runtime(engine)
    wrapper = runtime.handle
    assert not runtime._kernels
    c, i = Obj("c"), Obj("i")
    engine.emit("create", c=c, i=i)
    assert runtime._kernels and runtime.handle is wrapper
    # A wrapped runtime is routed through its wrapper, never around it.
    assert engine._routes["next"].func is wrapper
    bound = dict(runtime._kernels)
    engine.emit("next", i=i)
    assert runtime._kernels == bound  # idempotent: bound once
    # Unwrapped, the first event swaps in the direct handle and the engine
    # re-resolves its routes to call the kernels straight from emit.
    plain = _codegen_engine("unsafeiter")
    assert not _runtime(plain)._kernels
    assert plain._routes["next"].func == _runtime(plain)._handle_codegen
    plain.emit("create", c=c, i=i)
    assert plain._routes["next"] is _runtime(plain)._kernels["next"]


def test_eager_engine_routes_a_shared_event_straight_to_the_kernels():
    """Under eager propagation (``tm``) the route of an event several
    properties declare calls their bound kernels directly once pending
    deaths are propagated, as a lazy engine's does — never ``handle``."""
    specs = [ALL_PROPERTIES[key].make().silence() for key in ("hasnext", "unsafeiter")]
    engine = MonitoringEngine(specs, system="tm", dispatch="codegen")
    receivers = [r for r in engine.runtimes if "next" in r.event_domains]
    assert len(receivers) == 3  # HasNext's two formalisms and UnsafeIter
    c, i = Obj("c"), Obj("i")
    engine.emit("create", c=c, i=i)
    engine.emit("hasnexttrue", i=i)
    assert all(runtime._kernels for runtime in receivers)

    def refuse(*args, **kwargs):
        raise AssertionError("the route entered a runtime through handle")

    for runtime in receivers:
        runtime.handle = refuse
    engine.emit("create", c=c, i=Obj("dies"))
    assert engine._pending_dead
    events = [runtime.stats.events for runtime in receivers]
    engine.emit("next", i=i)
    assert not engine._pending_dead
    assert [runtime.stats.events for runtime in receivers] == [n + 1 for n in events]


FIRST_BUILD = textwrap.dedent(
    """
    import tracemalloc
    from repro.properties import EVALUATED_PROPERTIES
    from repro.runtime.engine import MonitoringEngine
    from repro.spec.codegen import shared_kernel_cache

    class Obj:
        pass

    specs = [prop.make().silence() for prop in EVALUATED_PROPERTIES]
    shared_kernel_cache.clear()
    tracemalloc.start()
    engine = MonitoringEngine(specs, dispatch="codegen")
    keep = []
    for runtime in engine.runtimes:
        event = sorted(runtime.prop.definition.alphabet)[0]
        values = {p: Obj() for p in runtime.prop.definition.params_of(event)}
        keep.append(values)
        runtime.handle(event, values)
        assert runtime._kernels, runtime.prop
    print(tracemalloc.get_traced_memory()[1])
    """
)


def test_first_build_of_the_evaluated_properties_stays_under_memory_cap():
    """Generating and compiling every kernel of the five evaluated
    properties, then binding them, peaks under 4.5 MB of traced memory
    (compiling each module in one call peaked at 6.3-6.7 MB)."""
    src = Path(__file__).resolve().parents[2] / "src"
    proc = subprocess.run(
        [sys.executable, "-c", FIRST_BUILD],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert proc.returncode == 0, proc.stderr
    peak = int(proc.stdout.strip().splitlines()[-1])
    assert peak < 4.5e6, f"first-build tracemalloc peak {peak / 1e6:.2f} MB"


def test_hot_reattach_hits_cache_and_matches_upfront_engine():
    """Detach + re-attach: the second attach reuses the compiled module
    (no regeneration) and the re-attached slot behaves exactly like a
    fresh codegen engine fed only the suffix."""
    hot_paper = ALL_PROPERTIES["hasnext"]
    hot_probe = hot_paper.make().silence()
    hot_names = {prop.spec_name for prop in hot_probe.properties}
    entries = synth_entries(
        hot_probe.properties[0].definition, seed_for("codegen-reattach"), events=240
    )
    k = len(entries) // 2

    def collect():
        verdicts: Counter = Counter()

        def on_verdict(prop, category, monitor):
            if prop.spec_name in hot_names:
                verdicts[symbolic_verdict_key(prop, category, monitor)] += 1

        return verdicts, on_verdict

    got, on_verdict = collect()
    engine = _codegen_engine("unsafeiter", on_verdict=on_verdict)
    refs = engine.attach_property(hot_paper.make().silence())
    # The hot property's modules are cached now; warm-up prefix runs on the
    # first incarnation, which is then detached with its whole history.
    tokens: dict = {}
    replay_entries(entries, engine, retire_after_last_use=True, stop=k, tokens=tokens)
    detached: dict[tuple[str, str], object] = {}
    for ref in refs:
        entry = engine.registry.entry(ref)
        detached[(entry.spec_name, entry.formalism)] = engine.detach_property(ref)
    got.clear()
    misses = shared_kernel_cache.misses
    engine.attach_property(hot_paper.make().silence())
    assert shared_kernel_cache.misses == misses  # pure hit on re-attach
    replay_entries(entries, engine, retire_after_last_use=True, start=k, tokens=tokens)

    want, on_verdict = collect()
    upfront = _codegen_engine("hasnext", on_verdict=on_verdict)
    replay_entries(entries, upfront, retire_after_last_use=True, start=k)
    assert got == want
    for prop in hot_probe.properties:
        # stats_for folds the detached first incarnation's totals in;
        # subtract them to compare the re-attached slot's suffix run.
        fresh = engine.stats_for(prop.spec_name, prop.formalism)
        first = detached[(prop.spec_name, prop.formalism)]
        reference = upfront.stats_for(prop.spec_name, prop.formalism)
        assert fresh.events - first.events == reference.events, prop.formalism
        assert (
            fresh.monitors_created - first.monitors_created
            == reference.monitors_created
        ), prop.formalism


def test_disable_reenable_keeps_kernels_live():
    verdicts: Counter = Counter()
    engine = _codegen_engine(
        "unsafeiter", on_verdict=lambda prop, category, monitor: verdicts.update([category])
    )

    def violate():
        c, i = Obj("c"), Obj("i")
        engine.emit("create", c=c, i=i)
        engine.emit("update", c=c)
        engine.emit("next", i=i)

    violate()
    assert verdicts["match"] == 1
    ref = "UnsafeIter/ere"
    engine.set_property_enabled(ref, False)
    events_paused = engine.stats_for("UnsafeIter").events
    violate()  # dropped: the disabled slot sees nothing
    assert engine.stats_for("UnsafeIter").events == events_paused
    assert verdicts["match"] == 1
    engine.set_property_enabled(ref, True)
    violate()
    assert verdicts["match"] == 2


def test_process_backend_recompiles_and_matches_inline():
    """Process-mode workers rebuild their engines (and therefore regenerate
    kernels) in a separate interpreter; the verdict multiset must equal the
    inline run's."""
    spec = ALL_PROPERTIES["unsafeiter"].make().silence()
    entries = synth_entries(
        spec.properties[0].definition, seed_for("codegen-process"), events=300
    )

    def run(mode: str) -> Counter:
        service = MonitorService(
            ALL_PROPERTIES["unsafeiter"].make().silence(),
            shards=2,
            gc="coenable",
            mode=mode,
        )
        try:
            ingest_symbolic(service, entries, retire_after_last_use=True)
            service.drain()
            return Counter(
                symbolic_record_key(record) for record in service.verdicts()
            )
        finally:
            service.close()

    inline = run("inline")
    assert inline  # the trace does produce verdicts
    assert run("process") == inline


#: A line of the timed kernel module that exists only for its probes.
PROBE_LINE = re.compile(r"\b(_pc|_tw|_tf)\b")


def test_timed_module_is_the_plain_module_plus_probes():
    """Removing the probe lines (the ``perf_counter`` import, the
    ``_t0``/``_tw``/``_t1``/``_tf`` stamps and the ``return _tw, _tf``)
    from the timed module leaves the plain module byte for byte, for every
    catalogue property and formalism."""
    checked = 0
    for key in sorted(CATALOGUE):
        for prop in CATALOGUE[key].make().properties:
            plain = kernel_source_for(prop)
            timed = kernel_source_for(prop, timed=True)
            assert "return _tw, _tf" in timed
            stripped = "".join(
                line
                for line in timed.splitlines(keepends=True)
                if not PROBE_LINE.search(line)
            )
            assert stripped == plain, (key, prop.formalism)
            checked += 1
    assert checked >= len(CATALOGUE)


#: Lines of the eager module that exist only for its back-links.
LINK_LINE = re.compile(r"\b(_LinkedRVMap|_link_key|_slot)\b|\.link = \(")


def eager_stripped(source: str) -> str:
    """The eager module without its back-link lines and eviction factory."""
    head, _evict, tail = source.partition("\n\ndef _make_evict(rt):\n")
    if _evict:
        tail = tail[tail.index("\n\nFACTORIES = {") :]
    lines = (head + tail).replace("EVICT = _make_evict\n", "")
    return "".join(
        line.replace("_RM_new(_LinkedRVMap)", "_RM_new(_RVMap)")
        for line in lines.splitlines(keepends=True)
        if not LINK_LINE.search(line) or "_RM_new(_LinkedRVMap)" in line
    )


def test_eager_module_is_the_plain_module_plus_back_links():
    """The eager variant differs from the plain module only by its
    back-links (the ``LinkedRVMap`` construction, the ``link`` of each new
    map, a ``_link_key`` call after each inserted key) and the eviction
    factory, plain and timed, for every catalogue property and formalism;
    the eviction step unrolls every monitor domain."""
    checked = 0
    for key in sorted(CATALOGUE):
        for prop in CATALOGUE[key].make().properties:
            for timed in (False, True):
                plain = kernel_source_for(prop, timed=timed)
                eager = kernel_source_for(prop, timed=timed, eager=True)
                assert "EVICT = _make_evict" in eager
                assert "_link_key" not in plain and "_make_evict" not in plain
                assert eager_stripped(eager) == plain, (key, prop.formalism, timed)
            evictors = eager[eager.index("    evictors = {") :]
            assert evictors.count(": evict_") == len(prop.monitor_domains())
            checked += 1
    assert checked >= len(CATALOGUE)


@pytest.mark.parametrize("dispatch", ("codegen", "reference"))
@pytest.mark.parametrize("propagation", ("lazy", "eager"))
def test_every_eager_engine_links_its_maps_and_no_lazy_engine_does(
    propagation, dispatch
):
    """An eager engine builds back-linking maps on either dispatch tier,
    and on codegen binds the eager variant (cached under ``":eager"``); a
    lazy engine binds the plain module and builds plain maps."""
    from repro.runtime.rvmap import LinkedRVMap

    linked = propagation == "eager"
    engine = MonitoringEngine(
        ALL_PROPERTIES["unsafeiter"].make().silence(),
        propagation=propagation,
        dispatch=dispatch,
    )
    c, i = Obj("c"), Obj("i")
    engine.emit("create", c=c, i=i)
    runtime = _runtime(engine)
    module = runtime._kernel_module
    if dispatch == "codegen":
        assert (module.evict_factory is not None) is linked
        variant = _prop(engine).fingerprint() + ":eager" * linked
        assert shared_kernel_cache.module_for(_prop(engine), eager=linked) is module
        assert variant in shared_kernel_cache
    tree = runtime.trees[frozenset(("c", "i"))]
    nodes = [tree._root, *tree._root.all_values()]
    assert all(isinstance(node, LinkedRVMap) is linked for node in nodes)
    assert bool(engine.ledger.entry(i).links) is linked


def test_invalidation_drops_every_variant():
    prop = _prop(_codegen_engine("unsafeiter"))
    fingerprint = prop.fingerprint()
    for timed in (False, True):
        for eager in (False, True):
            shared_kernel_cache.module_for(prop, timed=timed, eager=eager)
    variants = ("", ":timed", ":eager", ":eager:timed")
    assert all(fingerprint + variant in shared_kernel_cache for variant in variants)
    assert shared_kernel_cache.invalidate(fingerprint)
    assert not any(fingerprint + variant in shared_kernel_cache for variant in variants)
