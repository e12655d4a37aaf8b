"""Hot-load equivalence: attaching a property mid-trace is history-free.

The defining property of the dynamic registry (ISSUE 4 acceptance): for
any split point ``k``, a property hot-loaded at event ``k`` produces the
same verdict multiset and creation count over events ``k..n`` as an engine
constructed with it upfront and fed only ``k..n``.  Parametrized over the
four formalisms (FSM and LTL via HASNEXT, ERE via UNSAFEITER, CFG via
SAFELOCK), all four GC strategies, and both dispatch paths — the
``dispatch="reference"`` rows double as the lockstep check that the
generated kernels and the reference interpretation agree on hot-loaded
runtimes too.

Traces are symbolic and replayed with ``retire_after_last_use=True``, so
parameter deaths (the GC driver) land between the same two events in every
engine, and verdict bindings stay comparable across engines by symbol.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.core.errors import UnsupportedFormalismError
from repro.properties import ALL_PROPERTIES
from repro.runtime.engine import MonitoringEngine
from repro.runtime.tracelog import replay_entries

from ..persist.conftest import seed_for, synth_entries, symbolic_verdict_key

GC_STRATEGIES = ("none", "alldead", "coenable", "statebased")

#: (hot property, pre-loaded base property): together the hot side covers
#: fsm + ltl (hasnext compiles both logic blocks), ere, and cfg.
HOT_KEYS = ("hasnext", "unsafeiter", "safelock")


def _base_key(hot_key: str) -> str:
    return "unsafeiter" if hot_key != "unsafeiter" else "hasnext"


def _union_entries(hot_spec, base_spec, seed: int):
    """One symbolic trace over both specifications' alphabets."""

    class _Definition:
        parameters = sorted(
            set(hot_spec.definition.parameters) | set(base_spec.definition.parameters)
        )
        alphabet = sorted(set(hot_spec.alphabet) | set(base_spec.alphabet))

        @staticmethod
        def params_of(event):
            if event in hot_spec.alphabet:
                return hot_spec.definition.params_of(event)
            return base_spec.definition.params_of(event)

    return synth_entries(_Definition, seed, events=240)


def _collect(engine_spec_names):
    verdicts: Counter = Counter()

    def on_verdict(prop, category, monitor):
        if prop.spec_name in engine_spec_names:
            verdicts[symbolic_verdict_key(prop, category, monitor)] += 1

    return verdicts, on_verdict


@pytest.mark.parametrize("dispatch", ("codegen", "reference"))
@pytest.mark.parametrize("gc_kind", GC_STRATEGIES)
@pytest.mark.parametrize("hot_key", HOT_KEYS)
def test_hotload_equals_suffix_only_engine(hot_key, gc_kind, dispatch):
    hot_paper = ALL_PROPERTIES[hot_key]
    base_paper = ALL_PROPERTIES[_base_key(hot_key)]
    hot_probe = hot_paper.make().silence()
    base_probe = base_paper.make().silence()
    try:
        MonitoringEngine(hot_paper.make().silence(), gc=gc_kind)
    except UnsupportedFormalismError:
        pytest.skip(f"{gc_kind} cannot host {hot_key}")
    hot_names = {prop.spec_name for prop in hot_probe.properties}
    entries = _union_entries(hot_probe, base_probe, seed_for(hot_key, gc_kind))

    for k in (0, len(entries) // 3, 2 * len(entries) // 3):
        # Staggered engine: base property upfront, hot property at event k.
        staggered_verdicts, on_verdict = _collect(hot_names)
        staggered = MonitoringEngine(
            base_paper.make().silence(), gc=gc_kind, dispatch=dispatch,
            on_verdict=on_verdict,
        )
        tokens: dict = {}
        replay_entries(
            entries, staggered, retire_after_last_use=True, stop=k, tokens=tokens
        )
        epoch_before = staggered.registry_epoch
        staggered.attach_property(hot_paper.make().silence())
        assert staggered.registry_epoch > epoch_before
        replay_entries(
            entries, staggered, retire_after_last_use=True, start=k, tokens=tokens
        )

        # Reference engine: hot property upfront, fed only the suffix k..n.
        upfront_verdicts, on_verdict = _collect(hot_names)
        upfront = MonitoringEngine(
            hot_paper.make().silence(), gc=gc_kind, dispatch=dispatch,
            on_verdict=on_verdict,
        )
        replay_entries(entries, upfront, retire_after_last_use=True, start=k)

        assert staggered_verdicts == upfront_verdicts, (
            f"hot-load at k={k} diverged for {hot_key}/{gc_kind}/{dispatch}"
        )
        for prop in hot_probe.properties:
            hot_stats = staggered.stats_for(prop.spec_name, prop.formalism)
            ref_stats = upfront.stats_for(prop.spec_name, prop.formalism)
            assert hot_stats.events == ref_stats.events, (k, prop.formalism)
            assert hot_stats.monitors_created == ref_stats.monitors_created, (
                k, prop.formalism,
            )


@pytest.mark.parametrize("gc_kind", GC_STRATEGIES)
def test_hotload_codegen_equals_reference(gc_kind):
    """Lockstep across dispatch paths with a mid-trace hot load."""
    hot_paper = ALL_PROPERTIES["hasnext"]
    base_paper = ALL_PROPERTIES["unsafeiter"]
    hot_probe = hot_paper.make().silence()
    entries = _union_entries(
        hot_probe, base_paper.make().silence(), seed_for("lockstep", gc_kind)
    )
    k = len(entries) // 2
    results = []
    for dispatch in ("codegen", "reference"):
        verdicts, on_verdict = _collect(
            {prop.spec_name for prop in hot_probe.properties} | {"UnsafeIter"}
        )
        engine = MonitoringEngine(
            base_paper.make().silence(), gc=gc_kind, dispatch=dispatch,
            on_verdict=on_verdict,
        )
        tokens: dict = {}
        replay_entries(
            entries, engine, retire_after_last_use=True, stop=k, tokens=tokens
        )
        engine.attach_property(hot_paper.make().silence())
        replay_entries(
            entries, engine, retire_after_last_use=True, start=k, tokens=tokens
        )
        rows = {
            (spec, formalism): (stats.events, stats.monitors_created)
            for (spec, formalism), stats in engine.stats().items()
        }
        results.append((verdicts, rows))
    assert results[0] == results[1]
