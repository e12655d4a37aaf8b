"""Snapshot codec unit tests: format, identity checks, state fidelity."""

from __future__ import annotations

import gc

import pytest

from repro.core.errors import PersistError
from repro.formalism.raw import functional_template
from repro.properties import ALL_PROPERTIES
from repro.runtime.engine import MonitoringEngine
from repro.runtime.instance import MonitorInstance
from repro.runtime.refs import ParamLedger, SymbolRegistry
from repro.runtime.tracelog import replay_entries
from repro.persist import (
    SNAPSHOT_VERSION,
    restore_engine,
    restore_into,
    snapshot_engine,
    snapshot_from_bytes,
    snapshot_to_bytes,
)
from repro.spec import compile_spec

from ..conftest import Obj

UNSAFEITER = """
UnsafeIter(c, i) {
  event create(c, i)
  event update(c)
  event next(i)
  ere: update* create next* update+ next
  @match
}
"""

VARIANT = """
UnsafeIter(c, i) {
  event create(c, i)
  event update(c)
  event next(i)
  ere: update* create next* update* next
  @match
}
"""


def make_engine(source=UNSAFEITER, **kwargs):
    return MonitoringEngine(compile_spec(source).silence(), **kwargs)


class TestContainer:
    def test_bytes_round_trip(self):
        engine = make_engine()
        engine.emit("create", c=Obj("c"), i=Obj("i"))
        snapshot = snapshot_engine(engine)
        assert snapshot_from_bytes(snapshot_to_bytes(snapshot)) == snapshot

    def test_bad_magic_rejected(self):
        with pytest.raises(PersistError, match="magic"):
            snapshot_from_bytes(b"not a snapshot")

    def test_corrupt_payload_rejected(self):
        engine = make_engine()
        data = snapshot_to_bytes(snapshot_engine(engine))
        with pytest.raises(PersistError, match="corrupt"):
            snapshot_from_bytes(data[:-4] + b"zzzz")

    def test_unsupported_version_rejected(self):
        engine = make_engine()
        snapshot = snapshot_engine(engine)
        snapshot["version"] = SNAPSHOT_VERSION + 1
        with pytest.raises(PersistError, match="version"):
            restore_engine(snapshot, compile_spec(UNSAFEITER).silence())

    def test_config_recorded(self):
        engine = make_engine(gc="alldead", propagation="eager", scan_budget=5)
        snapshot = snapshot_engine(engine)
        assert snapshot["engine"] == {
            "gc": "alldead",
            "propagation": "eager",
            "scan_budget": 5,
        }


class TestPropertyIdentity:
    def test_changed_semantics_rejected(self):
        engine = make_engine()
        snapshot = snapshot_engine(engine)
        with pytest.raises(PersistError, match="fingerprint"):
            restore_engine(snapshot, compile_spec(VARIANT).silence())

    def test_wrong_property_count_rejected(self):
        engine = make_engine()
        snapshot = snapshot_engine(engine)
        hasnext = ALL_PROPERTIES["hasnext"].make().silence()
        with pytest.raises(PersistError, match="properties"):
            restore_engine(snapshot, [compile_spec(UNSAFEITER).silence(), hasnext])

    def test_same_source_recompiled_accepted(self):
        engine = make_engine()
        c, i = Obj("c"), Obj("i")
        engine.emit("create", c=c, i=i)
        restored, _ = restore_engine(
            snapshot_engine(engine), compile_spec(UNSAFEITER).silence()
        )
        assert restored.total_live_monitors() == 1
        del c, i

    def test_restore_into_requires_virgin_engine(self):
        engine = make_engine()
        snapshot = snapshot_engine(engine)
        used = make_engine()
        used.emit("update", c=Obj("c"))
        with pytest.raises(PersistError, match="already processed"):
            restore_into(used, snapshot)

    def test_restore_into_requires_matching_config(self):
        engine = make_engine(gc="coenable")
        snapshot = snapshot_engine(engine)
        other = make_engine(gc="alldead")
        with pytest.raises(PersistError, match="configuration"):
            restore_into(other, snapshot)


class TestStateFidelity:
    def test_dead_parameters_stay_dead(self):
        engine = make_engine(gc="none")
        c = Obj("c")
        engine.emit("create", c=c, i=Obj("i-dies"))
        gc.collect()
        restored, tokens = restore_engine(
            snapshot_engine(engine), compile_spec(UNSAFEITER).silence()
        )
        [monitor] = restored.runtimes[0].iter_reachable_instances()
        assert monitor.param_alive("c")
        assert not monitor.param_alive("i")
        assert monitor.all_params_dead() is False
        del c

    def test_dead_markers_name_ledger_serials(self):
        """A dead parameter is written as ``!dead:<ledger serial>``, so the
        bytes do not depend on addresses; a marker written before entries
        had serials (a hexadecimal ``id()``) still restores dead."""
        engine = make_engine(gc="none")
        c = Obj("c")
        engine.emit("create", c=c, i=Obj("i-dies"))
        gc.collect()
        snapshot = snapshot_engine(engine)
        [payload] = snapshot["runtimes"][0]["monitors"]
        assert payload["params"] == {"c": "o1", "i": "!dead:2"}
        for marker in ("!dead:2", "!dead:7f3a9c2b1d90"):
            payload["params"]["i"] = marker
            restored, tokens = restore_engine(
                snapshot, compile_spec(UNSAFEITER).silence()
            )
            [monitor] = restored.runtimes[0].iter_reachable_instances()
            assert monitor.param_alive("c")
            assert not monitor.param_alive("i")
            assert snapshot_engine(restored)["runtimes"][0]["monitors"][0][
                "params"
            ]["i"].startswith("!dead:")
        del c

    def test_serials_and_stats_carry_over(self):
        engine = make_engine()
        c, i = Obj("c"), Obj("i")
        engine.emit("create", c=c, i=i)
        engine.emit("update", c=c)
        restored, _ = restore_engine(
            snapshot_engine(engine), compile_spec(UNSAFEITER).silence()
        )
        assert restored.runtimes[0]._event_serial == 2
        stats = restored.stats_for("UnsafeIter")
        assert stats.events == 2
        assert stats.monitors_created == engine.stats_for("UnsafeIter").monitors_created

    @pytest.mark.parametrize("dispatch", ["reference", "codegen"])
    def test_restored_engine_keeps_counting_under_every_dispatch(self, dispatch):
        # Generated kernels bind the runtime's stats object when they are
        # built, so a restore must fill that object rather than replace it.
        keepalive = []

        def triples(engine, start, count):
            for k in range(start, start + count):
                c, i = Obj(f"c{k}"), Obj(f"i{k}")
                keepalive.append((c, i))
                engine.emit("create", c=c, i=i)
                engine.emit("update", c=c)
                engine.emit("next", i=i)

        uninterrupted = make_engine(dispatch=dispatch)
        triples(uninterrupted, 0, 7)
        source = make_engine(dispatch=dispatch)
        triples(source, 0, 3)
        restored = make_engine(dispatch=dispatch)
        tokens = restore_into(restored, snapshot_engine(source))
        triples(restored, 3, 4)
        expected = uninterrupted.stats_for("UnsafeIter")
        stats = restored.stats_for("UnsafeIter")
        assert stats.events == expected.events == 21
        assert stats.monitors_created == expected.monitors_created
        assert stats.verdicts == expected.verdicts
        del tokens

    def test_cfg_chart_round_trip(self):
        """An Earley-chart monitor survives serialization mid-derivation.

        The cut lands after ``acquire acquire release`` — one level of
        nesting still open — and the suffix's stray ``release`` must make
        the restored chart fail exactly like the uninterrupted one.
        """
        prop = ALL_PROPERTIES["safelock"]
        entries = [
            ("acquire", {"l": "l1", "t": "t1"}),
            ("acquire", {"l": "l1", "t": "t1"}),
            ("release", {"l": "l1", "t": "t1"}),
            ("release", {"l": "l1", "t": "t1"}),
            ("release", {"l": "l1", "t": "t1"}),
        ]
        want, got = [], []
        full = MonitoringEngine(
            prop.make().silence(),
            gc="none",
            on_verdict=lambda p, c, m: want.append(c),
        )
        replay_entries(entries, full)

        prefix = MonitoringEngine(
            prop.make().silence(), gc="none", on_verdict=lambda p, c, m: got.append(c)
        )
        tokens = replay_entries(entries, prefix, stop=3)
        restored, tokens = restore_engine(
            snapshot_engine(prefix),
            prop.make().silence(),
            on_verdict=lambda p, c, m: got.append(c),
        )
        replay_entries(entries, restored, start=3, tokens=tokens)
        assert got == want and want  # the unbalanced-nesting state survived

    def test_raw_monitor_json_state_round_trips(self):
        template = functional_template(
            transition=lambda n, e: n + 1,
            verdict=lambda n: "hit" if n >= 3 else "?",
            initial=0,
            alphabet={"tick"},
            categories={"hit"},
        )
        monitor = template.create()
        monitor.step("tick")
        restored = template.monitor_from_state(monitor.snapshot_state())
        assert restored.step("tick") == "?"
        assert restored.step("tick") == "hit"

    def test_non_serializable_state_fails_at_snapshot_time(self):
        class Opaque:
            pass

        from repro.core.events import EventDefinition
        from repro.spec.compiler import CompiledProperty

        template = functional_template(
            transition=lambda s, e: s,
            verdict=lambda s: "?",
            initial=Opaque(),
            alphabet={"tick"},
        )
        prop = CompiledProperty(
            spec_name="Opaque",
            formalism="raw",
            template=template,
            definition=EventDefinition({"tick": ("x",)}),
            goal=frozenset({"?"}),
            handlers=(),
        )
        engine = MonitoringEngine(prop, gc="none")
        x = Obj("x")
        engine.emit("tick", x=x)
        with pytest.raises(PersistError):
            snapshot_engine(engine)
        del x


class TestSymbolRegistry:
    def test_symbols_stable_per_identity(self):
        registry = SymbolRegistry()
        a, b = Obj("a"), Obj("b")
        assert registry.symbol_for(a) == registry.symbol_for(a)
        assert registry.symbol_for(a) != registry.symbol_for(b)

    def test_resolve_and_death(self):
        deaths = []
        registry = SymbolRegistry(on_death=deaths.append)
        a = Obj("a")
        symbol = registry.symbol_for(a)
        assert registry.resolve(symbol) is a
        del a
        gc.collect()
        assert deaths == [symbol]
        assert registry.resolve(symbol) is None

    def test_immortals_keyed_by_value(self):
        registry = SymbolRegistry()
        assert registry.symbol_for("x").startswith("v:")
        assert registry.symbol_for("x") == registry.symbol_for("x")

    def test_ensure_counter_prevents_collisions(self):
        registry = SymbolRegistry()
        registry.ensure_counter(41)
        assert registry.symbol_for(Obj("a")) == "o42"

    def test_dead_ref_constructor(self):
        entry = ParamLedger().tombstone(57005)
        assert entry() is None
        assert entry.died is not None
        assert entry.serial == 57005
