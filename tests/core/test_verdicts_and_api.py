"""Small-surface coverage: verdict helpers and the public package API."""

from __future__ import annotations

import pytest

from repro.core import verdicts


class TestVerdicts:
    def test_constants(self):
        assert verdicts.MATCH == "match"
        assert verdicts.FAIL == "fail"
        assert verdicts.UNKNOWN == "?"
        assert verdicts.VIOLATION == "violation"
        assert verdicts.ERROR == "error"

    def test_normalize_goal_string(self):
        assert verdicts.normalize_goal("match") == frozenset({"match"})

    def test_normalize_goal_iterable(self):
        assert verdicts.normalize_goal(["match", "fail"]) == frozenset(
            {"match", "fail"}
        )

    def test_default_goals_cover_conventions(self):
        assert {"match", "fail", "error", "violation"} <= set(verdicts.DEFAULT_GOALS)


class TestPublicApi:
    def test_top_level_exports(self):
        import repro

        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_version(self):
        import repro

        assert repro.__version__

    def test_subpackage_exports(self):
        import repro.core as core
        import repro.formalism as formalism
        import repro.instrument as instrument
        import repro.properties as properties
        import repro.runtime as runtime
        import repro.spec as spec
        import repro.bench as bench

        for module in (core, formalism, instrument, properties, runtime, spec, bench):
            for name in module.__all__:
                assert hasattr(module, name), f"{module.__name__}.{name}"

    def test_engine_misc_api(self):
        from repro import MonitoringEngine, compile_spec
        from repro.core.params import Binding

        from ..conftest import Obj

        spec = compile_spec(
            "P(x) {\n event e(x)\n ere: e e\n @match\n}"
        )
        engine = MonitoringEngine(spec, gc="none")
        x1 = Obj("x1")
        engine.emit_binding("e", Binding.of(x=x1))
        assert engine.total_live_monitors() == 1
        live = engine.runtimes[0].live_instances()
        assert len(live) == 1
        assert live[0].params["x"]() is x1

    def test_systems_table(self):
        from repro import SYSTEMS

        assert SYSTEMS["rv"] == ("coenable", "lazy")
        assert SYSTEMS["mop"] == ("alldead", "lazy")
        assert SYSTEMS["tm"] == ("statebased", "eager")

    def test_all_properties_registry(self):
        from repro import ALL_PROPERTIES, EVALUATED_PROPERTIES

        assert len(ALL_PROPERTIES) == 10
        assert len(EVALUATED_PROPERTIES) == 5
        assert all(prop.key in ALL_PROPERTIES for prop in EVALUATED_PROPERTIES)

    def test_property_str(self):
        from repro.properties import HASNEXT

        assert str(HASNEXT) == "HASNEXT"
        assert "Iterator" in HASNEXT.description
