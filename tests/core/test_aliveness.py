"""ALIVENESS formula tests (Section 4.2.2)."""

from __future__ import annotations

from hypothesis import given, strategies as st

from repro.core.aliveness import AlivenessFormula, compile_aliveness


def formula(*conjuncts):
    return AlivenessFormula(frozenset(frozenset(c) for c in conjuncts))


class TestConstruction:
    def test_false_formula(self):
        assert AlivenessFormula.false().is_false
        assert not AlivenessFormula.false().evaluate({})

    def test_true_formula(self):
        assert AlivenessFormula.true().is_true
        assert AlivenessFormula.true().evaluate({"x": False})

    def test_absorption_removes_supersets(self):
        """(live_i) | (live_c & live_i) minimizes to live_i."""
        minimized = formula({"i"}, {"c", "i"})
        assert minimized.disjuncts == frozenset({frozenset({"i"})})

    def test_absorption_keeps_incomparable_conjuncts(self):
        mixed = formula({"a", "b"}, {"b", "c"})
        assert mixed.disjuncts == frozenset(
            {frozenset({"a", "b"}), frozenset({"b", "c"})}
        )

    def test_empty_conjunct_absorbs_everything(self):
        assert formula((), {"a"}, {"a", "b"}).is_true

    def test_parameters(self):
        assert formula({"a", "b"}, {"c"}).parameters == {"a", "b", "c"}
        assert AlivenessFormula.false().parameters == frozenset()


class TestEvaluation:
    def test_needs_every_param_of_some_disjunct(self):
        f = formula({"a", "b"})
        assert f.evaluate({"a": True, "b": True})
        assert not f.evaluate({"a": True, "b": False})
        assert not f.evaluate({"a": False, "b": False})

    def test_disjunction(self):
        f = formula({"a"}, {"b"})
        assert f.evaluate({"a": False, "b": True})
        assert f.evaluate({"a": True, "b": False})
        assert not f.evaluate({"a": False, "b": False})

    def test_missing_params_count_as_alive(self):
        """Unbound parameters may still be bound later — conservative."""
        f = formula({"a", "b"})
        assert f.evaluate({"a": True})  # b unbound -> alive

    def test_callable_liveness(self):
        f = formula({"a", "b"})
        assert f.evaluate(lambda name: True)
        assert not f.evaluate(lambda name: name != "b")

    def test_equality_and_hash(self):
        assert formula({"a"}) == formula({"a"})
        assert hash(formula({"a"})) == hash(formula({"a"}))
        assert formula({"a"}) != formula({"b"})
        assert formula({"a"}) != "nope"

    def test_repr_forms(self):
        assert repr(AlivenessFormula.false()) == "ALIVENESS[false]"
        assert repr(AlivenessFormula.true()) == "ALIVENESS[true]"
        assert "live_a" in repr(formula({"a"}))


class TestCompile:
    def test_compile_aliveness_maps_events(self):
        compiled = compile_aliveness(
            {
                "update": frozenset({frozenset({"i"}), frozenset({"c", "i"})}),
                "next": frozenset({frozenset({"c", "i"})}),
            }
        )
        assert compiled["update"].disjuncts == frozenset({frozenset({"i"})})
        assert compiled["next"].disjuncts == frozenset({frozenset({"c", "i"})})

    def test_empty_family_compiles_to_false(self):
        compiled = compile_aliveness({"e": frozenset()})
        assert compiled["e"].is_false


# -- property-based: minimization preserves semantics ---------------------------

_PARAMS = ("a", "b", "c")


@st.composite
def families(draw):
    count = draw(st.integers(min_value=0, max_value=4))
    sets = []
    for _ in range(count):
        sets.append(
            frozenset(p for p in _PARAMS if draw(st.booleans()))
        )
    return frozenset(sets)


@st.composite
def assignments(draw):
    return {p: draw(st.booleans()) for p in _PARAMS}


@given(families(), assignments(), st.frozensets(st.sampled_from(_PARAMS)))
def test_minimization_preserves_truth(family, assignment, unbound):
    """Both evaluation forms agree with the unminimized family: over a
    liveness mapping, and over ledger-style entries (a dead entry returns
    ``None``) where the ``unbound`` parameters have no entry and count as
    alive."""
    raw_truth = any(
        all(assignment[p] for p in conjunct) for conjunct in family
    )
    formula = AlivenessFormula(family)
    assert formula.evaluate(assignment) == raw_truth
    entries = {
        p: (lambda alive=alive: object() if alive else None)
        for p, alive in assignment.items()
        if p not in unbound
    }
    raw_over_entries = any(
        all(assignment[p] or p in unbound for p in conjunct) for conjunct in family
    )
    assert formula.holds_over(entries) == raw_over_entries


@given(families())
def test_minimized_conjuncts_are_antichain(family):
    minimized = AlivenessFormula(family).disjuncts
    for a in minimized:
        for b in minimized:
            assert not (a < b)
