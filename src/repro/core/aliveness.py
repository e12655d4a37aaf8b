"""ALIVENESS formulas — Section 4.2.2 of the paper.

RV statically compiles each event's parameter coenable set into a minimized
boolean formula over per-parameter liveness atoms::

    ALIVENESS(e) = ∨_{S in COENABLE^X(e)} ∧_{x in S} live_x

A monitor instance that was last updated by ``e`` is still *necessary* iff
``ALIVENESS(e)`` evaluates to true under the current liveness of its bound
parameter objects.  This module represents such formulas in minimized DNF
(absorption: a conjunct that is a superset of another is redundant, because
parameter liveness atoms are positive) and evaluates them.
"""

from __future__ import annotations

from typing import Callable, Mapping

__all__ = ["AlivenessFormula", "compile_aliveness"]


class AlivenessFormula:
    """A positive DNF over parameter-liveness atoms.

    ``disjuncts`` is a family of parameter sets; the formula is satisfied
    when *every* parameter of *some* disjunct is alive.  The constant-false
    formula (no disjuncts) means the monitor can never trigger again; the
    formula containing the empty conjunct is constant-true (that only arises
    for parameterless specifications — the empty-set dropping of coenable
    sets removes the other source).
    """

    __slots__ = ("disjuncts", "_conjuncts")

    def __init__(self, disjuncts: frozenset[frozenset[str]]):
        self.disjuncts = _absorb(disjuncts)
        #: Flat evaluation form: the GC notification path walks this with
        #: plain loops instead of building generator frames per check.
        self._conjuncts: tuple[tuple[str, ...], ...] = tuple(
            tuple(sorted(conjunct)) for conjunct in sorted(self.disjuncts, key=sorted)
        )

    @classmethod
    def false(cls) -> "AlivenessFormula":
        return cls(frozenset())

    @classmethod
    def true(cls) -> "AlivenessFormula":
        return cls(frozenset({frozenset()}))

    @property
    def is_false(self) -> bool:
        return not self.disjuncts

    @property
    def is_true(self) -> bool:
        return frozenset() in self.disjuncts

    @property
    def parameters(self) -> frozenset[str]:
        """Every parameter whose liveness the formula can depend on."""
        result: set[str] = set()
        for conjunct in self.disjuncts:
            result |= conjunct
        return frozenset(result)

    def evaluate(self, live: Mapping[str, bool] | Callable[[str], bool]) -> bool:
        """Evaluate under a liveness assignment.

        ``live`` maps parameter names to booleans (or is a callable doing
        the same).  Parameters missing from a mapping are treated as alive —
        an *unbound* parameter can still be bound in the future, so it must
        not count against the monitor (conservative per Theorem 1).
        """
        if callable(live):
            is_live = live
        else:
            get = live.get
            is_live = lambda name: get(name, True)  # noqa: E731 - tiny adapter
        for conjunct in self._conjuncts:
            for name in conjunct:
                if not is_live(name):
                    break
            else:
                return True
        return False

    def holds_over(self, entries: Mapping[str, Callable[[], object]]) -> bool:
        """:meth:`evaluate` over a monitor's ledger entries.

        A parameter is alive while its entry still returns its object;
        a parameter with no entry is unbound and counts as alive (Theorem
        1).  One notification per parameter death makes this the hottest
        interpreted check of every GC strategy that consults a formula, so
        the atoms call the entries directly instead of going through a
        liveness callable.
        """
        get = entries.get
        for conjunct in self._conjuncts:
            for name in conjunct:
                entry = get(name)
                if entry is not None and entry() is None:
                    break
            else:
                return True
        return False

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AlivenessFormula):
            return NotImplemented
        return self.disjuncts == other.disjuncts

    def __hash__(self) -> int:
        return hash(self.disjuncts)

    def __repr__(self) -> str:
        if self.is_false:
            return "ALIVENESS[false]"
        if self.is_true:
            return "ALIVENESS[true]"
        parts = sorted(
            " & ".join(f"live_{name}" for name in sorted(conjunct))
            for conjunct in self.disjuncts
        )
        return "ALIVENESS[" + " | ".join(parts) + "]"


def _absorb(disjuncts: frozenset[frozenset[str]]) -> frozenset[frozenset[str]]:
    """Minimize a positive DNF by absorption (keep only minimal conjuncts)."""
    return frozenset(
        conjunct
        for conjunct in disjuncts
        if not any(other < conjunct for other in disjuncts)
    )


def compile_aliveness(
    param_coenable: dict[str, frozenset[frozenset[str]]],
) -> dict[str, AlivenessFormula]:
    """Compile the parameter coenable sets of every event into formulas.

    This is the static translation described in Section 4.2.2; the runtime
    evaluates the formula of a monitor's *last received event* whenever a
    parameter-death notification reaches the monitor.
    """
    return {event: AlivenessFormula(family) for event, family in param_coenable.items()}
