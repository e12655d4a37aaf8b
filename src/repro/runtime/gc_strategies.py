"""Monitor garbage-collection strategies.

A strategy answers one question when a monitor instance is notified that
some parameter object died: *is this instance now unnecessary?*  Flagged
instances are lazily removed from the data structures (Section 4.2); a
monitor is physically reclaimed by the host GC once no structure holds it.

The strategies model the three systems the paper evaluates:

* :class:`NoGc` — never flag (pure baseline; monitors die only when their
  whole indexing subtree dies);
* :class:`AllParamsDead` — JavaMOP: an instance is collectable only when
  *all* bound parameter objects are dead ("which ensures that no event can
  happen to the corresponding monitor instance");
* :class:`CoenableGc` — the RV system: evaluate the precompiled
  ``ALIVENESS(last event)`` formula (Sections 3, 4.2.2);
* :class:`StateBasedGc` — the Tracematches analog: "coenable sets indexed by
  state rather than events" (Section 3's discussion).  More precise, but
  limited to finite-state formalisms — constructing it for a CFG property
  raises :class:`~repro.core.errors.UnsupportedFormalismError`, reproducing
  the paper's point that a state-based technique cannot handle context-free
  properties.
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING

from ..core.aliveness import AlivenessFormula
from ..core.coenable import lift_to_params
from ..core.errors import UnsupportedFormalismError
from .instance import MonitorInstance

if TYPE_CHECKING:  # pragma: no cover
    from ..spec.compiler import CompiledProperty

__all__ = [
    "GcStrategy",
    "NoGc",
    "AllParamsDead",
    "CoenableGc",
    "StateBasedGc",
    "make_strategy",
    "STRATEGY_NAMES",
]


class GcStrategy(abc.ABC):
    """Decides monitor-instance collectability on parameter-death
    notifications."""

    name: str

    @abc.abstractmethod
    def is_unnecessary(self, monitor: MonitorInstance) -> bool:
        """True when the instance can never trigger again and may be flagged."""


class NoGc(GcStrategy):
    """Never flag anything."""

    name = "none"

    def is_unnecessary(self, monitor: MonitorInstance) -> bool:
        return False


class AllParamsDead(GcStrategy):
    """JavaMOP's rule: collectable iff every bound parameter object is dead."""

    name = "alldead"

    def is_unnecessary(self, monitor: MonitorInstance) -> bool:
        return monitor.all_params_dead()


class CoenableGc(GcStrategy):
    """The RV rule: ``ALIVENESS(last event)`` must still be satisfiable.

    The formulas were compiled from the parameter coenable sets at spec
    compilation time; evaluation touches only the monitor's own parameter entries,
    which is what makes the per-notification check cheap.
    """

    name = "coenable"

    def __init__(self, prop: "CompiledProperty"):
        self._aliveness = prop.aliveness

    def is_unnecessary(self, monitor: MonitorInstance) -> bool:
        if monitor.last_event is None:
            # Never received an event — cannot consult ALIVENESS; keep.
            return monitor.all_params_dead()
        formula = self._aliveness.get(monitor.last_event)
        if formula is None:
            return monitor.all_params_dead()
        return not formula.holds_over(monitor.params)


class StateBasedGc(GcStrategy):
    """The Tracematches analog: liveness requirements indexed by monitor state.

    For each FSM state ``s`` the formula is the parameter lift of
    ``SEEABLE(s)`` — the exact event sets on paths from ``s`` to the goal —
    which is at least as precise as the event-indexed coenable sets (the
    event-indexed family is the union of ``SEEABLE`` over the event's
    successor states).
    """

    name = "statebased"

    def __init__(self, prop: "CompiledProperty"):
        template = prop.template
        if not template.supports_state_gc:
            raise UnsupportedFormalismError(
                f"{prop.spec_name}/{prop.formalism}: the state-based (Tracematches) "
                "strategy requires a finite-state formalism; context-free "
                "properties have an unbounded state space (paper, Section 3)"
            )
        state_families = template.state_coenable_sets(prop.goal)
        self._formulas: dict[str, AlivenessFormula] = {
            state: AlivenessFormula(lift_to_params(family, prop.definition))
            for state, family in state_families.items()
        }

    def is_unnecessary(self, monitor: MonitorInstance) -> bool:
        state = getattr(monitor.base, "state", None)
        if state is None:
            return monitor.all_params_dead()
        formula = self._formulas.get(state)
        if formula is None:
            # Unknown state (e.g. the implicit fail sink of a fresh machine):
            # nothing can be seen from it, so the monitor is unnecessary.
            return True
        return not formula.holds_over(monitor.params)


STRATEGY_NAMES = ("none", "alldead", "coenable", "statebased")


def make_strategy(kind: str, prop: "CompiledProperty") -> GcStrategy:
    """Build the per-property strategy object for ``kind``."""
    if kind == "none":
        return NoGc()
    if kind == "alldead":
        return AllParamsDead()
    if kind == "coenable":
        return CoenableGc(prop)
    if kind == "statebased":
        return StateBasedGc(prop)
    raise ValueError(f"unknown GC strategy {kind!r}; choose from {STRATEGY_NAMES}")
