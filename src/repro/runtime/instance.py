"""Runtime monitor instances.

A :class:`MonitorInstance` pairs a base monitor (the formalism-level state)
with a parameter binding held through the objects' entries in the engine's
:class:`~repro.runtime.refs.ParamLedger` (weak references) — the instance
must never keep its parameter objects alive, or the entire GC technique
would be moot.

Per Section 4.2.2, each instance remembers the *last event* it received so
that, when a parameter-death notification arrives, the GC strategy can
evaluate ``ALIVENESS(last event)``.  Instances are *flagged* (not removed)
when found unnecessary; physical removal is lazy (Section 4.2/5.1.1).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Mapping

from ..core.params import Binding

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from ..spec.compiler import CompiledProperty

__all__ = ["MonitorInstance"]


class MonitorInstance:
    """One parametric monitor instance (a row of the ``Delta`` table)."""

    __slots__ = (
        "prop",
        "base",
        "params",
        "domain",
        "last_event",
        "flagged",
        "serial",
        "provenance",
        "__weakref__",
    )

    def __init__(
        self,
        prop: "CompiledProperty",
        base: Any,
        params: Mapping[str, Any],
        serial: int,
    ):
        self.prop = prop
        self.base = base
        self.params = dict(params)
        #: ``dom(theta)`` — fixed at creation (bindings never shrink or grow),
        #: precomputed because the join path compares it per candidate.
        self.domain: frozenset[str] = frozenset(self.params)
        self.last_event: str | None = None
        self.flagged = False
        self.serial = serial
        #: Stamped by the runtime at verdict time: property/slot identity
        #: plus, under a durable engine, the WAL coordinates of the
        #: triggering event (see :mod:`repro.obs.provenance`).
        self.provenance: dict[str, Any] | None = None

    def param_alive(self, name: str) -> bool:
        """Liveness of one bound parameter; unbound parameters count as alive
        (they may still be bound by future events — Theorem 1 is about bound
        objects only)."""
        entry = self.params.get(name)
        return True if entry is None else entry() is not None

    def liveness(self) -> dict[str, bool]:
        return {name: entry() is not None for name, entry in self.params.items()}

    def all_params_dead(self) -> bool:
        """JavaMOP's collectability condition: every bound parameter is gone.

        Immortal (non-weak-referenceable) parameters never die, so an
        instance binding one is never collectable under this rule — the same
        would be true of a Java object pinned by a static field.
        """
        params = self.params
        if not params:
            return False
        for entry in params.values():
            if entry() is not None:
                return False
        return True

    def binding(self) -> Binding:
        """Rebuild a :class:`Binding` of the still-live parameter objects
        (dead parameters are omitted) — used when firing handlers."""
        pairs = []
        for name, entry in self.params.items():
            value = entry()
            if value is not None:
                pairs.append((name, value))
        return Binding._of_unique(pairs)

    def snapshot_payload(self, symbol_of: Callable[[Any], str]) -> dict:
        """This instance as checkpoint-codec data.

        ``symbol_of`` names live parameter objects (see
        :class:`~repro.runtime.refs.SymbolRegistry`); dead parameters are
        recorded as ``!dead:<serial>`` markers (the entry's ledger serial) —
        their identity is gone, but the restored instance must still report
        them bound-and-dead.
        """
        params: dict[str, str] = {}
        for name, entry in self.params.items():
            value = entry()
            if value is None:
                params[name] = f"!dead:{entry.serial}"
            else:
                params[name] = symbol_of(value)
        return {
            "serial": self.serial,
            "last_event": self.last_event,
            "state": self.base.snapshot_state(),
            "params": params,
        }

    @classmethod
    def from_payload(
        cls,
        prop: "CompiledProperty",
        payload: Mapping[str, Any],
        tokens: Mapping[str, Any],
        ledger: Any,
    ) -> "MonitorInstance":
        """Rebuild an instance from :meth:`snapshot_payload` output.

        ``tokens`` maps live symbols to their restored stand-in objects,
        whose entries ``ledger`` provides; ``!dead:`` markers become
        tombstones.  Markers written before entries had serials carry a
        hexadecimal ``id()`` instead and restore the same way.
        """
        params: dict[str, Any] = {}
        for name, symbol in payload["params"].items():
            if symbol.startswith("!dead:"):
                number = symbol[len("!dead:"):]
                params[name] = ledger.tombstone(
                    int(number) if number.isdigit() else int(number, 16)
                )
            else:
                params[name] = ledger.entry(tokens[symbol])
        base = prop.template.monitor_from_state(payload["state"])
        instance = cls(prop, base, params, payload["serial"])
        instance.last_event = payload["last_event"]
        return instance

    def __repr__(self) -> str:
        names = ", ".join(
            f"{name}{'†' if entry() is None else ''}" for name, entry in sorted(self.params.items())
        )
        mark = " FLAGGED" if self.flagged else ""
        return f"MonitorInstance#{self.serial}<{names}>({self.base.verdict()}){mark}"
