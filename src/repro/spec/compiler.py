"""Compiler from parsed specifications to runnable monitor templates.

For every logic block of a specification the compiler produces a
:class:`CompiledProperty`: the formalism-compiled
:class:`~repro.core.monitor.MonitorTemplate`, the goal ``G`` (the verdict
categories carrying handlers), and the static analyses the runtime needs —
parameter coenable sets, compiled ALIVENESS formulas (Section 4.2.2), and
parameter enable sets for monitor-creation pruning.

Compiling — not monitoring — is where the static analyses run: as the paper
notes, computing coenable sets "is expected to be a quick static operation
in practice, because they are a function of the specification ... and not
of the program".
"""

from __future__ import annotations

import hashlib
import json
from typing import Callable, Iterable, Mapping

from ..core.aliveness import AlivenessFormula, compile_aliveness
from ..core.coenable import lift_to_params, param_coenable_sets
from ..core.errors import SpecCompileError
from ..core.events import EventDefinition
from ..core.monitor import MonitorTemplate, SetOfEventSets
from ..core.params import Binding
from ..core.verdicts import ERROR, MATCH, VIOLATION, normalize_goal
from ..formalism.cfg import compile_cfg
from ..formalism.ere import compile_ere
from ..formalism.fsm import compile_fsm
from ..formalism.ltl import compile_ltl
from .ast import HandlerDecl, LogicBlock, SpecAst
from .parser import parse_spec

__all__ = ["CompiledProperty", "CompiledSpec", "compile_spec", "load_spec"]

#: Handler signature: (specification name, verdict category, parameter binding).
Handler = Callable[[str, str, Binding], None]

#: Default goals when a logic block declares no handler.
_DEFAULT_GOALS = {
    "fsm": frozenset({ERROR}),
    "ere": frozenset({MATCH}),
    "ltl": frozenset({VIOLATION}),
    "cfg": frozenset({MATCH}),
}


class CompiledProperty:
    """One logic block, compiled: template + goal + static analyses."""

    def __init__(
        self,
        spec_name: str,
        formalism: str,
        template: MonitorTemplate,
        definition: EventDefinition,
        goal: frozenset[str],
        handlers: tuple[HandlerDecl, ...],
    ):
        self.spec_name = spec_name
        self.formalism = formalism
        self.template = template
        self.definition = definition
        self.goal = goal
        self.declared_handlers = handlers
        self._callbacks: dict[str, list[Handler]] = {}
        for handler in handlers:
            if handler.message is not None:
                self.on(handler.category, _print_handler(handler.message))
        # Static analyses (Sections 3 and 4.2.2).
        self.coenable: dict[str, SetOfEventSets] = template.coenable_sets(goal)
        self.param_coenable: dict[str, frozenset[frozenset[str]]] = param_coenable_sets(
            self.coenable, definition
        )
        self.aliveness: dict[str, AlivenessFormula] = compile_aliveness(
            self.param_coenable
        )
        self.enable: dict[str, SetOfEventSets] = template.enable_sets(goal)
        self.param_enable: dict[str, frozenset[frozenset[str]]] = {
            event: lift_to_params(family, definition)
            for event, family in self.enable.items()
        }
        self._monitor_domains: frozenset[frozenset[str]] | None = None
        self._dispatch_plan = None
        self._fsm_dispatch: "tuple | None | bool" = False
        self._fingerprint: str | None = None

    # -- static shape queries ------------------------------------------------

    def monitor_domains(self) -> frozenset[frozenset[str]]:
        """Parameter domains monitor instances can actually have.

        The closure of enable-pruned creation targets ``K ∪ D(e)`` over
        realizable enable domains ``K`` — the set of indexing trees the
        runtime keeps, and the basis for the sharding router's anchor
        validity check (a parameter occurring in *every* realizable domain
        pins each monitor, hence each trace slice, to one shard).
        """
        if self._monitor_domains is None:
            realizable: set[frozenset[str]] = set()
            changed = True
            while changed:
                changed = False
                for event in self.definition.alphabet:
                    event_domain = self.definition.params_of(event)
                    for enable_domain in self.param_enable.get(event, ()):  # K
                        if enable_domain and enable_domain not in realizable:
                            continue
                        target = enable_domain | event_domain
                        if target not in realizable:
                            realizable.add(target)
                            changed = True
            self._monitor_domains = frozenset(realizable)
        return self._monitor_domains

    def dispatch_plan(self):
        """The compiled per-event dispatch plan (built once, cached).

        See :mod:`repro.spec.dispatch`: slot indices, interned event ids,
        and the complete creation/join/validity strategy, all lowered at
        property-compile time so the runtime hot path is table-driven.
        """
        if self._dispatch_plan is None:
            from .dispatch import build_dispatch_plan

            self._dispatch_plan = build_dispatch_plan(self)
        return self._dispatch_plan

    def fsm_dispatch(self) -> "tuple | None":
        """Flat-table stepping data for finite-state templates, or ``None``.

        Returns ``(rows, goal_flags, verdict_names)``: transition rows
        indexed ``[state_id][event_id]`` (event ids = this property's
        :meth:`dispatch_plan` ids), a per-state boolean marking states whose
        verdict lies in this property's goal, and the per-state verdict
        categories.  ``None`` for formalisms that do not lower to an
        explicit FSM (CFG, raw templates) — those step through the virtual
        ``BaseMonitor.step`` path.
        """
        if self._fsm_dispatch is False:
            from ..formalism.fsm import FSMTemplate

            result = None
            template = self.template
            if isinstance(template, FSMTemplate):
                table = template.table
                if table.events == self.dispatch_plan().events:
                    result = (
                        table.rows,
                        tuple(
                            verdict in self.goal for verdict in table.verdict_names
                        ),
                        table.verdict_names,
                    )
            self._fsm_dispatch = result
        return self._fsm_dispatch

    def fingerprint(self) -> str:
        """A stable identity hash for snapshot compatibility checks.

        Two compilations of the same specification text produce the same
        fingerprint; the checkpoint codec refuses to restore monitor state
        into a property whose fingerprint differs from the snapshot's.
        Covers the event definition, the goal, and the formalism-level
        semantics (FSM transition table / CFG grammar); raw templates are
        covered by their alphabet and categories only — their transition
        *functions* are code, which a fingerprint cannot witness.  Computed
        once per instance: everything it covers is fixed at construction.
        """
        if self._fingerprint is not None:
            return self._fingerprint
        definition = self.definition
        descriptor = {
            "spec": self.spec_name,
            "formalism": self.formalism,
            "goal": sorted(self.goal),
            "parameters": sorted(definition.parameters),
            "events": {
                event: sorted(definition.params_of(event))
                for event in sorted(definition.alphabet)
            },
            "template": self._template_descriptor(),
        }
        payload = json.dumps(descriptor, sort_keys=True, separators=(",", ":"))
        self._fingerprint = hashlib.sha256(payload.encode("utf-8")).hexdigest()[:32]
        return self._fingerprint

    def _template_descriptor(self) -> dict:
        from ..formalism.cfg import CFGTemplate
        from ..formalism.fsm import FSMTemplate

        template = self.template
        if isinstance(template, FSMTemplate):
            fsm = template.fsm
            return {
                "kind": "fsm",
                "states": list(fsm.states),
                "initial": fsm.initial,
                "transitions": sorted(
                    [state, event, successor]
                    for (state, event), successor in fsm.transitions.items()
                ),
                "verdicts": dict(sorted(fsm.verdicts.items())),
            }
        if isinstance(template, CFGTemplate):
            grammar = template.grammar
            return {
                "kind": "cfg",
                "start": grammar.start,
                "productions": {
                    lhs: sorted(list(rhs) for rhs in alternatives)
                    for lhs, alternatives in sorted(grammar.productions.items())
                },
            }
        return {
            "kind": type(template).__name__,
            "alphabet": sorted(template.alphabet),
            "categories": sorted(template.categories),
        }

    # -- handlers -----------------------------------------------------------

    def on(self, category: str, callback: Handler) -> "CompiledProperty":
        """Attach a Python handler to a verdict category; returns self."""
        if category not in self.template.categories:
            raise SpecCompileError(
                f"{self.spec_name}/{self.formalism}: handler for unknown verdict "
                f"category {category!r} (known: {sorted(self.template.categories)})"
            )
        self._callbacks.setdefault(category, []).append(callback)
        return self

    @property
    def handled_categories(self) -> frozenset[str]:
        return frozenset(handler.category for handler in self.declared_handlers) | frozenset(
            self._callbacks
        )

    def fire(self, category: str, binding: Binding) -> None:
        """Invoke the handlers registered for ``category`` (if any)."""
        for callback in self._callbacks.get(category, ()):
            callback(self.spec_name, category, binding)

    def silence(self) -> "CompiledProperty":
        """Drop every attached handler (benchmarks monitor without printing)."""
        self._callbacks.clear()
        return self

    def __repr__(self) -> str:
        return (
            f"CompiledProperty({self.spec_name}/{self.formalism}, "
            f"goal={sorted(self.goal)})"
        )


class CompiledSpec:
    """A fully compiled specification: events plus one or more properties."""

    def __init__(self, ast: SpecAst):
        self.name = ast.name
        self.parameters = ast.parameters
        self.definition = EventDefinition(
            {event.name: event.params for event in ast.events},
            all_params=ast.parameters,
        )
        self.properties = tuple(
            _compile_logic(ast, logic, self.definition) for logic in ast.logics
        )

    @property
    def alphabet(self) -> frozenset[str]:
        return self.definition.alphabet

    def property_named(self, formalism: str) -> CompiledProperty:
        """The first compiled property using ``formalism`` (fsm/ere/ltl/cfg)."""
        for compiled in self.properties:
            if compiled.formalism == formalism:
                return compiled
        raise SpecCompileError(f"{self.name} has no {formalism!r} logic block")

    def on(self, category: str, callback: Handler) -> "CompiledSpec":
        """Attach a handler to every property that can emit ``category``."""
        attached = False
        for compiled in self.properties:
            if category in compiled.template.categories:
                compiled.on(category, callback)
                attached = True
        if not attached:
            raise SpecCompileError(
                f"no property of {self.name} can emit category {category!r}"
            )
        return self

    def silence(self) -> "CompiledSpec":
        """Drop every handler on every property (quiet benchmarking)."""
        for compiled in self.properties:
            compiled.silence()
        return self

    def __repr__(self) -> str:
        formalisms = ", ".join(p.formalism for p in self.properties)
        return f"CompiledSpec({self.name}({', '.join(self.parameters)}); {formalisms})"


def _print_handler(message: str) -> Handler:
    def handler(spec_name: str, category: str, binding: Binding) -> None:
        print(message)

    return handler


def _compile_logic(
    ast: SpecAst, logic: LogicBlock, definition: EventDefinition
) -> CompiledProperty:
    alphabet = definition.alphabet
    try:
        if logic.formalism == "fsm":
            template = compile_fsm(logic.body, alphabet)
        elif logic.formalism == "ere":
            template = compile_ere(logic.body, alphabet)
        elif logic.formalism == "ltl":
            template = compile_ltl(logic.body, alphabet)
        elif logic.formalism == "cfg":
            template = compile_cfg(logic.body, alphabet)
        else:  # pragma: no cover - parser restricts formalisms
            raise SpecCompileError(f"unknown formalism {logic.formalism!r}")
    except SpecCompileError:
        raise
    except Exception as exc:
        raise SpecCompileError(
            f"{ast.name}/{logic.formalism}: {exc}"
        ) from exc
    if logic.handlers:
        goal = normalize_goal(handler.category for handler in logic.handlers)
    else:
        goal = _DEFAULT_GOALS[logic.formalism]
    unknown = goal - template.categories
    if unknown:
        raise SpecCompileError(
            f"{ast.name}/{logic.formalism}: goal categories {sorted(unknown)} are "
            f"not emitted by this property (known: {sorted(template.categories)})"
        )
    return CompiledProperty(
        spec_name=ast.name,
        formalism=logic.formalism,
        template=template,
        definition=definition,
        goal=goal,
        handlers=logic.handlers,
    )


def compile_spec(source: str | SpecAst) -> CompiledSpec:
    """Parse (if needed) and compile a specification."""
    ast = parse_spec(source) if isinstance(source, str) else source
    return CompiledSpec(ast)


def load_spec(path: str) -> CompiledSpec:
    """Compile a specification from a ``.rv`` file."""
    with open(path, encoding="utf-8") as handle:
        return compile_spec(handle.read())
