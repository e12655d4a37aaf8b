"""Compiled per-(property, event) dispatch plans.

JavaMOP's efficiency comes from specializing the entire per-event code path
at *property compile time* (JinMGR11 Section 4.1: the indexing trees exist
so that no event ever scans ``Theta``).  This module is the analogous
specialization for this reproduction: for every ``(property, event)`` pair
it precomputes a :class:`DispatchPlan` — interned integer event ids,
parameter *slot indices* (so the hot path manipulates plain tuples of
parameter objects in sorted-parameter order instead of dict-backed
bindings), the full creation/join strategy, and the creation-validity
checks lowered to static ``(domain, extraction-index)`` lists.

Everything here is a pure function of the compiled specification — no
runtime state.  :mod:`repro.spec.codegen` renders each plan as generated
kernels that bind a runtime's indexing trees by literal domain; after
that, processing one event is local variables plus weak-map walks, with rich
:class:`~repro.core.params.Binding` objects appearing only at creation and
verdict boundaries.

The plan construction mirrors ``PropertyRuntime._build_plan`` (the retained
reference path) exactly, with one strengthening: ties between equal-sized
enable domains are broken deterministically (by sorted parameter names)
instead of by set iteration order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .compiler import CompiledProperty

__all__ = [
    "DomainCheck",
    "SelfSourcePlan",
    "JoinPlan",
    "EventPlan",
    "InsertPlan",
    "DispatchPlan",
    "build_dispatch_plan",
]


def _domain_sort_key(domain: frozenset) -> tuple:
    return (-len(domain), tuple(sorted(domain)))


@dataclass(frozen=True)
class DomainCheck:
    """One creation-validity probe: an event domain whose touch stamp can
    invalidate a creation (``d ⊆ target`` and ``d ⊄ source``), with the
    slot positions extracting its sub-values from the creation target's
    value tuple."""

    domain: frozenset
    extract: tuple[int, ...]


@dataclass(frozen=True)
class SelfSourcePlan:
    """A defineTo source: an enable domain ``K ⊊ D(e)`` whose instance (if
    alive) seeds the new monitor for the event's own binding."""

    domain: frozenset
    extract: tuple[int, ...]  #: positions in the event tuple -> sorted(K) values
    checks: tuple[DomainCheck, ...]  #: validity probes for (target=D(e), source=K)


@dataclass(frozen=True)
class JoinPlan:
    """A cross-binding join: instances of enable domain ``K`` (incomparable
    with ``D(e)``) combine with the event into ``K ∪ D(e)`` instances."""

    join_domain: frozenset  #: K
    join_params: tuple[str, ...]  #: sorted(K)
    key_params: tuple[str, ...]  #: sorted(K ∩ D(e)) — the join-index key
    key_extract: tuple[int, ...]  #: event-tuple positions of the key params
    target_domain: frozenset  #: K ∪ D(e)
    target_params: tuple[str, ...]
    #: Target-tuple recipe: ``(from_candidate, position)`` per target param —
    #: position into the candidate's sorted(K) values or the event tuple.
    merge: tuple[tuple[bool, int], ...]
    checks: tuple[DomainCheck, ...]  #: validity probes for (target, source=K)
    #: Whether the target domain is itself an event domain: its touch stamp
    #: is then checked directly on the (already fetched) target leaf rather
    #: than through a ``checks`` probe.
    check_target: bool


@dataclass(frozen=True)
class EventPlan:
    """The complete static strategy for one ``(property, event)`` pair."""

    event: str
    event_id: int
    domain: frozenset
    params: tuple[str, ...]  #: sorted D(e) — the event's slot order
    self_sources: tuple[SelfSourcePlan, ...]  #: largest-first
    allows_fresh: bool  #: ∅ is an enable domain (creation from scratch)
    fresh_checks: tuple[DomainCheck, ...]  #: validity probes for source=∅
    joins: tuple[JoinPlan, ...]  #: largest-first
    has_creation: bool
    #: Whether self-creation must verify the event leaf's own touch stamp
    #: (always, except for zero-parameter events, which have no stamp
    #: semantics in the reference validity check).
    check_event_leaf: bool


@dataclass(frozen=True)
class InsertPlan:
    """Where a freshly created monitor of one domain must be registered."""

    domain: frozenset
    params: tuple[str, ...]  #: sorted(domain) — the creation value-tuple order
    #: Whether the monitor's own domain is itself some event's D(e) (its own
    #: leaf then also tracks extensions and receives the monitor directly).
    own_is_event_domain: bool
    #: Extension registrations: ``(event_domain, extract)`` for every event
    #: domain strictly below the monitor's (the full domain is handled via
    #: ``own_is_event_domain``; the empty domain's tree is included).
    extension_entries: tuple[tuple[frozenset, tuple[int, ...]], ...]
    #: Join-index registrations: ``(index_key, key_extract)``.
    join_entries: tuple[tuple[tuple[frozenset, frozenset], tuple[int, ...]], ...]


@dataclass(frozen=True)
class DispatchPlan:
    """Everything static the runtime needs to dispatch one property."""

    params: tuple[str, ...]  #: sorted property parameters (global slot order)
    events: tuple[str, ...]  #: sorted alphabet — positions are the event ids
    event_ids: dict[str, int]
    event_plans: dict[str, EventPlan]
    event_domains: tuple[frozenset, ...]  #: deduped, deterministic order
    monitor_domains: frozenset
    insert_plans: dict[frozenset, InsertPlan]
    #: Every (join domain, key domain) pair needing a JoinIndex structure.
    join_index_keys: tuple[tuple[frozenset, frozenset], ...]


def build_dispatch_plan(prop: "CompiledProperty") -> DispatchPlan:
    """Lower one compiled property to its static dispatch plan."""
    definition = prop.definition
    events = tuple(sorted(definition.alphabet))
    event_ids = {event: index for index, event in enumerate(events)}
    monitor_domains = prop.monitor_domains()
    domain_of = {event: definition.params_of(event) for event in events}
    event_domains = tuple(
        sorted(set(domain_of.values()), key=_domain_sort_key)
    )
    nonempty_domains = tuple(domain for domain in event_domains if domain)

    def checks_for(
        target_params: tuple[str, ...], target: frozenset, source: frozenset
    ) -> tuple[DomainCheck, ...]:
        # The target domain's own touch stamp is checked inline against the
        # leaf the creation path already holds; only the proper sub-domains
        # need probes.
        position = {param: index for index, param in enumerate(target_params)}
        return tuple(
            DomainCheck(domain, tuple(position[param] for param in sorted(domain)))
            for domain in nonempty_domains
            if domain < target and not domain <= source
        )

    join_index_keys: dict[tuple[frozenset, frozenset], None] = {}
    event_plans: dict[str, EventPlan] = {}
    for event in events:
        event_domain = domain_of[event]
        event_params = tuple(sorted(event_domain))
        position = {param: index for index, param in enumerate(event_params)}
        allows_fresh = False
        self_domains: set[frozenset] = set()
        join_domains: set[tuple[frozenset, frozenset]] = set()
        for enable_domain in prop.param_enable.get(event, ()):
            if not enable_domain:
                allows_fresh = True
            elif enable_domain < event_domain:
                self_domains.add(enable_domain)
            elif enable_domain <= event_domain or event_domain <= enable_domain:
                # K == D(e): the exact instance already exists if it ever
                # will; K ⊃ D(e): domain-K instances are updated, not created.
                continue
            elif enable_domain in monitor_domains:
                join_domains.add((enable_domain, enable_domain & event_domain))
        self_sources = tuple(
            SelfSourcePlan(
                domain=domain,
                extract=tuple(position[param] for param in sorted(domain)),
                checks=checks_for(event_params, event_domain, domain),
            )
            for domain in sorted(self_domains, key=_domain_sort_key)
        )
        joins = []
        for join_domain, key_domain in sorted(
            join_domains, key=lambda pair: _domain_sort_key(pair[0])
        ):
            join_index_keys.setdefault((join_domain, key_domain))
            join_params = tuple(sorted(join_domain))
            join_position = {param: index for index, param in enumerate(join_params)}
            target_domain = join_domain | event_domain
            target_params = tuple(sorted(target_domain))
            # Shared parameters (the key) come from the event tuple — the
            # candidate's values match them by identity anyway.
            merge = tuple(
                (False, position[param])
                if param in position
                else (True, join_position[param])
                for param in target_params
            )
            joins.append(
                JoinPlan(
                    join_domain=join_domain,
                    join_params=join_params,
                    key_params=tuple(sorted(key_domain)),
                    key_extract=tuple(position[param] for param in sorted(key_domain)),
                    target_domain=target_domain,
                    target_params=target_params,
                    merge=merge,
                    checks=checks_for(target_params, target_domain, join_domain),
                    check_target=target_domain in nonempty_domains,
                )
            )
        event_plans[event] = EventPlan(
            event=event,
            event_id=event_ids[event],
            domain=event_domain,
            params=event_params,
            self_sources=self_sources,
            allows_fresh=allows_fresh,
            fresh_checks=checks_for(event_params, event_domain, frozenset()),
            joins=tuple(joins),
            has_creation=bool(self_sources or allows_fresh or joins),
            check_event_leaf=bool(event_domain),
        )

    insert_plans: dict[frozenset, InsertPlan] = {}
    for domain in monitor_domains:
        domain_params = tuple(sorted(domain))
        position = {param: index for index, param in enumerate(domain_params)}
        extension_entries = tuple(
            (
                event_domain,
                tuple(position[param] for param in sorted(event_domain)),
            )
            for event_domain in event_domains
            if event_domain < domain
        )
        join_entries = tuple(
            (key, tuple(position[param] for param in sorted(key[1])))
            for key in join_index_keys
            if key[0] == domain
        )
        insert_plans[domain] = InsertPlan(
            domain=domain,
            params=domain_params,
            own_is_event_domain=domain in set(event_domains),
            extension_entries=extension_entries,
            join_entries=join_entries,
        )

    return DispatchPlan(
        params=tuple(sorted(definition.parameters)),
        events=events,
        event_ids=event_ids,
        event_plans=event_plans,
        event_domains=event_domains,
        monitor_domains=monitor_domains,
        insert_plans=insert_plans,
        join_index_keys=tuple(join_index_keys),
    )
