"""Tentpole (b): the sharded service under app load equals a single engine.

One canonical recorded app run (session fixture) is replayed into a
single :class:`MonitoringEngine` and into 2-shard
:class:`MonitorService` instances in thread and process mode, across the
propagation matrix, with the single engine on either dispatch tier (the
shards always run generated kernels).  Verdict multisets — keyed by
*symbol*, so binding identities are comparable across targets — must be
identical.

Tokens are held alive for the whole replay (no mid-stream retirement):
queued modes observe deaths at batch granularity, so death-driven GC
equivalence is asserted engine-side (``test_live_replay``), while this
suite pins the sharding/queueing/forking layers' verdict neutrality.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.app import app_specs
from repro.runtime.engine import MonitoringEngine
from repro.runtime.tracelog import replay_entries
from repro.service import MonitorService

PROPAGATIONS = ("lazy", "eager")
#: The single engine's dispatch tier the service is compared against.
DISPATCHES = ("codegen", "reference")
SHARDS = 2


def _symbol(value):
    """ReplayTokens key by their recorded symbol; immortals by themselves."""
    return getattr(value, "symbol", value)


def _binding_key(pairs) -> tuple:
    return tuple(sorted((name, _symbol(value)) for name, value in pairs))


def engine_multiset(entries, *, dispatch: str, propagation: str) -> Counter:
    verdicts: Counter = Counter()
    engine = MonitoringEngine(
        [prop.make().silence() for prop in app_specs()],
        dispatch=dispatch,
        propagation=propagation,
        on_verdict=lambda prop, category, monitor: verdicts.update(
            [(prop.spec_name, prop.formalism, category,
              _binding_key(monitor.binding().items()))]
        ),
    )
    tokens = replay_entries(entries, engine)
    del tokens
    return verdicts


def service_multiset(entries, *, mode: str, propagation: str) -> Counter:
    verdicts: Counter = Counter()
    with MonitorService(
        [prop.make().silence() for prop in app_specs()],
        shards=SHARDS,
        mode=mode,
        propagation=propagation,
        keep_verdict_log=False,
        on_verdict=lambda record: verdicts.update(
            [(record.spec_name, record.formalism, record.category,
              _binding_key(record.binding))]
        ),
    ) as service:
        tokens = replay_entries(entries, service, batch_size=64)
        service.drain()
        del tokens
    return verdicts


@pytest.mark.parametrize("dispatch", DISPATCHES)
@pytest.mark.parametrize("propagation", PROPAGATIONS)
@pytest.mark.parametrize("mode", ("thread", "process"))
def test_service_equals_single_engine(mode, propagation, dispatch,
                                      recorded_app_entries):
    entries, _deaths = recorded_app_entries
    want = engine_multiset(entries, dispatch=dispatch, propagation=propagation)
    assert want, "the canonical app trace must produce verdicts"
    got = service_multiset(entries, mode=mode, propagation=propagation)
    assert got == want


def test_shard_count_is_verdict_neutral(recorded_app_entries):
    entries, _deaths = recorded_app_entries
    want = engine_multiset(entries, dispatch="codegen", propagation="lazy")
    for shards in (1, 3):
        verdicts: Counter = Counter()
        with MonitorService(
            [prop.make().silence() for prop in app_specs()],
            shards=shards,
            mode="inline",
            keep_verdict_log=False,
            on_verdict=lambda record: verdicts.update(
                [(record.spec_name, record.formalism, record.category,
                  _binding_key(record.binding))]
            ),
        ) as service:
            tokens = replay_entries(entries, service)
            del tokens
        assert verdicts == want, shards


def test_replay_equals_live_categories(recorded_app_run, recorded_app_entries):
    """Closing the loop: the symbol-keyed replay projects down to exactly
    the live run's (spec, formalism, category) multiset."""
    _trace, live_verdicts = recorded_app_run
    entries, _deaths = recorded_app_entries
    replayed = engine_multiset(entries, dispatch="codegen",
                               propagation="lazy")
    assert Counter(key[:3] for key in replayed) == live_verdicts
