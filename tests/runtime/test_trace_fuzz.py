"""Seeded randomized fuzzing of the dispatch-equivalence oracle.

Generalizes ``test_dispatch_equivalence``'s fixed traces: for **every**
CATALOGUE property (paper substrate + live-resource + protocol), random
event/death interleavings are synthesized from the property's own
alphabet and driven through the reference and codegen engines in
lockstep over shared parameter objects.  Any divergence in the robust
observables (verdict multisets with binding identities, E, M, handler
fires) is a bug in one of the dispatch tiers, and so is any difference
between codegen's monitor lifetimes (FM, CM, live peak) and the row
pinned for the corpus trace in ``pinned_lifetimes.json``.

On failure the offending op list is **greedily minimized** (ddmin-style
chunk removal while the divergence persists) and dumped as NDJSON —
``REPRO_FUZZ_DUMP`` names the directory (default: the system temp dir) —
so the exact interleaving can be replayed with :func:`load_ops`.  A
pinned row is an oracle for its full trace only, so a lifetime-only
divergence has nothing to minimize against: it is dumped whole, with the
pinned and observed rows in the dump's meta line.
"""

from __future__ import annotations

import gc
import json
import os
import random
import tempfile
import zlib
from collections import Counter
from pathlib import Path

import pytest

from repro.core.errors import UnsupportedFormalismError
from repro.properties import CATALOGUE
from repro.runtime.engine import MonitoringEngine

from ..conftest import Obj
from .test_dispatch_equivalence import lifetime_rows, pinned_rows

DISPATCHES = ("reference", "codegen")
#: GC strategy rotates per (property, seed) so the corpus covers them all
#: without multiplying the matrix.
GC_STRATEGIES = ("statebased", "coenable", "alldead", "none")
SEEDS = (11, 23)
EVENTS = 220
POOL = 4
KILL_PROBABILITY = 0.15


# ---------------------------------------------------------------------------
# Op synthesis and NDJSON (de)serialization.
# ---------------------------------------------------------------------------


def synth_ops(definition, seed: int) -> list[dict]:
    """A reproducible op list over one property's alphabet, JSON-shaped.

    ``{"op": "emit", "event": e, "binding": {param: slot}}`` emits with
    pooled objects; ``{"op": "kill", "param": p, "slot": n}`` replaces a
    pooled object so the old identity dies mid-trace.
    """
    rng = random.Random(seed)
    alphabet = sorted(definition.alphabet)
    parameters = sorted(definition.parameters)
    ops: list[dict] = []
    for _ in range(EVENTS):
        if parameters and rng.random() < KILL_PROBABILITY:
            ops.append({
                "op": "kill",
                "param": rng.choice(parameters),
                "slot": rng.randrange(POOL),
            })
        event = rng.choice(alphabet)
        ops.append({
            "op": "emit",
            "event": event,
            "binding": {
                param: rng.randrange(POOL)
                for param in sorted(definition.params_of(event))
            },
        })
    return ops


def dump_ops(path: Path, meta: dict, ops: list[dict]) -> None:
    """Write a failure reproduction: one meta line, then one op per line."""
    with open(path, "w") as sink:
        sink.write(json.dumps({"meta": meta}) + "\n")
        for op in ops:
            sink.write(json.dumps(op) + "\n")


def load_ops(path: Path) -> tuple[dict, list[dict]]:
    """Read a dump back as ``(meta, ops)`` — the replay entry point."""
    with open(path) as source:
        first, *rest = [json.loads(line) for line in source if line.strip()]
    return first["meta"], rest


# ---------------------------------------------------------------------------
# The lockstep oracle.
# ---------------------------------------------------------------------------


def _collector(bag: Counter):
    def on_verdict(prop, category, monitor):
        bag[(
            prop.spec_name,
            prop.formalism,
            category,
            tuple(sorted(
                (name, id(value)) for name, value in monitor.binding().items()
            )),
        )] += 1

    return on_verdict


def discrepancy(
    spec_factory, ops: list[dict], gc_kind: str, lifetimes: "dict | None" = None
) -> "str | None":
    """Run both dispatch tiers over ``ops``; describe any divergence.

    Returns ``None`` when reference and codegen agree on every robust
    observable and, given ``lifetimes`` (one case's pinned rows, see
    :func:`pinned_rows`), codegen's lifetimes equal them; else a
    human-readable description of the first disagreement (the fuzzer's
    failure predicate — also the minimizer's).
    """
    engines: dict[str, MonitoringEngine] = {}
    verdicts: dict[str, Counter] = {}
    for dispatch in DISPATCHES:
        bag: Counter = Counter()
        engines[dispatch] = MonitoringEngine(
            spec_factory(), gc=gc_kind, dispatch=dispatch,
            on_verdict=_collector(bag),
        )
        verdicts[dispatch] = bag
    pools: dict[str, list[Obj]] = {}
    serial = 0
    for op in ops:
        if op["op"] == "kill":
            pool = pools.get(op["param"])
            if pool is not None:
                serial += 1
                pool[op["slot"]] = Obj(f"{op['param']}#{serial}")
        else:
            values = {}
            for param, slot in op["binding"].items():
                pool = pools.get(param)
                if pool is None:
                    pool = pools[param] = [
                        Obj(f"{param}{n}") for n in range(POOL)
                    ]
                values[param] = pool[slot]
            for engine in engines.values():
                engine.emit(op["event"], **values)
    pools.clear()
    gc.collect()
    for engine in engines.values():
        engine.flush_gc()
    reference, codegen = engines["reference"], engines["codegen"]
    if verdicts["codegen"] != verdicts["reference"]:
        return "codegen: verdict multiset diverges from reference"
    for (name, formalism), stats in codegen.stats().items():
        other = reference.stats_for(name, formalism)
        for field in ("events", "monitors_created", "handler_fires", "verdicts"):
            if getattr(stats, field) != getattr(other, field):
                return (f"codegen: {name}/{formalism} {field} "
                        f"{getattr(stats, field)} != {getattr(other, field)}")
    if lifetimes is not None:
        # Pinned keys are ``property/gc/seed/spec/formalism``.
        observed = lifetime_rows(codegen, next(iter(lifetimes)).rsplit("/", 2)[0])
        if observed != lifetimes:
            return f"codegen lifetimes {observed} != pinned {lifetimes}"
    return None


# ---------------------------------------------------------------------------
# Greedy minimization (ddmin-style chunk removal).
# ---------------------------------------------------------------------------


def minimize(ops: list[dict], fails) -> list[dict]:
    """Smallest op list (under greedy chunk removal) still failing.

    ``fails(ops)`` is the predicate; chunks halve from len/2 down to 1,
    restarting after any successful removal — classic delta debugging
    without the complement bookkeeping (the predicate is cheap here).
    """
    chunk = max(1, len(ops) // 2)
    while chunk >= 1:
        shrunk = False
        start = 0
        while start < len(ops):
            candidate = ops[:start] + ops[start + chunk:]
            if candidate and fails(candidate):
                ops = candidate
                shrunk = True
            else:
                start += chunk
        if not shrunk:
            chunk //= 2
    return ops


def _dump_dir() -> Path:
    configured = os.environ.get("REPRO_FUZZ_DUMP")
    path = Path(configured) if configured else Path(tempfile.gettempdir())
    path.mkdir(parents=True, exist_ok=True)
    return path


# ---------------------------------------------------------------------------
# The fuzz corpus: every CATALOGUE property × seeds.
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("key", sorted(CATALOGUE))
def test_fuzz_dispatch_lockstep(key: str):
    prop = CATALOGUE[key]
    for index, seed_base in enumerate(SEEDS):
        seed = zlib.crc32(f"{key}/{seed_base}".encode())
        gc_kind = GC_STRATEGIES[(seed + index) % len(GC_STRATEGIES)]

        def factory():
            return prop.make().silence()

        try:
            MonitoringEngine(factory(), gc=gc_kind)
        except UnsupportedFormalismError:
            gc_kind = "none"  # CFG properties: fall back, keep fuzzing
        spec = factory()
        ops = synth_ops(spec.definition, seed=seed)
        pinned = pinned_rows("fuzz", f"{key}/{gc_kind}/{seed_base}")
        assert pinned, (key, gc_kind, seed_base)
        failure = discrepancy(factory, ops, gc_kind, lifetimes=pinned)
        if failure is not None:
            minimal = minimize(
                ops, lambda candidate: discrepancy(factory, candidate, gc_kind)
            )
            dump = _dump_dir() / f"fuzz-{key}-{seed_base}.ndjson"
            dump_ops(dump, {
                "property": key, "gc": gc_kind, "seed": seed_base,
                "failure": failure, "ops": len(minimal),
            }, minimal)
            pytest.fail(
                f"{key} [{gc_kind}, seed {seed_base}]: {failure} — "
                f"minimized reproduction ({len(minimal)} ops) at {dump}"
            )


# ---------------------------------------------------------------------------
# The harness itself is tested: minimizer and dump/replay round-trip.
# ---------------------------------------------------------------------------


def test_minimizer_reaches_a_minimal_core():
    """On a synthetic predicate (needs one 'a' emit AND one 'b' emit) the
    greedy minimizer must strip everything else."""
    rng = random.Random(99)
    ops = [
        {"op": "emit", "event": rng.choice("abcde"), "binding": {}}
        for _ in range(100)
    ]
    ops.append({"op": "emit", "event": "a", "binding": {}})
    ops.append({"op": "emit", "event": "b", "binding": {}})

    def fails(candidate):
        events = [op["event"] for op in candidate]
        return "a" in events and "b" in events

    minimal = minimize(list(ops), fails)
    assert sorted(op["event"] for op in minimal) == ["a", "b"]


def test_dump_roundtrips(tmp_path):
    spec = CATALOGUE["hasnext"].make()
    ops = synth_ops(spec.definition, seed=5)
    path = tmp_path / "repro.ndjson"
    dump_ops(path, {"property": "hasnext", "gc": "none", "seed": 5}, ops)
    meta, loaded = load_ops(path)
    assert meta["property"] == "hasnext"
    assert loaded == ops
    # A loaded dump is directly replayable through the oracle.
    assert discrepancy(
        lambda: CATALOGUE["hasnext"].make().silence(), loaded, "none"
    ) is None
