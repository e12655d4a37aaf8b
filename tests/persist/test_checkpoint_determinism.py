"""Checkpoint bytes are a function of the run, not of string hashing.

A checkpoint lists each runtime's touched bindings tree by tree, so the
order of a runtime's trees is written to disk.  Two interpreters with
different ``PYTHONHASHSEED`` values iterate a set of frozensets in
different orders; the trees must not be built from one.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"

#: Feeds two multi-domain properties through a durable engine, drops a
#: few objects, checkpoints, and prints the checkpoint file's digest.
PROGRAM = """
import gc, hashlib, random, sys, tempfile
from repro.persist import DurableEngine
from repro.properties import ALL_PROPERTIES

class Token:
    __slots__ = ("__weakref__",)

props = [ALL_PROPERTIES[key].make().silence() for key in ("unsafemapiter", "unsafesyncmap")]
rng = random.Random(7)
pools = {name: [Token() for _ in range(3)] for name in "mcis"}
with tempfile.TemporaryDirectory() as directory:
    engine = DurableEngine(props, directory, system="tm")
    events = sorted(
        (event, sorted(definition.params_of(event)))
        for definition in (prop.properties[0].definition for prop in props)
        for event in definition.alphabet
    )
    for step in range(300):
        event, names = rng.choice(events)
        engine.emit(event, **{name: rng.choice(pools[name]) for name in names})
        if step % 37 == 0:
            pool = pools[rng.choice("mcis")]
            pool[rng.randrange(3)] = Token()
            gc.collect()
    path = engine.checkpoint()
    with open(path, "rb") as handle:
        print(hashlib.sha256(handle.read()).hexdigest())
    engine.close()
"""


def checkpoint_digest(hash_seed: str) -> str:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c", PROGRAM], env=env, capture_output=True, text=True,
        check=True,
    )
    return done.stdout.strip()


def test_checkpoint_bytes_do_not_depend_on_the_hash_seed():
    digests = {checkpoint_digest(seed) for seed in ("0", "1", "2")}
    assert len(digests) == 1, digests
