"""Sharded monitoring service: one ingestion front, four engine shards.

Demonstrates the :mod:`repro.service` subsystem:

1. host UNSAFEITER and HASNEXT together behind a 4-shard
   ``MonitorService`` (worker threads, bounded queues, backpressure);
2. inspect the anchor-routing table the service derived statically —
   UNSAFEITER anchors on the collection ``c`` (its ``next`` events follow
   the iterator's learned association), HASNEXT anchors on ``i``;
3. stream events from interleaved producers, then drain and read the
   merged verdict stream and the exact aggregated statistics.

Run:  python examples/service_demo.py
"""

from repro import MonitorService
from repro.properties import HASNEXT, UNSAFEITER


class Token:
    """A weak-referenceable stand-in for a program object."""

    __slots__ = ("name", "__weakref__")

    def __init__(self, name: str):
        self.name = name

    def __repr__(self) -> str:
        return self.name


def main() -> None:
    service = MonitorService(
        [UNSAFEITER, HASNEXT],  # PaperProperty providers compile on the spot
        shards=4,
        system="rv",
        mode="thread",
        on_verdict=lambda record: print(
            f"  shard {record.shard}: {record.spec_name} -> {record.category} "
            f"{dict(record.binding)}"
        ),
    )

    print("-- routing table --")
    for row in service.describe_routing():
        print(f"  {row['property']:>16}: anchor={row['anchor']}", end="")
        if row["anchor_free_events"]:
            print(
                f", {row['anchor_free_delivery']} delivery for "
                f"{', '.join(row['anchor_free_events'])}"
            )
        else:
            print(" (every event carries the anchor)")

    print("-- streaming two collections' traffic (verdicts appear inline) --")
    with service:
        # Verdicts reach on_verdict asynchronously, bound to the live
        # objects; one whose objects already died binds their symbols
        # (``o1``...) instead.  Keep the demo's objects until the drain.
        alive = []
        for serial in range(2):
            collection = Token(f"collection{serial}")
            iterators = [Token(f"iterator{serial}.{n}") for n in range(3)]
            alive.append((collection, iterators))
            for iterator in iterators:
                service.emit("create", c=collection, i=iterator)
                service.emit("hasnexttrue", i=iterator)
                service.emit("next", i=iterator)
            # Update the collection, then touch an old iterator: UNSAFEITER.
            service.emit("update", c=collection)
            service.emit("next", i=iterators[0])
            # next() without hasNext(): HASNEXT (fsm and ltl logics).
            reckless = Token(f"reckless{serial}")
            alive.append(reckless)
            service.emit("create", c=collection, i=reckless)
            service.emit("next", i=reckless)
        service.drain()

        print("-- merged statistics (exact across shards) --")
        for (name, formalism), stats in sorted(service.stats().items()):
            print(f"  {name}/{formalism}: {stats}")
        print(f"  total verdicts: {len(service.verdicts())}")


if __name__ == "__main__":
    main()
