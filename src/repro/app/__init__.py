"""The heavy-traffic reference application: a monitored asyncio server.

This package is the repo's macro workload — the role the DaCapo suite
plays in the paper's evaluation.  It contains three pieces:

* :mod:`repro.app.server` — a small, dependency-free asyncio HTTP/1.1
  server (stdlib ``asyncio.start_server``) whose routes exercise real
  resources: sqlite cursors, a thread-pool executor, temporary
  directories, per-connection handler tasks, chunked writes.  The server
  knows nothing about monitoring; its parsing/response milestones are
  ordinary module functions that double as weaving seams.
* :mod:`repro.app.weave` — the instrumentation side: function pointcuts
  mapping those seams onto the protocol-level properties of
  :mod:`repro.properties.protocol` (plus the live-resource catalogue
  properties the routes touch), woven into the **unmodified** server
  through :class:`repro.instrument.live.LiveSession` /
  :class:`~repro.instrument.live.TraceWeaver`, which swaps each seam's
  code for a trampoline that runs the advice around it.
* :mod:`repro.app.driver` — a seeded load driver opening N concurrent
  keep-alive connections with a deterministic request mix, including
  mid-request disconnects, slowloris-style stalls, and handler errors.

``tests/app/`` proves live-vs-replay and sharded-vs-single equivalence
over this workload; ``benchmarks/bench_app.py`` publishes the standing
overhead/throughput curve (``BENCH_app.json``).
"""

from .driver import DriverConfig, DriverStats, run_driver
from .server import AppServer, ROUTES
from .weave import APP_PROPERTY_KEYS, app_pointcuts, app_specs, weave_app

__all__ = [
    "AppServer",
    "ROUTES",
    "DriverConfig",
    "DriverStats",
    "run_driver",
    "APP_PROPERTY_KEYS",
    "app_pointcuts",
    "app_specs",
    "weave_app",
]
