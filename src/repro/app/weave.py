"""Weaving the reference app — the server itself stays unmodified.

Everything the monitors see comes from pointcuts installed here onto the
server's protocol seams (the plain module-level functions of
:mod:`repro.app.server`): :class:`~repro.instrument.live.TraceWeaver`
function pointcuts for the request/response/task/cursor milestones (each
seam's code is swapped for a trampoline that runs the advice), plus
the live-resource catalogue's own class pointcuts (executor, tempdir) for
the resources the routes touch.  The server module never imports any of
this; run without a session, the seams are ordinary function calls.

The one convention that keeps things composable: :func:`weave_app` is the
*only* weaving entry point for the app scenario.  Build the engine or
service yourself, wrap it in a bare ``LiveSession(sink)``, and call
``weave_app(session)`` — passing the app properties to the session
constructor as well would weave the class pointcuts twice.
"""

from __future__ import annotations

from typing import Any, Iterable

from ..instrument.live import FunctionPointcut, on_call, on_return
from ..properties import CATALOGUE
from . import server

__all__ = ["APP_PROPERTY_KEYS", "app_specs", "app_pointcuts", "weave_app"]


#: The property set the app scenario monitors by default: the three
#: protocol properties plus the resource-catalogue ones its routes
#: exercise.  SOCKETUSE and TASKLOOP are deliberately absent — they would
#: observe asyncio's own internals (selector sockets, every loop task),
#: drowning the scenario in events that are not the app's.
APP_PROPERTY_KEYS: tuple[str, ...] = (
    "reqlife", "connreuse", "handlerleak", "cursorsafe", "executor", "tempdir",
)


def app_specs(keys: Iterable[str] = APP_PROPERTY_KEYS) -> list[Any]:
    """The catalogue property objects for an engine/service constructor."""
    return [CATALOGUE[key] for key in keys]


def app_pointcuts(
    keys: Iterable[str] = APP_PROPERTY_KEYS,
) -> list[FunctionPointcut]:
    """Function pointcuts mapping the server's seams onto property events.

    Only the pointcuts feeding the selected ``keys`` are produced, so a
    session monitoring a property subset pays for exactly that subset.
    """
    wanted = set(keys)
    pointcuts: list[FunctionPointcut] = []
    if "reqlife" in wanted:
        pointcuts += [
            on_return(server.begin_request, "req_start", {"r": "result"}),
            on_call(server.request_headers, "req_headers", {"r": "arg:request"}),
            on_call(server.request_body, "req_body", {"r": "arg:request"}),
            on_call(server.finish_request, "req_close", {"r": "arg:request"}),
        ]
    if "connreuse" in wanted:
        pointcuts += [
            on_call(server.begin_response, "resp_start", {"c": "arg:conn"}),
            on_call(server.end_response, "resp_end", {"c": "arg:conn"}),
        ]
    if "handlerleak" in wanted:
        pointcuts += [
            on_return(server.spawn_task, "task_track",
                      {"c": "arg:conn", "t": "result"}),
            on_call(server.task_finished, "task_retire", {"t": "arg:task"}),
            on_call(server.close_connection, "conn_end", {"c": "arg:conn"}),
        ]
    if "cursorsafe" in wanted:
        pointcuts += [
            on_return(server.open_cursor, "cur_open",
                      {"c": "arg:db", "k": "result"}),
            on_call(server.run_query, "cur_exec", {"k": "arg:cursor"}),
            on_call(server.close_cursor, "cur_close", {"k": "arg:cursor"}),
            on_call(server.close_db, "conn_close", {"c": "arg:db"}),
        ]
    if "tempdir" in wanted:
        # dir_create / dir_cleanup come from TEMPDIR's class pointcuts
        # (woven below); dir_use is the app's path-resolution seam.
        pointcuts.append(
            on_call(server.resolve_scratch, "dir_use", {"d": "arg:scratch"})
        )
    return pointcuts


def weave_app(session: Any, keys: Iterable[str] = APP_PROPERTY_KEYS) -> Any:
    """Install the app scenario's full instrumentation on ``session``.

    Weaves the selected catalogue properties' default class pointcuts
    (executor/tempdir lifecycles) and the server-seam function pointcuts.
    The session's sink must already know the matching specs
    (:func:`app_specs` with the same ``keys``).  Returns the session.
    """
    keys = tuple(keys)
    for key in keys:
        prop = CATALOGUE[key]
        factory = getattr(prop, "pointcut_factory", None)
        if factory is not None:
            class_pointcuts = factory()
            if class_pointcuts:
                session.weave(class_pointcuts)
    function_pointcuts = app_pointcuts(keys)
    if function_pointcuts:
        session.weave_functions(function_pointcuts)
    return session
