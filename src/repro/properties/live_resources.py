"""Parametric properties over *real* Python resources.

Where :mod:`repro.properties.iterators` and
:mod:`repro.properties.locks_files` monitor the Java-collections substrate
of the paper's evaluation, the properties here monitor live Python
programs: sockets, asyncio tasks, DB cursors, temporary directories and
thread-pool executors.  They are the workloads the live instrumentation
layer (:mod:`repro.instrument.live`) exists for — the parameter objects
are real interpreter objects whose deaths the host garbage collector
reports through ``weakref`` callbacks.

Each property is a :class:`LiveProperty`: the specification text plus its
*default instrumentation* — class pointcuts where the resource's seams are
pure-Python classes (``socket.socket``, ``tempfile.TemporaryDirectory``,
``concurrent.futures.ThreadPoolExecutor``), or a ``weave_hook(session)``
where declarative pointcuts cannot express the hookup (asyncio task
completion callbacks).  Resources implemented in C (``sqlite3``) carry no
default weaving: their events come from user code annotated with
:func:`repro.instrument.live.emits` or from the plain Python functions
that call them, woven with :class:`~repro.instrument.live.TraceWeaver` —
see ``examples/live_dbcursor_demo.py``.

Event names are prefixed per resource family so any subset of these
properties can be co-monitored in one engine without binding conflicts.
"""

from __future__ import annotations

import socket
import tempfile
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any, Callable

from ..instrument.aspects import Pointcut, after_returning, before
from ..spec.compiler import CompiledSpec, compile_spec

__all__ = [
    "LiveProperty",
    "SOCKETUSE",
    "TASKLOOP",
    "CURSORSAFE",
    "TEMPDIR",
    "EXECUTOR",
    "LIVE_PROPERTIES",
]


@dataclass(frozen=True)
class LiveProperty:
    """One live-resource property, ready to compile and weave.

    Mirrors :class:`~repro.properties.base.PaperProperty` (``key`` /
    ``make()`` make it registry- and catalogue-compatible), but its
    instrumentation targets real interpreter objects: ``pointcut_factory``
    (optional) yields class pointcuts for pure-Python seams, and
    ``weave_hook`` (optional) receives the active
    :class:`~repro.instrument.live.LiveSession` for instrumentation that
    needs more than a declarative pointcut.
    """

    key: str
    title: str
    spec_text: str
    description: str
    pointcut_factory: Callable[[], list[Pointcut]] | None = None
    weave_hook: Callable[[Any], None] | None = None

    def make(self) -> CompiledSpec:
        """Compile a fresh specification instance."""
        return compile_spec(self.spec_text)

    def pointcuts(self) -> list[Pointcut]:
        """The default class pointcuts (empty for hook/user-code weaving)."""
        return self.pointcut_factory() if self.pointcut_factory is not None else []

    def __str__(self) -> str:
        return self.title


# ---------------------------------------------------------------------------
# SOCKETUSE — no socket I/O after close.
# ---------------------------------------------------------------------------

_SOCKETUSE_SPEC = """
SocketUse(s) {
  event sock_create(s)
  event sock_use(s)
  event sock_close(s)

  fsm:
    fresh  [ sock_create -> open ]
    open   [ sock_use -> open  sock_close -> closed ]
    closed [ sock_close -> closed  sock_use -> error ]
    error  [ ]
  @error "socket used after close!"
}
"""


def _socketuse_pointcuts() -> list[Pointcut]:
    return [
        after_returning(socket.socket, "__init__", event="sock_create",
                        bind={"s": "target"}),
        before(socket.socket, "send", event="sock_use", bind={"s": "target"}),
        before(socket.socket, "sendall", event="sock_use", bind={"s": "target"}),
        before(socket.socket, "recv", event="sock_use", bind={"s": "target"}),
        before(socket.socket, "close", event="sock_close", bind={"s": "target"}),
    ]


SOCKETUSE = LiveProperty(
    key="socketuse",
    title="SOCKETUSE",
    spec_text=_SOCKETUSE_SPEC,
    pointcut_factory=_socketuse_pointcuts,
    description=(
        "Do not send/recv on a socket after close() — the typestate a "
        "closed file descriptor enforces with an OSError at runtime."
    ),
)


# ---------------------------------------------------------------------------
# TASKLOOP — every spawned asyncio task completes before its loop closes.
# ---------------------------------------------------------------------------

_TASKLOOP_SPEC = """
TaskLoop(l, t) {
  event task_spawn(l, t)
  event task_done(t)
  event task_cancelled(t)
  event loop_close(l)

  ere: task_spawn task_cancelled* loop_close
  @match "task abandoned: never completed before its event loop closed!"
}
"""


def _weave_taskloop(session: Any) -> None:
    """Patch the event-loop seams (create_task / close) for one session.

    ``create_task`` is the single funnel every task construction flows
    through (``asyncio.create_task``, ``ensure_future``, ``gather``), and
    completion is observed with a per-task done callback — exactly the
    instrumentation a declarative pointcut cannot express, hence a weave
    hook.  Cancelled completions are distinguished so the abandoned-task
    pattern survives ``asyncio.run``'s cancel-pending-tasks shutdown.
    """
    import asyncio.base_events as base_events

    def around_create_task(original, loop, coro, **kwargs):
        task = original(loop, coro, **kwargs)
        session.emit("task_spawn", l=loop, t=task)

        def on_done(finished):
            session.emit(
                "task_cancelled" if finished.cancelled() else "task_done",
                t=finished,
            )

        task.add_done_callback(on_done)
        return task

    def around_close(original, loop):
        session.emit("loop_close", l=loop)
        return original(loop)

    session.patch_method(base_events.BaseEventLoop, "create_task", around_create_task)
    session.patch_method(base_events.BaseEventLoop, "close", around_close)


TASKLOOP = LiveProperty(
    key="taskloop",
    title="TASKLOOP",
    spec_text=_TASKLOOP_SPEC,
    description=(
        "Every asyncio task spawned on a loop must run to completion "
        "before the loop closes; a task still pending (or killed by the "
        "shutdown cancellation sweep) was fire-and-forgotten."
    ),
    weave_hook=_weave_taskloop,
)


# ---------------------------------------------------------------------------
# CURSORSAFE — no execute on a closed DB cursor / closed connection.
# ---------------------------------------------------------------------------

_CURSORSAFE_SPEC = """
CursorSafe(c, k) {
  event cur_open(c, k)
  event cur_exec(k)
  event cur_close(k)
  event conn_close(c)

  fsm:
    fresh [ cur_open -> live ]
    live  [ cur_exec -> live  cur_close -> dead  conn_close -> dead ]
    dead  [ cur_close -> dead  conn_close -> dead  cur_exec -> error ]
    error [ ]
  @error "cursor executed after close (cursor or its connection)!"
}
"""


CURSORSAFE = LiveProperty(
    key="cursorsafe",
    title="CURSORSAFE",
    spec_text=_CURSORSAFE_SPEC,
    description=(
        "Do not execute on a DB cursor after the cursor — or the "
        "connection that produced it — was closed.  sqlite3's classes are "
        "C types, so events come from user-code weaving (emits decorators "
        "or TraceWeaver function pointcuts on the data-access layer)."
    ),
)


# ---------------------------------------------------------------------------
# TEMPDIR — no use (or second cleanup) of a cleaned-up TemporaryDirectory.
# ---------------------------------------------------------------------------

_TEMPDIR_SPEC = """
TempDirSafe(d) {
  event dir_create(d)
  event dir_use(d)
  event dir_cleanup(d)

  fsm:
    fresh [ dir_create -> live ]
    live  [ dir_use -> live  dir_cleanup -> done ]
    done  [ dir_use -> error  dir_cleanup -> error ]
    error [ ]
  @error "temporary directory used (or cleaned up) after cleanup!"
}
"""


def _tempdir_pointcuts() -> list[Pointcut]:
    return [
        after_returning(tempfile.TemporaryDirectory, "__init__",
                        event="dir_create", bind={"d": "target"}),
        before(tempfile.TemporaryDirectory, "cleanup", event="dir_cleanup",
               bind={"d": "target"}),
    ]


TEMPDIR = LiveProperty(
    key="tempdir",
    title="TEMPDIR",
    spec_text=_TEMPDIR_SPEC,
    pointcut_factory=_tempdir_pointcuts,
    description=(
        "A TemporaryDirectory must not be resolved into paths (dir_use, "
        "emitted by user code) or cleaned up again after cleanup() ran — "
        "the with-statement exit counts as cleanup."
    ),
)


# ---------------------------------------------------------------------------
# EXECUTOR — no submit to a shut-down ThreadPoolExecutor.
# ---------------------------------------------------------------------------

_EXECUTOR_SPEC = """
ExecutorSafe(x) {
  event exec_create(x)
  event exec_submit(x)
  event exec_shutdown(x)

  fsm:
    fresh [ exec_create -> live ]
    live  [ exec_submit -> live  exec_shutdown -> down ]
    down  [ exec_shutdown -> down  exec_submit -> error ]
    error [ ]
  @error "work submitted to a shut-down executor!"
}
"""


def _executor_pointcuts() -> list[Pointcut]:
    return [
        after_returning(ThreadPoolExecutor, "__init__", event="exec_create",
                        bind={"x": "target"}),
        before(ThreadPoolExecutor, "submit", event="exec_submit",
               bind={"x": "target"}),
        before(ThreadPoolExecutor, "shutdown", event="exec_shutdown",
               bind={"x": "target"}),
    ]


EXECUTOR = LiveProperty(
    key="executor",
    title="EXECUTOR",
    spec_text=_EXECUTOR_SPEC,
    pointcut_factory=_executor_pointcuts,
    description=(
        "Do not submit work to a ThreadPoolExecutor after shutdown() — "
        "including the implicit shutdown of a with-statement exit."
    ),
)


#: The live-resource properties, keyed by short name (catalogue order).
LIVE_PROPERTIES: dict[str, LiveProperty] = {
    prop.key: prop
    for prop in (SOCKETUSE, TASKLOOP, CURSORSAFE, TEMPDIR, EXECUTOR)
}
