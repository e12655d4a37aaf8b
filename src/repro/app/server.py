"""A dependency-free asyncio HTTP/1.1 server: the monitored real program.

The server is deliberately ordinary application code — ``asyncio.
start_server``, a per-connection read loop, a route table — and it never
imports the monitoring stack.  What makes it *weavable* is structure, not
hooks: every protocol milestone (request begun, headers parsed, body
read, request finished, response started/ended, handler task tracked/
retired, connection ended) is an ordinary module-level function, because
parsing and bookkeeping naturally factor that way.  The instrumentation
layer (:mod:`repro.app.weave`) attaches
:class:`~repro.instrument.live.TraceWeaver` function pointcuts to exactly
those seams; run unwoven, they are plain function calls.

Routes exercise real resources so the live-resource catalogue properties
have something to watch: sqlite cursors (``/items``), a shared
``ThreadPoolExecutor`` (``/work``), per-request ``TemporaryDirectory``
scratch space (``/scratch``), multi-chunk writes (``/stream``) and an
async pause (``/sleep``).  Three routes carry **deliberate defects** the
protocol properties must catch online:

* ``/boom`` — the handler raises; the error path sends a 500 *and*
  finishes the request a second time in the ``finally`` (the classic
  double-cleanup bug): a REQLIFE ``error``.
* ``/push`` — after the real response, the handler pushes an unsolicited
  second response whose start overlaps the first exchange's finalization:
  a CONNREUSE ``error`` (drivers close the connection after this route).
* ``/leak`` — spawns a background task on behalf of the connection and
  never awaits it, so the connection can close first: a HANDLERLEAK
  ``match`` per leaked task.

Everything else is clean, so verdict multisets are a pure function of the
driver's seeded request mix.
"""

from __future__ import annotations

import asyncio
import itertools
import sqlite3
import tempfile
import zlib
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Awaitable, Callable

__all__ = [
    "Request",
    "Connection",
    "AppServer",
    "RouteSpec",
    "ROUTES",
    "HandlerError",
]

#: HTTP responses are tiny and hand-rolled; the protocol subset is exactly
#: what the driver speaks (request line, headers, optional sized body).
_CRLF = b"\r\n"


class HandlerError(Exception):
    """A route handler failed; the connection loop turns this into a 500."""


class Request:
    """One HTTP exchange's identity object — the ``r`` of REQLIFE.

    Weak-referenceable on purpose: the request object dies when its
    exchange is finished and the handler frame unwinds, which is what
    retires its lifecycle monitor under the live death ledger.
    """

    __slots__ = (
        "serial", "method", "path", "query", "headers", "body",
        "keep_alive", "finished", "__weakref__",
    )

    def __init__(self, serial: int):
        self.serial = serial
        self.method = ""
        self.path = ""
        self.query = ""
        self.headers: dict[str, str] = {}
        self.body = b""
        self.keep_alive = True
        self.finished = False

    def __repr__(self) -> str:
        return f"Request(#{self.serial} {self.method} {self.path!r})"


class Connection:
    """One accepted client connection — the ``c`` of CONNREUSE/HANDLERLEAK."""

    __slots__ = (
        "serial", "reader", "writer", "tasks", "requests_served",
        "responses_open", "closed", "__weakref__",
    )

    def __init__(self, serial: int, reader: Any, writer: Any):
        self.serial = serial
        self.reader = reader
        self.writer = writer
        #: Handler tasks spawned on behalf of this connection, still live.
        self.tasks: set[asyncio.Task] = set()
        self.requests_served = 0
        #: Responses started but not yet ended (should never exceed 1).
        self.responses_open = 0
        self.closed = False

    def __repr__(self) -> str:
        return f"Connection(#{self.serial}, served={self.requests_served})"


# ---------------------------------------------------------------------------
# Protocol seams.  Ordinary bookkeeping functions — and, because they are
# plain (not generator or coroutine) functions, exactly what TraceWeaver
# can instrument by swapping their code.
# ---------------------------------------------------------------------------

_serials = itertools.count(1)


def open_connection(reader: Any, writer: Any) -> Connection:
    """A client connected; mint its identity object."""
    return Connection(next(_serials), reader, writer)


def close_connection(conn: Connection) -> None:
    """The connection is over (clean close, error, or timeout)."""
    conn.closed = True


def begin_request(conn: Connection) -> Request:
    """A request line arrived on ``conn``; mint the exchange's identity."""
    conn.requests_served += 1
    return Request(next(_serials))


def request_headers(request: Request, method: str, target: str,
                    headers: dict[str, str]) -> None:
    """The header block is complete; fill in the parsed request."""
    request.method = method
    request.path, _, request.query = target.partition("?")
    request.headers = headers
    request.keep_alive = headers.get("connection", "keep-alive") != "close"


def request_body(request: Request, body: bytes) -> None:
    """The sized body was read in full."""
    request.body = body


def finish_request(request: Request) -> None:
    """The exchange is over (response sent, aborted, or timed out)."""
    request.finished = True


def begin_response(conn: Connection, request: "Request | None",
                   status: int) -> None:
    """The server starts writing a response head onto ``conn``."""
    conn.responses_open += 1


def end_response(conn: Connection) -> None:
    """The response's last byte was handed to the transport."""
    conn.responses_open -= 1


def spawn_task(conn: Connection, coro: Awaitable, name: str) -> asyncio.Task:
    """Spawn a handler task on behalf of ``conn`` and track it."""
    task = asyncio.get_running_loop().create_task(coro, name=name)
    conn.tasks.add(task)
    task.add_done_callback(task_finished)
    return task


def task_finished(task: asyncio.Task) -> None:
    """Done callback for every tracked handler task."""
    # The connection that owns the task removes it lazily; a done task in
    # the set is harmless (awaiting or cancelling it is a no-op).


# -- database seams (sqlite3's classes are C types: CURSORSAFE events come
#    from weaving these functions, the cursor-using data-access layer) ------


def open_cursor(db: sqlite3.Connection) -> sqlite3.Cursor:
    """Open one cursor on the app database."""
    return db.cursor()


def run_query(cursor: sqlite3.Cursor, sql: str, args: tuple = ()) -> list:
    """Execute one statement and fetch its rows."""
    cursor.execute(sql, args)
    return cursor.fetchall()


def close_cursor(cursor: sqlite3.Cursor) -> None:
    """Release one cursor."""
    cursor.close()


def close_db(db: sqlite3.Connection) -> None:
    """Close the app database connection."""
    db.close()


def resolve_scratch(scratch: tempfile.TemporaryDirectory, name: str) -> Path:
    """Resolve a path inside a scratch directory (a TEMPDIR ``dir_use``)."""
    return Path(scratch.name) / name


# ---------------------------------------------------------------------------
# The server.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RouteSpec:
    """One route of the reference app, as documented in docs/app-scenario.md."""

    path: str
    summary: str
    #: Catalogue property keys whose events this route exercises.
    properties: tuple[str, ...]


#: The route table — the single source of truth the documentation's route
#: table is asserted against (tests/docs/test_app_scenario_doc.py).
ROUTES: tuple[RouteSpec, ...] = (
    RouteSpec("/", "hello world: the minimal request/response cycle",
              ("reqlife", "connreuse")),
    RouteSpec("/items", "sqlite SELECT (GET) / INSERT (POST) through a "
                        "fresh cursor per request",
              ("reqlife", "connreuse", "cursorsafe")),
    RouteSpec("/work", "checksum computed on the shared ThreadPoolExecutor, "
                       "awaited through a tracked handler task",
              ("reqlife", "connreuse", "executor", "handlerleak")),
    RouteSpec("/scratch", "per-request TemporaryDirectory: create, write a "
                          "file inside it, clean up",
              ("reqlife", "connreuse", "tempdir")),
    RouteSpec("/stream", "response body written in several chunks with "
                         "drains in between",
              ("reqlife", "connreuse")),
    RouteSpec("/sleep", "asyncio pause before responding (latency tail)",
              ("reqlife", "connreuse")),
    RouteSpec("/boom", "DEFECT: handler raises; the 500 path finishes the "
                       "request twice (double-cleanup bug)",
              ("reqlife", "connreuse")),
    RouteSpec("/push", "DEFECT: unsolicited second response pushed before "
                       "the first exchange is finalized",
              ("reqlife", "connreuse")),
    RouteSpec("/leak", "DEFECT: background task spawned for the connection "
                       "and never awaited",
              ("reqlife", "connreuse", "handlerleak")),
)


class AppServer:
    """The reference asyncio application under monitoring.

    ``read_timeout`` bounds every read of a request's bytes — a stalled
    (slowloris) client is answered with 408 and disconnected.  All
    resources (listener, sqlite database, executor, scratch dir) are
    created in :meth:`start` and torn down in :meth:`close`, so a
    monitoring session activated *before* ``start()`` observes their full
    lifecycles.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0,
                 read_timeout: float = 5.0):
        self.host = host
        self.port = port
        self.read_timeout = read_timeout
        self._server: asyncio.AbstractServer | None = None
        self._db: sqlite3.Connection | None = None
        self._executor: ThreadPoolExecutor | None = None
        self._scratch: tempfile.TemporaryDirectory | None = None
        self._conn_tasks: set[asyncio.Task] = set()
        self.connections_handled = 0
        self.requests_handled = 0

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> "AppServer":
        """Create the resources and start listening; resolves the port."""
        self._db = sqlite3.connect(":memory:")
        cursor = open_cursor(self._db)
        run_query(cursor, "CREATE TABLE items (id INTEGER PRIMARY KEY, val TEXT)")
        run_query(cursor, "INSERT INTO items (val) VALUES ('seed')")
        self._db.commit()
        close_cursor(cursor)
        self._executor = ThreadPoolExecutor(max_workers=2)
        self._scratch = tempfile.TemporaryDirectory(prefix="repro-app-")
        self._server = await asyncio.start_server(
            self._client_connected, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        return self

    async def close(self) -> None:
        """Stop listening and release every resource (idempotent)."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        if self._conn_tasks:
            for task in list(self._conn_tasks):
                task.cancel()
            await asyncio.gather(*self._conn_tasks, return_exceptions=True)
            self._conn_tasks.clear()
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None
        if self._scratch is not None:
            self._scratch.cleanup()
            self._scratch = None
        if self._db is not None:
            close_db(self._db)
            self._db = None

    async def __aenter__(self) -> "AppServer":
        return await self.start()

    async def __aexit__(self, *_exc: Any) -> None:
        await self.close()

    # -- the connection loop ----------------------------------------------

    async def _client_connected(self, reader: asyncio.StreamReader,
                                writer: asyncio.StreamWriter) -> None:
        conn = open_connection(reader, writer)
        self.connections_handled += 1
        self._conn_tasks.add(asyncio.current_task())
        try:
            while True:
                request = await self._read_request(conn)
                if request is None:
                    break
                keep = await self._respond(conn, request)
                self.requests_handled += 1
                if not keep:
                    break
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # the peer vanished mid-exchange; nothing left to say
        except asyncio.CancelledError:
            pass  # server shutdown: treat as an orderly connection end
        finally:
            self._conn_tasks.discard(asyncio.current_task())
            close_connection(conn)
            for task in list(conn.tasks):
                if not task.done():
                    task.cancel()
            conn.tasks.clear()
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _read_request(self, conn: Connection) -> "Request | None":
        """Read one full request; None ends the connection loop.

        The request identity exists from the moment its request line
        arrives; every early exit (stall timeout, mid-request disconnect,
        malformed bytes) finishes the exchange before returning, so
        aborted requests still close their lifecycle.
        """
        try:
            line = await asyncio.wait_for(
                conn.reader.readline(), timeout=self.read_timeout
            )
        except asyncio.TimeoutError:
            return None  # idle keep-alive connection: close quietly
        if not line or not line.strip():
            return None  # clean EOF (or bare CRLF before close)
        request = begin_request(conn)
        try:
            parts = line.decode("latin-1").split()
            if len(parts) < 2:
                raise ValueError(f"malformed request line: {line!r}")
            method, target = parts[0], parts[1]
            headers: dict[str, str] = {}
            while True:
                header = await asyncio.wait_for(
                    conn.reader.readline(), timeout=self.read_timeout
                )
                if not header:
                    raise asyncio.IncompleteReadError(b"", None)
                if header == _CRLF:
                    break
                name, _, value = header.decode("latin-1").partition(":")
                headers[name.strip().lower()] = value.strip()
            request_headers(request, method, target, headers)
            length = int(headers.get("content-length", "0"))
            if length:
                body = await asyncio.wait_for(
                    conn.reader.readexactly(length), timeout=self.read_timeout
                )
                request_body(request, body)
            return request
        except asyncio.TimeoutError:
            # Slowloris: the client stalled mid-request.  Finish the
            # exchange, say 408, and hang up.
            finish_request(request)
            await self._write_simple(conn, request, 408, b"request timeout\n",
                                     close=True)
            return None
        except (ValueError, asyncio.IncompleteReadError):
            finish_request(request)  # mid-request disconnect / garbage
            return None

    async def _respond(self, conn: Connection, request: Request) -> bool:
        """Dispatch one parsed request; returns keep-alive."""
        try:
            try:
                handler = self._handlers().get(request.path, self._not_found)
                await handler(conn, request)
            except HandlerError as exc:
                # DELIBERATE DEFECT (REQLIFE): the error path finishes the
                # exchange before replying... and the finally below will
                # finish it again — the double-cleanup bug the lifecycle
                # property exists to catch.
                finish_request(request)
                await self._write_simple(conn, request, 500,
                                         f"handler failed: {exc}\n".encode())
            except Exception as exc:  # the *clean* 500 path: finish once
                await self._write_simple(conn, request, 500,
                                         f"internal error: {exc}\n".encode())
        finally:
            finish_request(request)
        return request.keep_alive

    # -- response plumbing -------------------------------------------------

    async def _write_simple(self, conn: Connection, request: "Request | None",
                            status: int, body: bytes,
                            close: bool = False) -> None:
        begin_response(conn, request, status)
        head = (
            f"HTTP/1.1 {status} X\r\ncontent-length: {len(body)}\r\n"
            f"connection: {'close' if close else 'keep-alive'}\r\n\r\n"
        ).encode("latin-1")
        conn.writer.write(head + body)
        await conn.writer.drain()
        end_response(conn)

    # -- route handlers ----------------------------------------------------

    def _handlers(self) -> dict[str, Callable]:
        return {
            "/": self._hello,
            "/items": self._items,
            "/work": self._work,
            "/scratch": self._scratch_route,
            "/stream": self._stream,
            "/sleep": self._sleep,
            "/boom": self._boom,
            "/push": self._push,
            "/leak": self._leak,
        }

    async def _not_found(self, conn: Connection, request: Request) -> None:
        await self._write_simple(conn, request, 404, b"no such route\n")

    async def _hello(self, conn: Connection, request: Request) -> None:
        await self._write_simple(conn, request, 200, b"hello\n")

    async def _items(self, conn: Connection, request: Request) -> None:
        cursor = open_cursor(self._db)
        try:
            if request.method == "POST":
                value = request.body.decode("utf-8", "replace") or "empty"
                run_query(cursor, "INSERT INTO items (val) VALUES (?)", (value,))
                self._db.commit()
                body = f"stored #{cursor.lastrowid}\n".encode()
            else:
                rows = run_query(
                    cursor, "SELECT id, val FROM items ORDER BY id DESC LIMIT 5"
                )
                body = "".join(f"{i}:{v}\n" for i, v in rows).encode()
        finally:
            close_cursor(cursor)
        await self._write_simple(conn, request, 200, body)

    async def _work(self, conn: Connection, request: Request) -> None:
        payload = (request.query or "payload").encode()
        loop = asyncio.get_running_loop()
        job = loop.run_in_executor(self._executor, zlib.crc32, payload * 64)
        audit = spawn_task(conn, self._audit(request), f"audit-{request.serial}")
        checksum = await job
        await audit  # the well-behaved pattern: tracked work is awaited
        conn.tasks.discard(audit)
        await self._write_simple(conn, request, 200, f"{checksum:08x}\n".encode())

    async def _audit(self, request: Request) -> None:
        """Per-request bookkeeping task (the tracked-work shape)."""
        await asyncio.sleep(0)

    async def _scratch_route(self, conn: Connection, request: Request) -> None:
        # Held explicitly (not as a with-statement) so the directory object
        # — the identity TEMPDIR monitors — is nameable for resolve_scratch.
        scratch = tempfile.TemporaryDirectory(prefix="req-")
        try:
            path = resolve_scratch(scratch, "note.txt")
            path.write_text(request.query or "scratch")
            size = path.stat().st_size
        finally:
            scratch.cleanup()
        await self._write_simple(conn, request, 200, f"wrote {size}\n".encode())

    async def _stream(self, conn: Connection, request: Request) -> None:
        chunks = [b"chunk-%d\n" % index for index in range(4)]
        begin_response(conn, request, 200)
        head = (
            f"HTTP/1.1 200 X\r\ncontent-length: "
            f"{sum(len(chunk) for chunk in chunks)}\r\n"
            "connection: keep-alive\r\n\r\n"
        ).encode("latin-1")
        conn.writer.write(head)
        for chunk in chunks:
            conn.writer.write(chunk)
            await conn.writer.drain()
        end_response(conn)

    async def _sleep(self, conn: Connection, request: Request) -> None:
        await asyncio.sleep(min(0.05, self.read_timeout / 4))
        await self._write_simple(conn, request, 200, b"rested\n")

    async def _boom(self, conn: Connection, request: Request) -> None:
        raise HandlerError("boom route always fails")

    async def _push(self, conn: Connection, request: Request) -> None:
        # DELIBERATE DEFECT (CONNREUSE): an unsolicited push response is
        # started before the real exchange is finalized, interleaving two
        # responses on one connection.  Drivers close after this route, so
        # the stray bytes never corrupt a later exchange's parse.
        body = b"pushed-main\n"
        begin_response(conn, request, 200)
        head = (
            f"HTTP/1.1 200 X\r\ncontent-length: {len(body)}\r\n"
            "connection: keep-alive\r\n\r\n"
        ).encode("latin-1")
        conn.writer.write(head + body)
        await conn.writer.drain()
        push = b"HTTP/1.1 200 X\r\ncontent-length: 5\r\n\r\npush\n"
        begin_response(conn, None, 200)
        conn.writer.write(push)
        await conn.writer.drain()
        end_response(conn)
        end_response(conn)

    async def _leak(self, conn: Connection, request: Request) -> None:
        # DELIBERATE DEFECT (HANDLERLEAK): fire-and-forget.  Nothing awaits
        # this task; if the connection closes first, the pair matches.
        spawn_task(conn, asyncio.sleep(3600), f"leaked-{request.serial}")
        await self._write_simple(conn, request, 200, b"leaked\n")
