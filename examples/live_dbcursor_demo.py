"""Live monitoring: CURSORSAFE on a real sqlite3 database.

``sqlite3``'s classes are C types, so there is nothing to monkey-patch —
instead the *data-access layer* (the realistic seam: applications route
DB traffic through helper functions) is woven with
:class:`~repro.instrument.live.TraceWeaver` function pointcuts, which
swap each DAO function's code for a trampoline that runs the advice
around it.  The DAO source itself is unmodified.

Executing on a cursor after its cursor — or its connection — was closed
is reported by the CURSORSAFE monitor before sqlite3 raises.

Run:  PYTHONPATH=src python examples/live_dbcursor_demo.py
"""

import sqlite3

from repro import LiveSession
from repro.instrument.live import on_call, on_return


# -- the application's (unmodified) data-access layer ----------------------

def open_cursor(conn: sqlite3.Connection) -> sqlite3.Cursor:
    return conn.cursor()


def run_query(cur: sqlite3.Cursor, sql: str, *args: object) -> sqlite3.Cursor:
    return cur.execute(sql, args)


def close_cursor(cur: sqlite3.Cursor) -> None:
    cur.close()


def close_connection(conn: sqlite3.Connection) -> None:
    conn.close()


# -- the monitored run -----------------------------------------------------

def main() -> None:
    session = LiveSession(properties=["cursorsafe"], gc="coenable")
    with session:
        session.weave_functions([
            on_return(open_cursor, "cur_open", {"c": "arg:conn", "k": "result"}),
            on_call(run_query, "cur_exec", {"k": "arg:cur"}),
            on_call(close_cursor, "cur_close", {"k": "arg:cur"}),
            on_call(close_connection, "conn_close", {"c": "arg:conn"}),
        ])

        conn = sqlite3.connect(":memory:")
        cur = open_cursor(conn)
        run_query(cur, "create table notes (body text)")
        run_query(cur, "insert into notes values (?)", "hello")
        close_cursor(cur)
        try:
            run_query(cur, "select * from notes")  # cursor already closed
        except sqlite3.ProgrammingError as exc:
            print("sqlite error (after the monitor already reported):", exc)

        other = open_cursor(conn)
        close_connection(conn)
        try:
            run_query(other, "select * from notes")  # connection closed
        except sqlite3.ProgrammingError as exc:
            print("sqlite error (after the monitor already reported):", exc)

        stats = session.engine.stats_for("CursorSafe")
        print(f"violations reported: {stats.verdicts.get('error', 0)}")
        assert stats.verdicts.get("error") == 2


if __name__ == "__main__":
    main()
