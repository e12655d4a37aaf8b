"""WAL record encoding: event and delivery lines are exactly the bytes
``json.dumps(entry, separators=(",", ":"))`` writes, built without it."""

from __future__ import annotations

import itertools
import json
import tempfile

from hypothesis import given, settings, strategies as st

from repro.persist import WalWriter, read_wal, wal_segments
from repro.runtime.tracelog import ReplayToken

from ..conftest import Obj

#: Characters JSON must escape, pieces of ``%`` and ``{}`` templates,
#: non-ASCII and astral code points.
AWKWARD = st.sampled_from(
    ["%", "s", "(", "{", "}", '"', "\\", "\n", "\t", "\x00", "\x1f", "\x7f",
     "\u00e9", "\u20ac", "\u2028", "\U0001f600"]
)
TEXT = st.text(st.one_of(AWKWARD, st.characters()), max_size=8)
NAMES = st.text(st.one_of(AWKWARD, st.characters()), min_size=1, max_size=6)

_tokens = itertools.count()


def _token(text: str) -> ReplayToken:
    # Adopted symbols must be unique per live object.
    return ReplayToken(f"t{next(_tokens)}{text}")


#: Parameter values: minted objects (``o<n>``), ``v:`` literals (their own
#: symbol), immortals named by ``v:`` + repr, and adopted ``symbol``s.
VALUES = st.one_of(
    st.builds(Obj),
    TEXT.map(lambda text: "v:" + text),
    TEXT,
    st.integers(),
    TEXT.map(_token),
)
BINDINGS = st.dictionaries(NAMES, VALUES, max_size=4)
APPENDS = st.lists(st.tuples(NAMES, BINDINGS), min_size=1, max_size=6)
PLANS = st.one_of(
    st.none(),
    st.recursive(
        st.one_of(st.none(), st.integers(), TEXT),
        lambda inner: st.lists(inner, max_size=3),
        max_leaves=8,
    ),
)


def _dumps(entry: dict) -> str:
    return json.dumps(entry, separators=(",", ":")) + "\n"


def _event_lines(directory: str) -> list[str]:
    lines = []
    for _index, path in wal_segments(directory):
        with open(path, encoding="utf-8", newline="") as handle:
            lines.extend(handle.readlines()[1:])  # skip the segment header
    return lines


@settings(max_examples=80, deadline=None)
@given(APPENDS)
def test_event_lines_are_json_dumps_bytes(appends):
    with tempfile.TemporaryDirectory() as directory:
        expected = []
        with WalWriter(directory, segment_events=5) as writer:
            # Each binding twice: in order, then with its names reversed,
            # so one event is seen under two parameter orders.
            for event, params in appends:
                for binding in (params, dict(reversed(params.items()))):
                    seq = writer.append(event, binding)
                    symbols = {
                        name: writer.registry.symbol_for(value)
                        for name, value in binding.items()
                    }
                    expected.append(_dumps({"q": seq, "e": event, "p": symbols}))
        assert _event_lines(directory) == expected


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(NAMES, st.dictionaries(NAMES, TEXT, max_size=4), PLANS),
                min_size=1, max_size=5))
def test_delivery_lines_are_json_dumps_bytes(deliveries):
    with tempfile.TemporaryDirectory() as directory:
        expected = []
        with WalWriter(directory) as writer:
            for event, symbols, plan in deliveries:
                seq = writer.append_delivery(event, symbols, plan)
                entry = {"q": seq, "e": event, "p": symbols, "d": plan}
                expected.append(_dumps(entry))
        assert _event_lines(directory) == expected


def test_event_appends_never_call_json_dumps(tmp_path, monkeypatch):
    writer = WalWriter(str(tmp_path))

    def refuse(*_args, **_kwargs):
        raise AssertionError("json.dumps on the event append path")

    monkeypatch.setattr("repro.persist.wal.json.dumps", refuse)
    objs = [Obj("a"), Obj("b")]
    assert writer.append("open", {"f": objs[0]}) == 1
    assert writer.append("read", {"f": objs[0], "g": objs[1]}) == 2
    assert writer.append("read", {"f": objs[0], "g": objs[1]}) == 3
    monkeypatch.undo()
    writer.close()
    assert read_wal(str(tmp_path)) == [
        ("open", {"f": "o1"}),
        ("read", {"f": "o1", "g": "o2"}),
        ("read", {"f": "o1", "g": "o2"}),
    ]


def test_quoted_symbols_follow_registration_and_death(tmp_path):
    """The registry quotes each object's symbol once and the writer reuses
    it: the lines stay ``json.dumps`` bytes for 1- and 2-parameter events,
    immortal values (``v:`` symbols), a symbol re-registered after the
    object's first append, and a new object handed a dead one's id."""
    writer = WalWriter(str(tmp_path))
    registry = writer.registry
    expected = []

    def append(event, **params):
        seq = writer.append(event, params)
        symbols = {name: registry.symbol_for(value) for name, value in params.items()}
        expected.append(_dumps({"q": seq, "e": event, "p": symbols}))
        return symbols

    a, b = Obj("a"), Obj("b")
    assert append("open", f=a) == {"f": "o1"}
    assert append("read", f=a, g=b) == {"f": "o1", "g": "o2"}
    assert append("read", f=7, g='v:"q"\n') == {"f": "v:7", "g": 'v:"q"\n'}
    assert append("read", f=7, g=("t", "€")) == {
        "f": "v:7", "g": "v:('t', '€')",
    }
    registry.register(a, 'a "renamed"€')
    assert append("read", f=a, g=b) == {"f": 'a "renamed"€', "g": "o2"}
    # A dead object's cached quoting goes with it: a new object handed its
    # id gets a fresh symbol.
    dead_id = id(b)
    del b
    held = []
    fresh = Obj("c")
    while id(fresh) != dead_id and len(held) < 1000:
        held.append(fresh)
        fresh = Obj("c")
    assert id(fresh) == dead_id
    assert append("open", f=fresh) == {"f": "o3"}
    assert append("read", f=a, g=fresh) == {"f": 'a "renamed"€', "g": "o3"}
    # The cache holds one quoting per named object, the dead one's gone.
    assert len(registry._quoted) == len(registry)
    writer.close()
    assert _event_lines(str(tmp_path)) == expected
