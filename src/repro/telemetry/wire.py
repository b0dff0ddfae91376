"""The export wire format: a normalized JSON-lines stream, and its loader.

Every line sink (:class:`~repro.telemetry.sinks.JsonlFileSink`, each file
of its rotated set, and each connection of a
:class:`~repro.telemetry.sinks.TcpLineSink`) writes one *line stream*: one
JSON object per line, rendered by the exporter's :class:`StreamEncoder`.
The stream is normalized the way a ``refresh_history`` table keys its rows
to one row per dynamic table:

* a **name row** ``{"kind":"name","id":3,"node":"j0","key":"operator.
  cpu_usage","mechanism":"periodic"}`` declares a handler id once per
  stream, before the first row that uses it (``mechanism`` when known);
* an **event row** carries ``kind`` and its event's fields, with
  ``node``/``key`` replaced by ``id``, a wave summary's ``source`` by
  ``id``, and ``via`` as a list of ids;
* fields at their default value are omitted;
* ``mono`` and ``duration`` are integer nanoseconds;
* ``thread`` is written on the first row of each batch and again only where
  it changes: a row without one ran on the thread of the row before it.

A ``metrics.snapshot`` record travels in the same stream as a plain JSON
object.  :func:`decode_lines` / :func:`load_trace` turn a stream back into
the typed events, equal to the captured ones up to the nanosecond encoding,
so :func:`~repro.telemetry.hub.explain_refresh` answers from an exported
file as it does from the live bus.
"""

from __future__ import annotations

import dataclasses
import json
import os
from typing import Any, Callable, Iterable, Mapping

from repro.telemetry.events import TraceEvent

__all__ = ["StreamEncoder", "decode_lines", "load_trace", "NAME_KIND"]

#: ``kind`` of the rows that declare a handler id.
NAME_KIND = "name"

#: The generic JSON encoder (compact, ``str()`` for anything unencodable):
#: metric snapshots, and any event field value not of its declared type.
encode_json = json.JSONEncoder(default=str, separators=(",", ":")).encode

_escape = json.encoder.encode_basestring_ascii

#: Per declared field type (the type of the field's default): the guarded
#: spelling of a value ``{x}``.  ``type(x) is`` keeps a bool out of an int
#: field and an int out of a float field; ``x - x == 0.0`` is false for
#: ``inf`` and ``nan``, which the generic encoder spells, as it spells a
#: field of any other declared type.
_SPELLINGS = {
    bool: "(TRUE if {x} is True else FALSE if {x} is False else enc({x}))",
    int: "(int_repr({x}) if type({x}) is int else enc({x}))",
    float: ("(float_repr({x}) if type({x}) is float and {x} - {x} == 0.0"
            " else enc({x}))"),
    str: "(escape({x}) if type({x}) is str else enc({x}))",
    tuple: "(array({x}) or enc({x}))",
}
#: ``duration``, in integer nanoseconds (a float too large for that — or
#: ``inf``, ``nan``, which fail the range test — is left to the encoder).
_NANOSECONDS = ("(int_repr(round({x} * 1e9)) if type({x}) is float"
                " and -1e18 < {x} < 1e18 else enc({x}))")


def _base(mono: Any) -> int:
    """The nanoseconds a ``mono`` is written relative to: the previous
    event's in its run (0 for the default instance, or a value no float)."""
    return round(mono * 1e9) if type(mono) is float and -1e18 < mono < 1e18 else 0


def _has_pair(names: set[str]) -> bool:
    return "node" in names and "key" in names


def _array(values: Any) -> "str | None":
    """The JSON array of a tuple of ``str`` / ``int``, or ``None``."""
    if type(values) is not tuple:
        return None
    items = []
    for value in values:
        if type(value) is str:
            items.append(_escape(value))
        elif type(value) is int:
            items.append(int.__repr__(value))
        else:
            return None
    return f"[{','.join(items)}]"


class _PairIds(dict[tuple[str, str], int]):
    """``(node, key) -> id`` of one encoder; a miss declares the id by
    writing its name row into the encoder's current output."""

    def __init__(self, encoder: "StreamEncoder") -> None:
        super().__init__()
        self._encoder = encoder

    def __missing__(self, pair: tuple[str, str]) -> int:
        encoder = self._encoder
        ident = self[pair] = len(encoder.name_rows) + 1
        node, key = pair
        mechanism = encoder.mechanisms.get(pair, "")
        row = (f'{{"kind":"{NAME_KIND}","id":{ident},"node":{_escape(node)},'
               f'"key":{_escape(key)}'
               + (f',"mechanism":{_escape(mechanism)}' if mechanism else "")
               + "}\n")
        encoder.name_rows.append(row)
        encoder._out.append(row)
        return ident


class _IdentIds(dict[str, "int | None"]):
    """``"node/key" -> id`` (a ``via`` entry or a wave's ``source``).  An
    ident is its pair joined by ``/``, so it is split at the first one: the
    name row may then split a node name that holds a ``/`` differently, but
    the ident it rebuilds is the same string.  ``None`` for a string with
    no ``/``, which is written as it is."""

    def __init__(self, pairs: _PairIds) -> None:
        super().__init__()
        self._pairs = pairs

    def __missing__(self, ident: str) -> "int | None":
        node, slash, key = ident.partition("/")
        value = self[ident] = self._pairs[node, key] if slash else None
        return value


class _ViaIds(dict[tuple, "str | None"]):
    """``via`` tuple -> its spelling as a JSON list of ids; ``None`` unless
    every entry is an ident (a ``str`` with a ``/``), and then nothing is
    declared."""

    def __init__(self, idents: _IdentIds) -> None:
        super().__init__()
        self._idents = idents

    def __missing__(self, values: tuple) -> "str | None":
        spelling = None
        if all(type(value) is str and "/" in value for value in values):
            ids = [int.__repr__(self._idents[value]) for value in values]
            spelling = f"[{','.join(ids)}]"
        self[values] = spelling
        return spelling


class StreamEncoder:
    """Renders the event batches of one exporter as normalized lines.

    Ids are numbered from 1 in order of first use and never reused, so
    :attr:`name_rows` ``[i - 1]`` is the name row of id ``i``: a sink that
    opens a new stream writes the rows of the ids declared before the
    batch it is about to write (see :class:`~repro.telemetry.sinks.
    EventBatch`), and the batch declares the rest itself.

    ``mechanisms`` maps ``(node, key)`` to a handler's mechanism (the
    hub's :attr:`~repro.telemetry.hub.Telemetry.mechanisms`); it is read
    when an id is declared.
    """

    def __init__(self, mechanisms: Mapping[tuple[str, str], str] | None = None) -> None:
        self.mechanisms: Mapping[tuple[str, str], str] = (
            mechanisms if mechanisms is not None else {})
        self.name_rows: list[str] = []
        # The output of the batch being encoded (name rows go here too).
        self._out: list[str] = []
        self._pairs = _PairIds(self)
        self._idents = _IdentIds(self._pairs)
        self._vias = _ViaIds(self._idents)
        self._rows: dict[type, Callable[[Any, Any, str], str]] = {}
        self._defaults: dict[type, TraceEvent] = {}

    @property
    def declared(self) -> int:
        """Ids declared so far."""
        return len(self.name_rows)

    def encode(self, events: Iterable[TraceEvent]) -> str:
        """One batch as lines.  Its first row names its thread and starts a
        run; each row is spelled against the previous event of its class in
        the run (the class's default instance for the first), and each new
        id is declared right before the row that first uses it."""
        out = self._out = []
        rows, defaults = self._rows, self._defaults
        thread: Any = None
        previous = dict(defaults)
        for event in events:
            cls = type(event)
            stamp = ""
            if event.thread != thread:
                thread = event.thread
                stamp = ',"thread":' + (int.__repr__(thread) if type(thread) is int
                                        else encode_json(thread))
                previous = dict(defaults)
            row = rows.get(cls)
            if row is None:
                row = rows[cls] = self._compile(cls)
                previous[cls] = defaults[cls] = cls()
            out.append(row(event, previous[cls], stamp))
            previous[cls] = event
        return "".join(out)

    def _compile(self, cls: type[TraceEvent]) -> Callable[[Any, Any, str], str]:
        """``lambda e, p, t: f"{KIND}{<part>}...{END}"``, one part per field.

        Text is escaped here, once, and kept in names, so the f-string only
        joins: each part is empty when the field of ``e`` equals that of
        ``p`` (the previous event of the class in the run), else
        ``,"name":<spelling>``.  ``t`` is the ``thread`` part the batch
        loop decided on.
        """
        pair = _has_pair({field.name for field in dataclasses.fields(cls)})
        names: dict[str, Any] = {
            "KIND": '{"kind":' + _escape(cls.kind), "END": "}\n", "NONE": "",
            "TRUE": "true", "FALSE": "false", "ID": ',"id":', "NODE": ',"node":',
            "KEY": ',"key":', "enc": encode_json, "escape": _escape,
            "int_repr": int.__repr__, "float_repr": float.__repr__,
            "array": _array, "pairs": self._pairs,
            "idents": self._idents, "vias": self._vias,
        }
        parts = ["KIND"]
        for field in dataclasses.fields(cls):
            name, x = field.name, f"e.{field.name}"
            key = f"k_{name}"
            names[key] = f",{_escape(name)}:"
            same = f"NONE if {x} == p.{name} else "
            if name == "thread":
                parts.append("t")
            elif pair and name == "node":
                parts.append(
                    "(NONE if e.node == p.node and e.key == p.key else"
                    " ID + int_repr(pairs[e.node, e.key])"
                    " if type(e.node) is str and type(e.key) is str else"
                    " NODE + enc(e.node) + KEY + enc(e.key))")
            elif pair and name == "key":
                continue
            elif name == "source" and not pair:
                parts.append(
                    f"({same}ID + int_repr(i)"
                    f" if type({x}) is str and (i := idents[{x}]) is not None"
                    f" else {key} + enc({x}))")
            elif name == "via":
                parts.append(
                    f"({same}{key} + ((vias[{x}] if type({x}) is tuple else None)"
                    f" or enc({x})))")
            elif name == "mono":
                parts.append(
                    f"({same}{key} + (int_repr(round({x} * 1e9) - (round(p.mono * 1e9)"
                    f" if type(p.mono) is float and -1e18 < p.mono < 1e18 else 0))"
                    f" if type({x}) is float and -1e18 < {x} < 1e18 else enc({x})))")
            else:
                spelling = (_NANOSECONDS if name == "duration" else
                            _SPELLINGS.get(type(field.default), "enc({x})"))
                parts.append(f"({same}{key} + {spelling.format(x=x)})")
        parts.append("END")
        source = "".join(f"{{{part}}}" for part in parts)
        return eval(f'lambda e, p, t: f"{source}"', names)


# ---------------------------------------------------------------------------
# Loading
# ---------------------------------------------------------------------------


def _event_classes() -> dict[str, type[TraceEvent]]:
    """``kind -> class`` of every event class defined so far."""
    classes: dict[str, type[TraceEvent]] = {}
    stack: list[type[TraceEvent]] = [TraceEvent]
    while stack:
        cls = stack.pop()
        classes.setdefault(cls.kind, cls)
        stack.extend(cls.__subclasses__())
    return classes


def decode_lines(lines: Iterable[str]) -> list[TraceEvent]:
    """The typed events of one or more line streams, in order.

    Name rows fill the id table (a later stream re-declares its ids, which
    replaces the earlier entries); a row that names its thread starts a
    run; an event row is read over the previous event of its class in the
    run; rows of other kinds than event classes (``metrics.snapshot``) are
    skipped.
    """
    classes = _event_classes()
    # kind -> (class, default instance, field names, tuple fields, pair?)
    shapes: dict[str, tuple[type[TraceEvent], TraceEvent, list[str], set[str],
                            bool]] = {}
    names: dict[int, tuple[str, str]] = {}
    previous: dict[type, TraceEvent] = {}
    thread: Any = 0
    events: list[TraceEvent] = []
    for line in lines:
        if not line.strip():
            continue
        row = json.loads(line)
        kind = row.pop("kind", None)
        if kind == NAME_KIND:
            names[row["id"]] = (row["node"], row["key"])
            continue
        shape = shapes.get(kind)
        if shape is None:
            cls = classes.get(kind)
            if cls is None:
                continue
            fields = dataclasses.fields(cls)
            shape = shapes[kind] = (
                cls, cls(), [f.name for f in fields],
                {f.name for f in fields if isinstance(f.default, tuple)},
                _has_pair({f.name for f in fields}))
        cls, default, field_names, tuples, pair = shape
        if "thread" in row:
            thread, previous = row["thread"], {}
        before = previous.get(cls) or default
        if "id" in row:
            node, key = names[row.pop("id")]
            if pair:
                row["node"], row["key"] = node, key
            else:
                row["source"] = f"{node}/{key}"
        if type(row.get("mono")) is int:
            row["mono"] = (_base(before.mono) + row["mono"]) / 1e9
        if type(row.get("duration")) is int:
            row["duration"] /= 1e9
        if "via" in row:
            row["via"] = [f"{names[v][0]}/{names[v][1]}" if type(v) is int
                          else v for v in row["via"]]
        for name in tuples:
            if type(row.get(name)) is list:
                row[name] = tuple(row[name])
        row["thread"] = thread
        event = cls(**{name: row[name] if name in row else getattr(before, name)
                       for name in field_names})
        previous[cls] = event
        events.append(event)
    return events


def load_trace(*paths: str | os.PathLike[str]) -> list[TraceEvent]:
    """The events of exported files, read in the order given — for a
    rotated set, oldest first (``path.N`` … ``path.1``, ``path``)."""
    events: list[TraceEvent] = []
    for path in paths:
        with open(path, encoding="utf-8") as stream:
            events.extend(decode_lines(stream))
    return events
