"""Golden rendering: the compiled stream encoder against a reference.

``StreamEncoder`` compiles one row function per event class instead of
building a dict and running a JSON encoder per event; ``_reference_lines``
below is the wire format spelled out the plain way (a dict of the non-default
fields, ``json.dumps``), and every line is compared with it byte for byte.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.telemetry import events as ev
from repro.telemetry import wire
from repro.telemetry.sinks import EventBatch, JsonlFileSink
from repro.telemetry.trace import TraceBus
from repro.telemetry.wire import StreamEncoder

EVENT_CLASSES = [
    cls for cls in (getattr(ev, name) for name in ev.__all__)
    if isinstance(cls, type) and issubclass(cls, ev.TraceEvent)
]


def _non_default(cls: type) -> ev.TraceEvent:
    """One instance of ``cls`` with every field moved off its default."""
    values = {}
    for index, field in enumerate(dataclasses.fields(cls)):
        default = field.default
        if isinstance(default, bool):
            values[field.name] = not default
        elif isinstance(default, int):
            values[field.name] = default + 3 + index
        elif isinstance(default, float):
            values[field.name] = default + 0.125 * (index + 1)
        elif isinstance(default, tuple):
            # ``via`` names items, ``folded`` lists spans.
            values[field.name] = (("café/k[0,1]", f'n"{index}/\\q')
                                  if field.name == "via" else (index, 2, 3))
        else:
            assert isinstance(default, str), (cls, field.name)
            values[field.name] = f"{field.name}-{index}"
    return cls(**values)


def _dumps(value) -> str:
    return json.dumps(value, default=str, separators=(",", ":"))


def _is_ident(value) -> bool:
    return type(value) is str and "/" in value


def _reference_lines(*batches) -> str:
    """The wire format the plain way, per batch: a run starts at each row
    whose thread differs from the row before (the batch's first, always);
    a row holds the fields that differ from the previous event of its class
    in the run (or from the class's defaults), ``node``/``key`` as a
    declared id, ``via`` and a wave's ``source`` as ids, ``duration`` in
    integer nanoseconds and ``mono`` in nanoseconds since the previous
    event's; ``json.dumps`` spells it."""
    ids: dict[tuple[str, str], int] = {}
    lines: list[str] = []

    def declare(node: str, key: str) -> int:
        if (node, key) not in ids:
            ids[node, key] = len(ids) + 1
            lines.append(_dumps({"kind": "name", "id": ids[node, key],
                                 "node": node, "key": key}) + "\n")
        return ids[node, key]

    for events in batches:
        _reference_batch(events, declare, lines)
    return "".join(lines)


def _ns(value) -> int | None:
    in_range = type(value) is float and -1e18 < value < 1e18
    return round(value * 1e9) if in_range else None


def _reference_batch(events, declare, lines: list[str]) -> None:
    thread = None
    previous: dict = {}
    for event in events:
        starts_run = event.thread != thread
        if starts_run:
            thread, previous = event.thread, {}
        before = previous.get(type(event)) or type(event)()
        previous[type(event)] = event
        names = {field.name for field in dataclasses.fields(event)}
        pair = "node" in names and "key" in names
        row = {"kind": event.kind}
        for field in dataclasses.fields(event):
            name, value = field.name, getattr(event, field.name)
            if name == "thread":
                if starts_run:
                    row["thread"] = value
                continue
            if pair and name == "key":
                continue
            if pair and name == "node":
                if (value, event.key) == (before.node, before.key):
                    continue
                if type(value) is str and type(event.key) is str:
                    row["id"] = declare(value, event.key)
                else:
                    row["node"], row["key"] = value, event.key
                continue
            if value == getattr(before, name):
                continue
            if name == "source" and not pair and _is_ident(value):
                row["id"] = declare(*value.split("/", 1))
            elif (name == "via" and type(value) is tuple
                  and all(_is_ident(v) for v in value)):
                row["via"] = [declare(*v.split("/", 1)) for v in value]
            elif name == "mono" and _ns(value) is not None:
                row[name] = _ns(value) - (_ns(before.mono) or 0)
            elif name == "duration" and _ns(value) is not None:
                row[name] = _ns(value)
            else:
                row[name] = value
        lines.append(_dumps(row) + "\n")


#: Values no emitter sends but the encoder accepts — each must take the
#: guarded field's fallback and come out as ``json.dumps`` spells it.
HOSTILE_VALUES = [
    float("inf"), float("-inf"), float("nan"), -0.0, 5e-324, None, (1, "a", 2.5),
    True, False, 7, -(10 ** 40), 2.0, 'q"uote\\back', "café \U0001f600",
    "line\nbreak\ttab\x00\x1f", "", Path("/tmp/x"), "a/b", ("x/y", "z/w"),
]


def test_every_event_class_is_covered():
    assert len(EVENT_CLASSES) == 18  # the base class and 17 concrete ones
    assert ev.TraceEvent in EVENT_CLASSES


@pytest.mark.parametrize("cls", EVENT_CLASSES, ids=lambda cls: cls.__name__)
class TestGoldenRendering:
    def test_sink_line_is_byte_identical(self, cls, tmp_path):
        events = [_non_default(cls), cls()]
        path = tmp_path / "trace.jsonl"
        sink = JsonlFileSink(path)
        sink.write_batch(EventBatch(events))
        sink.close()
        assert path.read_text() == _reference_lines(events)

    def test_listener_line_is_byte_identical(self, cls):
        """What a push listener wrote — the export's stream, one batch per
        event — a reader writes by popping its cursor after each record."""
        bus = TraceBus()
        cursor = bus.subscribe()
        encoder = StreamEncoder()
        events = [_non_default(cls), cls(), _non_default(cls)]
        lines = []
        for event in events:
            bus.record(event)
            lines.append(encoder.encode(cursor.pop_batch()))
        assert "".join(lines) == _reference_lines(*([e] for e in events))

    @pytest.mark.parametrize("separators", [(",", ":")], ids=["compact"])
    def test_compiled_line_is_byte_identical(self, cls, separators):
        for event in (cls(), _non_default(cls)):
            line = StreamEncoder().encode([event])
            assert line == _reference_lines([event])
            assert line.isascii()
            for text in line.splitlines():
                assert json.dumps(json.loads(text), separators=separators) == text

    def test_batch_payload_is_the_compact_lines(self, cls):
        events = [_non_default(cls), cls()]
        batch = EventBatch(events)
        assert batch.payload == _reference_lines(events)
        assert batch.declared_before == 0

    def test_hostile_values_take_the_encoder_fallback(self, cls):
        names = [field.name for field in dataclasses.fields(cls)]
        for value in HOSTILE_VALUES:
            event = cls(**dict.fromkeys(names, value))
            assert StreamEncoder().encode([event]) == \
                _reference_lines([event]), value


_field_values = st.one_of(
    st.integers(),
    st.integers(min_value=10 ** 30, max_value=10 ** 60).map(lambda n: -n),
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.sampled_from([float("inf"), float("-inf"), float("nan"), -0.0, 5e-324]),
    st.booleans(),
    st.none(),
    st.text(),
    st.text(alphabet=st.sampled_from('"\\/\x00\x1f\n\x7f \U0001f600{}\''), max_size=8),
    st.tuples(st.integers(), st.text(max_size=4), st.floats(allow_nan=False)),
    st.lists(st.text(max_size=6), max_size=3).map(tuple),
    st.lists(st.integers(), max_size=3).map(tuple),
)


@given(cls=st.sampled_from(EVENT_CLASSES), data=st.data())
@settings(max_examples=300, deadline=None)
def test_any_field_values_render_as_json_dumps_would(cls, data):
    events = [cls(**{field.name: data.draw(_field_values, label=field.name)
                     for field in dataclasses.fields(cls)}) for _ in range(2)]
    assert StreamEncoder().encode(events) == _reference_lines(events)


def test_key_text_is_escaped_once_at_compile_time():
    @dataclasses.dataclass(slots=True)
    class OddKind(ev.TraceEvent):
        kind = 'odd"{kind}\\\'café'
        node: str = ""

    event = OddKind(span=2, node="{n}")
    assert StreamEncoder().encode([event]) == _reference_lines([event])


def test_fields_of_other_declared_types_use_the_encoder():
    @dataclasses.dataclass(slots=True)
    class Tagged(ev.TraceEvent):
        kind = "custom.tagged"
        tags: list = dataclasses.field(default_factory=list)
        extra: dict = dataclasses.field(default_factory=dict)
        where: Path = Path("/tmp")

    event = Tagged(span=1, tags=["a", 2.5, None], extra={"k": (1, 2)})
    assert StreamEncoder().encode([event]) == _reference_lines([event])


@pytest.mark.parametrize("separators", [(",", ":")], ids=["compact"])
def test_via_is_spelled_without_the_generic_encoder(monkeypatch, separators):
    """A refresh's ``via`` (and a summary's ``source`` and ``folded``) take
    the compiled id spelling — the encoder is never called — and the lines
    are still the reference's."""
    calls: list = []
    monkeypatch.setattr(wire, "encode_json",
                        lambda value: calls.append(value) or "null")
    encoder = StreamEncoder()
    events = [
        ev.WaveRefresh(span=4, node="b", key="y", changed=True, duration=0.5,
                       via=via)
        for via in ((), ("a/x",), ("né/k[1,2]", 'q"/\\z', "a/b"))
    ] + [ev.WaveSummary(span=4, source="a/x", folded=(5, 6))]
    assert encoder.encode(events) == _reference_lines(events)
    assert calls == []


def test_encoder_keeps_default_str_fallback(tmp_path):
    records = [{"kind": "metrics.snapshot", "path": Path("/tmp/x")}, {"n": 1}]
    path = tmp_path / "m.jsonl"
    sink = JsonlFileSink(path)
    sink.write_batch(records)
    sink.write_batch([])
    sink.close()
    assert path.read_text() == (
        '{"kind":"metrics.snapshot","path":"/tmp/x"}\n{"n":1}\n')
