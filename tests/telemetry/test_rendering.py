"""Golden rendering: the compiled renderers against reflection.

``event_to_dict`` and ``render_lines`` are compiled once per event class from
its dataclass field list instead of calling ``dataclasses.asdict`` and a JSON
encoder per event; ``asdict`` + ``json.dumps`` stay here as the reference,
and every wire line is compared with theirs byte for byte.
"""

from __future__ import annotations

import dataclasses
import io
import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.telemetry import events as ev
from repro.telemetry.sinks import EventBatch, encode_lines
from repro.telemetry.trace import jsonl_writer

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
            values[field.name] = (("caf\u00e9/k[0,1]", f'n"{index}/\\q')
                                  if field.name == "via" else (index, 2, 3))
        else:
            assert isinstance(default, str), (cls, field.name)
            values[field.name] = f"{field.name}-{index}"
    return cls(**values)


def _reference_line(event: ev.TraceEvent, separators: tuple[str, str]) -> str:
    """What the wire carried before any of this was compiled."""
    reference = {"kind": event.kind, **dataclasses.asdict(event)}
    return json.dumps(reference, default=str, separators=separators) + "\n"


WIRE_FORMATS = [(",", ":"), (", ", ": ")]  # the sinks' and json.dumps's own

#: Values no emitter sends but the encoder accepts — each must take the
#: guarded field's fallback and come out as ``json.dumps`` spells it.
HOSTILE_VALUES = [
    float("inf"), float("-inf"), float("nan"), -0.0, 5e-324, None, (1, "a", 2.5),
    True, False, 7, -(10 ** 40), 2.0, 'q"uote\\back', "caf\u00e9 \U0001f600",
    "line\nbreak\ttab\x00\x1f", "", Path("/tmp/x"),
]


def test_every_event_class_is_covered():
    assert len(EVENT_CLASSES) == 21  # the base class and 20 concrete ones
    assert ev.TraceEvent in EVENT_CLASSES


@pytest.mark.parametrize("cls", EVENT_CLASSES, ids=lambda cls: cls.__name__)
class TestGoldenRendering:
    def test_record_equals_asdict_including_key_order(self, cls):
        event = _non_default(cls)
        reference = {"kind": event.kind, **dataclasses.asdict(event)}
        record = ev.event_to_dict(event)
        assert record == reference
        assert list(record) == list(reference)
        assert record != ev.event_to_dict(cls())  # the values really moved

    def test_sink_line_is_byte_identical(self, cls):
        event = _non_default(cls)
        reference = {"kind": event.kind, **dataclasses.asdict(event)}
        old_line = json.dumps(reference, default=str, separators=(",", ":")) + "\n"
        assert encode_lines([ev.event_to_dict(event)]) == old_line

    def test_listener_line_is_byte_identical(self, cls):
        event = _non_default(cls)
        reference = {"kind": event.kind, **dataclasses.asdict(event)}
        stream = io.StringIO()
        jsonl_writer(stream)(event)
        assert stream.getvalue() == json.dumps(reference, default=str) + "\n"

    @pytest.mark.parametrize("separators", WIRE_FORMATS, ids=["compact", "spaced"])
    def test_compiled_line_is_byte_identical(self, cls, separators):
        for event in (cls(), _non_default(cls)):
            line = ev.render_lines([event], separators)
            assert line == _reference_line(event, separators)
            assert line.isascii()

    def test_batch_payload_is_the_compact_lines(self, cls):
        events = [_non_default(cls), cls()]
        batch = EventBatch(events)
        assert batch.payload == "".join(
            _reference_line(event, (",", ":")) for event in events)
        assert encode_lines(batch) is batch.payload

    def test_hostile_values_take_the_encoder_fallback(self, cls):
        names = [field.name for field in dataclasses.fields(cls)]
        for value in HOSTILE_VALUES:
            event = cls(**dict.fromkeys(names, value))
            for separators in WIRE_FORMATS:
                assert ev.render_lines([event], separators) == \
                    _reference_line(event, separators), (value, separators)


_field_values = st.one_of(
    st.integers(),
    st.integers(min_value=10 ** 30, max_value=10 ** 60).map(lambda n: -n),
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.sampled_from([float("inf"), float("-inf"), float("nan"), -0.0, 5e-324]),
    st.booleans(),
    st.none(),
    st.text(),
    st.text(alphabet=st.sampled_from('"\\/\x00\x1f\n\x7f\u2028\U0001f600{}\''), max_size=8),
    st.tuples(st.integers(), st.text(max_size=4), st.floats(allow_nan=False)),
    st.lists(st.text(max_size=6), max_size=3).map(tuple),
    st.lists(st.integers(), max_size=3).map(tuple),
)


@given(cls=st.sampled_from(EVENT_CLASSES), data=st.data())
@settings(max_examples=300, deadline=None)
def test_any_field_values_render_as_json_dumps_would(cls, data):
    event = cls(**{field.name: data.draw(_field_values, label=field.name)
                   for field in dataclasses.fields(cls)})
    for separators in WIRE_FORMATS:
        assert ev.render_lines([event], separators) == \
            _reference_line(event, separators)


def test_key_text_is_escaped_once_at_compile_time():
    @dataclasses.dataclass(slots=True)
    class OddKind(ev.TraceEvent):
        kind = 'odd"{kind}\\\'caf\u00e9'
        node: str = ""

    event = OddKind(span=2, node="{n}")
    for separators in WIRE_FORMATS:
        assert ev.render_lines([event], separators) == \
            _reference_line(event, separators)


def test_fields_of_other_declared_types_use_the_encoder():
    @dataclasses.dataclass(slots=True)
    class Tagged(ev.TraceEvent):
        kind = "custom.tagged"
        tags: list = dataclasses.field(default_factory=list)
        extra: dict = dataclasses.field(default_factory=dict)
        where: Path = Path("/tmp")

    event = Tagged(span=1, tags=["a", 2.5, None], extra={"k": (1, 2)})
    for separators in WIRE_FORMATS:
        assert ev.render_lines([event], separators) == \
            _reference_line(event, separators)


def test_records_are_independent_of_the_event():
    event = ev.WaveSuppressed(node="n", reason="removed")
    record = ev.event_to_dict(event)
    record["node"] = "changed"
    assert event.node == "n"
    assert ev.event_to_dict(event)["node"] == "n"


@pytest.mark.parametrize("separators", WIRE_FORMATS, ids=["compact", "spaced"])
def test_via_is_spelled_without_the_generic_encoder(monkeypatch, separators):
    """A refresh's ``via`` (and a summary's ``folded``) take the compiled
    array spelling — the encoder is never called — and the line is still
    what ``asdict`` + ``json.dumps`` give."""
    calls: list = []
    monkeypatch.setitem(ev.ENCODERS, separators,
                        lambda value: calls.append(value) or "null")
    compiled = ev._compile_line(separators, ev.WaveRefresh)
    for via in ((), ("a/x",), ("n\u00e9/k[1,2]", 'q"/\\z', "a/b")):
        event = ev.WaveRefresh(span=4, node="b", key="y", changed=True,
                               duration=0.5, via=via)
        assert compiled(event) == _reference_line(event, separators)
    summary = ev.WaveSummary(span=4, source="a/x", folded=(5, 6))
    assert ev._compile_line(separators, ev.WaveSummary)(summary) == \
        _reference_line(summary, separators)
    assert calls == []


def test_encoder_keeps_default_str_fallback():
    records = [{"kind": "metrics.snapshot", "path": Path("/tmp/x")}, {"n": 1}]
    assert encode_lines(records) == (
        '{"kind":"metrics.snapshot","path":"/tmp/x"}\n{"n":1}\n')
    assert encode_lines([]) == ""
