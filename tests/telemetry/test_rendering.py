"""Golden rendering: the table-driven record builder against reflection.

``event_to_dict`` reads field names off a per-class table instead of calling
``dataclasses.asdict``; ``asdict`` stays here as the reference, and the wire
encoders are compared byte for byte with the ``json.dumps`` calls they
replaced.
"""

from __future__ import annotations

import dataclasses
import io
import json
from pathlib import Path

import pytest

from repro.telemetry import events as ev
from repro.telemetry.sinks import encode_lines
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
        else:
            assert isinstance(default, str), (cls, field.name)
            values[field.name] = f"{field.name}-{index}"
    return cls(**values)


def test_every_event_class_is_covered():
    assert len(EVENT_CLASSES) == 28
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


def test_records_are_independent_of_the_event():
    event = ev.WaveStart(node="n", wave_size=2)
    record = ev.event_to_dict(event)
    record["node"] = "changed"
    assert event.node == "n"
    assert ev.event_to_dict(event)["node"] == "n"


def test_encoder_keeps_default_str_fallback():
    records = [{"kind": "metrics.snapshot", "path": Path("/tmp/x")}, {"n": 1}]
    assert encode_lines(records) == (
        '{"kind":"metrics.snapshot","path":"/tmp/x"}\n{"n":1}\n')
    assert encode_lines([]) == ""
