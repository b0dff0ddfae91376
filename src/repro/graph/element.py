"""Stream elements and schemas.

A :class:`StreamElement` carries a payload, the application timestamp at
which it entered the system, and a *validity interval* ``[timestamp, expiry)``
assigned by time-based window operators: "in the case of a time-based sliding
window, this operator assigns a validity to each incoming stream element
according to the window size" (Section 2.5).  Stateful operators downstream
(the join's sweep areas) evict elements whose validity has expired.

A :class:`Schema` is classic static metadata: field names plus the size of
one element in bytes, used by memory-usage items.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from collections.abc import Mapping
from typing import Any, Sequence

from repro.common.errors import SchemaError

__all__ = ["Schema", "StreamElement"]


@dataclass(frozen=True)
class Schema:
    """Static description of a stream's elements."""

    fields: tuple[str, ...]
    element_size: int = 64  # bytes per element, used by memory metadata

    def __post_init__(self) -> None:
        if len(set(self.fields)) != len(self.fields):
            raise SchemaError(f"duplicate field names in schema {self.fields}")
        if self.element_size <= 0:
            raise SchemaError(f"element size must be positive, got {self.element_size}")

    def concat(self, other: "Schema") -> "Schema":
        """Schema of a join result: disambiguated field union, summed sizes."""
        fields = list(self.fields)
        for field in other.fields:
            fields.append(field if field not in fields else f"{field}_r")
        return Schema(tuple(fields), self.element_size + other.element_size)

    def project(self, keep: Sequence[str]) -> "Schema":
        """Schema after projection to ``keep`` (order preserved)."""
        missing = [f for f in keep if f not in self.fields]
        if missing:
            raise SchemaError(f"projection fields {missing} not in schema {self.fields}")
        if not self.fields:
            return self
        per_field = self.element_size / len(self.fields)
        return Schema(tuple(keep), max(1, round(per_field * len(keep))))

    def __len__(self) -> int:
        return len(self.fields)


class StreamElement:
    """One element of a data stream.

    ``payload`` is either a mapping of field values or an arbitrary object;
    operators that need fields use :meth:`field`.  ``expiry`` is ``+inf``
    until a window operator assigns a finite validity.
    """

    __slots__ = ("payload", "timestamp", "expiry")

    def __init__(self, payload: Any, timestamp: float, expiry: float = math.inf) -> None:
        self.payload = payload
        self.timestamp = float(timestamp)
        self.expiry = float(expiry)

    def field(self, name: str) -> Any:
        """Field access for mapping payloads."""
        payload = self.payload
        if isinstance(payload, Mapping):
            try:
                return payload[name]
            except KeyError:
                raise SchemaError(f"element has no field {name!r}: {payload!r}") from None
        raise SchemaError(f"payload {payload!r} is not a mapping; cannot read {name!r}")

    @property
    def validity(self) -> float:
        """Length of the validity interval (``inf`` before windowing)."""
        return self.expiry - self.timestamp

    def with_expiry(self, expiry: float) -> "StreamElement":
        """Copy of this element with a (re)assigned validity end."""
        return StreamElement(self.payload, self.timestamp, expiry)

    def is_expired(self, now: float) -> bool:
        """True when the element's validity interval ended at ``now``."""
        return self.expiry <= now

    def __repr__(self) -> str:
        expiry = "inf" if math.isinf(self.expiry) else f"{self.expiry:g}"
        return f"StreamElement({self.payload!r}, t={self.timestamp:g}, exp={expiry})"
