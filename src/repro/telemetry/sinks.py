"""Pluggable sinks for the telemetry export pipeline.

A sink is the terminal stage of :class:`~repro.telemetry.export.
TelemetryExporter`: it receives *batches* on the exporter's drainer thread
— never on an emitting thread.  A batch of trace events arrives as an
:class:`EventBatch`, which iterates, indexes and ``len()``s as the
:class:`~repro.telemetry.events.TraceEvent` objects themselves and carries
the batch's normalized ``payload`` lines (:mod:`repro.telemetry.wire`),
rendered once and shared by every line sink; the periodic
``metrics.snapshot`` record arrives as a one-element list of a plain dict.

The contract every sink implements:

* :meth:`ExportSink.write_batch` may raise.  The exporter catches the
  error, counts it against the sink (``export_sink_errors_total``), drops
  the batch *for that sink only* and keeps going — a broken sink never
  stalls the pipeline, the other sinks, or the runtime emitting events.
* :meth:`ExportSink.flush` / :meth:`ExportSink.close` are called by the
  exporter's own ``flush``/``close`` and must be idempotent.
* Sinks do their own I/O buffering; batches arrive already bounded
  (``batch_size`` events), so sink memory is O(batch).

Shipped sinks:

``JsonlFileSink``
    JSON-lines to a rotating file set (``path``, ``path.1`` … ``path.N``) —
    bounded disk, constant memory.  Every file is a line stream of its own.
``TcpLineSink``
    JSON-lines over one TCP connection with lazy connect and exponential
    reconnect backoff; while the peer is down, batches are dropped-and-
    counted instead of buffered (bounded memory beats completeness here —
    the ring already absorbed the burst once).  Every connection is a line
    stream of its own.

An in-process reader (a live dashboard tail) needs no sink: it opens its
own cursor with :meth:`~repro.telemetry.trace.TraceBus.subscribe`.
"""

from __future__ import annotations

import functools
import os
import time
from pathlib import Path
from typing import TYPE_CHECKING, Any, IO, Iterator, Sequence

from repro.telemetry.events import TraceEvent
from repro.telemetry.wire import StreamEncoder, encode_json

if TYPE_CHECKING:  # pragma: no cover - imported when a TcpLineSink connects
    import socket

__all__ = [
    "EventBatch",
    "ExportSink",
    "JsonlFileSink",
    "TcpLineSink",
]

Record = dict[str, Any]


class EventBatch(Sequence[TraceEvent]):
    """One drained batch of trace events, as the sinks see it.

    A sequence of the events themselves, plus :attr:`payload`, rendered by
    ``encoder`` — the exporter's, whose ids its line streams share; a batch
    built without one gets an encoder of its own.
    """

    def __init__(self, events: Sequence[TraceEvent],
                 encoder: StreamEncoder | None = None) -> None:
        self._events = events
        self.encoder = encoder if encoder is not None else StreamEncoder()
        #: Ids the encoder had declared before this batch.
        self.declared_before = 0

    @functools.cached_property
    def payload(self) -> str:
        """The batch as normalized JSON lines, rendered once, straight from
        the events (ASCII, so ``len(payload)`` is its size on the wire).
        It declares the ids it uses first; the ones declared before it are
        :attr:`declared_before`."""
        self.declared_before = self.encoder.declared
        return self.encoder.encode(self._events)

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self._events)

    def __getitem__(self, index: Any) -> Any:
        return self._events[index]


#: What :meth:`ExportSink.write_batch` receives: trace events, or the
#: one-record list of a metrics snapshot.
Batch = EventBatch | Sequence[Record]


class ExportSink:
    """Base class; see the module docstring for the sink contract."""

    #: Short name used in progress accounting and metric labels.
    name = "sink"

    def write_batch(self, batch: Batch) -> None:
        raise NotImplementedError

    def flush(self) -> None:
        """Push buffered output towards its destination (best effort)."""

    def close(self) -> None:
        """Release resources; the sink receives no further batches."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({self.name!r})"


class _LineSink(ExportSink):
    """A sink that writes one line stream at a time.

    It tracks which of its encoder's ids the current stream has declared,
    so a new stream (a rotated file, a reconnect) declares, before its
    first batch, every id that batch uses without declaring it.
    """

    def __init__(self) -> None:
        self._encoder: StreamEncoder | None = None
        self._declared = 0

    def _new_stream(self) -> None:
        self._encoder = None  # the next batch's encoder restarts the count

    def _lines(self, batch: Batch) -> str:
        """The text of ``batch`` for the current stream."""
        if not isinstance(batch, EventBatch):
            return "".join([encode_json(record) + "\n" for record in batch])
        payload = batch.payload
        encoder = batch.encoder
        if encoder is not self._encoder:
            self._encoder, self._declared = encoder, 0
        missing = encoder.name_rows[self._declared:batch.declared_before]
        self._declared = encoder.declared
        return "".join(missing) + payload if missing else payload


class JsonlFileSink(_LineSink):
    """JSON-lines into a rotating file set.

    When the active file reaches ``max_bytes`` it is rotated: ``path`` is
    renamed to ``path.1`` (existing ``path.i`` shift to ``path.i+1``, the
    oldest beyond ``max_files`` is deleted) and a fresh ``path`` is opened —
    the jsonl equivalent of the ring buffer's bounded-retention discipline.
    ``max_bytes=None`` disables rotation.
    """

    name = "jsonl"

    def __init__(
        self,
        path: str | os.PathLike[str],
        *,
        max_bytes: int | None = 32 * 1024 * 1024,
        max_files: int = 5,
    ) -> None:
        if max_bytes is not None and max_bytes < 1:
            raise ValueError(f"max_bytes must be >= 1 or None, got {max_bytes}")
        if max_files < 1:
            raise ValueError(f"max_files must be >= 1, got {max_files}")
        super().__init__()
        self.path = Path(path)
        self.max_bytes = max_bytes
        self.max_files = max_files
        self.rotations = 0
        self._stream: IO[str] | None = None
        self._bytes = 0

    def _ensure_open(self) -> IO[str]:
        if self._stream is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._stream = self.path.open("a", encoding="utf-8")
            self._bytes = self.path.stat().st_size
            self._new_stream()
        return self._stream

    def write_batch(self, batch: Batch) -> None:
        stream = self._ensure_open()
        payload = self._lines(batch)
        stream.write(payload)
        self._bytes += len(payload)
        if self.max_bytes is not None and self._bytes >= self.max_bytes:
            self._rotate()

    def _rotate(self) -> None:
        stream = self._stream
        if stream is not None:
            stream.close()
            self._stream = None
        # Shift path.(N-1) -> path.N ... path.1 -> path.2, then path -> path.1.
        oldest = self.path.with_name(f"{self.path.name}.{self.max_files}")
        oldest.unlink(missing_ok=True)
        for index in range(self.max_files - 1, 0, -1):
            source = self.path.with_name(f"{self.path.name}.{index}")
            if source.exists():
                source.rename(self.path.with_name(f"{self.path.name}.{index + 1}"))
        if self.path.exists():
            self.path.rename(self.path.with_name(f"{self.path.name}.1"))
        self._bytes = 0
        self.rotations += 1

    def flush(self) -> None:
        if self._stream is not None:
            self._stream.flush()

    def close(self) -> None:
        if self._stream is not None:
            self._stream.close()
            self._stream = None


class TcpLineSink(_LineSink):
    """JSON-lines over a single TCP connection, with reconnect/backoff.

    The socket is connected lazily on the first batch.  A connect or send
    failure marks the sink disconnected and arms an exponential backoff
    window (``backoff * 2**failures``, capped at ``max_backoff``); batches
    arriving inside the window fail fast — the exporter counts them as
    dropped for this sink — instead of blocking the drainer in connect
    timeouts.  Once the window elapses the next batch retries the
    connection, so a recovered peer starts receiving again without any
    operator action.
    """

    name = "tcp"

    def __init__(
        self,
        host: str,
        port: int,
        *,
        connect_timeout: float = 2.0,
        backoff: float = 0.1,
        max_backoff: float = 5.0,
    ) -> None:
        if backoff <= 0 or max_backoff < backoff:
            raise ValueError(
                f"need 0 < backoff <= max_backoff, got {backoff}/{max_backoff}")
        super().__init__()
        self.host = host
        self.port = port
        self.connect_timeout = connect_timeout
        self.backoff = backoff
        self.max_backoff = max_backoff
        self.connects = 0
        self.failures = 0
        self._consecutive_failures = 0
        self._next_attempt = 0.0  # monotonic deadline of the backoff window
        self._sock: socket.socket | None = None

    @property
    def connected(self) -> bool:
        return self._sock is not None

    def _fail(self, now: float) -> None:
        self.failures += 1
        self._consecutive_failures += 1
        delay = min(
            self.backoff * (2 ** (self._consecutive_failures - 1)),
            self.max_backoff,
        )
        self._next_attempt = now + delay

    def _ensure_connected(self) -> socket.socket:
        if self._sock is not None:
            return self._sock
        now = time.monotonic()
        if now < self._next_attempt:
            raise ConnectionError(
                f"tcp sink {self.host}:{self.port} backing off "
                f"({self._next_attempt - now:.3f}s remaining)")
        import socket  # only a connecting TCP sink pays for the module

        try:
            sock = socket.create_connection(
                (self.host, self.port), timeout=self.connect_timeout)
        except OSError:
            self._fail(time.monotonic())
            raise
        sock.settimeout(self.connect_timeout)
        self._sock = sock
        self._new_stream()
        self._consecutive_failures = 0
        self.connects += 1
        return sock

    def write_batch(self, batch: Batch) -> None:
        sock = self._ensure_connected()
        payload = self._lines(batch).encode("utf-8")
        try:
            sock.sendall(payload)
        except OSError:
            self._disconnect()
            self._fail(time.monotonic())
            raise

    def _disconnect(self) -> None:
        sock = self._sock
        self._sock = None
        if sock is not None:
            try:
                sock.close()
            except OSError:  # pragma: no cover - close rarely fails
                pass

    def close(self) -> None:
        self._disconnect()

