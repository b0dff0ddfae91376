"""Inter-operator queues.

Each edge of the query graph carries a FIFO :class:`StreamQueue` buffering
elements between producer and consumer.  Queue lengths are the quantity the
Chain scheduling strategy [5] minimises, so queues keep enqueue/dequeue
statistics and expose their length to the owning operator's
``operator.queue_length`` metadata item.

A push also marks the consumer *ready*: it joins the graph's ready set, so
an operator scheduler reads which nodes have work instead of asking every
node at every step (see :meth:`QueryGraph.pending_nodes`).
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Deque, Optional

from repro.common.errors import QueueClosedError
from repro.graph.element import StreamElement

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.graph.node import GraphNode

__all__ = ["StreamQueue"]


class StreamQueue:
    """FIFO buffer on a graph edge ``producer → consumer[port]``."""

    def __init__(
        self,
        producer: "GraphNode",
        consumer: "GraphNode",
        port: int,
        capacity: int | None = None,
        ready: set | None = None,
    ) -> None:
        if capacity is not None and capacity <= 0:
            raise ValueError(f"queue capacity must be positive, got {capacity}")
        self.producer = producer
        self.consumer = consumer
        self.port = port
        self.capacity = capacity
        self._elements: Deque[StreamElement] = deque()
        self.enqueued = 0
        self.dequeued = 0
        self.dropped = 0  # elements rejected at capacity (load shedding)
        self.peak_length = 0
        self.closed = False
        # The set the consumer joins when an element arrives (the graph's
        # ready set; a queue built on its own keeps a private one).
        self._ready = ready if ready is not None else set()

    def push(self, element: StreamElement) -> bool:
        """Enqueue ``element``; returns False when dropped at capacity."""
        if self.closed:
            raise QueueClosedError(f"queue {self!r} is closed")
        if self.capacity is not None and len(self._elements) >= self.capacity:
            self.dropped += 1
            return False
        self._elements.append(element)
        # Append first, mark second: a scheduler that forgets the consumer
        # re-checks the queue after the discard, so one of the two sees it.
        self._ready.add(self.consumer)
        self.enqueued += 1
        if len(self._elements) > self.peak_length:
            self.peak_length = len(self._elements)
        return True

    def pop(self) -> Optional[StreamElement]:
        """Dequeue the oldest element, or ``None`` when empty."""
        if not self._elements:
            return None
        self.dequeued += 1
        return self._elements.popleft()

    def peek(self) -> Optional[StreamElement]:
        return self._elements[0] if self._elements else None

    def close(self) -> None:
        """Refuse further pushes (used at teardown)."""
        self.closed = True

    def __len__(self) -> int:
        return len(self._elements)

    def __bool__(self) -> bool:
        return bool(self._elements)

    def __repr__(self) -> str:
        return (
            f"StreamQueue({self.producer.name}->{self.consumer.name}[{self.port}], "
            f"len={len(self._elements)})"
        )
