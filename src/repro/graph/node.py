"""Query-graph nodes.

A query graph "consists of sources at the bottom providing the data in form
of raw data streams[,] intermediate nodes ... processing the data streams,
whereas the sinks at the top establish the connections to the applications"
(Section 2.2).  Metadata items and handlers are stored *at* the respective
graph nodes: every node owns a :class:`~repro.metadata.registry.MetadataRegistry`
created when the node is attached to a graph.

Subclasses hook into two extension points:

* :meth:`GraphNode.register_metadata` publishes the node's metadata items.
  Subclasses call ``super().register_metadata(md)`` and then add or
  ``override`` items — the metadata-inheritance mechanism of Section 4.4.2.
* :meth:`Operator.on_element` implements per-element processing and calls
  :meth:`GraphNode.emit` for results.

Nodes expose their monitoring probes through the registry; probes stay
inactive (and therefore nearly free) until a subscription includes an item
that lists them.
"""

from __future__ import annotations

import math
import weakref
from typing import TYPE_CHECKING, Any, Callable, Optional, Sequence

from repro.common.errors import GraphError, WiringError
from repro.common.stats import OnlineMean, OnlineVariance
from repro.graph.element import Schema, StreamElement
from repro.graph.queues import StreamQueue
from repro.metadata import catalogue as md
from repro.metadata.item import (
    Mechanism,
    MetadataDefinition,
    MetadataKey,
    SelfDep,
)
from repro.metadata.monitor import CostProbe, DistributionProbe, GaugeProbe, RateProbe
from repro.metadata.registry import MetadataRegistry

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.graph.graph import QueryGraph

__all__ = ["GraphNode", "Source", "Operator", "Sink"]


class GraphNode:
    """Base class of sources, operators and sinks."""

    #: number of inputs the node requires; ``None`` means variadic (>=1)
    arity: Optional[int] = 0

    def __init__(self, name: str) -> None:
        self.name = name
        self.graph: Optional["QueryGraph"] = None
        self._added_to: Optional["QueryGraph"] = None
        self.metadata: Optional[MetadataRegistry] = None
        self.upstream_nodes: list["GraphNode"] = []
        self.input_queues: list[StreamQueue] = []
        self.output_queues: list[StreamQueue] = []
        self._metadata_period = 50.0

    # -- wiring ------------------------------------------------------------

    @property
    def downstream_nodes(self) -> list["GraphNode"]:
        return [queue.consumer for queue in self.output_queues]

    def _add_upstream(self, node: "GraphNode", queue: StreamQueue) -> None:
        if self.arity is not None and len(self.upstream_nodes) >= self.arity:
            raise WiringError(
                f"{self.name} accepts {self.arity} input(s); cannot connect {node.name}"
            )
        self.upstream_nodes.append(node)
        self.input_queues.append(queue)

    # -- schema ---------------------------------------------------------------

    @property
    def output_schema(self) -> Schema:
        """Schema of the node's output stream; wiring-dependent for operators."""
        raise NotImplementedError

    # -- attachment and metadata -------------------------------------------------

    @property
    def metadata_period(self) -> float:
        """Default period of this node's periodic metadata items."""
        return self._metadata_period

    @metadata_period.setter
    def metadata_period(self, period: float) -> None:
        if period <= 0:
            raise GraphError(f"metadata period must be positive, got {period}")
        self._metadata_period = float(period)

    def attach(self, graph: "QueryGraph") -> None:
        """Create the node's metadata registry and publish its items.

        Called by :meth:`QueryGraph.freeze` once wiring is complete, because
        inter-node dependency specs resolve against the final neighbours.
        """
        if self.metadata is not None:
            raise GraphError(f"node {self.name} already attached")
        self.graph = graph
        self.metadata = MetadataRegistry(self, graph.metadata_system)
        self.register_metadata(self.metadata)

    def register_metadata(self, registry: MetadataRegistry) -> None:
        """Publish this node's metadata items; subclasses extend this."""

    def notify_state_changed(self, key: MetadataKey) -> None:
        """Fire a manual metadata event notification for ``key``: internal
        state relevant to on-demand metadata changed and dependents must
        learn about it immediately (Section 3.2.3)."""
        if self.metadata is not None:
            self.metadata.notify_changed(key)

    # -- element flow -----------------------------------------------------------------

    def emit(self, element: StreamElement) -> None:
        """Push ``element`` to every downstream queue (subquery sharing)."""
        for queue in self.output_queues:
            queue.push(element)

    def has_pending(self) -> bool:
        """Whether any input queue holds an element (the schedulers' readiness
        test: stops at the first non-empty queue and counts nothing)."""
        for queue in self.input_queues:
            # The deque itself: ``if queue`` is a Python-level ``__bool__``
            # call, and a scheduler asks this of every node on every step.
            if queue._elements:
                return True
        return False

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name!r})"


class Source(GraphNode):
    """Raw data stream entry point.

    The executor injects elements via :meth:`produce`.  Source metadata covers
    Figure 2's source items: schema and element size (static), output rate and
    value distribution (dynamic).
    """

    arity = 0

    def __init__(self, name: str, schema: Schema) -> None:
        super().__init__(name)
        self._schema = schema
        self._out_probe: Optional[RateProbe] = None
        self._distribution_probe: Optional[DistributionProbe] = None
        self.produced = 0
        self._distribution_field: Optional[str] = (
            schema.fields[0] if schema.fields else None
        )

    @property
    def output_schema(self) -> Schema:
        return self._schema

    def produce(self, payload: Any, timestamp: float) -> StreamElement:
        """Create an element and push it downstream; returns the element."""
        element = StreamElement(payload, timestamp)
        self.produced += 1
        if self._out_probe is not None:
            self._out_probe.record()
        distribution = self._distribution_probe
        if distribution is not None and distribution.active and self._distribution_field:
            try:
                value = element.field(self._distribution_field)
            # Non-mapping payloads fall back to "no sample" — not an error.
            except Exception:  # noqa: BLE001  # analysis: ignore[LK005]
                value = None
            if isinstance(value, (int, float)):
                distribution.record(value)
        self.emit(element)
        return element

    def register_metadata(self, registry: MetadataRegistry) -> None:
        super().register_metadata(registry)
        clock = registry.clock
        self._out_probe = registry.add_probe(RateProbe("out", clock))
        self._distribution_probe = registry.add_probe(DistributionProbe("distribution"))
        period = self.metadata_period

        registry.define(MetadataDefinition(
            md.SCHEMA, Mechanism.STATIC, value=self._schema,
            description="static stream schema",
        ))
        registry.define(MetadataDefinition(
            md.ELEMENT_SIZE, Mechanism.STATIC, value=self._schema.element_size,
            description="bytes per stream element",
        ))
        registry.define(MetadataDefinition(
            md.OUTPUT_RATE, Mechanism.PERIODIC, period=period,
            monitors=("out",),
            compute=lambda ctx: self._out_probe.rate_and_reset(),
            description="measured arrival rate of the raw stream",
        ))
        registry.define(MetadataDefinition(
            md.EST_OUTPUT_RATE, Mechanism.TRIGGERED,
            dependencies=[SelfDep(md.OUTPUT_RATE)],
            compute=lambda ctx: ctx.value(md.OUTPUT_RATE),
            description="estimated output rate; at a source this is the "
                        "measured rate (base case of the Fig. 3 recursion)",
        ))
        registry.define(MetadataDefinition(
            md.VALUE_DISTRIBUTION, Mechanism.PERIODIC, period=period,
            monitors=("distribution",),
            compute=lambda ctx: self._distribution_probe.snapshot_and_reset(),
            description="equi-width histogram of the values produced in the "
                        "last period (the 'data distributions' source "
                        "metadata of Section 1)",
        ))


class Operator(GraphNode):
    """Intermediate processing node.

    Provides the operator-level metadata of Figure 2 — per-port input rates,
    output rate, selectivity and derived aggregates, measured CPU usage and
    memory usage — wired to monitoring probes that activate on demand.
    """

    arity: Optional[int] = 1

    #: simulated CPU cost charged per processed element
    base_cost_per_element: float = 1.0

    def __init__(self, name: str) -> None:
        super().__init__(name)
        self._in_probes: list[RateProbe] = []
        self._out_probe: Optional[RateProbe] = None
        self._cost_probe: Optional[CostProbe] = None
        # Operator-level lock of the three-level scheme (Section 4.2):
        # element processing takes it for writing, state-derived metadata
        # reads (gauges) for reading.  Assigned at attach; a NoOpLock under
        # the default single-threaded policy.
        self._node_lock = None

    # -- processing --------------------------------------------------------

    def step(self) -> bool:
        """Process one queued element (round-robin across ports).

        Returns ``False`` when all input queues are empty.  Called by the
        operator scheduler.
        """
        for port in self._port_order():
            queue = self.input_queues[port]
            element = queue.pop()
            if element is None:
                continue
            self._process(element, port)
            return True
        return False

    def _port_order(self) -> Sequence[int]:
        # Serve the longest queue first so binary operators stay balanced.
        return sorted(
            range(len(self.input_queues)),
            key=lambda p: -len(self.input_queues[p]),
        )

    def pending_elements(self) -> int:
        """Total number of queued input elements."""
        return sum(len(queue) for queue in self.input_queues)

    def _process(self, element: StreamElement, port: int) -> None:
        lock = self._node_lock
        if lock is not None:
            lock.acquire_write()
        try:
            if self._in_probes:
                self._in_probes[port].record()
            self.charge_cost(self.processing_cost(element, port))
            self.on_element(element, port)
        finally:
            if lock is not None:
                lock.release_write()

    def _guarded(self, reader: Callable[[], Any]) -> Callable[[], Any]:
        """Wrap a state reader to take the operator read lock (Section 4.2:
        'the state of a join has to be updated for each incoming element,
        while metadata items referring to the state can be accessed at the
        same time')."""

        def read() -> Any:
            lock = self._node_lock
            if lock is None:
                return reader()
            lock.acquire_read()
            try:
                return reader()
            finally:
                lock.release_read()

        return read

    def processing_cost(self, element: StreamElement, port: int) -> float:
        """Simulated CPU cost of handling ``element``; override in subclasses."""
        return self.base_cost_per_element

    def charge_cost(self, cost: float) -> None:
        if self._cost_probe is not None:
            self._cost_probe.charge(cost)

    def on_element(self, element: StreamElement, port: int) -> None:
        """Operator logic: consume ``element`` and :meth:`emit` any results."""
        raise NotImplementedError

    def emit(self, element: StreamElement) -> None:
        if self._out_probe is not None:
            self._out_probe.record()
        super().emit(element)

    # -- state inspection (memory metadata) ----------------------------------

    def state_size(self) -> int:
        """Number of elements held in operator state (0 for stateless ops)."""
        return 0

    def state_bytes(self) -> int:
        """Memory usage of the operator state in bytes (Section 3.1: state
        sizes multiplied with element sizes)."""
        sizes = [node.output_schema.element_size for node in self.upstream_nodes]
        per_element = max(sizes) if sizes else 0
        return self.state_size() * per_element

    # -- modules (Section 4.5) ------------------------------------------------

    def get_module(self, name: str) -> Any:
        raise GraphError(f"operator {self.name} has no module {name!r}")

    # -- metadata ----------------------------------------------------------------

    @property
    def output_schema(self) -> Schema:
        # Default: pass-through of the (single) input schema.
        if not self.upstream_nodes:
            raise WiringError(f"operator {self.name} is not wired")
        return self.upstream_nodes[0].output_schema

    def register_metadata(self, registry: MetadataRegistry) -> None:
        super().register_metadata(registry)
        clock = registry.clock
        period = self.metadata_period
        n_inputs = len(self.upstream_nodes)

        self._node_lock = registry.node_lock
        self._in_probes = [
            registry.add_probe(RateProbe(f"in{port}", clock)) for port in range(n_inputs)
        ]
        self._out_probe = registry.add_probe(RateProbe("out", clock))
        self._cost_probe = registry.add_probe(CostProbe("cost", clock))
        registry.add_probe(GaugeProbe("state_size", self._guarded(self.state_size)))
        registry.add_probe(GaugeProbe("state_bytes", self._guarded(self.state_bytes)))
        registry.add_probe(GaugeProbe("queue_length",
                                      self._guarded(self.pending_elements)))

        registry.define(MetadataDefinition(
            md.SCHEMA, Mechanism.STATIC, compute=lambda ctx: self.output_schema,
            description="schema of the operator's output stream",
        ))
        registry.define(MetadataDefinition(
            md.ELEMENT_SIZE, Mechanism.STATIC,
            compute=lambda ctx: self.output_schema.element_size,
            description="bytes per output element",
        ))
        registry.define(MetadataDefinition(
            md.IMPLEMENTATION_TYPE, Mechanism.STATIC,
            value=type(self).__name__,
            description="operator implementation type",
        ))

        # Per-port measured input rates (periodic; Section 3.2.2).
        for port in range(n_inputs):
            probe = self._in_probes[port]
            registry.define(MetadataDefinition(
                md.INPUT_RATE.q(port), Mechanism.PERIODIC, period=period,
                monitors=(probe.name,),
                compute=lambda ctx, p=probe: p.rate_and_reset(),
                description=f"measured input rate on port {port}",
            ))
            registry.define(MetadataDefinition(
                md.AVG_INPUT_RATE.q(port), Mechanism.TRIGGERED,
                dependencies=[SelfDep(md.INPUT_RATE.q(port))],
                compute=_OnlineAggregate(
                    md.INPUT_RATE.q(port), OnlineMean, OnlineMean.value),
                always_propagate=True,
                description=f"online average of the port-{port} input rate "
                            "(triggered by each rate update; Section 3.2.3)",
            ))
            registry.define(MetadataDefinition(
                md.VAR_INPUT_RATE.q(port), Mechanism.TRIGGERED,
                dependencies=[SelfDep(md.INPUT_RATE.q(port))],
                compute=_OnlineAggregate(
                    md.INPUT_RATE.q(port), OnlineVariance,
                    OnlineVariance.variance),
                always_propagate=True,
                description=f"online variance of the port-{port} input rate",
            ))

        registry.define(MetadataDefinition(
            md.OUTPUT_RATE, Mechanism.PERIODIC, period=period,
            monitors=("out",),
            compute=lambda ctx: self._out_probe.rate_and_reset(),
            description="measured output rate",
        ))
        registry.define(MetadataDefinition(
            md.INPUT_OUTPUT_RATIO, Mechanism.TRIGGERED,
            dependencies=[SelfDep(md.OUTPUT_RATE)]
            + [SelfDep(md.INPUT_RATE.q(p)) for p in range(n_inputs)],
            compute=self._compute_io_ratio,
            description="output rate divided by total input rate "
                        "(Section 2.3's derived-item example)",
        ))
        registry.define(MetadataDefinition(
            md.SELECTIVITY, Mechanism.PERIODIC, period=period,
            monitors=tuple(p.name for p in self._in_probes) + ("out",),
            compute=lambda ctx: self._measured_selectivity(),
            description="measured results per processed input element",
        ))
        registry.define(MetadataDefinition(
            md.AVG_SELECTIVITY, Mechanism.TRIGGERED,
            dependencies=[SelfDep(md.SELECTIVITY)],
            compute=_OnlineAggregate(
                md.SELECTIVITY, OnlineMean, OnlineMean.value),
            always_propagate=True,
            description="online average of the measured selectivity "
                        "(Figure 3's intra-node aggregate)",
        ))
        registry.define(MetadataDefinition(
            md.CPU_USAGE, Mechanism.PERIODIC, period=period,
            monitors=("cost",),
            compute=lambda ctx: self._cost_probe.usage_and_reset(),
            description="measured CPU cost per time unit",
        ))
        registry.define(MetadataDefinition(
            md.STATE_SIZE, Mechanism.ON_DEMAND,
            monitors=("state_size",),
            compute=lambda ctx: registry.probe("state_size").read(),
            description="elements currently held in operator state "
                        "(on-demand: forwarded from existing node state, "
                        "Section 3.2.1)",
        ))
        registry.define(MetadataDefinition(
            md.MEMORY_USAGE, Mechanism.ON_DEMAND,
            monitors=("state_bytes",),
            compute=lambda ctx: registry.probe("state_bytes").read(),
            description="measured memory usage of the operator state in bytes",
        ))
        registry.define(MetadataDefinition(
            md.QUEUE_LENGTH, Mechanism.ON_DEMAND,
            monitors=("queue_length",),
            compute=lambda ctx: registry.probe("queue_length").read(),
            description="total queued input elements",
        ))

    def _measured_selectivity(self) -> float:
        inputs = sum(probe.total for probe in self._in_probes)
        outputs = self._out_probe.total if self._out_probe else 0
        return outputs / inputs if inputs else 0.0

    def _compute_io_ratio(self, ctx) -> float:
        out_rate = ctx.value(md.OUTPUT_RATE)
        in_rate = sum(
            ctx.value(md.INPUT_RATE.q(p)) for p in range(len(self.upstream_nodes))
        )
        return out_rate / in_rate if in_rate else 0.0


class _OnlineAggregate:
    """Compute function folding each dependency update into a ``stat``.

    Each handler that runs the compute starts a new ``stat``, so a removed
    and re-included item does not fold its predecessor's samples — fresh
    inclusion, fresh aggregate — and an item never included holds none.
    The handler is held weakly: a retired handler is not kept alive by its
    item.
    """

    __slots__ = ("dep_key", "stat", "read", "state", "owner")

    def __init__(self, dep_key: MetadataKey, stat: type,
                 read: Callable) -> None:
        self.dep_key = dep_key
        self.stat = stat
        self.read = read
        self.state: Any = None
        self.owner: weakref.ref | None = None  # the handler owning ``state``

    def __call__(self, ctx) -> float:
        if self.owner is None or self.owner() is not ctx.handler:
            self.owner = weakref.ref(ctx.handler)
            self.state = self.stat()
        self.state.add(ctx.value(self.dep_key))
        return self.read(self.state)


class Sink(GraphNode):
    """Query endpoint delivering results to the application.

    Carries the query-level metadata items of Section 1: QoS specification,
    scheduling priority and reuse frequency.  An optional callback receives
    every result element.
    """

    arity: Optional[int] = None  # accepts one or more inputs (union of results)

    def __init__(
        self,
        name: str,
        callback: Callable[[StreamElement], None] | None = None,
        qos: dict | None = None,
        priority: int = 0,
    ) -> None:
        super().__init__(name)
        self.callback = callback
        self.qos = dict(qos) if qos else {}
        self.priority = priority
        self.received = 0
        self.last_element: Optional[StreamElement] = None
        self._in_probe: Optional[RateProbe] = None
        self._latency_probe = None  # MeanProbe, created at attach

    @property
    def output_schema(self) -> Schema:
        if not self.upstream_nodes:
            raise WiringError(f"sink {self.name} is not wired")
        return self.upstream_nodes[0].output_schema

    def step(self) -> bool:
        """Drain one element from the sink's input queues."""
        for queue in self.input_queues:
            element = queue.pop()
            if element is None:
                continue
            self.received += 1
            self.last_element = element
            if self._in_probe is not None:
                self._in_probe.record()
            if self._latency_probe is not None and self.graph is not None:
                self._latency_probe.record(
                    max(0.0, self.graph.clock.now() - element.timestamp)
                )
            if self.callback is not None:
                self.callback(element)
            return True
        return False

    def pending_elements(self) -> int:
        return sum(len(queue) for queue in self.input_queues)

    def register_metadata(self, registry: MetadataRegistry) -> None:
        super().register_metadata(registry)
        self._in_probe = registry.add_probe(RateProbe("in", registry.clock))
        registry.define(MetadataDefinition(
            md.QOS_SPEC, Mechanism.STATIC, compute=lambda ctx: dict(self.qos),
            description="application-provided Quality-of-Service specification",
        ))
        registry.define(MetadataDefinition(
            md.PRIORITY, Mechanism.STATIC, compute=lambda ctx: self.priority,
            description="scheduling priority of the query",
        ))
        registry.define(MetadataDefinition(
            md.INPUT_RATE, Mechanism.PERIODIC, period=self.metadata_period,
            monitors=("in",),
            compute=lambda ctx: self._in_probe.rate_and_reset(),
            description="measured result delivery rate",
        ))
        registry.define(MetadataDefinition(
            md.REUSE_FREQUENCY, Mechanism.ON_DEMAND,
            compute=lambda ctx: self._reuse_frequency(),
            description="how many sinks share this query's direct upstream "
                        "subplan (subquery sharing)",
        ))
        from repro.metadata.monitor import MeanProbe

        self._latency_probe = registry.add_probe(MeanProbe("latency"))
        registry.define(MetadataDefinition(
            md.LATENCY, Mechanism.PERIODIC, period=self.metadata_period,
            monitors=("latency",),
            compute=lambda ctx: self._latency_probe.mean_and_reset(),
            description="measured mean result latency this period",
        ))
        registry.define(MetadataDefinition(
            md.QOS_VIOLATION, Mechanism.TRIGGERED,
            dependencies=[SelfDep(md.LATENCY), SelfDep(md.QOS_SPEC)],
            compute=self._qos_violation,
            description="True while the measured latency exceeds the QoS "
                        "spec's max_latency (triggered by latency updates)",
        ))

    def _qos_violation(self, ctx) -> bool:
        qos = ctx.value(md.QOS_SPEC)
        max_latency = qos.get("max_latency")
        if max_latency is None:
            return False
        return ctx.value(md.LATENCY) > max_latency

    def _reuse_frequency(self) -> int:
        if not self.upstream_nodes:
            return 0
        return max(len(node.downstream_nodes) for node in self.upstream_nodes)
