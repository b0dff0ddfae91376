"""The query graph.

A :class:`QueryGraph` holds the operator graph of all continuous queries
running in the system (Figure 1): sources at the bottom, operators in the
middle, sinks on top, with subquery sharing expressed as nodes having several
downstream consumers.  The graph owns the shared
:class:`~repro.metadata.registry.MetadataSystem` through which every node's
registry is created.

Typical construction::

    clock = VirtualClock()
    graph = QueryGraph(clock)
    src = graph.add(Source("s", Schema(("x",))))
    win = graph.add(TimeWindow("w", size=100.0))
    sink = graph.add(Sink("out"))
    graph.connect(src, win)
    graph.connect(win, sink)
    graph.freeze()            # validates wiring, attaches metadata registries

``freeze()`` is the moment metadata registries come alive, because inter-node
dependency specs (``UpstreamDep``/``DownstreamDep``) resolve against the final
wiring.
"""

from __future__ import annotations

from typing import Iterable, Optional, TypeVar

from repro.common.clock import Clock, VirtualClock
from repro.common.errors import GraphError, WiringError
from repro.graph.node import GraphNode, Operator, Sink, Source
from repro.graph.queues import StreamQueue
from repro.metadata.item import MetadataKey
from repro.metadata.locks import LockPolicy
from repro.metadata.registry import MetadataSubscription, MetadataSystem
from repro.metadata.scheduling import PeriodicScheduler, VirtualTimeScheduler

__all__ = ["QueryGraph"]

N = TypeVar("N", bound=GraphNode)


class QueryGraph:
    """Container and wiring authority for a set of continuous queries."""

    def __init__(
        self,
        clock: Clock | None = None,
        scheduler: PeriodicScheduler | None = None,
        lock_policy: LockPolicy | None = None,
        default_metadata_period: float = 50.0,
    ) -> None:
        if clock is None:
            clock = VirtualClock()
        if scheduler is None:
            if not isinstance(clock, VirtualClock):
                raise GraphError(
                    "a non-virtual clock requires an explicit periodic scheduler"
                )
            scheduler = VirtualTimeScheduler(clock)
        self.clock = clock
        self.metadata_system = MetadataSystem(clock, scheduler, lock_policy)
        self.default_metadata_period = default_metadata_period
        self._nodes: dict[str, GraphNode] = {}
        self._queues: list[StreamQueue] = []
        # Nodes whose input queues may hold elements: every push adds its
        # consumer, and :meth:`pending_nodes` forgets the ones it finds empty.
        self._ready: set[GraphNode] = set()
        self.frozen = False
        self._updating = False
        self._pending_nodes: list[GraphNode] = []

    # -- construction ----------------------------------------------------------

    def add(self, node: N) -> N:
        """Register ``node`` with the graph; names must be unique."""
        if self.frozen and not self._updating:
            raise GraphError(
                "cannot add nodes to a frozen graph; use begin_update() for "
                "runtime query installation"
            )
        if node.name in self._nodes:
            raise GraphError(f"duplicate node name {node.name!r}")
        if getattr(node, "_added_to", None) is not None:
            raise GraphError(f"node {node.name} already belongs to a graph")
        node._added_to = self
        node.metadata_period = self.default_metadata_period
        self._nodes[node.name] = node
        if self._updating:
            self._pending_nodes.append(node)
        return node

    def connect(
        self,
        producer: GraphNode,
        consumer: GraphNode,
        capacity: int | None = None,
    ) -> StreamQueue:
        """Wire ``producer → consumer`` with a new inter-operator queue."""
        if self.frozen and not self._updating:
            raise GraphError(
                "cannot rewire a frozen graph; use begin_update() for runtime "
                "query installation"
            )
        for node in (producer, consumer):
            if node.name not in self._nodes or self._nodes[node.name] is not node:
                raise WiringError(f"node {node.name} was not added to this graph")
        if self._updating and consumer.metadata is not None:
            # New queries may *tap* existing subplans (subquery sharing), but
            # an already-attached consumer registered its per-port metadata at
            # attach time and cannot grow new inputs.
            raise WiringError(
                f"cannot add an input to already-installed node {consumer.name}; "
                "runtime installation may only connect into new nodes"
            )
        if isinstance(consumer, Source):
            raise WiringError(f"cannot connect into source {consumer.name}")
        if isinstance(producer, Sink):
            raise WiringError(f"cannot connect out of sink {producer.name}")
        queue = StreamQueue(producer, consumer, port=len(consumer.upstream_nodes),
                            capacity=capacity, ready=self._ready)
        consumer._add_upstream(producer, queue)
        producer.output_queues.append(queue)
        self._queues.append(queue)
        return queue

    def freeze(self) -> "QueryGraph":
        """Validate wiring and attach every node's metadata registry.

        Nodes attach in topological order so that schema-derived metadata of
        an operator can consult fully attached upstream nodes.
        """
        if self.frozen:
            raise GraphError("graph already frozen")
        order = self.topological_order()
        self._attach(order)
        self.frozen = True
        return self

    def _attach(self, order: list[GraphNode]) -> None:
        """Check the wiring of every node in ``order``, then attach each."""
        for node in order:
            if node.arity is not None and len(node.upstream_nodes) != node.arity:
                raise WiringError(
                    f"node {node.name} requires {node.arity} input(s), "
                    f"has {len(node.upstream_nodes)}"
                )
            if node.arity is None and not node.upstream_nodes:
                raise WiringError(f"node {node.name} requires at least one input")
            if not isinstance(node, Sink) and not node.output_queues:
                raise WiringError(f"node {node.name} has no downstream consumer")
        for node in order:
            node.attach(self)

    # -- runtime query installation (Section 1: "new queries are installed") ----

    def begin_update(self) -> "QueryGraph":
        """Open a runtime-update window on a frozen graph.

        Between :meth:`begin_update` and :meth:`commit_update`, new nodes may
        be added and wired — including edges *from* already-installed nodes,
        which is how a newly installed query shares an existing subplan.
        Existing nodes cannot gain new inputs.
        """
        if not self.frozen:
            raise GraphError("begin_update() requires a frozen graph")
        if self._updating:
            raise GraphError("an update is already in progress")
        self._updating = True
        self._pending_nodes = []
        return self

    def commit_update(self) -> list[GraphNode]:
        """Validate and attach the nodes added since :meth:`begin_update`.

        Returns the newly installed nodes.  On validation failure the update
        is *not* rolled back automatically (wiring errors are programming
        errors); the exception tells the caller what to fix.
        """
        if not self._updating:
            raise GraphError("no update in progress")
        pending = list(self._pending_nodes)
        order = [n for n in self.topological_order() if n in pending]
        self._attach(order)
        self._updating = False
        self._pending_nodes = []
        return order

    def install_query(self, nodes: list, connections: list) -> list[GraphNode]:
        """Convenience wrapper: add ``nodes``, wire ``connections``, commit.

        ``connections`` is a list of ``(producer, consumer)`` pairs; producers
        may be already-installed nodes (subquery sharing).  On any failure the
        partial installation is rolled back completely: added nodes and edges
        disappear, existing producers keep only their previous consumers.
        """
        self.begin_update()
        added: list[GraphNode] = []
        queues: list[StreamQueue] = []
        try:
            for node in nodes:
                added.append(self.add(node))
            for producer, consumer in connections:
                queues.append(self.connect(producer, consumer))
            return self.commit_update()
        except Exception:
            for queue in queues:
                queue.close()
                if queue.producer not in added:
                    queue.producer.output_queues.remove(queue)
                if queue in self._queues:
                    self._queues.remove(queue)
            for node in added:
                self._nodes.pop(node.name, None)
                node.upstream_nodes = []
                node.input_queues = []
                node.output_queues = []
                node._added_to = None
            self._updating = False
            self._pending_nodes = []
            raise

    def uninstall_query(self, sink: Sink) -> list[GraphNode]:
        """Remove ``sink`` and every upstream node used *only* by it.

        This is reference-counted subplan removal: a node is removed exactly
        when all of its consumers are removed, so subplans shared with other
        queries survive.  Every removed node must have no included metadata
        handlers — cancel subscriptions first; a handler held by a *removed*
        sibling's dependency is fine because exclusion cascades first.

        Returns the removed nodes (sink first).
        """
        if not self.frozen:
            raise GraphError("uninstall_query() requires a frozen graph")
        if sink.name not in self._nodes or self._nodes[sink.name] is not sink:
            raise GraphError(f"sink {sink.name} is not installed in this graph")
        if not isinstance(sink, Sink):
            raise GraphError(f"{sink.name} is not a sink; uninstall whole queries")

        removable: set[GraphNode] = {sink}
        changed = True
        while changed:
            changed = False
            for node in self._nodes.values():
                if node in removable or isinstance(node, Sink):
                    continue
                consumers = node.downstream_nodes
                if consumers and all(c in removable for c in consumers):
                    removable.add(node)
                    changed = True

        blocked = [
            node.name for node in removable
            if node.metadata is not None and node.metadata.included_keys()
        ]
        if blocked:
            raise GraphError(
                f"cannot uninstall: nodes {blocked} still have included "
                "metadata handlers; cancel their subscriptions first"
            )

        ordered = [n for n in self.topological_order() if n in removable]
        ordered.reverse()  # sink first
        for node in ordered:
            for queue in node.input_queues:
                queue.close()
                if queue.producer not in removable:
                    queue.producer.output_queues.remove(queue)
                if queue in self._queues:
                    self._queues.remove(queue)
            for queue in node.output_queues:
                if queue in self._queues:
                    self._queues.remove(queue)
            if node.metadata is not None:
                self.metadata_system.unregister(node.metadata)
            for module_registry in _module_registries(node):
                self.metadata_system.unregister(module_registry)
            del self._nodes[node.name]
            # Reset wiring and attachment so the node object is reusable.
            node.upstream_nodes = []
            node.input_queues = []
            node.output_queues = []
            node.metadata = None
            node.graph = None
            node._added_to = None
        return ordered

    # -- lookup and traversal -----------------------------------------------------

    def node(self, name: str) -> GraphNode:
        try:
            return self._nodes[name]
        except KeyError:
            raise GraphError(f"no node named {name!r}") from None

    def nodes(self) -> list[GraphNode]:
        return list(self._nodes.values())

    def sources(self) -> list[Source]:
        return [n for n in self._nodes.values() if isinstance(n, Source)]

    def operators(self) -> list[Operator]:
        return [n for n in self._nodes.values() if isinstance(n, Operator)]

    def sinks(self) -> list[Sink]:
        return [n for n in self._nodes.values() if isinstance(n, Sink)]

    def queues(self) -> list[StreamQueue]:
        return list(self._queues)

    def topological_order(self) -> list[GraphNode]:
        """Nodes ordered sources-first; raises on cycles."""
        indegree = {name: len(node.upstream_nodes) for name, node in self._nodes.items()}
        ready = [node for node in self._nodes.values() if indegree[node.name] == 0]
        order: list[GraphNode] = []
        while ready:
            node = ready.pop(0)
            order.append(node)
            for downstream in node.downstream_nodes:
                indegree[downstream.name] -= 1
                if indegree[downstream.name] == 0:
                    ready.append(downstream)
        if len(order) != len(self._nodes):
            cyclic = sorted(set(self._nodes) - {n.name for n in order})
            raise WiringError(f"query graph contains a cycle involving {cyclic}")
        return order

    # -- metadata conveniences ---------------------------------------------------------

    def subscribe(self, node: GraphNode, key: MetadataKey) -> MetadataSubscription:
        """Subscribe to a metadata item of ``node`` (graph must be frozen)."""
        if node.metadata is None:
            raise GraphError(
                f"node {node.name} has no metadata registry; call freeze() first"
            )
        return node.metadata.subscribe(key)

    def pending_nodes(self) -> list[GraphNode]:
        """The nodes with queued input, read off the ready set (the
        schedulers' readiness: no node is asked that nothing was pushed to).

        A ready node found empty is forgotten.  A producer thread may push
        to it between that check and the discard, so the node is checked
        once more after the discard; the push appends before it marks, so
        the node is either seen here or marked again.
        """
        ready = self._ready
        nodes: list[GraphNode] = []
        for node in tuple(ready):
            if not node.has_pending():
                ready.discard(node)
                if not node.has_pending():
                    continue
                ready.add(node)
            nodes.append(node)
        return nodes

    def total_pending_elements(self) -> int:
        """Elements buffered in all inter-operator queues (Chain's objective)."""
        return sum(len(queue) for queue in self._queues)

    def __repr__(self) -> str:
        return (
            f"QueryGraph(nodes={len(self._nodes)}, queues={len(self._queues)}, "
            f"frozen={self.frozen})"
        )


def _module_registries(node: GraphNode) -> list:
    """Metadata registries of a node's exchangeable modules, recursively."""
    registries = []
    stack = list(getattr(node, "sweeps", []) or [])
    while stack:
        module = stack.pop()
        registry = getattr(module, "metadata", None)
        if registry is not None:
            registries.append(registry)
        submodules = getattr(module, "submodules", None)
        if callable(submodules):
            stack.extend(submodules())
    return registries
