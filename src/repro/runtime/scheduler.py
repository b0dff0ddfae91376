"""Operator scheduling strategies.

The scheduler decides which operator processes queued elements next.  Two
strategies are provided:

* :class:`RoundRobinScheduler` — fair cycling in topological order.
* :class:`ChainScheduler` — the Chain strategy of Babcock et al. [5], the
  paper's first motivating metadata consumer: it "has to react to significant
  changes in operator selectivities to minimize the memory usage of
  inter-operator queues" (Section 1).  Chain is implemented *as a metadata
  consumer*: it subscribes to each operator's average selectivity and
  recomputes its progress-chart priorities whenever it refreshes.

Chain priorities: for an operator *o* with downstream path *o = o₁, o₂, …*,
every prefix of length *k* has slope ``(1 − ∏ sᵢ) / Σ cᵢ`` (fraction of tuple
volume shed per unit cost); the priority of *o* is the steepest such slope
(the lower envelope's first segment starting at *o*).  At each step the ready
operator with the highest priority runs — sinks are always drained first
since delivering results frees queue memory at zero processing cost.

Every strategy reads the same readiness: the graph's ready set, which queue
pushes fill (:meth:`~repro.graph.graph.QueryGraph.pending_nodes`), so a step
costs the handful of nodes that have work, not a scan of the whole plan.
"""

from __future__ import annotations

import math
from typing import Optional

from repro.common.errors import GraphError
from repro.graph.graph import QueryGraph
from repro.graph.node import GraphNode, Operator, Sink
from repro.metadata import catalogue as md
from repro.metadata.registry import MetadataSubscription

__all__ = ["OperatorScheduler", "RoundRobinScheduler", "ChainScheduler", "PriorityScheduler"]


class OperatorScheduler:
    """Strategy interface: pick the next node with pending work."""

    def attach(self, graph: QueryGraph) -> None:
        """Bind to a frozen graph; subscribe to any metadata needed."""
        raise NotImplementedError

    def next_node(self) -> Optional[GraphNode]:
        """The node that should process next, or ``None`` when all idle."""
        raise NotImplementedError

    def detach(self) -> None:
        """Cancel metadata subscriptions (if any)."""


class RoundRobinScheduler(OperatorScheduler):
    """Cycles through operators and sinks in topological order."""

    def __init__(self) -> None:
        self._graph: Optional[QueryGraph] = None
        self._position: dict[GraphNode, int] = {}
        self._cursor = 0

    def attach(self, graph: QueryGraph) -> None:
        if not graph.frozen:
            raise GraphError("scheduler requires a frozen graph")
        self._graph = graph
        nodes = [node for node in graph.topological_order()
                 if isinstance(node, (Operator, Sink))]
        self._position = {node: index for index, node in enumerate(nodes)}
        self._cursor = 0

    def next_node(self) -> Optional[GraphNode]:
        """The ready node first at or after the cursor in topological order:
        the node a scan of every node from the cursor would stop at."""
        if self._graph is None:
            return None
        position, cursor = self._position, self._cursor
        count = len(position)
        best: Optional[GraphNode] = None
        best_offset = count
        for node in self._graph.pending_nodes():
            index = position.get(node)
            if index is None:
                continue
            offset = (index - cursor) % count
            if offset < best_offset:
                best, best_offset = node, offset
        if best is not None:
            self._cursor = (cursor + best_offset + 1) % count
        return best


class ChainScheduler(OperatorScheduler):
    """Chain [5] operator scheduling driven by live selectivity metadata."""

    def __init__(self, refresh_interval: float = 100.0) -> None:
        self.refresh_interval = refresh_interval
        self._graph: Optional[QueryGraph] = None
        self._operators: list[Operator] = []
        self._sinks: list[Sink] = []
        # Topological positions: the first ready sink, and the tie-break
        # between operators of equal priority.
        self._sink_position: dict[GraphNode, int] = {}
        self._operator_position: dict[GraphNode, int] = {}
        self._subscriptions: dict[str, MetadataSubscription] = {}
        self._priorities: dict[str, float] = {}
        self._last_refresh = -math.inf
        self.priority_recomputations = 0

    def attach(self, graph: QueryGraph) -> None:
        if not graph.frozen:
            raise GraphError("scheduler requires a frozen graph")
        self._graph = graph
        order = graph.topological_order()
        self._operators = [n for n in order if isinstance(n, Operator)]
        self._sinks = [n for n in order if isinstance(n, Sink)]
        self._sink_position = {n: i for i, n in enumerate(self._sinks)}
        self._operator_position = {n: i for i, n in enumerate(self._operators)}
        # The scheduler is a metadata consumer: one subscription to the
        # average selectivity of every operator it schedules.
        for operator in self._operators:
            self._subscriptions[operator.name] = operator.metadata.subscribe(
                md.AVG_SELECTIVITY
            )
        self._recompute_priorities()

    def detach(self) -> None:
        for subscription in self._subscriptions.values():
            if subscription.active:
                subscription.cancel()
        self._subscriptions.clear()

    # -- priorities -----------------------------------------------------------

    def _selectivity(self, operator: Operator) -> float:
        subscription = self._subscriptions.get(operator.name)
        if subscription is None:
            return 1.0
        value = subscription.get()
        # Until the first measurement lands, assume pass-through.
        return value if value > 0 else 1.0

    def _downstream_path(self, operator: Operator) -> list[Operator]:
        """Primary downstream operator path (first consumer at each hop)."""
        path = [operator]
        node: GraphNode = operator
        while True:
            consumers = node.downstream_nodes
            next_ops = [c for c in consumers if isinstance(c, Operator)]
            if not next_ops:
                return path
            node = next_ops[0]
            path.append(node)

    def _recompute_priorities(self) -> None:
        self.priority_recomputations += 1
        self._priorities = {}
        for operator in self._operators:
            best_slope = 0.0
            cumulative_sel = 1.0
            cumulative_cost = 0.0
            for hop in self._downstream_path(operator):
                cumulative_sel *= self._selectivity(hop)
                cumulative_cost += max(hop.base_cost_per_element, 1e-9)
                slope = (1.0 - cumulative_sel) / cumulative_cost
                best_slope = max(best_slope, slope)
            self._priorities[operator.name] = best_slope

    def priority(self, operator: Operator) -> float:
        return self._priorities.get(operator.name, 0.0)

    # -- selection -----------------------------------------------------------------

    def next_node(self) -> Optional[GraphNode]:
        now = self._graph.clock.now() if self._graph else 0.0
        if now - self._last_refresh >= self.refresh_interval:
            self._recompute_priorities()
            self._last_refresh = now
        pending = self._graph.pending_nodes() if self._graph else []
        # Sinks first: result delivery frees memory for free.
        sink_position = self._sink_position
        sinks = [node for node in pending if node in sink_position]
        if sinks:
            return min(sinks, key=sink_position.__getitem__)
        position = self._operator_position
        ready = [node for node in pending if node in position]
        if not ready:
            return None
        priorities = self._priorities
        return max(ready, key=lambda op: (priorities.get(op.name, 0.0),
                                          -position[op]))


class PriorityScheduler(OperatorScheduler):
    """Schedules work for high-priority queries first.

    Query-level metadata (Section 1): sinks carry a scheduling ``priority``
    item.  This scheduler subscribes to the priority of every sink and serves
    each operator with the *maximum priority among the sinks it feeds* —
    tuple-at-a-time priority scheduling in the spirit of Aurora's QoS-driven
    scheduler [10], expressed purely as a metadata consumer.
    """

    def __init__(self) -> None:
        self._graph: Optional[QueryGraph] = None
        self._operators: list[Operator] = []
        self._sinks: list[Sink] = []
        # Sinks, then operators, each in topological order: the order a
        # priority tie is broken in.
        self._position: dict[GraphNode, int] = {}
        self._subscriptions: dict[str, MetadataSubscription] = {}
        self._effective: dict[str, float] = {}

    def attach(self, graph: QueryGraph) -> None:
        if not graph.frozen:
            raise GraphError("scheduler requires a frozen graph")
        self._graph = graph
        order = graph.topological_order()
        self._operators = [n for n in order if isinstance(n, Operator)]
        self._sinks = [n for n in order if isinstance(n, Sink)]
        self._position = {
            n: i for i, n in enumerate([*self._sinks, *self._operators])}
        for sink in self._sinks:
            self._subscriptions[sink.name] = sink.metadata.subscribe(md.PRIORITY)
        self._recompute()

    def detach(self) -> None:
        for subscription in self._subscriptions.values():
            if subscription.active:
                subscription.cancel()
        self._subscriptions.clear()

    def _recompute(self) -> None:
        """Effective operator priority = max priority of reachable sinks."""
        sink_priority = {
            name: subscription.get()
            for name, subscription in self._subscriptions.items()
        }
        # Propagate backwards through the (acyclic) graph, sinks first.
        reachable: dict[str, float] = dict(sink_priority)
        for node in reversed(self._graph.topological_order()):
            if isinstance(node, Sink):
                continue
            downstream = [reachable.get(c.name, float("-inf"))
                          for c in node.downstream_nodes]
            reachable[node.name] = max(downstream) if downstream else float("-inf")
        self._effective = reachable

    def priority(self, node: GraphNode) -> float:
        return self._effective.get(node.name, float("-inf"))

    def next_node(self) -> Optional[GraphNode]:
        position = self._position
        pending = self._graph.pending_nodes() if self._graph else []
        candidates = sorted([node for node in pending if node in position],
                            key=position.__getitem__)
        if not candidates:
            return None
        sink_priority = {
            name: subscription.get()
            for name, subscription in self._subscriptions.items()
        }

        def effective(node: GraphNode) -> float:
            if isinstance(node, Sink):
                return sink_priority.get(node.name, float("-inf"))
            return self._effective.get(node.name, float("-inf"))

        return max(candidates, key=effective)
