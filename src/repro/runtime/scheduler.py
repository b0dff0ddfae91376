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
        self._nodes: list[GraphNode] = []
        self._cursor = 0

    def attach(self, graph: QueryGraph) -> None:
        if not graph.frozen:
            raise GraphError("scheduler requires a frozen graph")
        self._nodes = [
            node for node in graph.topological_order()
            if isinstance(node, (Operator, Sink))
        ]
        self._cursor = 0

    def next_node(self) -> Optional[GraphNode]:
        nodes, cursor = self._nodes, self._cursor
        count = len(nodes)
        for offset in range(count):
            node = nodes[(cursor + offset) % count]
            if node.has_pending():
                self._cursor = (cursor + offset + 1) % count
                return node
        return None


class ChainScheduler(OperatorScheduler):
    """Chain [5] operator scheduling driven by live selectivity metadata."""

    def __init__(self, refresh_interval: float = 100.0) -> None:
        self.refresh_interval = refresh_interval
        self._graph: Optional[QueryGraph] = None
        self._operators: list[Operator] = []
        self._sinks: list[Sink] = []
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
        # Sinks first: result delivery frees memory for free.
        for sink in self._sinks:
            if sink.has_pending():
                return sink
        ready = [op for op in self._operators if op.has_pending()]
        if not ready:
            return None
        return max(ready, key=lambda op: (self._priorities.get(op.name, 0.0),
                                          -self._operators.index(op)))


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
        self._subscriptions: dict[str, MetadataSubscription] = {}
        self._effective: dict[str, float] = {}

    def attach(self, graph: QueryGraph) -> None:
        if not graph.frozen:
            raise GraphError("scheduler requires a frozen graph")
        self._graph = graph
        order = graph.topological_order()
        self._operators = [n for n in order if isinstance(n, Operator)]
        self._sinks = [n for n in order if isinstance(n, Sink)]
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
        ready_sinks = [s for s in self._sinks if s.has_pending()]
        ready_ops = [o for o in self._operators if o.has_pending()]
        candidates = ready_sinks + ready_ops
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
