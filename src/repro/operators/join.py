"""Sliding-window join — the operator of the paper's running example.

The join keeps one sweep-area module per input ("two data structures store
the elements in the windows, one data structure for each input", Section 3.1)
and probes the opposite area for every arriving element.  Its metadata wiring
reproduces Figure 3 one-to-one:

* **measured memory usage** — on-demand, recursing into the sweep-area
  modules' own memory items (:class:`~repro.metadata.item.ModuleDep`);
* **estimated CPU usage** — triggered, inter-node dependencies on the inputs'
  estimated output rates and element validities, intra-node dependency on the
  predicate cost, plus module dependencies on the sweep areas' probe
  fractions (hash vs nested-loops);
* **estimated memory / output rate** — triggered, same inter-node inputs.

The measured join ``operator.selectivity`` is **overridden** (Section 4.4.2)
to mean *matches per candidate pair examined*, which is the quantity the
estimates need.
"""

from __future__ import annotations

from collections.abc import Mapping
from typing import Any, Callable, Optional

from repro.common.errors import GraphError
from repro.costmodel import model as costmodel
from repro.graph.element import Schema, StreamElement
from repro.graph.node import Operator
from repro.metadata import catalogue as md
from repro.metadata.item import (
    Mechanism,
    MetadataDefinition,
    ModuleDep,
    SelfDep,
    UpstreamDep,
)
from repro.metadata.monitor import CounterProbe
from repro.metadata.registry import MetadataRegistry
from repro.operators.sweeparea import (
    PROBE_FRACTION,
    HashSweepArea,
    ListSweepArea,
    SweepArea,
)

__all__ = ["SlidingWindowJoin"]

Predicate = Callable[[StreamElement, StreamElement], bool]


class SlidingWindowJoin(Operator):
    """Symmetric sliding-window join over two validity-windowed inputs.

    Parameters
    ----------
    predicate:
        ``predicate(left_element, right_element) -> bool``; defaults to the
        equality of ``key_fn`` values when keys are given, else cross product.
    impl:
        ``"nested-loops"`` (list sweep areas) or ``"hash"`` (requires
        ``key_fn``) — the exchangeable-module choice of Section 4.5.
    key_fn:
        ``key_fn(element) -> hashable`` join key used by hash sweep areas and
        the default equality predicate.
    predicate_cost:
        Simulated CPU cost of one predicate evaluation (Figure 3's
        "costs of the join predicate").
    """

    arity = 2

    def __init__(
        self,
        name: str,
        predicate: Optional[Predicate] = None,
        impl: str = "nested-loops",
        key_fn: Optional[Callable[[StreamElement], Any]] = None,
        predicate_cost: float = 1.0,
    ) -> None:
        super().__init__(name)
        if impl not in ("nested-loops", "hash"):
            raise GraphError(f"unknown join implementation {impl!r}")
        if impl == "hash" and key_fn is None:
            raise GraphError("hash join requires a key_fn")
        if predicate is None:
            if key_fn is None:
                predicate = lambda left, right: True  # noqa: E731 - cross product
            else:
                predicate = lambda left, right: key_fn(left) == key_fn(right)  # noqa: E731
        self.predicate = predicate
        self.impl = impl
        self.key_fn = key_fn
        self.predicate_cost = float(predicate_cost)
        self.sweeps: list[SweepArea] = []
        self._pairs_probe: Optional[CounterProbe] = None
        self.matches = 0

    # -- modules (Section 4.5) ----------------------------------------------

    def get_module(self, name: str) -> SweepArea:
        for sweep in self.sweeps:
            if sweep.name == name:
                return sweep
        raise GraphError(f"join {self.name} has no module {name!r}")

    def _make_sweeps(self) -> None:
        sizes = [node.output_schema.element_size for node in self.upstream_nodes]
        if self.impl == "hash":
            self.sweeps = [
                HashSweepArea("sweep0", self.key_fn, sizes[0]),
                HashSweepArea("sweep1", self.key_fn, sizes[1]),
            ]
        else:
            self.sweeps = [
                ListSweepArea("sweep0", sizes[0]),
                ListSweepArea("sweep1", sizes[1]),
            ]

    # -- processing --------------------------------------------------------------

    def on_element(self, element: StreamElement, port: int) -> None:
        if not self.sweeps:
            raise GraphError(f"join {self.name} processed before freeze()")
        now = element.timestamp
        own, opposite = self.sweeps[port], self.sweeps[1 - port]
        own.expire(now)
        opposite.expire(now)

        if port == 0:
            pred = self.predicate
        else:
            pred = lambda probe, stored: self.predicate(stored, probe)  # noqa: E731
        matches, examined = opposite.probe(element, pred)
        self.charge_cost(examined * self.predicate_cost)
        if self._pairs_probe is not None:
            self._pairs_probe.record(examined)

        for match in matches:
            left, right = (element, match) if port == 0 else (match, element)
            self.matches += 1
            self.emit(self._result(left, right))
        own.insert(element)

    def _result(self, left: StreamElement, right: StreamElement) -> StreamElement:
        payload: Any
        if isinstance(left.payload, Mapping) and isinstance(right.payload, Mapping):
            payload = dict(left.payload)
            for key, value in right.payload.items():
                payload[key if key not in payload else f"{key}_r"] = value
        else:
            payload = (left.payload, right.payload)
        timestamp = max(left.timestamp, right.timestamp)
        expiry = min(left.expiry, right.expiry)
        return StreamElement(payload, timestamp, expiry)

    def state_size(self) -> int:
        return sum(len(sweep) for sweep in self.sweeps)

    # -- plan migration (Section 1 application 3; [25, 18]) ---------------------

    def swap_inputs(self) -> None:
        """Swap the join's build/probe roles, keeping all window state.

        This is the physical half of a left-deep → right-deep migration for
        a single symmetric join: ports, queues and sweep areas are exchanged
        in lock-step, so in-flight elements and window contents survive (the
        state-handover idea of HybMig [24] collapsed to the symmetric case).

        Per-port metadata stays *port-relative*: ``stream.input_rate[0]``
        measures whatever stream feeds port 0 after the swap.  Inter-node
        dependency bindings of currently included estimate items were
        resolved against the old orientation; consumers that care should
        re-subscribe after a migration (cheap, thanks to handler sharing).
        Fires the per-port rate events so triggered dependents refresh.
        """
        if not self.sweeps:
            raise GraphError(f"join {self.name} not frozen; nothing to swap")
        self.upstream_nodes.reverse()
        self.input_queues.reverse()
        self.sweeps.reverse()
        # Keep module slot names positional: sweeps[0] is always "sweep0".
        self.sweeps[0].name, self.sweeps[1].name = "sweep0", "sweep1"
        self.migrations = getattr(self, "migrations", 0) + 1
        for key in (md.INPUT_RATE.q(0), md.INPUT_RATE.q(1)):
            self.notify_state_changed(key)

    # -- metadata (Figure 3) ---------------------------------------------------------

    @property
    def output_schema(self) -> Schema:
        left, right = (node.output_schema for node in self.upstream_nodes)
        return left.concat(right)

    def register_metadata(self, registry: MetadataRegistry) -> None:
        self._make_sweeps()
        for sweep in self.sweeps:
            sweep.attach_metadata(registry.system)

        super().register_metadata(registry)
        self._pairs_probe = registry.add_probe(CounterProbe("pairs", registry.clock))
        period = self.metadata_period

        # Override the generic selectivity: matches per candidate pair.
        registry.define(MetadataDefinition(
            md.SELECTIVITY, Mechanism.PERIODIC, period=period,
            monitors=("pairs", "out"),
            compute=lambda ctx: self._pair_selectivity(),
            description="measured matches per candidate pair examined "
                        "(join-specific override, Section 4.4.2)",
        ), override=True)

        registry.define(MetadataDefinition(
            md.PREDICATE_COST, Mechanism.ON_DEMAND,
            compute=lambda ctx: self.predicate_cost,
            description="cost of one join-predicate evaluation (Figure 3)",
        ))

        # Measured memory usage recurses into the sweep-area modules
        # ("the memory usage of the join relies on the memory usage of the
        # internal data structures", Section 4.5).
        registry.define(MetadataDefinition(
            md.MEMORY_USAGE, Mechanism.ON_DEMAND,
            dependencies=[ModuleDep("sweep0", md.MEMORY_USAGE),
                          ModuleDep("sweep1", md.MEMORY_USAGE)],
            compute=lambda ctx: sum(ctx.values(md.MEMORY_USAGE)),
            description="measured memory usage = sum of the sweep-area "
                        "modules' memory usage",
        ), override=True)

        est_deps = [
            UpstreamDep(md.EST_OUTPUT_RATE),        # both ports, port order
            UpstreamDep(md.EST_ELEMENT_VALIDITY),   # both ports, port order
        ]
        registry.define(MetadataDefinition(
            md.EST_CPU_USAGE, Mechanism.TRIGGERED,
            dependencies=est_deps + [
                SelfDep(md.PREDICATE_COST),
                ModuleDep("sweep0", PROBE_FRACTION),
                ModuleDep("sweep1", PROBE_FRACTION),
            ],
            compute=self._estimate_cpu,
            description="estimated CPU usage of the join (Figure 3): "
                        "probe rate x expected candidates x predicate cost",
        ))
        registry.define(MetadataDefinition(
            md.EST_MEMORY_USAGE, Mechanism.TRIGGERED,
            dependencies=est_deps,
            compute=self._estimate_memory,
            description="estimated memory usage: expected window sizes times "
                        "element sizes",
        ))
        registry.define(MetadataDefinition(
            md.EST_OUTPUT_RATE, Mechanism.TRIGGERED,
            dependencies=est_deps + [SelfDep(md.AVG_SELECTIVITY)],
            compute=self._estimate_output_rate,
            description="estimated join output rate (available but unused in "
                        "Figure 3 until someone subscribes)",
        ))

    def _pair_selectivity(self) -> float:
        pairs = self._pairs_probe.total if self._pairs_probe else 0
        return (self._out_probe.total / pairs) if pairs else 0.0

    def _rates_and_validities(self, ctx) -> tuple[float, float, float, float]:
        r0, r1 = ctx.values(md.EST_OUTPUT_RATE)
        v0, v1 = ctx.values(md.EST_ELEMENT_VALIDITY)
        return r0, r1, v0, v1

    def _estimate_cpu(self, ctx) -> float:
        r0, r1, v0, v1 = self._rates_and_validities(ctx)
        cost = ctx.value(md.PREDICATE_COST)
        # Probe fractions come from the sweep-area modules' own metadata
        # (ModuleDep): port-0 arrivals probe sweep1 and vice versa.
        f0, f1 = ctx.values(PROBE_FRACTION)
        return costmodel.join_cpu_usage(
            r0, r1, v0, v1, predicate_cost=cost,
            base_cost=self.base_cost_per_element, f0=f0, f1=f1,
        )

    def _estimate_memory(self, ctx) -> float:
        r0, r1, v0, v1 = self._rates_and_validities(ctx)
        s0, s1 = (node.output_schema.element_size for node in self.upstream_nodes)
        return costmodel.join_memory(r0, r1, v0, v1, s0, s1)

    def _estimate_output_rate(self, ctx) -> float:
        r0, r1, v0, v1 = self._rates_and_validities(ctx)
        sigma = ctx.value(md.AVG_SELECTIVITY)
        f0 = self.sweeps[0].probe_fraction() if self.sweeps else 1.0
        f1 = self.sweeps[1].probe_fraction() if self.sweeps else 1.0
        return costmodel.join_output_rate(r0, r1, v0, v1, sigma, f0=f0, f1=f1)
