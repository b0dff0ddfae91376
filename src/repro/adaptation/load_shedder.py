"""Load shedding driven by resource metadata (Section 1, application 2; [21]).

"Metadata on resource allocation is necessary to apply load shedding
techniques with the aim to keep overall resource usage in bounds."

Two pieces:

* :class:`Shedder` — an operator that randomly drops a controllable fraction
  of its input; placed early in a plan, it is the shedding actuator.
* :class:`LoadShedder` — the controller: subscribes to the measured CPU usage
  of the operators it protects and adjusts each shedder's drop probability to
  keep total usage under a bound, backing off when there is headroom.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.common.errors import GraphError
from repro.graph.element import StreamElement
from repro.graph.node import Operator
from repro.metadata import catalogue as md
from repro.metadata.item import Mechanism, MetadataDefinition
from repro.metadata.registry import MetadataRegistry, MetadataSubscription

__all__ = ["Shedder", "LoadShedder", "SheddingDecision"]

#: Metadata item published by the shedder: current drop probability.
DROP_PROBABILITY = md.MetadataKey("shedder.drop_probability")


class Shedder(Operator):
    """Randomly drops a fraction ``drop_probability`` of its input."""

    arity = 1
    base_cost_per_element = 0.1  # dropping is nearly free

    def __init__(self, name: str, seed: int = 0) -> None:
        super().__init__(name)
        self.drop_probability = 0.0
        self.dropped = 0
        self._rng = random.Random(seed)

    def on_element(self, element: StreamElement, port: int) -> None:
        if self.drop_probability > 0.0 and self._rng.random() < self.drop_probability:
            self.dropped += 1
            return
        self.emit(element)

    def set_drop_probability(self, probability: float) -> None:
        probability = min(1.0, max(0.0, probability))
        if probability != self.drop_probability:
            self.drop_probability = probability
            self.notify_state_changed(DROP_PROBABILITY)

    def register_metadata(self, registry: MetadataRegistry) -> None:
        from repro.metadata.item import SelfDep, UpstreamDep

        super().register_metadata(registry)
        registry.define(MetadataDefinition(
            DROP_PROBABILITY, Mechanism.ON_DEMAND,
            compute=lambda ctx: self.drop_probability,
            description="fraction of input currently shed",
        ))
        registry.define(MetadataDefinition(
            md.EST_OUTPUT_RATE, Mechanism.TRIGGERED,
            dependencies=[UpstreamDep(md.EST_OUTPUT_RATE, port=0),
                          SelfDep(DROP_PROBABILITY)],
            compute=lambda ctx: (
                ctx.values(md.EST_OUTPUT_RATE)[0]
                * (1.0 - ctx.value(DROP_PROBABILITY))
            ),
            description="estimated output rate = input estimate x survival "
                        "fraction; refreshed by the drop-probability event",
        ))


@dataclass
class SheddingDecision:
    """One controller step, recorded for benchmarks."""

    time: float
    total_cpu: float
    bound: float
    drop_probability: float


class LoadShedder:
    """Feedback controller keeping measured CPU usage under a bound."""

    def __init__(
        self,
        shedders: Sequence[Shedder],
        protected: Iterable[Operator],
        cpu_bound: float,
        step: float = 0.1,
    ) -> None:
        if cpu_bound <= 0:
            raise GraphError(f"cpu bound must be positive, got {cpu_bound}")
        if not 0 < step <= 1:
            raise GraphError(f"step must be in (0, 1], got {step}")
        self.shedders = list(shedders)
        if not self.shedders:
            raise GraphError("need at least one shedder to control")
        self.cpu_bound = cpu_bound
        self.step = step
        self.decisions: list[SheddingDecision] = []
        self._subscriptions: list[MetadataSubscription] = [
            operator.metadata.subscribe(md.CPU_USAGE) for operator in protected
        ]
        if not self._subscriptions:
            raise GraphError("need at least one protected operator")

    def total_cpu(self) -> float:
        return sum(subscription.get() for subscription in self._subscriptions)

    def check(self, now: float) -> SheddingDecision:
        """One control step; call periodically."""
        total = self.total_cpu()
        current = self.shedders[0].drop_probability
        if total > self.cpu_bound:
            target = min(1.0, current + self.step)
        elif total < self.cpu_bound * 0.7:
            target = max(0.0, current - self.step / 2)
        else:
            target = current
        for shedder in self.shedders:
            shedder.set_drop_probability(target)
        decision = SheddingDecision(now, total, self.cpu_bound, target)
        self.decisions.append(decision)
        return decision

    def close(self) -> None:
        for subscription in self._subscriptions:
            if subscription.active:
                subscription.cancel()
        self._subscriptions.clear()
