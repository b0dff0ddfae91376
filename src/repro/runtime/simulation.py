"""Deterministic discrete-event execution of a query graph.

The :class:`SimulationExecutor` drives everything from one
:class:`~repro.common.clock.VirtualClock`:

* stream drivers arm timers for element arrivals,
* the periodic metadata scheduler's refresh timers interleave with them, and
* metadata consumers can register their own sampling tasks via
  :meth:`SimulationExecutor.every`.

Operator work is processed by an :class:`~repro.runtime.scheduler.OperatorScheduler`
under a configurable **service capacity** (operator steps per time unit).
With the default infinite capacity, queues drain after every arrival; a
finite capacity creates genuine backlog so overload behaviour — the regime
Chain scheduling and load shedding exist for — is observable.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, Optional

from repro.common.clock import VirtualClock
from repro.common.errors import SimulationError
from repro.graph.graph import QueryGraph
from repro.runtime.scheduler import OperatorScheduler, RoundRobinScheduler
from repro.sources.synthetic import StreamDriver

__all__ = ["SimulationExecutor"]


class SimulationExecutor:
    """Runs a frozen query graph under virtual time."""

    def __init__(
        self,
        graph: QueryGraph,
        drivers: Iterable[StreamDriver] = (),
        scheduler: Optional[OperatorScheduler] = None,
        service_capacity: float = math.inf,
    ) -> None:
        if not isinstance(graph.clock, VirtualClock):
            raise SimulationError("SimulationExecutor requires a VirtualClock")
        if service_capacity <= 0:
            raise SimulationError(
                f"service capacity must be positive, got {service_capacity}"
            )
        if not graph.frozen:
            graph.freeze()
        self.graph = graph
        self.clock: VirtualClock = graph.clock
        self.scheduler = scheduler if scheduler is not None else RoundRobinScheduler()
        self.scheduler.attach(graph)
        self.service_capacity = service_capacity
        self.steps_executed = 0
        self._drivers: list[StreamDriver] = []
        self._credits = 0.0
        self._last_credit_time = self.clock.now()
        self._drain_timer = None
        for driver in drivers:
            self.add_driver(driver)

    # -- drivers -----------------------------------------------------------

    def add_driver(self, driver: StreamDriver) -> None:
        """Register a stream driver and arm its first arrival."""
        self._drivers.append(driver)
        first = driver.first_arrival()
        if math.isfinite(first):
            self.clock.schedule_at(first, lambda: self._arrival(driver))

    def _arrival(self, driver: StreamDriver) -> None:
        source = driver.source
        if self.graph._nodes.get(source.name) is not source:
            return  # the source's query was uninstalled; stop this driver
        next_time = driver.produce(self.clock.now())
        if math.isfinite(next_time):
            self.clock.schedule_at(next_time, lambda: self._arrival(driver))
        self._drain()

    def rebuild_schedule(self) -> None:
        """Re-attach the operator scheduler after a runtime graph update.

        Call this after :meth:`QueryGraph.commit_update` or
        :meth:`QueryGraph.uninstall_query` so newly installed operators are
        scheduled and removed ones are forgotten.
        """
        self.scheduler.detach()
        self.scheduler.attach(self.graph)

    # -- consumer tasks ---------------------------------------------------------

    def every(self, interval: float, task: Callable[[float], None],
              start: Optional[float] = None) -> None:
        """Run ``task(now)`` every ``interval`` time units (consumer hook)."""
        if interval <= 0:
            raise SimulationError(f"interval must be positive, got {interval}")
        first = self.clock.now() + interval if start is None else start

        def fire(deadline: float = first) -> None:
            task(self.clock.now())
            self.clock.schedule_at(deadline + interval, lambda: fire(deadline + interval))

        self.clock.schedule_at(first, fire)

    def at(self, when: float, task: Callable[[float], None]) -> None:
        """Run ``task(now)`` once at absolute time ``when``."""
        self.clock.schedule_at(when, lambda: task(self.clock.now()))

    # -- processing ------------------------------------------------------------------

    def _accrue_credits(self) -> None:
        now = self.clock.now()
        if math.isinf(self.service_capacity):
            self._credits = math.inf
        else:
            self._credits += (now - self._last_credit_time) * self.service_capacity
            # Idle capacity does not accumulate without bound.
            self._credits = min(self._credits, self.service_capacity * 10.0)
        self._last_credit_time = now

    def _drain(self) -> None:
        """Process queued work subject to the service-capacity budget."""
        self._accrue_credits()
        while self._credits >= 1.0:
            node = self.scheduler.next_node()
            if node is None:
                return
            node.step()
            self.steps_executed += 1
            if not math.isinf(self.service_capacity):
                self._credits -= 1.0
        # Backlog remains but the budget is spent: continue one quantum later.
        # The graph's readiness is read, not the scheduler: ``next_node`` is
        # a choice, and a choice that is not stepped skips that node's turn.
        if self._drain_timer is None and self.graph.pending_nodes():
            def resume() -> None:
                self._drain_timer = None
                self._drain()

            self._drain_timer = self.clock.schedule_after(
                1.0 / self.service_capacity, resume
            )

    # -- running ------------------------------------------------------------------------

    def run_until(self, deadline: float) -> None:
        """Advance virtual time to ``deadline``, firing all due events."""
        self.clock.run_until_idle(limit=deadline)
        self._drain()

    def run_for(self, duration: float) -> None:
        self.run_until(self.clock.now() + duration)

    @property
    def now(self) -> float:
        return self.clock.now()
