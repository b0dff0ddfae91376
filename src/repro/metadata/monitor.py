"""Monitoring probes — the "specific monitoring code" of Section 4.4.1.

Some metadata items require a node to *gather information* while elements are
processed; the paper's example is the input rate, which "requires to count the
number of incoming elements".  Probes encapsulate that gathering code.  They
are registered on a node once, stay **inactive** (zero overhead beyond a
boolean check) until a metadata definition listing them is included, and are
deactivated again when the last such item is removed — `addMetadata` activates
them, `removeMetadata` deactivates them.

Activation is reference-counted because several items may share one probe
(e.g. input rate and average input rate both need the element counter).
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING, Any, Callable

from repro.common.clock import Clock
from repro.common.errors import MetadataError
from repro.common.histogram import HistogramBuilder
from repro.common.stats import WindowedCounter
from repro.telemetry.events import ProbeActivated, ProbeDeactivated

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.metadata.registry import MetadataSystem

__all__ = ["Probe", "CounterProbe", "GaugeProbe", "RateProbe", "CostProbe", "MeanProbe",
           "DistributionProbe"]


class Probe:
    """Base class for monitoring probes.

    Subclasses implement :meth:`_on_activate` / :meth:`_on_deactivate` and
    whatever recording methods the operator calls from its hot path; every
    recording method must early-return when :attr:`active` is false so that
    unobserved metadata costs (almost) nothing.

    Activation reference counting is guarded by a lock: subscriptions from
    different threads may include/exclude items sharing one probe
    concurrently, and an unguarded ``count += 1`` would lose activations
    (leaving a probe inactive while metadata depends on it) or double-run
    the activation hooks.  The hot-path ``active`` check stays lock-free —
    it is a plain boolean read, flipped only under the lock.
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self.active = False
        self._activation_count = 0
        self._mutex = threading.Lock()
        self._system: "MetadataSystem | None" = None
        self._owner_name = ""

    def bind_system(self, system: "MetadataSystem", owner_name: str) -> None:
        """Attach the owning system (set by ``MetadataRegistry.add_probe``)
        so activation transitions can be traced when telemetry is enabled."""
        self._system = system
        self._owner_name = owner_name

    def activate(self) -> None:
        """Reference-counted activation.  Thread-safe."""
        with self._mutex:
            self._activation_count += 1
            count = self._activation_count
            if count == 1:
                self.active = True
                self._on_activate()
        if count == 1:
            system = self._system
            tel = system.telemetry if system is not None else None
            if tel is not None:
                tel.emit(ProbeActivated(node=self._owner_name, name=self.name,
                                        count=count))

    def deactivate(self) -> None:
        """Reference-counted deactivation; raises when not active.  Thread-safe."""
        with self._mutex:
            if self._activation_count == 0:
                raise MetadataError(
                    f"probe {self.name!r} deactivated more than activated"
                )
            self._activation_count -= 1
            count = self._activation_count
            if count == 0:
                self.active = False
                self._on_deactivate()
        if count == 0:
            system = self._system
            tel = system.telemetry if system is not None else None
            if tel is not None:
                tel.emit(ProbeDeactivated(node=self._owner_name, name=self.name,
                                          count=count))

    def _on_activate(self) -> None:
        """Hook: reset gathering state when monitoring begins."""

    def _on_deactivate(self) -> None:
        """Hook: release gathering state when monitoring ends."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "active" if self.active else "inactive"
        return f"{type(self).__name__}({self.name!r}, {state})"


class CounterProbe(Probe):
    """Counts discrete events (elements arrived, results produced, ...).

    Exposes both a *total* count (monotone, for selectivity ratios) and a
    :class:`WindowedCounter` view for per-period rates.
    """

    def __init__(self, name: str, clock: Clock) -> None:
        super().__init__(name)
        self._clock = clock
        self.total = 0
        self.window = WindowedCounter(clock.now())

    def record(self, n: int = 1) -> None:
        """Count ``n`` events; no-op while inactive."""
        if not self.active:
            return
        self.total += n
        self.window.increment(n)

    def _on_activate(self) -> None:
        self.total = 0
        self.window = WindowedCounter(self._clock.now())


class GaugeProbe(Probe):
    """Samples an instantaneous quantity supplied by a callable.

    Used for state-derived measurements such as the number of elements in a
    sweep area; the value is read through :meth:`read` on access, so the
    operator's hot path carries no cost at all.
    """

    def __init__(self, name: str, reader: Callable[[], Any]) -> None:
        super().__init__(name)
        self._reader = reader

    def read(self) -> Any:
        if not self.active:
            raise MetadataError(f"gauge probe {self.name!r} read while inactive")
        return self._reader()


class RateProbe(CounterProbe):
    """Counter specialised for rate measurement.

    ``rate_and_reset`` is what a *periodic* input-rate handler calls once per
    window; ``unsafe_peek_rate`` is the non-resetting read a naive on-demand
    handler would use — both are provided so the Figure 4 experiment can
    demonstrate the difference with the same probe.
    """

    def rate_and_reset(self) -> float:
        return self.window.rate_and_reset(self._clock.now())

    def unsafe_rate_and_reset(self) -> float:
        """The Figure 4 anti-pattern: compute rate since last access and reset.

        The *computation* is identical to :meth:`rate_and_reset` — what makes
        it unsafe is the calling pattern: two consumers calling this
        interleaved destroy each other's window.  Kept as a named alias so
        the experiment code documents intent at the call site.
        """
        return self.rate_and_reset()

    def unsafe_peek_rate(self) -> float:
        return self.window.peek_rate(self._clock.now())


class CostProbe(Probe):
    """Accumulates simulated processing cost (CPU time units).

    Operators charge their per-element processing cost here; the measured
    CPU-usage metadata item divides accumulated cost by elapsed time.
    """

    def __init__(self, name: str, clock: Clock) -> None:
        super().__init__(name)
        self._clock = clock
        self.accumulated = 0.0
        self._window_start = clock.now()

    def charge(self, cost: float) -> None:
        if not self.active:
            return
        self.accumulated += cost

    def usage_and_reset(self) -> float:
        """Average cost per time unit since the window start, then reset."""
        now = self._clock.now()
        elapsed = now - self._window_start
        usage = self.accumulated / elapsed if elapsed > 0 else 0.0
        self.accumulated = 0.0
        self._window_start = now
        return usage

    def _on_activate(self) -> None:
        self.accumulated = 0.0
        self._window_start = self._clock.now()


class MeanProbe(Probe):
    """Averages a measured quantity over each metadata update window.

    Window operators use this for the measured element validity: every
    processed element records its assigned validity span, and the periodic
    handler reads the mean once per period via :meth:`mean_and_reset`.
    """

    def __init__(self, name: str) -> None:
        super().__init__(name)
        self._sum = 0.0
        self._count = 0
        self.last_mean = 0.0

    def record(self, value: float) -> None:
        if not self.active:
            return
        self._sum += value
        self._count += 1

    def mean_and_reset(self) -> float:
        """Mean of the recorded values this window; repeats the previous mean
        when nothing was recorded (an empty window carries no information)."""
        if self._count:
            self.last_mean = self._sum / self._count
        self._sum = 0.0
        self._count = 0
        return self.last_mean

    def _on_activate(self) -> None:
        self._sum = 0.0
        self._count = 0
        self.last_mean = 0.0


class DistributionProbe(Probe):
    """Samples payload values for a source's value-distribution item.

    Inactive, it holds no samples and :meth:`record` returns at once; it
    starts empty on activation, so a late subscriber's first histogram
    covers only what arrived after it subscribed.  The periodic handler
    calls :meth:`snapshot_and_reset` once per period.
    """

    def __init__(self, name: str, max_samples: int = 10_000) -> None:
        super().__init__(name)
        self._builder = HistogramBuilder(max_samples=max_samples)

    def record(self, value: Any) -> None:
        if not self.active:
            return
        self._builder.add(value)

    def __len__(self) -> int:
        return len(self._builder)

    def snapshot_and_reset(self) -> dict:
        """This period's summary: ``count``, ``histogram`` and ``dropped``
        (values past ``max_samples``, which the histogram does not count),
        plus ``min``/``max``/``mean`` when anything was sampled."""
        dropped = self._builder.dropped
        histogram = self._builder.snapshot_and_reset()
        snapshot = {"count": histogram.total, "histogram": histogram,
                    "dropped": dropped}
        if histogram.total:
            snapshot.update({
                "min": histogram.low,
                "max": histogram.high,
                "mean": histogram.mean(),
            })
        return snapshot

    def _on_activate(self) -> None:
        self._builder.clear()

    def _on_deactivate(self) -> None:
        self._builder.clear()
