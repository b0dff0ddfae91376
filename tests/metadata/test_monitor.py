"""Tests for monitoring probes (Section 4.4.1)."""

from __future__ import annotations

import pytest

from repro.common.clock import VirtualClock
from repro.common.errors import MetadataError
from repro.metadata.monitor import (
    CostProbe,
    CounterProbe,
    DistributionProbe,
    GaugeProbe,
    MeanProbe,
    Probe,
    RateProbe,
)


class TestActivation:
    def test_refcounted_activation(self, clock):
        probe = CounterProbe("c", clock)
        probe.activate()
        probe.activate()
        probe.deactivate()
        assert probe.active
        probe.deactivate()
        assert not probe.active

    def test_over_deactivation_raises(self, clock):
        probe = CounterProbe("c", clock)
        with pytest.raises(MetadataError):
            probe.deactivate()

    def test_activation_resets_state(self, clock):
        probe = CounterProbe("c", clock)
        probe.activate()
        probe.record(5)
        probe.deactivate()
        probe.activate()
        assert probe.total == 0


class TestCounterProbe:
    def test_records_only_while_active(self, clock):
        probe = CounterProbe("c", clock)
        probe.record(3)
        assert probe.total == 0
        probe.activate()
        probe.record(3)
        probe.record()
        assert probe.total == 4


class TestRateProbe:
    def test_periodic_rate(self, clock):
        probe = RateProbe("r", clock)
        probe.activate()
        for _ in range(5):
            probe.record()
        clock.advance_by(50.0)
        assert probe.rate_and_reset() == pytest.approx(0.1)
        # Window restarted: immediate re-read is zero.
        assert probe.unsafe_peek_rate() == 0.0

    def test_unsafe_interleaved_reads_interfere(self, clock):
        """The Figure 4 failure mode at probe level: two consumers calling
        the resetting read destroy each other's measurement window."""
        probe = RateProbe("r", clock)
        probe.activate()
        # 0.1 elements per time unit for 100 units.
        for _ in range(5):
            probe.record()
        clock.advance_by(50.0)
        first = probe.unsafe_rate_and_reset()   # consumer 1 at t=50
        clock.advance_by(1.0)
        probe.record()
        second = probe.unsafe_rate_and_reset()  # consumer 2 at t=51
        assert first == pytest.approx(0.1)
        assert second == pytest.approx(1.0)     # wildly wrong vs true 0.1


class TestGaugeProbe:
    def test_reads_current_value(self):
        state = {"n": 1}
        probe = GaugeProbe("g", lambda: state["n"])
        probe.activate()
        assert probe.read() == 1
        state["n"] = 7
        assert probe.read() == 7

    def test_read_while_inactive_raises(self):
        probe = GaugeProbe("g", lambda: 0)
        with pytest.raises(MetadataError):
            probe.read()


class TestCostProbe:
    def test_usage_per_time_unit(self, clock):
        probe = CostProbe("cpu", clock)
        probe.activate()
        probe.charge(10.0)
        probe.charge(10.0)
        clock.advance_by(40.0)
        assert probe.usage_and_reset() == pytest.approx(0.5)
        clock.advance_by(10.0)
        assert probe.usage_and_reset() == 0.0

    def test_zero_elapsed(self, clock):
        probe = CostProbe("cpu", clock)
        probe.activate()
        probe.charge(5.0)
        assert probe.usage_and_reset() == 0.0


class TestMeanProbe:
    def test_mean_and_reset(self):
        probe = MeanProbe("m")
        probe.activate()
        probe.record(10.0)
        probe.record(20.0)
        assert probe.mean_and_reset() == pytest.approx(15.0)

    def test_empty_window_repeats_last_mean(self):
        probe = MeanProbe("m")
        probe.activate()
        probe.record(10.0)
        assert probe.mean_and_reset() == 10.0
        assert probe.mean_and_reset() == 10.0  # no new samples

    def test_inactive_records_nothing(self):
        probe = MeanProbe("m")
        probe.record(5.0)
        probe.activate()
        assert probe.mean_and_reset() == 0.0


class TestDistributionProbe:
    def test_inactive_records_nothing(self):
        probe = DistributionProbe("d")
        probe.record(1.0)
        assert len(probe) == 0
        probe.activate()
        assert probe.snapshot_and_reset()["count"] == 0

    def test_snapshot_summarises_and_resets(self):
        probe = DistributionProbe("d")
        probe.activate()
        for value in (1.0, 2.0, 3.0):
            probe.record(value)
        snapshot = probe.snapshot_and_reset()
        assert (snapshot["count"], snapshot["dropped"]) == (3, 0)
        assert (snapshot["min"], snapshot["max"]) == (1.0, 3.0)
        assert len(probe) == 0

    def test_capped_period_reports_dropped(self):
        probe = DistributionProbe("d", max_samples=5)
        probe.activate()
        for value in range(8):
            probe.record(value)
        snapshot = probe.snapshot_and_reset()
        assert (snapshot["count"], snapshot["dropped"]) == (5, 3)
        assert probe.snapshot_and_reset()["dropped"] == 0

    def test_deactivation_empties(self):
        probe = DistributionProbe("d")
        probe.activate()
        probe.record(1.0)
        probe.deactivate()
        assert len(probe) == 0


class TestActivationThreadSafety:
    @pytest.mark.stress
    def test_concurrent_activation_refcount_is_exact(self, clock):
        """Interleaved activate/deactivate from many threads must keep the
        reference count exact: losing one activation leaves a probe inactive
        while included metadata depends on it."""
        from repro.common.racecheck import RaceCheck

        probe = CounterProbe("c", clock)
        iterations = 200

        def churn(worker, i):
            probe.activate()
            probe.deactivate()

        check = RaceCheck(iterations=iterations, timeout=30.0)
        check.add(churn, threads=4)
        check.run()
        assert probe._activation_count == 0
        assert not probe.active

    @pytest.mark.stress
    def test_activation_hooks_run_once_per_transition(self, clock):
        """_on_activate/_on_deactivate fire exactly once per 0<->1 crossing
        even when the crossing is contended."""
        from repro.common.racecheck import RaceCheck

        class HookCounting(Probe):
            def __init__(self) -> None:
                super().__init__("h")
                self.activations = 0
                self.deactivations = 0

            def _on_activate(self) -> None:
                self.activations += 1  # runs under the probe mutex

            def _on_deactivate(self) -> None:
                self.deactivations += 1

        probe = HookCounting()

        def churn(worker, i):
            probe.activate()
            probe.deactivate()

        check = RaceCheck(iterations=200, timeout=30.0)
        check.add(churn, threads=4)
        check.run()
        # Every completed 0->1 crossing has a matching 1->0 crossing.
        assert probe.activations == probe.deactivations
        assert probe.activations >= 1
        assert not probe.active


class TestRateProbeDeduplication:
    def test_unsafe_alias_delegates_to_rate_and_reset(self, clock):
        """unsafe_rate_and_reset is the same computation under a warning
        name, not a divergent copy (the byte-identical bodies were deduped)."""
        probe = RateProbe("r", clock)
        probe.activate()
        for _ in range(4):
            probe.record()
        clock.advance_by(40.0)
        assert probe.unsafe_rate_and_reset() == pytest.approx(0.1)
        # The alias resets the shared window exactly like rate_and_reset.
        clock.advance_by(10.0)
        assert probe.rate_and_reset() == 0.0
        assert RateProbe.unsafe_rate_and_reset is not RateProbe.rate_and_reset


class TestProbeTelemetry:
    def test_activation_transitions_traced(self, clock):
        from repro.metadata.item import Mechanism, MetadataDefinition, MetadataKey
        from repro.metadata.registry import MetadataRegistry, MetadataSystem
        from repro.metadata.scheduling import VirtualTimeScheduler

        system = MetadataSystem(clock, VirtualTimeScheduler(clock))

        class Owner:
            name = "node"

        owner = Owner()
        owner.metadata = MetadataRegistry(owner, system)
        probe = owner.metadata.add_probe(CounterProbe("elements", clock))
        key = MetadataKey("count")
        owner.metadata.define(MetadataDefinition(
            key, Mechanism.ON_DEMAND, compute=lambda ctx: probe.total,
            monitors=("elements",),
        ))
        tel = system.enable_telemetry()
        s1 = owner.metadata.subscribe(key)
        s2 = owner.metadata.subscribe(key)  # shared: no second activation
        s2.cancel()
        s1.cancel()
        activated = tel.bus.events(kind="probe.activated")
        deactivated = tel.bus.events(kind="probe.deactivated")
        assert [(e.node, e.name) for e in activated] == [("node", "elements")]
        assert [(e.node, e.name) for e in deactivated] == [("node", "elements")]
        assert tel.metrics.gauge("probes_active").value == 0
