"""Plan-verifier tests: codes MD001-MD008 pinned with a minimal triggering
plan (MD009 lives in ``test_reliability_checks.py``), plus the dependency-cycle handling coverage (the registry
rejects subscription on a cycle AND the verifier reports it statically)."""

from __future__ import annotations

import pytest

from repro.analysis import Severity, verify_system
from repro.analysis.plan import build_index, resolve_plan
from repro.common.clock import VirtualClock
from repro.common.errors import DependencyCycleError, MetadataError
from repro.metadata.item import (
    Mechanism,
    MetadataDefinition,
    MetadataKey,
    NodeDep,
    SelfDep,
)
from repro.metadata.monitor import RateProbe
from repro.metadata.registry import MetadataRegistry, MetadataSystem
from repro.metadata.scheduling import ThreadedScheduler
from tests.conftest import RegistryOwner

A = MetadataKey("a")
B = MetadataKey("b")
C = MetadataKey("c")


def codes(findings):
    return [f.code for f in findings]


def triggered(key, deps, compute=lambda ctx: 0.0):
    return MetadataDefinition(key, Mechanism.TRIGGERED, compute=compute,
                              dependencies=deps)


class TestCycles:
    def test_intra_node_cycle_md001(self, make_owner, system):
        owner = make_owner("n")
        owner.metadata.define(triggered(A, [SelfDep(B)]))
        owner.metadata.define(triggered(B, [SelfDep(A)]))

        findings = verify_system(system)
        md001 = [f for f in findings if f.code == "MD001"]
        assert len(md001) == 1
        finding = md001[0]
        assert finding.severity is Severity.ERROR
        # The full cycle path is spelled out in the message.
        assert "intra-node" in finding.message
        assert "n/a -> n/b -> n/a" in finding.message or \
            "n/b -> n/a -> n/b" in finding.message
        assert len(finding.details["cycle"]) == 3

    def test_inter_node_cycle_md001(self, make_owner, system):
        left = make_owner("left")
        right = make_owner("right")
        left.metadata.define(triggered(A, [NodeDep(right, B)]))
        right.metadata.define(triggered(B, [NodeDep(left, A)]))

        findings = verify_system(system)
        md001 = [f for f in findings if f.code == "MD001"]
        assert len(md001) == 1
        assert "inter-node" in md001[0].message
        assert "left/a" in md001[0].message
        assert "right/b" in md001[0].message

    def test_registry_rejects_cyclic_subscribe(self, make_owner):
        """The runtime guard and the static check agree on what a cycle is."""
        owner = make_owner("n")
        owner.metadata.define(triggered(A, [SelfDep(B)]))
        owner.metadata.define(triggered(B, [SelfDep(A)]))
        with pytest.raises(DependencyCycleError):
            owner.metadata.subscribe(A)

    def test_self_cycle_md001(self, make_owner, system):
        owner = make_owner("n")
        owner.metadata.define(triggered(A, [SelfDep(A)]))
        findings = verify_system(system)
        assert "MD001" in codes(findings)


class TestDangling:
    def test_dangling_self_dep_md002(self, make_owner, system):
        owner = make_owner("n")
        owner.metadata.define(triggered(A, [SelfDep(B)]))  # B never defined

        findings = verify_system(system)
        md002 = [f for f in findings if f.code == "MD002"]
        assert len(md002) == 1
        assert md002[0].subject == "n/a"
        # MD006 must not pile on: the item *has* a (broken) dependency.
        assert "MD006" not in codes(findings)

    def test_dangling_node_dep_md002(self, make_owner, system):
        owner = make_owner("n")
        stranger = RegistryOwner("stranger")  # no registry attached
        owner.metadata.define(triggered(A, [NodeDep(stranger, B)]))
        findings = verify_system(system)
        assert "MD002" in codes(findings)

    def test_raising_resolver_md002(self, make_owner, system):
        owner = make_owner("n")

        def lookup(registry):
            return [SelfDep({"x": B}["missing"])]

        owner.metadata.define(triggered(A, lookup))
        [finding] = verify_system(system)
        assert (finding.code, finding.severity) == ("MD002", Severity.ERROR)
        assert finding.subject == "n/a"
        assert "resolver raised KeyError: 'missing'" in finding.message
        # The finding predicts the runtime failure.
        with pytest.raises(KeyError):
            owner.metadata.subscribe(A)


class TestMechanismMismatch:
    def test_on_demand_over_periodic_md003(self, make_owner, system):
        """The Figure 5 shape: an on-demand average over a periodic input."""
        owner = make_owner("op")
        owner.metadata.define(MetadataDefinition(
            A, Mechanism.PERIODIC, compute=lambda ctx: 1.0, period=50.0))
        owner.metadata.define(MetadataDefinition(
            B, Mechanism.ON_DEMAND, compute=lambda ctx: 0.0,
            dependencies=[SelfDep(A)]))

        findings = verify_system(system)
        md003 = [f for f in findings if f.code == "MD003"]
        assert len(md003) == 1
        assert md003[0].subject == "op/b"
        assert md003[0].severity is Severity.ERROR
        assert "TRIGGERED" in md003[0].message
        assert md003[0].details["input"] == "op/a"

    def test_triggered_over_periodic_is_fine(self, make_owner, system):
        """The paper's fix — a triggered aggregate — passes the check."""
        owner = make_owner("op")
        owner.metadata.define(MetadataDefinition(
            A, Mechanism.PERIODIC, compute=lambda ctx: 1.0, period=50.0))
        owner.metadata.define(triggered(B, [SelfDep(A)]))
        assert "MD003" not in codes(verify_system(system))


class TestOnDemandInterference:
    def test_two_consumers_on_rate_probe_md004(self, clock, make_owner, system):
        """The Figure 4 shape: concurrent consumers of an on-demand rate."""
        owner = make_owner("src")
        probe = owner.metadata.add_probe(RateProbe("in_rate", clock))
        owner.metadata.define(MetadataDefinition(
            A, Mechanism.ON_DEMAND,
            compute=lambda ctx: probe.unsafe_peek_rate(),
            monitors=("in_rate",)))
        s1 = owner.metadata.subscribe(A)
        s2 = owner.metadata.subscribe(A)

        findings = verify_system(system)
        md004 = [f for f in findings if f.code == "MD004"]
        assert len(md004) == 1
        assert md004[0].details["probe"] == "in_rate"
        assert md004[0].details["consumers"] == 2

        s2.cancel()
        assert "MD004" not in codes(verify_system(system))
        s1.cancel()

    def test_single_consumer_is_fine(self, clock, make_owner, system):
        owner = make_owner("src")
        probe = owner.metadata.add_probe(RateProbe("in_rate", clock))
        owner.metadata.define(MetadataDefinition(
            A, Mechanism.ON_DEMAND,
            compute=lambda ctx: probe.unsafe_peek_rate(),
            monitors=("in_rate",)))
        with owner.metadata.subscribe(A):
            assert "MD004" not in codes(verify_system(system))


class TestPeriodicIsolation:
    def test_multi_consumer_periodic_without_locks_md005(self):
        clock = VirtualClock()
        scheduler = ThreadedScheduler(clock)  # workers never started
        system = MetadataSystem(clock, scheduler)  # NoOpLockPolicy default
        owner = RegistryOwner("op")
        owner.metadata = MetadataRegistry(owner, system)
        owner.metadata.define(MetadataDefinition(
            A, Mechanism.PERIODIC, compute=lambda ctx: 1.0, period=10.0))
        s1 = owner.metadata.subscribe(A)
        s2 = owner.metadata.subscribe(A)
        try:
            findings = verify_system(system)
            md005 = [f for f in findings if f.code == "MD005"]
            assert len(md005) == 1
            assert md005[0].details["consumers"] == 2
        finally:
            s1.cancel()
            s2.cancel()
            scheduler.stop()

    def test_virtual_time_scheduler_not_flagged(self, make_owner, system):
        """Single-threaded (virtual-time) execution needs no isolation."""
        owner = make_owner("op")
        owner.metadata.define(MetadataDefinition(
            A, Mechanism.PERIODIC, compute=lambda ctx: 1.0, period=10.0))
        s1 = owner.metadata.subscribe(A)
        s2 = owner.metadata.subscribe(A)
        assert "MD005" not in codes(verify_system(system))
        s1.cancel()
        s2.cancel()


class TestNeverFires:
    def test_triggered_without_dependencies_md006(self, make_owner, system):
        owner = make_owner("n")
        owner.metadata.define(triggered(A, []))
        findings = verify_system(system)
        md006 = [f for f in findings if f.code == "MD006"]
        assert len(md006) == 1
        assert md006[0].severity is Severity.WARNING

    def test_triggered_on_static_only_md006(self, make_owner, system):
        owner = make_owner("n")
        owner.metadata.define(MetadataDefinition(A, Mechanism.STATIC, value=1))
        owner.metadata.define(triggered(B, [SelfDep(A)]))
        findings = verify_system(system)
        assert "MD006" in codes(findings)
        assert "STATIC" in [f for f in findings if f.code == "MD006"][0].message

    def test_triggered_on_periodic_is_fine(self, make_owner, system):
        owner = make_owner("n")
        owner.metadata.define(MetadataDefinition(
            A, Mechanism.PERIODIC, compute=lambda ctx: 1.0, period=10.0))
        owner.metadata.define(triggered(B, [SelfDep(A)]))
        assert "MD006" not in codes(verify_system(system))


class TestPeriodAliasing:
    def test_fast_periodic_over_slow_periodic_md007(self, make_owner, system):
        owner = make_owner("n")
        owner.metadata.define(MetadataDefinition(
            A, Mechanism.PERIODIC, compute=lambda ctx: 1.0, period=100.0))
        owner.metadata.define(MetadataDefinition(
            B, Mechanism.PERIODIC, compute=lambda ctx: 1.0, period=10.0,
            dependencies=[SelfDep(A)]))
        findings = verify_system(system)
        md007 = [f for f in findings if f.code == "MD007"]
        assert len(md007) == 1
        assert md007[0].subject == "n/b"
        assert md007[0].details["input_period"] == 100.0

    def test_matching_periods_are_fine(self, make_owner, system):
        owner = make_owner("n")
        owner.metadata.define(MetadataDefinition(
            A, Mechanism.PERIODIC, compute=lambda ctx: 1.0, period=10.0))
        owner.metadata.define(MetadataDefinition(
            B, Mechanism.PERIODIC, compute=lambda ctx: 1.0, period=10.0,
            dependencies=[SelfDep(A)]))
        assert "MD007" not in codes(verify_system(system))


class TestDuplicateSubscription:
    def test_duplicate_dep_md008(self, make_owner, system):
        owner = make_owner("n")
        owner.metadata.define(MetadataDefinition(A, Mechanism.STATIC, value=1))
        owner.metadata.define(MetadataDefinition(
            B, Mechanism.PERIODIC, compute=lambda ctx: 1.0, period=10.0,
            dependencies=[SelfDep(A), SelfDep(A)]))
        findings = verify_system(system)
        md008 = [f for f in findings if f.code == "MD008"]
        assert len(md008) == 1
        assert md008[0].details["duplicate"] == "n/a"


class TestInfrastructure:
    def test_clean_system_has_no_findings(self, make_owner, system):
        owner = make_owner("n")
        owner.metadata.define(MetadataDefinition(A, Mechanism.STATIC, value=1))
        owner.metadata.define(MetadataDefinition(
            B, Mechanism.PERIODIC, compute=lambda ctx: 1.0, period=10.0))
        owner.metadata.define(triggered(C, [SelfDep(B)]))
        assert verify_system(system) == []

    def test_build_index_vertices_and_edges(self, make_owner, system):
        owner = make_owner("n")
        owner.metadata.define(MetadataDefinition(A, Mechanism.STATIC, value=1))
        owner.metadata.define(triggered(B, [SelfDep(A)]))
        index = build_index(system)
        assert len(index.vertices) == 2
        [target] = index.edges[(id(owner.metadata), B)]
        assert target == (id(owner.metadata), A)

    def test_resolve_plan_coercions(self, system):
        assert resolve_plan(system) is system

        class GraphLike:
            metadata_system = system

        assert resolve_plan(GraphLike()) is system
        assert resolve_plan(("drivers", GraphLike(), None)) is system
        with pytest.raises(MetadataError):
            resolve_plan(object())

    def test_describe_system_includes_analysis_section(self, make_owner, system):
        from repro.metadata.introspect import describe_system

        owner = make_owner("n")
        owner.metadata.define(triggered(A, [SelfDep(B)]))
        snapshot = describe_system(system)
        assert snapshot["analysis"]["clean"] is False
        assert snapshot["analysis"]["summary"]["error"] >= 1
        assert snapshot["analysis"]["findings"][0]["code"] == "MD002"
