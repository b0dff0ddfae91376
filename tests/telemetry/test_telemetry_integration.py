"""End-to-end telemetry tests on a multi-node metadata graph.

The acceptance scenario of the telemetry layer: on a three-node dependency
chain, the trace bus must reproduce the full causal story — subscribe with
its transitive includes, the propagation wave with per-edge hops and
refreshes — under one consistent span id per cascade, with the exporters
agreeing with the trace.  And with telemetry disabled, the runtime must be
byte-for-byte the same: zero trace events, unchanged ``stats()``.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro.metadata import introspect
from repro.metadata.item import (
    Mechanism,
    MetadataDefinition,
    MetadataKey,
    NodeDep,
)
from repro.telemetry.hub import explain_refresh, format_span, render_dashboard
from repro.telemetry.wire import StreamEncoder, decode_lines

SRC = MetadataKey("src")
MID = MetadataKey("mid")
TOP = MetadataKey("top")

#: One coalesced wave of three on-demand sources into one triggered sum,
#: explained; run under a fixed ``PYTHONHASHSEED``.
COALESCED_EXPLAIN = """
from repro.common.clock import VirtualClock
from repro.metadata.item import Mechanism, MetadataDefinition, MetadataKey, SelfDep
from repro.metadata.registry import MetadataRegistry, MetadataSystem
from repro.metadata.scheduling import VirtualTimeScheduler
from repro.telemetry.hub import explain_refresh

class Owner:
    name = "n"
    upstream_nodes: list = []
    downstream_nodes: list = []

clock = VirtualClock()
system = MetadataSystem(clock, VirtualTimeScheduler(clock))
tel = system.enable_telemetry()
owner = Owner()
owner.metadata = MetadataRegistry(owner, system)
sources = [MetadataKey(name) for name in ("left", "mid", "right")]
state = dict.fromkeys(sources, 1)
for key in sources:
    owner.metadata.define(MetadataDefinition(
        key, Mechanism.ON_DEMAND, compute=lambda ctx, key=key: state[key]))
total = MetadataKey("total")
owner.metadata.define(MetadataDefinition(
    total, Mechanism.TRIGGERED, dependencies=[SelfDep(key) for key in sources],
    compute=lambda ctx: sum(ctx.value(key) for key in sources)))
sub = owner.metadata.subscribe(total)
for key in sources:
    state[key] += 1
owner.metadata.notify_changed_many(sources)
print(explain_refresh(tel, owner, total))
sub.cancel()
"""


def build_chain(make_owner, values=(1, 2, 3), period=10.0):
    """a --(SRC periodic)--> b --(MID triggered)--> c --(TOP triggered)."""
    a, b, c = make_owner("a"), make_owner("b"), make_owner("c")
    iterator = iter(values)
    a.metadata.define(MetadataDefinition(
        SRC, Mechanism.PERIODIC, period=period,
        compute=lambda ctx: next(iterator),
    ))
    b.metadata.define(MetadataDefinition(
        MID, Mechanism.TRIGGERED, compute=lambda ctx: ctx.value(SRC) * 10,
        dependencies=[NodeDep(a, SRC)],
    ))
    c.metadata.define(MetadataDefinition(
        TOP, Mechanism.TRIGGERED, compute=lambda ctx: ctx.value(MID) + 1,
        dependencies=[NodeDep(b, MID)],
    ))
    return a, b, c


class TestCausalChain:
    def test_subscribe_cascade_shares_one_span(self, make_owner, system):
        a, b, c = build_chain(make_owner)
        tel = system.enable_telemetry()
        sub = c.metadata.subscribe(TOP)

        subscribes = tel.bus.events(kind="subscribe")
        assert len(subscribes) == 1
        span = subscribes[0].span
        assert span != 0

        includes = tel.bus.events(kind="include")
        assert [(e.node, e.key, e.shared) for e in includes] == [
            ("a", "src", False),   # deepest dependency includes first
            ("b", "mid", False),
            ("c", "top", False),
        ]
        # The whole transitive traversal carries the subscribe's span, and
        # each new handler's include names its mechanism.
        assert all(e.span == span for e in includes)
        assert [e.mechanism for e in includes] == [
            "periodic", "triggered", "triggered"]
        sub.cancel()

    def test_wave_reproduces_full_causal_chain(self, make_owner, system, clock):
        a, b, c = build_chain(make_owner)
        tel = system.enable_telemetry()
        sub = c.metadata.subscribe(TOP)
        assert sub.get() == 11

        clock.advance_by(10.0)  # SRC: 1 -> 2, triggering the cascade
        assert sub.get() == 21

        waves = tel.bus.events(kind="wave.summary")
        assert len(waves) == 1
        span = waves[0].span
        wave = tel.bus.span_events(span)

        # One consistent span from the triggering change through every hop:
        # one record per refreshed member, naming the edge it came over,
        # and the wave's summary.
        kinds = [e.kind for e in wave]
        assert kinds == ["wave.refresh", "wave.refresh", "wave.summary"]
        refreshes = wave[:2]
        assert [(r.node, r.key, r.changed, r.via) for r in refreshes] == [
            ("b", "mid", True, ("a/src",)),
            ("c", "top", True, ("b/mid",)),
        ]
        summary = wave[-1]
        assert (summary.source, summary.sources, summary.wave_size) == (
            "a/src", 1, 3)
        assert (summary.refreshed, summary.suppressed, summary.errors) == (2, 0, 0)
        sub.cancel()

    def test_metrics_agree_with_trace_and_stats(self, make_owner, system, clock):
        a, b, c = build_chain(make_owner, values=(1, 2, 3))
        tel = system.enable_telemetry()
        sub = c.metadata.subscribe(TOP)
        clock.advance_by(10.0)
        clock.advance_by(10.0)

        waves = len(tel.bus.events(kind="wave.summary"))
        hops = sum(len(e.via) for e in tel.bus.events(kind="wave.refresh"))
        refreshes = len(tel.bus.events(kind="wave.refresh"))
        assert waves == 2
        assert refreshes == hops == 4  # 2 waves x (mid, top), one edge each

        snap = tel.metrics.snapshot()
        assert snap["counters"]["waves_total"] == waves
        assert snap["counters"]["wave_hops_total"] == hops
        assert (snap["counters"]['wave_refreshes_total{node="b"}']
                + snap["counters"]['wave_refreshes_total{node="c"}']) == refreshes

        # The Prometheus text reports the same numbers.
        prom = tel.metrics.to_prometheus()
        assert f"repro_waves_total {waves}" in prom
        assert f"repro_wave_hops_total {hops}" in prom

        # And both agree with the engine's own accounting.
        stats = system.stats()
        assert stats["waves"] == stats["drains"] == waves
        assert stats["refreshes"] == refreshes
        # Each tick seed's one record moved the scheduler's series.
        assert snap["counters"]['scheduler_refreshes_total{node="a"}'] == 2
        assert 'handler_refreshes_total{node="a"}' not in snap["counters"]
        sub.cancel()

    def test_explain_refresh_renders_cascade(self, make_owner, system, clock):
        a, b, c = build_chain(make_owner)
        tel = system.enable_telemetry()
        sub = c.metadata.subscribe(TOP)
        clock.advance_by(10.0)
        report = explain_refresh(tel, c, TOP)
        assert "why did c/top refresh?" in report
        assert "a/src -> b/mid" in report
        assert "b/mid -> c/top" in report
        assert "refresh c/top [changed]" in report
        sub.cancel()

    def test_explain_refresh_is_independent_of_the_hash_seed(self):
        """A merged wave's summary is re-addressed to the first source in
        ``via`` order, not to whichever one a string set yields first."""
        texts = []
        for seed in ("0", "1"):
            env = dict(os.environ, PYTHONHASHSEED=seed,
                       PYTHONPATH=str(Path(__file__).resolve().parents[2] / "src"))
            result = subprocess.run([sys.executable, "-c", COALESCED_EXPLAIN],
                                    env=env, capture_output=True, text=True,
                                    timeout=60)
            assert result.returncode == 0, result.stderr
            texts.append(re.sub(r"\(\d+\.\dus\)", "(us)", result.stdout))
        assert texts[0] == texts[1]
        assert "merging 3 sources" in texts[0]
        assert "change of n/left" in texts[0]

    def test_explain_refresh_without_refresh(self, make_owner, system):
        build_chain(make_owner)
        tel = system.enable_telemetry()
        assert explain_refresh(tel, "c", TOP).startswith(
            "no buffered wave refresh of c/top"
        )

    def test_unsubscribe_cascade_shares_one_span(self, make_owner, system):
        a, b, c = build_chain(make_owner)
        tel = system.enable_telemetry()
        sub = c.metadata.subscribe(TOP)
        sub.cancel()
        unsubs = tel.bus.events(kind="unsubscribe")
        assert len(unsubs) == 1
        excludes = tel.bus.events(kind="exclude")
        assert [(e.node, e.key, e.removed) for e in excludes] == [
            ("c", "top", True), ("b", "mid", True), ("a", "src", True),
        ]
        assert all(e.span == unsubs[0].span for e in excludes)
        assert tel.metrics.snapshot()["gauges"]["handlers_live"] == 0.0

    def test_one_event_per_handler_fact(self, make_owner, system):
        """A handler's creation is its unshared include and its retirement
        its removing exclude: no other event says either, and the handler
        series and the wire agree with them."""
        a, b, c = build_chain(make_owner)
        shared = a.metadata.subscribe(SRC)   # included before the hub came
        tel = system.enable_telemetry()
        cursor = tel.bus.subscribe("facts")
        sub = c.metadata.subscribe(TOP)      # 2 new handlers + shared a/src
        sub.cancel()
        events = cursor.pop_batch(1000)
        new = [e for e in events if e.kind == "include" and not e.shared]
        removed = [e for e in events if e.kind == "exclude" and e.removed]
        assert [(e.node, e.key, e.mechanism) for e in new] == [
            ("b", "mid", "triggered"), ("c", "top", "triggered")]
        assert [(e.node, e.key, e.mechanism) for e in removed] == [
            ("c", "top", "triggered"), ("b", "mid", "triggered")]
        assert {e.kind for e in events} == {
            "subscribe", "include", "exclude", "unsubscribe"}
        snap = tel.metrics.snapshot()
        created = {name: value for name, value in snap["counters"].items()
                   if name.startswith("handlers_created_total")}
        retired = {name: value for name, value in snap["counters"].items()
                   if name.startswith("handlers_retired_total")}
        assert created == {
            'handlers_created_total{mechanism="triggered",node="b"}': 1,
            'handlers_created_total{mechanism="triggered",node="c"}': 1}
        assert retired == {
            'handlers_retired_total{mechanism="triggered",node="b"}': 1,
            'handlers_retired_total{mechanism="triggered",node="c"}': 1}
        assert snap["gauges"]["handlers_live"] == len(new) - len(removed) == 0
        decoded = decode_lines(StreamEncoder().encode(events).splitlines())
        assert decoded == events
        assert [(e.kind, e.mechanism) for e in decoded
                if e.kind in ("include", "exclude")] == [
            ("include", "periodic"),    # the shared a/src, linked first
            ("include", "triggered"), ("include", "triggered"),
            ("exclude", "triggered"), ("exclude", "triggered"),
            ("exclude", "periodic")]
        shared.cancel()


class TestSuppressionAndSharing:
    def test_unchanged_value_traced_as_suppression(self, make_owner, system, clock):
        # MID clamps SRC to a constant, so TOP's inputs never change.
        a, b, c = make_owner("a"), make_owner("b"), make_owner("c")
        iterator = iter((1, 2))
        a.metadata.define(MetadataDefinition(
            SRC, Mechanism.PERIODIC, period=10.0,
            compute=lambda ctx: next(iterator),
        ))
        b.metadata.define(MetadataDefinition(
            MID, Mechanism.TRIGGERED, compute=lambda ctx: 5,
            dependencies=[NodeDep(a, SRC)],
        ))
        c.metadata.define(MetadataDefinition(
            TOP, Mechanism.TRIGGERED, compute=lambda ctx: ctx.value(MID),
            dependencies=[NodeDep(b, MID)],
        ))
        tel = system.enable_telemetry()
        sub = c.metadata.subscribe(TOP)
        clock.advance_by(10.0)
        suppressed = tel.bus.events(kind="wave.suppressed")
        assert [(e.node, e.key, e.reason) for e in suppressed] == [
            ("c", "top", "unchanged-inputs"),
        ]
        assert tel.metrics.counter(
            "wave_suppressed_total", {"reason": "unchanged-inputs"}
        ).value == 1
        sub.cancel()

    def test_shared_include_marked(self, make_owner, system):
        a, b, c = build_chain(make_owner)
        tel = system.enable_telemetry()
        s1 = c.metadata.subscribe(TOP)
        s2 = b.metadata.subscribe(MID)  # MID is already included via TOP
        shared = [e for e in tel.bus.events(kind="include") if e.shared]
        assert [(e.node, e.key) for e in shared] == [("b", "mid")]
        s2.cancel()
        still_shared = [e for e in tel.bus.events(kind="exclude")
                        if not e.removed]
        assert [(e.node, e.key) for e in still_shared] == [("b", "mid")]
        s1.cancel()


class TestDisabledTelemetry:
    def test_disabled_runtime_is_untouched(self, make_owner, system, clock):
        a, b, c = build_chain(make_owner)
        sub = c.metadata.subscribe(TOP)
        clock.advance_by(10.0)
        assert sub.get() == 21
        sub.cancel()
        assert system.telemetry is None
        stats = system.stats()
        assert stats["waves"] == 1
        assert stats["refreshes"] == 2
        assert stats["handlers_created"] == 3
        assert stats["handlers_removed"] == 3

    def test_disabled_matches_enabled_stats(self, make_owner, clock, system):
        """The traced and untraced wave paths keep identical accounting."""

        def run(system_, make_owner_, clock_, enable):
            a, b, c = build_chain(make_owner_)
            if enable:
                system_.enable_telemetry()
            sub = c.metadata.subscribe(TOP)
            clock_.advance_by(10.0)
            clock_.advance_by(10.0)
            sub.cancel()
            return system_.stats()

        from repro.common.clock import VirtualClock
        from repro.metadata.registry import MetadataRegistry, MetadataSystem
        from repro.metadata.scheduling import VirtualTimeScheduler
        from tests.conftest import RegistryOwner

        results = []
        for enable in (False, True):
            clk = VirtualClock()
            sys_ = MetadataSystem(clk, VirtualTimeScheduler(clk))

            def owner_factory(name, sys_=sys_):
                owner = RegistryOwner(name)
                owner.metadata = MetadataRegistry(owner, sys_)
                return owner

            results.append(run(sys_, owner_factory, clk, enable))
        assert results[0] == results[1]

    def test_zero_events_after_disable(self, make_owner, system, clock):
        a, b, c = build_chain(make_owner)
        tel = system.enable_telemetry()
        detached = system.disable_telemetry()
        assert detached is tel
        sub = c.metadata.subscribe(TOP)
        clock.advance_by(10.0)
        sub.cancel()
        assert tel.bus.emitted == 0
        assert len(tel.bus) == 0

    def test_enable_is_idempotent(self, system):
        tel = system.enable_telemetry()
        assert system.enable_telemetry() is tel
        assert system.propagation.telemetry is tel
        assert system.scheduler.telemetry is tel


class TestIntrospectionAndDashboard:
    def test_describe_system_telemetry_section(self, make_owner, system):
        a, b, c = build_chain(make_owner)
        desc = introspect.describe_system(system)
        assert desc["telemetry"] == {"enabled": False}
        tel = system.enable_telemetry()
        sub = c.metadata.subscribe(TOP)
        desc = introspect.describe_system(system)
        section = desc["telemetry"]
        assert section["enabled"] is True
        assert section["events_captured"] == tel.bus.emitted > 0
        assert section["buffer_capacity"] == 4096
        assert "counters" in section["metrics"]
        sub.cancel()

    def test_dashboard_renders_series(self, make_owner, system, clock):
        a, b, c = build_chain(make_owner)
        tel = system.enable_telemetry()
        sub = c.metadata.subscribe(TOP)
        clock.advance_by(10.0)
        text = render_dashboard(tel)
        assert "telemetry dashboard" in text
        assert "waves_total" in text
        assert "handlers_live" in text
        assert "0 dropped" in text
        sub.cancel()

    def test_dashboard_lock_section(self, make_owner, system, clock):
        from repro.metadata.locks import FineGrainedLockPolicy

        tel = system.enable_telemetry()
        policy = FineGrainedLockPolicy()
        node = policy.node_lock(type("O", (), {"name": "op1"})())
        with node.write():
            pass
        text = render_dashboard(tel, lock_policy=policy)
        assert "locks" in text
        assert "node:op1" in text
        assert "contended (read/write)" in text
        # Without a policy (every existing call site) the section is absent.
        assert "locks" not in render_dashboard(tel)
        # An all-idle policy renders nothing either.
        assert "locks" not in render_dashboard(
            tel, lock_policy=FineGrainedLockPolicy())

    def test_format_span_unknown_span(self, system):
        tel = system.enable_telemetry()
        assert format_span(tel, 999) == "span 999: no buffered events"

    def test_scheduler_refresh_traced(self, make_owner, system, clock):
        a, b, c = build_chain(make_owner, values=(1, 2, 3))
        tel = system.enable_telemetry()
        sub = c.metadata.subscribe(TOP)
        clock.advance_by(10.0)
        # The tick seed's one record carries the scheduler's fields.
        ticks = tel.bus.events(kind="handler.refresh")
        assert [(e.node, e.key, e.mode, e.error) for e in ticks] == [
            ("a", "src", "virtual", False)]
        assert ticks[0].queue_latency == 0.0
        assert ticks[0].changed is True
        sub.cancel()
        cancels = tel.bus.events(kind="sched.cancel")
        assert [(e.node, e.key, e.in_flight) for e in cancels] == [
            ("a", "src", False),
        ]
