"""Tests for sweep-area modules (Section 4.5)."""

from __future__ import annotations

from collections import deque

import pytest

from repro.graph.element import StreamElement
from repro.metadata import catalogue as md
from repro.operators.sweeparea import PROBE_FRACTION, HashSweepArea, ListSweepArea


def element(key, t, validity=100.0):
    return StreamElement({"k": key}, t, t + validity)


def key_fn(e):
    return e.field("k")


class TestListSweepArea:
    def test_insert_and_len(self):
        area = ListSweepArea("s")
        area.insert(element(1, 0.0))
        area.insert(element(2, 1.0))
        assert len(area) == 2
        assert area.inserted == 2

    def test_expire_evicts_in_order(self):
        area = ListSweepArea("s")
        area.insert(element(1, 0.0, validity=10.0))
        area.insert(element(2, 5.0, validity=10.0))
        assert area.expire(12.0) == 1
        assert len(area) == 1
        assert area.evicted == 1

    def test_probe_examines_all(self):
        area = ListSweepArea("s")
        for i in range(5):
            area.insert(element(i, float(i)))
        matches, examined = area.probe(
            element(3, 10.0), lambda probe, stored: key_fn(probe) == key_fn(stored)
        )
        assert examined == 5
        assert [key_fn(m) for m in matches] == [3]
        assert area.probed == 5

    def test_probe_fraction_is_one(self):
        assert ListSweepArea("s").probe_fraction() == 1.0

    def test_memory_bytes(self):
        area = ListSweepArea("s", element_size=32)
        area.insert(element(1, 0.0))
        assert area.memory_bytes() == 32


class TestHashSweepArea:
    def test_probe_examines_only_bucket(self):
        area = HashSweepArea("s", key_fn)
        for i in range(10):
            area.insert(element(i % 2, float(i)))
        matches, examined = area.probe(
            element(0, 20.0), lambda probe, stored: True
        )
        assert examined == 5  # only the key-0 bucket
        assert len(matches) == 5

    def test_probe_missing_key(self):
        area = HashSweepArea("s", key_fn)
        area.insert(element(1, 0.0))
        matches, examined = area.probe(element(99, 1.0), lambda a, b: True)
        assert matches == []
        assert examined == 0

    def test_expire_maintains_buckets(self):
        area = HashSweepArea("s", key_fn)
        area.insert(element(1, 0.0, validity=10.0))
        area.insert(element(2, 0.0, validity=10.0))
        area.insert(element(1, 50.0, validity=10.0))
        assert area.expire(20.0) == 2
        assert len(area) == 1
        assert area.distinct_keys() == 1
        matches, _ = area.probe(element(1, 55.0), lambda a, b: True)
        assert len(matches) == 1

    def test_non_monotone_expiry_removes_the_right_elements(self):
        """Expiry leaves in insertion order; a later element that expires
        sooner stays in its bucket until every older one has gone."""
        area = HashSweepArea("s", key_fn)
        first = element(1, 0.0, validity=5.0)
        long_lived = element(1, 1.0, validity=20.0)
        short_lived = element(1, 2.0, validity=5.0)
        other = element(2, 3.0, validity=5.0)
        for e in (first, long_lived, short_lived, other):
            area.insert(e)
        assert area.expire(10.0) == 1
        assert list(area.candidates(element(1, 10.0))) == [long_lived, short_lived]
        assert area.expire(30.0) == 3
        assert len(area) == 0 and area.distinct_keys() == 0
        fresh = element(1, 40.0)
        area.insert(fresh)
        assert list(area.candidates(fresh)) == [fresh]

    def test_hot_key_bucket_expires_from_a_deque(self):
        """A bucket that grows past a few dozen elements becomes a deque,
        so expiring its head does not shift the rest; order is kept."""
        area = HashSweepArea("s", key_fn)
        elements = [element(1, float(t), validity=50.0) for t in range(200)]
        for e in elements:
            area.insert(e)
        assert isinstance(area._buckets[1], deque)
        assert area.expire(100.0) == 51
        assert list(area.candidates(element(1, 100.0))) == elements[51:]
        assert area.expire(1000.0) == 149
        assert len(area) == 0 and area.distinct_keys() == 0

    def test_probe_fraction(self):
        area = HashSweepArea("s", key_fn)
        assert area.probe_fraction() == 0.0  # empty
        for i in range(4):
            area.insert(element(i, float(i)))
        assert area.probe_fraction() == pytest.approx(0.25)

    def test_expire_all_empties_structure(self):
        area = HashSweepArea("s", key_fn)
        for i in range(5):
            area.insert(element(i, 0.0, validity=1.0))
        area.expire(100.0)
        assert len(area) == 0
        assert area.distinct_keys() == 0


class TestModuleMetadata:
    def test_module_registry_items(self, system):
        area = HashSweepArea("sweep0", key_fn, element_size=16)
        registry = area.attach_metadata(system)
        with registry.subscribe(md.STATE_SIZE) as s:
            assert s.get() == 0
            area.insert(element(1, 0.0))
            assert s.get() == 1
        with registry.subscribe(md.MEMORY_USAGE) as s:
            assert s.get() == 16
        with registry.subscribe(md.IMPLEMENTATION_TYPE) as s:
            assert s.get() == "hash"
        with registry.subscribe(PROBE_FRACTION) as s:
            assert s.get() == pytest.approx(1.0)
        with registry.subscribe(md.MetadataKey("module.distinct_keys")) as s:
            assert s.get() == 1

    def test_list_area_has_no_distinct_keys_item(self, system):
        area = ListSweepArea("sweep0")
        registry = area.attach_metadata(system)
        assert md.MetadataKey("module.distinct_keys") not in registry.available_keys()


class TestNestedBucketIndex:
    def test_index_module_statistics(self, system):
        area = HashSweepArea("sweep0", key_fn)
        area.attach_metadata(system)
        for i in range(6):
            area.insert(element(i % 2, float(i)))
        index = area.get_module("index")
        assert index.distinct_keys() == 2
        assert index.max_bucket_size() == 3

    def test_nested_module_metadata_subscribable(self, system):
        from repro.operators.sweeparea import DISTINCT_KEYS, MAX_BUCKET_SIZE

        area = HashSweepArea("sweep0", key_fn)
        area.attach_metadata(system)
        index = area.get_module("index")
        with index.metadata.subscribe(MAX_BUCKET_SIZE) as subscription:
            area.insert(element(1, 0.0))
            area.insert(element(1, 1.0))
            assert subscription.get() == 2

    def test_join_reaches_two_levels_deep(self):
        """ModuleDep('sweep0.index', ...) — recursive module access from an
        operator item, the Section 4.5 nesting on a real plan."""
        from repro.graph.graph import QueryGraph
        from repro.graph.element import Schema
        from repro.graph.node import Sink, Source
        from repro.metadata.item import Mechanism, MetadataDefinition, MetadataKey, ModuleDep
        from repro.operators.join import SlidingWindowJoin
        from repro.operators.sweeparea import MAX_BUCKET_SIZE
        from repro.operators.window import TimeWindow

        graph = QueryGraph()
        s0 = graph.add(Source("s0", Schema(("k",))))
        s1 = graph.add(Source("s1", Schema(("k",))))
        w0, w1 = graph.add(TimeWindow("w0", 50.0)), graph.add(TimeWindow("w1", 50.0))
        join = graph.add(SlidingWindowJoin("join", impl="hash",
                                           key_fn=lambda e: e.field("k")))
        sink = graph.add(Sink("out"))
        for a, b in ((s0, w0), (s1, w1), (w0, join), (w1, join), (join, sink)):
            graph.connect(a, b)
        graph.freeze()

        SKEW = MetadataKey("operator.build_skew")
        join.metadata.define(MetadataDefinition(
            SKEW, Mechanism.ON_DEMAND,
            dependencies=[ModuleDep("sweep0.index", MAX_BUCKET_SIZE)],
            compute=lambda ctx: ctx.value(MAX_BUCKET_SIZE),
        ))
        with join.metadata.subscribe(SKEW) as subscription:
            assert join.sweeps[0].get_module("index").metadata.is_included(
                MAX_BUCKET_SIZE
            )
            s0.produce({"k": 7}, 0.0)
            while any(n.step() for n in graph.operators() + graph.sinks()):
                pass
            assert subscription.get() == 1
        assert not join.sweeps[0].get_module("index").metadata.is_included(
            MAX_BUCKET_SIZE
        )
