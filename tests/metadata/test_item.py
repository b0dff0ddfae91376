"""Tests for metadata keys and definitions."""

from __future__ import annotations

import copy
import pickle
import random
import threading

import pytest

from repro.common.errors import MetadataError
from repro.metadata.item import (
    Mechanism,
    MetadataClass,
    MetadataDefinition,
    MetadataKey,
    SelfDep,
)


class TestMetadataKey:
    def test_equality_and_hash(self):
        assert MetadataKey("a.b") == MetadataKey("a.b")
        assert hash(MetadataKey("a.b")) == hash(MetadataKey("a.b"))
        assert MetadataKey("a.b") != MetadataKey("a.c")

    def test_qualifier_distinguishes(self):
        base = MetadataKey("stream.input_rate")
        assert base.q(0) != base.q(1)
        assert base.q(0) != base
        assert base.q(0) == MetadataKey("stream.input_rate", (0,))

    def test_base_strips_qualifier(self):
        key = MetadataKey("x").q(1, 2)
        assert key.base == MetadataKey("x")
        assert MetadataKey("x").base == MetadataKey("x")

    def test_ordering_is_total(self):
        keys = [MetadataKey("b"), MetadataKey("a").q(1), MetadataKey("a")]
        ordered = sorted(keys)
        assert ordered[0] == MetadataKey("a")
        assert ordered[-1] == MetadataKey("b")

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError):
            MetadataKey("")

    def test_repr_readable(self):
        assert repr(MetadataKey("a.b")) == "<a.b>"
        assert "0" in repr(MetadataKey("a").q(0))

    def test_usable_as_dict_key(self):
        d = {MetadataKey("a"): 1, MetadataKey("a").q(0): 2}
        assert d[MetadataKey("a")] == 1
        assert d[MetadataKey("a").q(0)] == 2


class TestKeyInterning:
    """Equal keys are one object, however they were made."""

    def test_equal_keys_are_one_object(self):
        assert MetadataKey("i.a") is MetadataKey("i.a")
        assert MetadataKey("i.a", [0, "l"]) is MetadataKey("i.a", (0, "l"))
        assert MetadataKey("i.a") is not MetadataKey("i.a", (0,))

    def test_qualified_and_base_keys_are_interned(self):
        key = MetadataKey("i.b")
        assert key.q(1) is MetadataKey("i.b", (1,))
        assert key.q(1).q(2) is key.q(1, 2) is MetadataKey("i.b", (1, 2))
        assert key.q(1, 2).base is key and key.base is key

    @pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
    def test_pickle_round_trip_returns_the_instance(self, protocol):
        key = MetadataKey("i.c").q(3)
        assert pickle.loads(pickle.dumps(key, protocol)) is key
        nested = pickle.loads(pickle.dumps({key: [key]}, protocol))
        assert next(iter(nested)) is key and nested[key][0] is key

    def test_copies_return_the_instance(self):
        key = MetadataKey("i.d").q("x")
        assert copy.copy(key) is key and copy.deepcopy(key) is key
        assert copy.deepcopy({"k": key})["k"] is key

    def test_sorted_order_follows_name_then_qualifier(self):
        keys = [MetadataKey(name).q(*quals) for name in ("s.b", "s.a", "s.c")
                for quals in ((), (0,), (1,), (0, 1), (1, 0))]
        shuffled = keys[:]
        random.Random(7).shuffle(shuffled)
        assert sorted(shuffled) == sorted(
            keys, key=lambda key: (key.name, key.qualifier))

    def test_keys_built_on_other_threads_are_one_object(self):
        names = [f"i.thread.{i}" for i in range(200)]
        barrier = threading.Barrier(4)
        built: list[list[MetadataKey]] = []

        def build() -> None:
            barrier.wait(timeout=10)
            built.append([MetadataKey(name, (1,)) for name in names])

        threads = [threading.Thread(target=build) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
        assert not any(thread.is_alive() for thread in threads)
        assert len(built) == 4
        mine = [MetadataKey(name, (1,)) for name in names]
        for keys in built:
            assert all(a is b for a, b in zip(keys, mine))


class TestMetadataDefinition:
    def test_static_needs_value_or_compute(self):
        with pytest.raises(MetadataError):
            MetadataDefinition(MetadataKey("k"), Mechanism.STATIC)

    def test_static_with_value_ok(self):
        definition = MetadataDefinition(MetadataKey("k"), Mechanism.STATIC, value=5)
        assert definition.metadata_class is MetadataClass.STATIC

    def test_dynamic_needs_compute(self):
        with pytest.raises(MetadataError):
            MetadataDefinition(MetadataKey("k"), Mechanism.ON_DEMAND)

    def test_periodic_needs_positive_period(self):
        with pytest.raises(MetadataError):
            MetadataDefinition(MetadataKey("k"), Mechanism.PERIODIC,
                               compute=lambda ctx: 1)
        with pytest.raises(MetadataError):
            MetadataDefinition(MetadataKey("k"), Mechanism.PERIODIC,
                               compute=lambda ctx: 1, period=0)

    def test_dynamic_class_derived(self):
        definition = MetadataDefinition(
            MetadataKey("k"), Mechanism.TRIGGERED, compute=lambda ctx: 1
        )
        assert definition.metadata_class is MetadataClass.DYNAMIC

    def test_dynamic_dependencies_flag(self):
        static = MetadataDefinition(
            MetadataKey("k"), Mechanism.TRIGGERED, compute=lambda ctx: 1,
            dependencies=[SelfDep(MetadataKey("d"))],
        )
        assert not static.dynamic_dependencies
        dynamic = MetadataDefinition(
            MetadataKey("k"), Mechanism.TRIGGERED, compute=lambda ctx: 1,
            dependencies=lambda registry: [SelfDep(MetadataKey("d"))],
        )
        assert dynamic.dynamic_dependencies
