"""Exchangeable sweep-area modules for stateful operators (Section 4.5).

"Due to the generic design of PIPES, many operators depend on exchangeable
modules, e.g., the join operator can be based on different data structures to
store its state (lists, hash tables, etc.).  Metadata items can also depend on
properties of these modules."

A sweep area stores the currently valid elements of one join input.  Two
implementations are provided:

* :class:`ListSweepArea` — nested-loops style: probing examines every stored
  element.
* :class:`HashSweepArea` — hash-based equi-join support: probing examines only
  the bucket of the probe key.

Each sweep area owns its own metadata registry (created when the operator
attaches), publishing ``operator.state_size``, ``operator.memory_usage``,
``operator.implementation_type`` and ``module.probe_fraction``.  Operator
items reference them through
:class:`~repro.metadata.item.ModuleDep` — "the metadata framework is applied
recursively to access metadata items of nested modules".
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, Iterable, Iterator, Optional

from repro.graph.element import StreamElement
from repro.metadata import catalogue as md
from repro.metadata.item import Mechanism, MetadataDefinition, MetadataKey
from repro.metadata.monitor import GaugeProbe
from repro.metadata.registry import MetadataRegistry, MetadataSystem

__all__ = [
    "SweepArea",
    "ListSweepArea",
    "HashSweepArea",
    "BucketIndex",
    "PROBE_FRACTION",
    "DISTINCT_KEYS",
    "MAX_BUCKET_SIZE",
]

#: Fraction of stored elements a probe is expected to examine — 1.0 for a
#: list, ≈ 1/(distinct keys) for a hash table.  Module-level metadata item
#: consumed by the join's estimated CPU usage (Figure 3).
PROBE_FRACTION = MetadataKey("module.probe_fraction")

#: Number of occupied hash buckets (published by the nested bucket index).
DISTINCT_KEYS = MetadataKey("module.distinct_keys")

#: Size of the fullest hash bucket — skew indicator for the optimizer.
MAX_BUCKET_SIZE = MetadataKey("module.max_bucket_size")


class SweepArea:
    """Base class: ordered store of valid elements with expiry eviction.

    Elements must be inserted in non-decreasing expiry order, which holds for
    a window operator with a fixed (or piecewise-constant) window size over a
    timestamp-ordered stream; eviction is then O(expired).
    """

    implementation_type = "abstract"

    def __init__(self, name: str, element_size: int = 64) -> None:
        self.name = name
        self.element_size = element_size
        self.metadata: Optional[MetadataRegistry] = None
        self.inserted = 0
        self.evicted = 0
        self.probed = 0  # candidates examined across all probes

    # -- storage interface ---------------------------------------------------

    def insert(self, element: StreamElement) -> None:
        raise NotImplementedError

    def expire(self, now: float) -> int:
        """Evict elements whose validity ended at ``now``; returns count."""
        raise NotImplementedError

    def candidates(self, element: StreamElement) -> Iterator[StreamElement]:
        """Stored elements a probe with ``element`` must examine."""
        raise NotImplementedError

    def probe(
        self,
        element: StreamElement,
        predicate: Callable[[StreamElement, StreamElement], bool],
    ) -> tuple[list[StreamElement], int]:
        """Evaluate ``predicate`` against candidates.

        Returns ``(matches, candidates_examined)``; the examined count is the
        quantity the join charges as probe CPU cost.
        """
        matches = []
        examined = 0
        for candidate in self.candidates(element):
            examined += 1
            if predicate(element, candidate):
                matches.append(candidate)
        self.probed += examined
        return matches, examined

    def __len__(self) -> int:
        raise NotImplementedError

    def memory_bytes(self) -> int:
        return len(self) * self.element_size

    def probe_fraction(self) -> float:
        """Expected fraction of stored elements a probe examines."""
        raise NotImplementedError

    # -- module metadata (Section 4.5) -----------------------------------------

    def attach_metadata(self, system: MetadataSystem) -> MetadataRegistry:
        """Create this module's own metadata registry."""
        registry = MetadataRegistry(self, system)
        self.metadata = registry
        registry.add_probe(GaugeProbe("size", lambda: len(self)))
        registry.add_probe(GaugeProbe("bytes", self.memory_bytes))
        registry.define(MetadataDefinition(
            md.IMPLEMENTATION_TYPE, Mechanism.STATIC,
            value=self.implementation_type,
            description="sweep-area implementation type",
        ))
        registry.define(MetadataDefinition(
            md.STATE_SIZE, Mechanism.ON_DEMAND,
            monitors=("size",),
            compute=lambda ctx: registry.probe("size").read(),
            description="elements currently stored in this sweep area",
        ))
        registry.define(MetadataDefinition(
            md.MEMORY_USAGE, Mechanism.ON_DEMAND,
            monitors=("bytes",),
            compute=lambda ctx: registry.probe("bytes").read(),
            description="bytes held by this sweep area",
        ))
        registry.define(MetadataDefinition(
            PROBE_FRACTION, Mechanism.ON_DEMAND,
            compute=lambda ctx: self.probe_fraction(),
            description="expected fraction of stored elements one probe "
                        "examines (1.0 for lists, ~1/distinct-keys for hashes)",
        ))
        self.register_extra_metadata(registry)
        return registry

    def register_extra_metadata(self, registry: MetadataRegistry) -> None:
        """Hook for submodules / subclasses to publish more items."""

    def submodules(self) -> list:
        """Nested modules, for teardown and introspection (Section 4.5)."""
        return []

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name!r}, len={len(self)})"


class ListSweepArea(SweepArea):
    """Insertion-ordered list storage; probes scan everything (nested loops)."""

    implementation_type = "nested-loops"

    def __init__(self, name: str, element_size: int = 64) -> None:
        super().__init__(name, element_size)
        self._elements: Deque[StreamElement] = deque()

    def insert(self, element: StreamElement) -> None:
        self._elements.append(element)
        self.inserted += 1

    def expire(self, now: float) -> int:
        count = 0
        while self._elements and self._elements[0].is_expired(now):
            self._elements.popleft()
            count += 1
        self.evicted += count
        return count

    def candidates(self, element: StreamElement) -> Iterator[StreamElement]:
        return iter(self._elements)

    def __len__(self) -> int:
        return len(self._elements)

    def probe_fraction(self) -> float:
        return 1.0


class BucketIndex:
    """Nested module of :class:`HashSweepArea` exposing bucket statistics.

    Exists to exercise the paper's "the metadata framework is applied
    recursively to access metadata items of nested modules" on a real code
    path: the join can reference ``ModuleDep("sweep0.index", DISTINCT_KEYS)``
    two module levels deep.
    """

    def __init__(self, area: "HashSweepArea") -> None:
        self.name = "index"
        self._area = area
        self.metadata: Optional[MetadataRegistry] = None

    def distinct_keys(self) -> int:
        return len(self._area._buckets)

    def max_bucket_size(self) -> int:
        buckets = self._area._buckets
        return max((len(b) for b in buckets.values()), default=0)

    def attach_metadata(self, system: MetadataSystem) -> MetadataRegistry:
        registry = MetadataRegistry(self, system)
        self.metadata = registry
        registry.define(MetadataDefinition(
            DISTINCT_KEYS, Mechanism.ON_DEMAND,
            compute=lambda ctx: self.distinct_keys(),
            description="number of occupied hash buckets",
        ))
        registry.define(MetadataDefinition(
            MAX_BUCKET_SIZE, Mechanism.ON_DEMAND,
            compute=lambda ctx: self.max_bucket_size(),
            description="size of the fullest bucket (key-skew indicator)",
        ))
        return registry

    def __repr__(self) -> str:
        return f"BucketIndex(of={self._area.name!r})"


#: Bucket length at which a hash bucket turns from a list into a deque.
_DEQUE_AT = 32


class HashSweepArea(SweepArea):
    """Hash-partitioned storage for equi-joins.

    ``key_fn`` extracts the join key; probes examine only the matching
    bucket.  Expiry order is maintained by a global FIFO of ``(key, element)``
    pairs — valid because expiries are non-decreasing in insertion order.
    Bucket statistics live in a *nested* :class:`BucketIndex` module
    reachable via ``get_module("index")`` (Section 4.5's recursion).
    """

    implementation_type = "hash"

    def __init__(
        self,
        name: str,
        key_fn: Callable[[StreamElement], Any],
        element_size: int = 64,
    ) -> None:
        super().__init__(name, element_size)
        self.key_fn = key_fn
        # A list per key: most keys hold about one element, and an empty
        # deque alone costs more than a one-element list.  A bucket that
        # reaches _DEQUE_AT elements becomes a deque, so expiring the head
        # of a hot key stays O(1) instead of shifting the whole list.
        self._buckets: dict[Any, list[StreamElement] | Deque[StreamElement]] = {}
        self._order: Deque[tuple[Any, StreamElement]] = deque()
        self._size = 0
        self._index = BucketIndex(self)

    def get_module(self, name: str) -> BucketIndex:
        if name == "index":
            return self._index
        raise KeyError(f"sweep area {self.name!r} has no module {name!r}")

    def submodules(self) -> list:
        return [self._index]

    def insert(self, element: StreamElement) -> None:
        key = self.key_fn(element)
        bucket = self._buckets.get(key)
        if bucket is None:
            self._buckets[key] = [element]
        else:
            bucket.append(element)
            if len(bucket) == _DEQUE_AT and type(bucket) is list:
                self._buckets[key] = deque(bucket)
        self._order.append((key, element))
        self._size += 1
        self.inserted += 1

    def expire(self, now: float) -> int:
        count = 0
        while self._order and self._order[0][1].is_expired(now):
            key = self._order.popleft()[0]
            bucket = self._buckets[key]
            # Buckets and the FIFO are appended together and drained in the
            # same order, so the expired element heads its bucket.
            del bucket[0]
            if not bucket:
                del self._buckets[key]
            self._size -= 1
            count += 1
        self.evicted += count
        return count

    def candidates(self, element: StreamElement) -> Iterator[StreamElement]:
        bucket = self._buckets.get(self.key_fn(element))
        return iter(bucket) if bucket is not None else iter(())

    def __len__(self) -> int:
        return self._size

    def distinct_keys(self) -> int:
        return len(self._buckets)

    def probe_fraction(self) -> float:
        if self._size == 0:
            return 0.0
        # Expected bucket share when probing with a uniformly drawn key.
        return 1.0 / max(1, len(self._buckets))

    def register_extra_metadata(self, registry: MetadataRegistry) -> None:
        # The nested index module gets its own registry (recursive modules).
        self._index.attach_metadata(registry.system)
        registry.define(MetadataDefinition(
            DISTINCT_KEYS, Mechanism.ON_DEMAND,
            compute=lambda ctx: self.distinct_keys(),
            description="number of occupied hash buckets",
        ))
