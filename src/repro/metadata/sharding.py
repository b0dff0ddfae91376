"""Sharded metadata graph: hash-partitioned registries with cross-shard
propagation (Section 3.2.3 at scale).

The single-shard runtime funnels every structural mutation through one graph
write lock and every wave through one propagation queue.  That is exact and
simple, but it is also the scalability ceiling ROADMAP names first: with
thousands of nodes, unrelated subscribes convoy on one lock and unrelated
waves serialize behind one drainer.

:class:`ShardedMetadataSystem` partitions the graph into N shards:

* **Placement** — each registry owner hashes (``zlib.crc32`` of its name by
  default, overridable via ``placement``) to a shard at registry creation;
  every handler of that registry lives on that shard forever.
* **Per-shard hierarchies** — each shard owns its own graph-level lock
  (``"graph:shardK"``; the prefix before the colon keeps it at graph level
  in the :data:`~repro.metadata.locks.LOCK_HIERARCHY`), its own
  :class:`~repro.metadata.propagation.PropagationEngine` with its own wave
  queue, plan cache, topology epoch, and drainer.  Contention is confined to
  the shard a subscriber actually touches.
* **Cross-shard structure** — a structural mutation whose dependency closure
  spans shards locks exactly the shards it touches, in ascending shard-index
  order (no lock-order cycles between same-level locks; the deadlock
  analyzer's LD001/LD002 stay clean).  The closure is discovered by a
  lock-free pre-walk and re-validated under the locks; if wiring moved in
  between, the walk retries, degrading to an all-shard lock after a few
  attempts.  An inter-shard **edge table** records every dependency edge
  that crosses a boundary.
* **Cross-shard waves** — a wave reaching a foreign node never takes the
  foreign shard's locks.  It *routes*: the crossing is enqueued into the
  destination engine's remote queue (with the originating span id, so causal
  traces survive the hop) and the destination drains it as a continuation
  wave under its own hierarchy.  Poison crosses the same way — a poisoned
  crossing is planned-and-skipped on arrival, so the conservation law
  ``planned == refreshes + skipped_poisoned`` stays exact per shard and
  globally, and ``sum(remote_out) == sum(remote_in)`` at quiescence.

The deliberate semantic relaxation: glitch-freedom (each dependent
recomputes once per wave, in topological order) holds *per shard*.  A
diamond whose paths cross shards may recompute its bottom vertex once per
crossing.  Placement that keeps hot dependency chains co-shard avoids this;
the edge table makes crossings observable.
"""

from __future__ import annotations

import itertools
import os
import threading
import zlib
from contextlib import ExitStack, contextmanager
from typing import Any, Callable, Iterator, Mapping, Sequence

from repro.common.clock import Clock
from repro.metadata.handler import MetadataHandler
from repro.metadata.item import MetadataKey
from repro.metadata.locks import LockPolicy
from repro.metadata.propagation import PropagationBackend, PropagationEngine
from repro.metadata.registry import MetadataRegistry, MetadataSystem
from repro.metadata.scheduling import PeriodicScheduler
from repro.telemetry.hub import Telemetry

__all__ = [
    "ShardRouter",
    "ShardedPropagationBackend",
    "ShardedMetadataSystem",
    "default_placement",
    "system_from_env",
]

#: Bounded optimistic retries of the closure pre-walk before a structural
#: mutation falls back to locking every shard.
_SCOPE_RETRIES = 3


def default_placement(owner: Any, shards: int) -> int:
    """Stable hash placement by owner name (``zlib.crc32``).

    Deterministic across processes and Python runs (unlike ``hash()``, which
    is salted), so shard layouts are reproducible in benchmarks and CI.
    """
    name = str(getattr(owner, "name", owner))
    return zlib.crc32(name.encode("utf-8")) % shards


class ShardRouter:
    """Routes a wave's boundary crossings to the owning shard's engine.

    Held by every per-shard engine; routing is an enqueue on the destination
    engine (``remote_enqueued``), never a lock acquisition on its hierarchy.
    """

    __slots__ = ("_backend",)

    def __init__(self, backend: "ShardedPropagationBackend") -> None:
        self._backend = backend

    def route(self, handler: MetadataHandler, origin: MetadataHandler,
              span: int, poisoned: bool) -> None:
        engine = self._backend.engines[handler.registry.shard_index]
        engine.remote_enqueued(handler, origin, span, poisoned)


class ShardedPropagationBackend(PropagationBackend):
    """One :class:`PropagationEngine` per shard behind the backend surface.

    Enqueues go to the source handler's shard; crossings hop between engines
    through the shared :class:`ShardRouter`.  Counters aggregate exactly:
    every key of :meth:`PropagationEngine.stats` sums across shards, so the
    global conservation laws are the per-shard ones added up.
    """

    def __init__(self, shards: int, plan_cache: bool = True,
                 coalesce: bool = True) -> None:
        if shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards}")
        self.telemetry: Telemetry | None = None
        router = ShardRouter(self)
        self.engines: list[PropagationEngine] = []
        for index in range(shards):
            engine = PropagationEngine(plan_cache=plan_cache, coalesce=coalesce)
            engine.router = router
            engine.shard_index = index
            self.engines.append(engine)
        #: Routerless, so its plans walk every dependent edge: the global
        #: topological order of a tick's seeds.  It never runs a wave.
        self._order = PropagationEngine(plan_cache=plan_cache)

    @property
    def shard_count(self) -> int:
        return len(self.engines)

    def _engine_of(self, source: MetadataHandler) -> PropagationEngine:
        return self.engines[source.registry.shard_index]

    def value_changed(self, source: MetadataHandler) -> None:
        self._engine_of(source).value_changed(source)

    def event_fired(self, source: MetadataHandler) -> None:
        self._engine_of(source).event_fired(source)

    def events_fired(self, sources: Sequence[MetadataHandler]) -> None:
        by_shard: dict[int, list[MetadataHandler]] = {}
        for source in sources:
            by_shard.setdefault(source.registry.shard_index, []).append(source)
        # Per-shard batches keep the coalescing guarantee within a shard;
        # ascending order makes the enqueue sequence deterministic.
        for index in sorted(by_shard):
            self.engines[index].events_fired(by_shard[index])

    def tick(self, seeds: Sequence[tuple]) -> None:
        # Dependency order across shards first, then runs of neighbouring
        # same-shard seeds, each one wave on its shard: regrouping by shard
        # could refresh a seed before the foreign item it reads.
        if len(seeds) > 1:
            seeds = self._order.ordered(seeds)
        for index, run in itertools.groupby(
                seeds, key=lambda seed: seed[0].registry.shard_index):
            self.engines[index].tick(list(run))

    @property
    def topology_epoch(self) -> int:
        # Sum of per-shard epochs: monotone, and moves whenever any shard's
        # wiring moved.  Cached plans are still keyed per-engine on that
        # engine's own epoch.
        return sum(engine.topology_epoch for engine in self.engines)

    def bump_topology(self) -> int:
        # A wiring change is broadcast: a cross-shard attach invalidates
        # plans on both sides, and distinguishing the sides costs more than
        # the (already epoch-guarded) cache rebuild it would save.
        for engine in (*self.engines, self._order):
            engine.bump_topology()
        return self.topology_epoch

    def stats(self) -> dict[str, int]:
        total: dict[str, int] = {}
        for engine in self.engines:
            for key, value in engine.stats().items():
                total[key] = total.get(key, 0) + value
        total["shard_count"] = len(self.engines)
        return total

    def shard_stats(self) -> list[dict[str, int]]:
        """Per-shard counter snapshots, indexed by shard."""
        return [engine.stats() for engine in self.engines]

    def set_telemetry(self, telemetry: Telemetry | None) -> None:
        self.telemetry = telemetry
        for engine in self.engines:
            engine.set_telemetry(telemetry)


class ShardedMetadataSystem(MetadataSystem):
    """Metadata system whose registries are hash-partitioned into shards."""

    def __init__(
        self,
        clock: Clock,
        scheduler: PeriodicScheduler,
        lock_policy: LockPolicy | None = None,
        propagation: ShardedPropagationBackend | None = None,
        shards: int = 4,
        placement: Callable[[Any, int], int] | None = None,
    ) -> None:
        if shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards}")
        if propagation is None:
            propagation = ShardedPropagationBackend(shards)
        elif not isinstance(propagation, ShardedPropagationBackend):
            raise TypeError(
                "ShardedMetadataSystem needs a ShardedPropagationBackend, "
                f"got {type(propagation).__name__}"
            )
        elif propagation.shard_count != shards:
            raise ValueError(
                f"propagation backend has {propagation.shard_count} shards, "
                f"system wants {shards}"
            )
        # shard_of() runs for every registry created against this system, so
        # placement state must exist before any registry does.
        self._placement = placement if placement is not None else default_placement
        super().__init__(clock, scheduler, lock_policy, propagation)
        self.shard_count = shards
        #: Per-shard graph-level locks.  ``structure_lock`` (created by the
        #: base constructor) is aliased to shard 0 so stray single-shard
        #: callers still take a real shard lock instead of a phantom one.
        self.shard_locks = [
            self.lock_policy.graph_lock(f"graph:shard{index}")
            for index in range(shards)
        ]
        self.structure_lock = self.shard_locks[0]
        # Inter-shard edge table: every dependency edge whose two handlers
        # live on different shards, keyed by identity so re-included items
        # (new handler objects) never collide with stale entries.
        self._edge_mutex = threading.Lock()
        self._cross_edges: dict[
            tuple[int, int], tuple[MetadataHandler, MetadataHandler]
        ] = {}

    # -- placement -------------------------------------------------------------

    def shard_of(self, owner: Any) -> int:
        return self._placement(owner, self.shard_count) % self.shard_count

    # -- structure locking ------------------------------------------------------

    def structure_lock_for(self, registry: MetadataRegistry):
        return self.shard_locks[registry.shard_index]

    @contextmanager
    def structure_scope(self, registry: MetadataRegistry,
                        keys: Sequence[MetadataKey] | None = None,
                        handler: MetadataHandler | None = None) -> Iterator[None]:
        """Lock exactly the shards a structural mutation's closure touches.

        Optimistic: a lock-free pre-walk computes the shard set, the shards
        are locked in ascending index order (same-level locks never form an
        order cycle this way), and the walk re-runs under the locks to
        validate.  Wiring that moved in the window forces a retry; after
        :data:`_SCOPE_RETRIES` the mutation degrades to an all-shard lock,
        which is always sufficient.
        """
        for _attempt in range(_SCOPE_RETRIES):
            shards = self._closure_shards(registry, keys, handler)
            if shards is None:
                break
            with ExitStack() as stack:
                for index in sorted(shards):
                    stack.enter_context(self.shard_locks[index].write())
                if self._closure_shards(registry, keys, handler) == shards:
                    yield
                    return
                # Wiring moved between pre-walk and locking; drop the locks
                # and walk again.
        with ExitStack() as stack:
            for lock in self.shard_locks:
                stack.enter_context(lock.write())
            yield

    def _closure_shards(self, registry: MetadataRegistry,
                        keys: Sequence[MetadataKey] | None,
                        handler: MetadataHandler | None) -> set[int] | None:
        """Shard set a subscribe (``keys``) or unsubscribe (``handler``)
        closure touches; ``None`` when it cannot be computed (unknown items,
        unresolvable specs — the locked path will raise properly, under the
        all-shard fallback)."""
        shards = {registry.shard_index}
        try:
            if keys is not None:
                seen: set[tuple[int, MetadataKey]] = set()
                stack = [(registry, key) for key in keys]
                while stack:
                    reg, key = stack.pop()
                    ref = (id(reg), key)
                    if ref in seen:
                        continue
                    seen.add(ref)
                    shards.add(reg.shard_index)
                    if reg._handlers.get(key) is not None:
                        # Traversal stops at included items (only their
                        # counter moves — still this shard's mutation).
                        continue
                    definition = reg._definitions.get(key)
                    if definition is None:
                        return None
                    for spec in definition.resolve_specs(reg):
                        for target, dep_key in reg._resolve_spec(spec):
                            stack.append((target, dep_key))
            elif handler is not None:
                hseen: set[int] = set()
                hstack = [handler]
                while hstack:
                    current = hstack.pop()
                    if id(current) in hseen:
                        continue
                    hseen.add(id(current))
                    shards.add(current.registry.shard_index)
                    for _spec, dep in current.dependency_handlers:
                        hstack.append(dep)
        except Exception:  # analysis: ignore[LK005]
            # Deliberately traceless: the pre-walk is advisory.  Returning
            # None degrades to the all-shard lock, under which the locked
            # mutation re-raises the same error with full context.
            return None
        return shards

    # -- inter-shard edge table -------------------------------------------------

    def edge_attached(self, dependency: MetadataHandler,
                      dependent: MetadataHandler) -> None:
        if dependency.registry.shard_index == dependent.registry.shard_index:
            return
        with self._edge_mutex:
            self._cross_edges[(id(dependency), id(dependent))] = (
                dependency, dependent)

    def edge_detached(self, dependency: MetadataHandler,
                      dependent: MetadataHandler) -> None:
        if dependency.registry.shard_index == dependent.registry.shard_index:
            return
        with self._edge_mutex:
            self._cross_edges.pop((id(dependency), id(dependent)), None)

    def cross_shard_edges(self) -> tuple[tuple[MetadataHandler, MetadataHandler], ...]:
        """Live boundary edges as ``(dependency, dependent)`` pairs."""
        with self._edge_mutex:
            return tuple(self._cross_edges.values())

    # -- introspection -----------------------------------------------------------

    def describe_shards(self) -> Mapping[str, Any]:
        """Per-shard placement, lock, and propagation snapshot (surfaces as
        the ``"shards"`` section of ``describe_system``)."""
        backend = self.propagation
        per_shard = (backend.shard_stats()
                     if isinstance(backend, ShardedPropagationBackend)
                     else [backend.stats()])
        registries = [0] * self.shard_count
        handlers = [0] * self.shard_count
        for registry in self.registries():
            registries[registry.shard_index] += 1
            handlers[registry.shard_index] += len(registry.included_keys())
        shards = []
        for index in range(self.shard_count):
            lock = self.shard_locks[index]
            stats = getattr(lock, "stats", None)
            shards.append({
                "index": index,
                "registries": registries[index],
                "handlers": handlers[index],
                "lock": stats.to_dict() if stats is not None else {},
                "propagation": per_shard[index] if index < len(per_shard) else {},
            })
        return {
            "count": self.shard_count,
            "cross_shard_edges": len(self.cross_shard_edges()),
            "shards": shards,
        }


def system_from_env(
    clock: Clock,
    scheduler: PeriodicScheduler,
    lock_policy: LockPolicy | None = None,
    propagation: PropagationBackend | None = None,
    env: Mapping[str, str] | None = None,
) -> MetadataSystem:
    """Build a metadata system honouring the ``REPRO_SHARDS`` env knob.

    ``REPRO_SHARDS`` unset, empty, or ``1`` gives the plain single-shard
    :class:`MetadataSystem`; ``N > 1`` gives a :class:`ShardedMetadataSystem`
    with N shards.  This is the CI matrix hook: the stress and chaos lanes
    run the same test corpus at 1 and 4 shards.
    """
    if env is None:
        env = os.environ
    raw = env.get("REPRO_SHARDS", "").strip()
    shards = 1
    if raw:
        try:
            shards = int(raw)
        except ValueError:
            raise ValueError(f"REPRO_SHARDS must be an integer, got {raw!r}") from None
        if shards < 1:
            raise ValueError(f"REPRO_SHARDS must be >= 1, got {shards}")
    if shards == 1:
        return MetadataSystem(clock, scheduler, lock_policy, propagation)
    if propagation is not None and not isinstance(propagation, ShardedPropagationBackend):
        raise TypeError(
            "REPRO_SHARDS > 1 needs a ShardedPropagationBackend (or None), "
            f"got {type(propagation).__name__}"
        )
    return ShardedMetadataSystem(clock, scheduler, lock_policy, propagation,
                                 shards=shards)
