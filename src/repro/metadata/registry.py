"""Publish-subscribe metadata registries (Section 2).

Every query-graph node (and every exchangeable module, Section 4.5) owns a
:class:`MetadataRegistry` storing

* the **definitions** of the metadata items the node can provide
  (the published catalogue — "each node gives information about available
  metadata items", Section 2.2), and
* the **handlers** of the items currently *included*, i.e. required by at
  least one consumer subscription or dependent item.

Consumers call :meth:`MetadataRegistry.subscribe`, which

1. performs the depth-first dependency traversal of Section 2.4, implicitly
   including every transitive dependency and stopping at items already
   provided (their counters are still incremented, so sharing is counted),
2. activates the monitoring probes the included definitions list, and
3. returns a :class:`MetadataSubscription` proxying the shared handler.

Cancelling the subscription reverses all of it; a handler whose inclusion
counter reaches zero is removed together with its now-unneeded dependency
subtree ("the automated removal of handlers, which are no longer needed,
saves further system resources", Section 2.1).

All registries of one system share a :class:`MetadataSystem`, which bundles
the clock, the periodic scheduler, the propagation backend, the lock policy
and global accounting.

Shards (Section 3.2.3 at scale)
-------------------------------

One graph write lock is exact and simple, and it is the scalability
ceiling: with thousands of nodes, unrelated subscribes convoy on it.
``MetadataSystem(..., shards=N)`` partitions the registries:

* **Placement** — each registry owner hashes (``zlib.crc32`` of its name by
  default, overridable via ``placement``) to a shard at registry creation;
  every handler of that registry lives on that shard forever.
* **Per-shard graph locks** — contention is confined to the shards a
  structural mutation actually touches: a mutation whose dependency
  closure spans shards locks exactly those, in ascending shard-index order,
  found by an optimistic pre-walk (:meth:`MetadataSystem.structure_scope`).
  An inter-shard **edge table** records every dependency edge that crosses
  a boundary (:meth:`MetadataSystem.cross_shard_edges`).

One engine orders every wave; shards partition graph locks.  Waves take no
graph lock, so a wave crossing a boundary is one wave in global dependency
order, each member computed once, at any shard count (see
:mod:`repro.metadata.propagation`).  The default single shard is the
unpartitioned runtime: one lock named ``"graph"``.
"""

from __future__ import annotations

import logging
import threading
import zlib
from contextlib import ExitStack, contextmanager
from typing import Any, Callable, Iterable, Iterator, Mapping, Sequence

from repro.common.clock import Clock
from repro.common.errors import (
    DependencyCycleError,
    DuplicateMetadataError,
    MetadataError,
    MetadataNotIncludedError,
    SubscriptionError,
    UnknownMetadataError,
)
from repro.metadata.handler import MetadataHandler, create_handler
from repro.metadata.item import (
    DownstreamDep,
    Mechanism,
    MetadataDefinition,
    MetadataKey,
    ModuleDep,
    NodeDep,
    SelfDep,
    UpstreamDep,
)
from repro.metadata.locks import LockPolicy, NoOpLockPolicy
from repro.metadata.monitor import Probe
from repro.metadata.propagation import PropagationEngine
from repro.metadata.scheduling import PeriodicScheduler
from repro.telemetry.events import (
    ExcludeEvent,
    HandlerCreated,
    HandlerRetired,
    IncludeEvent,
    SubscribeEvent,
    UnsubscribeEvent,
    key_of,
)
from repro.telemetry.hub import Telemetry

__all__ = ["MetadataSystem", "MetadataRegistry", "MetadataSubscription",
           "default_placement"]

#: Failures on cleanup paths (rollback of a failed subscribe, unregister of
#: an unknown registry) are logged here rather than raised: raising would
#: mask the original error the cleanup was handling.
log = logging.getLogger(__name__)

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


class MetadataSystem:
    """Shared services and accounting for a family of registries.

    One system is created per query graph (or per test fixture).  It owns the
    clock, the periodic-update scheduler, the triggered-update propagation
    backend and the lock policy; registries delegate to it.  ``shards``
    partitions the registries (see the module docstring); ``placement``
    maps an owner to its shard (default :func:`default_placement`).
    """

    def __init__(
        self,
        clock: Clock,
        scheduler: PeriodicScheduler,
        lock_policy: LockPolicy | None = None,
        propagation: PropagationEngine | None = None,
        shards: int = 1,
        placement: Callable[[Any, int], int] | None = None,
    ) -> None:
        if shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards}")
        if propagation is None:
            propagation = PropagationEngine()
        elif not isinstance(propagation, PropagationEngine):
            raise TypeError(
                "MetadataSystem needs a PropagationEngine, "
                f"got {type(propagation).__name__}"
            )
        self.clock = clock
        self.scheduler = scheduler
        self.lock_policy = lock_policy if lock_policy is not None else NoOpLockPolicy()
        self.propagation = propagation
        self.shard_count = shards
        self._placement = placement if placement is not None else default_placement
        #: Per-shard graph-level locks: the single shard's is ``"graph"``,
        #: shard K of several is ``"graph:shardK"`` (the prefix before the
        #: colon keeps it at graph level in the lock hierarchy).
        self.shard_locks = (
            [self.lock_policy.graph_lock()] if shards == 1 else
            [self.lock_policy.graph_lock(f"graph:shard{index}")
             for index in range(shards)])
        self.structure_lock = self.shard_locks[0]
        #: Off-by-default observability (see :mod:`repro.telemetry`).  While
        #: ``None``, every instrumentation hook in the runtime is a single
        #: ``is None`` check — the paper's probe discipline (Section 4.4.1)
        #: applied to the runtime itself.
        self.telemetry: Telemetry | None = None
        self._registries: list["MetadataRegistry"] = []
        # Global accounting is guarded by a dedicated mutex rather than the
        # structure lock so that it stays exact even under NoOpLockPolicy,
        # and so stats() readers never contend with subscribe traffic.
        self._accounting_mutex = threading.Lock()
        self.handlers_created = 0
        self.handlers_removed = 0
        # Inter-shard edge table: every dependency edge whose two handlers
        # live on different shards, keyed by identity so re-included items
        # (new handler objects) never collide with stale entries.
        self._edge_mutex = threading.Lock()
        self._cross_edges: dict[
            tuple[int, int], tuple[MetadataHandler, MetadataHandler]
        ] = {}

    def register(self, registry: "MetadataRegistry") -> None:
        with self._accounting_mutex:
            self._registries.append(registry)

    def unregister(self, registry: "MetadataRegistry") -> None:
        """Forget a registry (runtime query uninstallation).

        The registry must have no included handlers; cancelling the owning
        node's subscriptions first is the caller's responsibility.
        """
        if registry.included_keys():
            raise MetadataError(
                f"cannot unregister {registry!r}: items are still included"
            )
        with self._accounting_mutex:
            try:
                self._registries.remove(registry)
            except ValueError:
                # Double-unregister is tolerated (idempotent uninstall) but
                # no longer invisible: it usually means two teardown paths
                # both think they own this registry.
                log.warning(
                    "unregister of unknown registry %r (owner %s): already "
                    "removed or never registered",
                    registry, getattr(registry.owner, "name", registry.owner),
                )

    def registries(self) -> Sequence["MetadataRegistry"]:
        with self._accounting_mutex:
            return tuple(self._registries)

    # -- shards ------------------------------------------------------------------

    def shard_of(self, owner: Any) -> int:
        """Shard index an owner's registry is placed on."""
        return self._placement(owner, self.shard_count) % self.shard_count

    def structure_lock_for(self, registry: "MetadataRegistry"):
        """The graph-level lock guarding ``registry``'s shard."""
        return self.shard_locks[registry.shard_index]

    @contextmanager
    def structure_scope(self, registry: "MetadataRegistry",
                        keys: Sequence[MetadataKey] | None = None,
                        handler: MetadataHandler | None = None) -> Iterator[None]:
        """Write-scope for a structural mutation rooted at ``registry``:
        a subscribe of ``keys`` or an unsubscribe of ``handler``.

        One shard takes its one graph write lock.  Several lock exactly the
        shards the mutation's closure touches, optimistically: a lock-free
        pre-walk computes the shard set, the shards are locked in ascending
        index order (same-level locks never form an order cycle this way),
        and the walk re-runs under the locks to validate.  Wiring that moved
        in the window forces a retry; after :data:`_SCOPE_RETRIES` the
        mutation degrades to an all-shard lock, which is always sufficient.
        """
        if self.shard_count == 1:
            with self.structure_lock.write():
                yield
            return
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

    def _closure_shards(self, registry: "MetadataRegistry",
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

    def edge_attached(self, dependency: MetadataHandler,
                      dependent: MetadataHandler) -> None:
        """A dependency edge was created; record it if it crosses shards."""
        if dependency.registry.shard_index == dependent.registry.shard_index:
            return
        with self._edge_mutex:
            self._cross_edges[(id(dependency), id(dependent))] = (
                dependency, dependent)

    def edge_detached(self, dependency: MetadataHandler,
                      dependent: MetadataHandler) -> None:
        """A dependency edge was removed; forget it if it crossed shards."""
        if dependency.registry.shard_index == dependent.registry.shard_index:
            return
        with self._edge_mutex:
            self._cross_edges.pop((id(dependency), id(dependent)), None)

    def cross_shard_edges(self) -> tuple[tuple[MetadataHandler, MetadataHandler], ...]:
        """Live boundary edges as ``(dependency, dependent)`` pairs."""
        with self._edge_mutex:
            return tuple(self._cross_edges.values())

    def describe_shards(self) -> Mapping[str, Any]:
        """Per-shard placement and lock snapshot, plus the one propagation
        engine's (surfaces as the ``"shards"`` section of
        ``describe_system``)."""
        registries = [0] * self.shard_count
        handlers = [0] * self.shard_count
        for registry in self.registries():
            registries[registry.shard_index] += 1
            handlers[registry.shard_index] += len(registry.included_keys())
        shards = []
        for index, lock in enumerate(self.shard_locks):
            stats = getattr(lock, "stats", None)
            shards.append({
                "index": index,
                "registries": registries[index],
                "handlers": handlers[index],
                "lock": stats.to_dict() if stats is not None else {},
            })
        return {
            "count": self.shard_count,
            "cross_shard_edges": len(self.cross_shard_edges()),
            "propagation": self.propagation.stats(),
            "shards": shards,
        }

    def enable_telemetry(self, capacity: int = 4096) -> Telemetry:
        """Attach (or return the already-attached) telemetry hub.

        Wires the hub into the propagation engine and the scheduler so their
        hot-path hooks see it through one attribute; registries and handlers
        reach it via ``system.telemetry``.  Idempotent.
        """
        if self.telemetry is None:
            telemetry = Telemetry(self.clock, capacity)
            self.telemetry = telemetry
            self.propagation.telemetry = telemetry
            self.scheduler.telemetry = telemetry
        return self.telemetry

    def disable_telemetry(self) -> Telemetry | None:
        """Detach the telemetry hub; hooks revert to zero-cost no-ops.

        Attached export pipelines are closed first (their sinks receive
        everything still buffered).  Returns the detached hub so captured
        traces/metrics stay readable.
        """
        telemetry = self.telemetry
        self.telemetry = None
        self.propagation.telemetry = None
        self.scheduler.telemetry = None
        if telemetry is not None:
            telemetry.close_exporters()
        return telemetry

    def handler_created(self, handler: MetadataHandler) -> None:
        with self._accounting_mutex:
            self.handlers_created += 1
        tel = self.telemetry
        if tel is not None:
            node, key = handler.names
            tel.emit(HandlerCreated(node=node, key=key,
                                    mechanism=handler.mechanism.value))

    def handler_removed(self, handler: MetadataHandler) -> None:
        with self._accounting_mutex:
            self.handlers_removed += 1
        tel = self.telemetry
        if tel is not None:
            node, key = handler.names
            tel.emit(HandlerRetired(node=node, key=key,
                                    mechanism=handler.mechanism.value))

    @property
    def included_handler_count(self) -> int:
        """Number of handlers currently alive across all registries."""
        with self._accounting_mutex:
            return self.handlers_created - self.handlers_removed

    def subscribe_all(self) -> list["MetadataSubscription"]:
        """Subscribe to every available item of every registry.

        This is the *provide-all* strategy the paper argues against
        ("providing all available metadata would be too expensive") — the
        baseline of the query-scalability benchmark (experiment E4).  Uses
        the bulk path so each registry's closure resolves under a single
        lock acquisition.
        """
        subscriptions: list["MetadataSubscription"] = []
        for registry in self.registries():
            subscriptions.extend(registry.subscribe_many(registry.available_keys()))
        return subscriptions

    def stats(self) -> dict[str, int]:
        """Global accounting snapshot for benchmarks and the profiler."""
        with self._accounting_mutex:
            created = self.handlers_created
            removed = self.handlers_removed
        return {
            "handlers_created": created,
            "handlers_removed": removed,
            "handlers_included": created - removed,
            "periodic_tasks": self.scheduler.active_task_count(),
            **self.propagation.stats(),
        }


class MetadataSubscription:
    """Consumer-facing proxy of a shared metadata handler (Section 2.1).

    ``get()`` returns the current metadata value through the shared handler;
    ``cancel()`` unsubscribes (idempotence is *not* silent: cancelling twice
    raises, because an unmatched unsubscription indicates a bookkeeping bug
    in the consumer).
    """

    __slots__ = ("registry", "handler", "key", "_active")

    def __init__(self, registry: "MetadataRegistry", handler: MetadataHandler) -> None:
        self.registry = registry
        self.handler = handler
        self.key = handler.key
        self._active = True

    @property
    def active(self) -> bool:
        return self._active

    @property
    def stale(self) -> bool:
        """Stale-while-failing flag: True while the item's failure policy is
        serving the last-good value because its provider keeps failing
        (circuit RETRYING/QUARANTINED/HALF_OPEN).  Always False for items
        without a :class:`~repro.reliability.FailurePolicy`."""
        return self.handler.stale

    def get(self) -> Any:
        """Current value of the subscribed metadata item."""
        if not self._active:
            raise SubscriptionError(f"subscription to {self.key!r} was cancelled")
        return self.handler.get()

    def cancel(self) -> None:
        """Unsubscribe; triggers exclusion of no-longer-needed dependents."""
        if not self._active:
            raise SubscriptionError(f"subscription to {self.key!r} cancelled twice")
        self._active = False
        self.registry._unsubscribe(self.handler)

    def __enter__(self) -> "MetadataSubscription":
        return self

    def __exit__(self, *exc: object) -> None:
        if self._active:
            self.cancel()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "active" if self._active else "cancelled"
        return f"MetadataSubscription({self.key!r}, {state})"


class MetadataRegistry:
    """Per-node (or per-module) metadata catalogue and handler store."""

    def __init__(self, owner: Any, system: MetadataSystem) -> None:
        self.owner = owner
        self.system = system
        #: Index of the shard this registry's handlers live on — fixed at
        #: creation (hash placement by owner, Section 3.2.3 at scale).
        self.shard_index = system.shard_of(owner)
        self._definitions: dict[MetadataKey, MetadataDefinition] = {}
        self._handlers: dict[MetadataKey, MetadataHandler] = {}
        self._probes: dict[str, Probe] = {}
        self.node_lock = system.lock_policy.node_lock(owner)
        system.register(self)

    # -- shared services -------------------------------------------------------

    @property
    def clock(self) -> Clock:
        return self.system.clock

    @property
    def scheduler(self) -> PeriodicScheduler:
        return self.system.scheduler

    @property
    def propagation(self) -> PropagationEngine:
        return self.system.propagation

    @property
    def lock_policy(self) -> LockPolicy:
        return self.system.lock_policy

    # -- publishing (provider side) ---------------------------------------------

    def define(self, definition: MetadataDefinition, override: bool = False) -> None:
        """Publish a metadata item this node can provide.

        ``override=True`` implements metadata inheritance (Section 4.4.2): a
        subclass may replace an inherited definition — including its
        dependencies — as long as the item is not currently included.
        """
        key = definition.key
        with self.system.structure_lock_for(self).write():
            if key in self._definitions and not override:
                raise DuplicateMetadataError(
                    f"metadata item {key!r} already defined on {self._owner_name()}; "
                    "pass override=True to redefine it"
                )
            if key in self._handlers:
                raise MetadataError(
                    f"cannot redefine {key!r} on {self._owner_name()} while it is included"
                )
            self._definitions[key] = definition
            self.system.propagation.bump_topology()

    def undefine(self, key: MetadataKey) -> None:
        """Withdraw a published item (must not be included)."""
        with self.system.structure_lock_for(self).write():
            if key in self._handlers:
                raise MetadataError(
                    f"cannot undefine {key!r} on {self._owner_name()} while it is included"
                )
            if key not in self._definitions:
                raise UnknownMetadataError(self.owner, key)
            del self._definitions[key]
            self.system.propagation.bump_topology()

    def add_probe(self, probe: Probe) -> Probe:
        """Register a monitoring probe referenced by definitions' ``monitors``."""
        with self.system.structure_lock_for(self).write():
            if probe.name in self._probes:
                raise DuplicateMetadataError(
                    f"probe {probe.name!r} already registered on {self._owner_name()}"
                )
            self._probes[probe.name] = probe
            probe.bind_system(self.system, self._owner_name())
            return probe

    def probe(self, name: str) -> Probe:
        """Look up a registered probe by name."""
        try:
            return self._probes[name]
        except KeyError:
            raise MetadataError(
                f"no probe {name!r} on {self._owner_name()}"
            ) from None

    # -- discovery -----------------------------------------------------------------

    def available_keys(self) -> list[MetadataKey]:
        """Keys of all published items, in definition order."""
        return list(self._definitions)

    def included_keys(self) -> list[MetadataKey]:
        """Keys of items with a live handler."""
        return list(self._handlers)

    def describe(self, key: MetadataKey) -> MetadataDefinition:
        """Definition of a published item."""
        try:
            return self._definitions[key]
        except KeyError:
            raise UnknownMetadataError(self.owner, key) from None

    def is_included(self, key: MetadataKey) -> bool:
        return key in self._handlers

    def handler(self, key: MetadataKey) -> MetadataHandler:
        """The live handler of an included item (internal/diagnostic access)."""
        try:
            return self._handlers[key]
        except KeyError:
            raise MetadataNotIncludedError(
                f"metadata item {key!r} on {self._owner_name()} is not included"
            ) from None

    # -- subscription (consumer side) --------------------------------------------------

    def subscribe(self, key: MetadataKey) -> MetadataSubscription:
        """Subscribe to a metadata item; include it and its dependency closure."""
        tel = self.system.telemetry
        span = 0
        if tel is not None:
            span = tel.bus.new_span()
            tel.emit(SubscribeEvent(span=span, node=self._owner_name(),
                                    key=key_of(key)))
        with self.system.structure_scope(self, keys=[key]):
            handler = self._include(key, [], span)
            handler.consumer_count += 1
            return MetadataSubscription(self, handler)

    def subscribe_many(
        self, keys: Iterable[MetadataKey]
    ) -> list["MetadataSubscription"]:
        """Subscribe to several metadata items under ONE lock acquisition.

        The per-key path acquires the graph write lock once per subscribe;
        installing a query that consumes dozens of items pays that cost —
        and the include-cascade bookkeeping — once per key.  The bulk path
        resolves the transitive include-closure of all ``keys`` inside a
        single graph -> node -> item critical section: shared dependencies
        are resolved once and reused by reference for the rest of the batch.

        Atomic: if any key fails to include, the already-included keys are
        rolled back and the system is left unchanged.  Returns one
        subscription per key, in input order (duplicates allowed — each gets
        its own subscription against the shared handler).
        """
        keys = list(keys)
        tel = self.system.telemetry
        span = 0
        if tel is not None:
            span = tel.bus.new_span()
            for key in keys:
                tel.emit(SubscribeEvent(span=span, node=self._owner_name(),
                                        key=key_of(key)))
        subscriptions: list["MetadataSubscription"] = []
        with self.system.structure_scope(self, keys=keys):
            included: list[MetadataHandler] = []
            try:
                for key in keys:
                    included.append(self._include(key, [], span))
            except Exception:
                # Unwind the keys that did include; as in _include's own
                # rollback, a failing cleanup step must not mask the error.
                for handler in reversed(included):
                    try:
                        self._exclude(handler.key, span)
                    except Exception:
                        log.exception(
                            "rollback of failed subscribe_many on %s: could "
                            "not exclude %r", self._owner_name(), handler.key,
                        )
                raise
            for handler in included:
                handler.consumer_count += 1
                subscriptions.append(MetadataSubscription(self, handler))
        return subscriptions

    def _unsubscribe(self, handler: MetadataHandler) -> None:
        tel = self.system.telemetry
        span = 0
        if tel is not None:
            span = tel.bus.new_span()
            tel.emit(UnsubscribeEvent(span=span, node=self._owner_name(),
                                      key=key_of(handler.key)))
        with self.system.structure_scope(self, handler=handler):
            handler.consumer_count -= 1
            self._exclude(handler.key, span)

    def get(self, key: MetadataKey) -> Any:
        """Read the current value of an *included* item without subscribing."""
        return self.handler(key).get()

    def notify_changed(self, key: MetadataKey) -> None:
        """Fire a manual event notification for ``key`` (Section 3.2.3).

        Used when the state behind an on-demand item changed and dependent
        triggered handlers must refresh immediately.  A no-op when the item
        is not included (nothing can depend on an item without a handler).

        Safe to call from any thread.  The lookup is deliberately lock-free
        (a single dict read; ``_handlers`` is only mutated under the graph
        write lock): callers may already hold an item lock, and taking the
        graph lock here would invert the graph -> item hierarchy.  A handler
        excluded concurrently is skipped — either here via the ``removed``
        flag or later by the wave itself.
        """
        handler = self._handlers.get(key)
        if handler is None or handler.removed:
            return
        self.propagation.event_fired(handler)

    def notify_changed_many(self, keys: Iterable[MetadataKey]) -> None:
        """Fire manual event notifications for several keys as one batch.

        All sources are enqueued under a single engine-mutex acquisition, so
        a coalescing propagation engine merges them into one multi-source
        wave: dependents shared between the keys recompute once per batch
        instead of once per key.  Same locking discipline as
        :meth:`notify_changed` (lock-free handler lookup; excluded keys are
        skipped).
        """
        handlers = []
        for key in keys:
            handler = self._handlers.get(key)
            if handler is not None and not handler.removed:
                handlers.append(handler)
        if handlers:
            self.propagation.events_fired(handlers)

    # -- include / exclude machinery (Section 2.4) ----------------------------------------

    def _include(self, key: MetadataKey, stack: list, span: int = 0) -> MetadataHandler:
        """Depth-first inclusion of ``key`` and its dependency closure.

        ``stack`` carries the in-progress traversal path for cycle detection;
        ``span`` is the causal trace-span id of the triggering subscribe (0
        while telemetry is off).  Returns the (new or shared) handler with
        its counter incremented.
        """
        if key not in self._definitions:
            raise UnknownMetadataError(self.owner, key)
        ref = (id(self), key)
        if ref in stack:
            start = stack.index(ref)
            cycle = [f"{self._owner_name()}/{key!r}"] + [
                entry[1] for entry in stack[start + 1 :]
            ]
            raise DependencyCycleError(cycle + [f"{self._owner_name()}/{key!r}"])

        tel = self.system.telemetry
        existing = self._handlers.get(key)
        if existing is not None:
            # "The traversal stops at items already provided" — but the
            # counter still moves, so sharing is accounted for.
            existing.include_count += 1
            if tel is not None:
                tel.emit(IncludeEvent(span=span, node=self._owner_name(),
                                      key=key_of(key), shared=True,
                                      depth=len(stack)))
            return existing

        definition = self._definitions[key]
        handler = create_handler(self, definition)

        stack.append(ref)
        try:
            for spec in definition.resolve_specs(self):
                for target_registry, dep_key in self._resolve_spec(spec):
                    dep_handler = target_registry._include(dep_key, stack, span)
                    handler.dependency_handlers.append((spec, dep_handler))
            # Waves reach the handler through these edges, so it is attached
            # only once every input is resolved: recomputed earlier, it would
            # read an input it does not have yet.
            for spec, dep_handler in handler.dependency_handlers:
                dep_handler.attach_dependent(handler)
        except Exception:
            # Roll back partially included dependencies so a failed subscribe
            # leaves the system unchanged.  A failing cleanup step must not
            # mask the inclusion error being propagated — log it and keep
            # rolling back the remaining dependencies.  The half-built
            # handler is flagged removed so a propagation wave that raced
            # the rollback window never recomputes it.
            handler.removed = True
            handler.retire_lock()
            for spec, dep_handler in handler.dependency_handlers:
                try:
                    dep_handler.detach_dependent(handler)
                    dep_handler.registry._exclude(dep_handler.key)
                except Exception:
                    log.exception(
                        "rollback of failed include %s/%r: could not exclude "
                        "dependency %s/%r",
                        self._owner_name(), key,
                        dep_handler.registry._owner_name(), dep_handler.key,
                    )
            raise
        finally:
            stack.pop()

        for probe_name in definition.monitors:
            self.probe(probe_name).activate()

        self._handlers[key] = handler
        handler.include_count = 1
        try:
            handler.on_included()
        except Exception:
            # Initial computation failed: undo the inclusion entirely.  As
            # above, cleanup failures are logged with the failing handler's
            # key instead of masking the computation error.
            del self._handlers[key]
            handler.removed = True
            handler.retire_lock()
            for probe_name in definition.monitors:
                try:
                    self.probe(probe_name).deactivate()
                except Exception:
                    log.exception(
                        "undo of failed inclusion %s/%r: could not "
                        "deactivate probe %r",
                        self._owner_name(), key, probe_name,
                    )
            for spec, dep_handler in handler.dependency_handlers:
                try:
                    dep_handler.detach_dependent(handler)
                    dep_handler.registry._exclude(dep_handler.key)
                except Exception:
                    log.exception(
                        "undo of failed inclusion %s/%r: could not exclude "
                        "dependency %s/%r",
                        self._owner_name(), key,
                        dep_handler.registry._owner_name(), dep_handler.key,
                    )
            raise
        if tel is not None:
            tel.emit(IncludeEvent(span=span, node=self._owner_name(),
                                  key=key_of(key), shared=False,
                                  depth=len(stack)))
        self.system.handler_created(handler)
        return handler

    def _exclude(self, key: MetadataKey, span: int = 0) -> None:
        """Decrement ``key``'s counter; remove and cascade at zero."""
        handler = self._handlers.get(key)
        if handler is None:
            raise SubscriptionError(
                f"exclude of {key!r} on {self._owner_name()} without inclusion"
            )
        tel = self.system.telemetry
        handler.include_count -= 1
        if handler.include_count > 0:
            if tel is not None:
                tel.emit(ExcludeEvent(span=span, node=self._owner_name(),
                                      key=key_of(key), removed=False))
            return
        del self._handlers[key]
        handler.on_removed()
        # Invalidate cached wave plans: even a handler with no remaining
        # edges must not linger in the plan cache (its id could be reused).
        self.system.propagation.bump_topology()
        if tel is not None:
            tel.emit(ExcludeEvent(span=span, node=self._owner_name(),
                                  key=key_of(key), removed=True))
        for probe_name in handler.definition.monitors:
            self.probe(probe_name).deactivate()
        for spec, dep_handler in handler.dependency_handlers:
            dep_handler.detach_dependent(handler)
            dep_handler.registry._exclude(dep_handler.key, span)
        handler.retire_lock()
        self.system.handler_removed(handler)

    # -- dependency spec resolution ------------------------------------------------------

    def _resolve_spec(self, spec: Any) -> Iterator[tuple["MetadataRegistry", MetadataKey]]:
        """Resolve a symbolic dependency spec to concrete (registry, key) pairs."""
        if isinstance(spec, SelfDep):
            yield self, spec.key
        elif isinstance(spec, NodeDep):
            yield self._registry_of(spec.node), spec.key
        elif isinstance(spec, UpstreamDep):
            for node in self._neighbours("upstream_nodes", spec.port, spec.key):
                yield self._registry_of(node), spec.key
        elif isinstance(spec, DownstreamDep):
            for node in self._neighbours("downstream_nodes", spec.port, spec.key):
                yield self._registry_of(node), spec.key
        elif isinstance(spec, ModuleDep):
            yield self._module_registry(spec.module), spec.key
        else:
            raise MetadataError(f"unknown dependency spec {spec!r}")

    def _neighbours(self, attr: str, port: int | None, key: MetadataKey) -> list:
        nodes = getattr(self.owner, attr, None)
        if nodes is None:
            raise MetadataError(
                f"{self._owner_name()} has no {attr}; cannot resolve dependency on {key!r}"
            )
        nodes = list(nodes)
        if port is None:
            if not nodes:
                raise MetadataError(
                    f"{self._owner_name()} has no {attr} to resolve dependency on {key!r}"
                )
            return nodes
        if port >= len(nodes):
            raise MetadataError(
                f"{self._owner_name()} has no {attr}[{port}] for dependency on {key!r}"
            )
        return [nodes[port]]

    def _module_registry(self, path: str) -> "MetadataRegistry":
        obj = self.owner
        for part in path.split("."):
            getter = getattr(obj, "get_module", None)
            if getter is None:
                raise MetadataError(
                    f"{obj!r} has no modules; cannot resolve module path {path!r}"
                )
            obj = getter(part)
        return self._registry_of(obj)

    @staticmethod
    def _registry_of(obj: Any) -> "MetadataRegistry":
        registry = getattr(obj, "metadata", None)
        if not isinstance(registry, MetadataRegistry):
            raise MetadataError(f"{obj!r} has no metadata registry")
        return registry

    # -- misc --------------------------------------------------------------------------

    def _owner_name(self) -> str:
        return str(getattr(self.owner, "name", self.owner))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"MetadataRegistry({self._owner_name()}, "
            f"defined={len(self._definitions)}, included={len(self._handlers)})"
        )
