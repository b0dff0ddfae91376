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
the clock, the periodic scheduler, the propagation engine, the lock policy
and global accounting.

Locking (Section 4.2)
---------------------

Structural mutations take the system's one graph write lock; waves and
reads take none.  An include runs in two phases so that no initial
computation runs under that lock:

1. **Link**, under the graph write lock: walk the closure, detect cycles,
   create the new handlers, move the counters and enter the new handlers
   in ``_handlers`` as *pending*.
2. **Activate**, after the lock is released: in dependency order, attach
   each new handler to its inputs, activate its probes and run its initial
   computation (``on_included``) under its own item lock; then it is ready.

A subscribe that shares another call's pending handler waits until that
handler is ready, and raises the same error if its initial computation
failed.  A failed include retakes the graph lock and unlinks its whole
closure.
"""

from __future__ import annotations

import logging
import threading
from typing import Any, Iterable, Iterator, Sequence

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
    IncludeEvent,
    SubscribeEvent,
    UnsubscribeEvent,
    key_of,
)
from repro.telemetry.hub import Telemetry

__all__ = ["MetadataSystem", "MetadataRegistry", "MetadataSubscription"]

#: Failures on cleanup paths (rollback of a failed subscribe, unregister of
#: an unknown registry) are logged here rather than raised: raising would
#: mask the original error the cleanup was handling.
log = logging.getLogger(__name__)


class _Inclusion:
    """One subscribe call between its two phases (see the module docs)."""

    __slots__ = ("created", "shared", "error", "done")

    def __init__(self) -> None:
        #: ``(handler, depth)`` of every handler this call created, in
        #: dependency order (inputs first).
        self.created: list[tuple[MetadataHandler, int]] = []
        #: Other calls' pending handlers this call shares.
        self.shared: list[MetadataHandler] = []
        self.error: BaseException | None = None
        self.done = False


class MetadataSystem:
    """Shared services and accounting for a family of registries.

    One system is created per query graph (or per test fixture).  It owns the
    clock, the periodic-update scheduler, the triggered-update propagation
    engine and the lock policy; registries delegate to it.
    """

    def __init__(
        self,
        clock: Clock,
        scheduler: PeriodicScheduler,
        lock_policy: LockPolicy | None = None,
        propagation: PropagationEngine | None = None,
    ) -> None:
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
        #: The graph-level lock: structural mutations take it for writing.
        self.structure_lock = self.lock_policy.graph_lock()
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
        # Signalled whenever an inclusion's activation phase ends; the
        # subscribes sharing its pending handlers wait on it.
        self._activated = threading.Condition()

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

    def _finish(self, inclusion: _Inclusion) -> None:
        """End ``inclusion``'s activation phase and wake its sharers."""
        with self._activated:
            inclusion.done = True
            self._activated.notify_all()

    def _await(self, handlers: Sequence[MetadataHandler]) -> None:
        """Wait until every pending handler in ``handlers`` is ready; raise
        the error of the first whose initial computation failed."""
        with self._activated:
            for handler in handlers:
                inclusion = handler.pending
                while inclusion is not None and not inclusion.done:
                    self._activated.wait()
        for handler in handlers:
            inclusion = handler.pending
            if inclusion is not None:
                assert inclusion.error is not None
                raise inclusion.error

    def enable_telemetry(self, capacity: int = 4096) -> Telemetry:
        """Attach (or return the already-attached) telemetry hub.

        Wires the hub into the propagation engine and the scheduler so their
        hot-path hooks see it through one attribute; registries and handlers
        reach it via ``system.telemetry``.  Idempotent.
        """
        if self.telemetry is None:
            telemetry = Telemetry(self.clock, capacity)
            # Handlers included before the hub came are named on the wire
            # with their mechanism too.
            for registry in self.registries():
                for key in registry.included_keys():
                    handler = registry.handler(key)
                    telemetry.mechanisms[handler.names] = handler.mechanism.value
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

    def handler_created(self) -> None:
        with self._accounting_mutex:
            self.handlers_created += 1

    def handler_removed(self) -> None:
        with self._accounting_mutex:
            self.handlers_removed += 1

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
        self._definitions: dict[MetadataKey, MetadataDefinition] = {}
        self._handlers: dict[MetadataKey, MetadataHandler] = {}
        self._probes: dict[str, Probe] = {}
        self.node_lock = system.lock_policy.node_lock(owner)
        #: ``clock.now``, bound once: every store and ``ctx.now`` call it.
        self.now = system.clock.now
        #: Guards every handler's dependents set (see ``MetadataHandler``).
        self.dependents_mutex = threading.Lock()
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
        with self.system.structure_lock.write():
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
        with self.system.structure_lock.write():
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
        with self.system.structure_lock.write():
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
        return self.subscribe_many([key])[0]

    def subscribe_many(
        self, keys: Iterable[MetadataKey]
    ) -> list["MetadataSubscription"]:
        """Subscribe to several metadata items under ONE lock acquisition.

        The per-key path acquires the graph write lock once per subscribe;
        installing a query that consumes dozens of items pays that cost —
        and the include-cascade bookkeeping — once per key.  The bulk path
        links the transitive include-closure of all ``keys`` inside a single
        graph write-lock critical section: shared dependencies are resolved
        once and reused by reference for the rest of the batch.

        Atomic: if any key fails to include, the already-included keys are
        rolled back and the system is left unchanged.  Returns one
        subscription per key, in input order (duplicates allowed — each gets
        its own subscription against the shared handler).  The include runs
        in two phases (see the module docs).
        """
        keys = list(keys)
        system = self.system
        tel = system.telemetry
        span = 0
        if tel is not None:
            span = tel.bus.new_span()
            for key in keys:
                tel.emit(SubscribeEvent(span=span, node=self._owner_name(),
                                        key=key_of(key)))
        inclusion = _Inclusion()
        roots: list[MetadataHandler] = []
        with system.structure_lock.write():
            try:
                for key in keys:
                    roots.append(self._link(key, [], inclusion, span))
            except Exception:
                self._unlink(roots, span)
                raise
            for handler in roots:
                handler.consumer_count += 1
        if inclusion.created or inclusion.shared:
            try:
                system._await(inclusion.shared)
                for handler, depth in inclusion.created:
                    handler.registry._activate(handler, depth, span)
            except BaseException as exc:
                inclusion.error = exc
                with system.structure_lock.write():
                    for handler in roots:
                        handler.consumer_count -= 1
                    self._unlink(roots, span)
                raise
            finally:
                if inclusion.created:
                    system._finish(inclusion)
        return [MetadataSubscription(self, handler) for handler in roots]

    def _unsubscribe(self, handler: MetadataHandler) -> None:
        tel = self.system.telemetry
        span = 0
        if tel is not None:
            span = tel.bus.new_span()
            tel.emit(UnsubscribeEvent(span=span, node=self._owner_name(),
                                      key=key_of(handler.key)))
        with self.system.structure_lock.write():
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

    def _link(self, key: MetadataKey, stack: list, inclusion: _Inclusion,
              span: int) -> MetadataHandler:
        """Phase 1, under the graph write lock: depth-first linking of
        ``key`` and its dependency closure.

        ``stack`` carries the in-progress traversal path for cycle detection;
        ``span`` is the causal trace-span id of the triggering subscribe (0
        while telemetry is off).  Returns the (new or shared) handler with
        its counter incremented; a new one is pending, and listed in
        ``inclusion.created`` after its inputs.
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

        existing = self._handlers.get(key)
        if existing is not None:
            # "The traversal stops at items already provided" — but the
            # counter still moves, so sharing is accounted for.
            existing.include_count += 1
            pending = existing.pending
            if pending is not None and pending is not inclusion:
                inclusion.shared.append(existing)
            tel = self.system.telemetry
            if tel is not None:
                tel.emit(IncludeEvent(span=span, node=self._owner_name(),
                                      key=key_of(key), shared=True,
                                      depth=len(stack),
                                      mechanism=existing.mechanism.value))
            return existing

        definition = self._definitions[key]
        handler = create_handler(self, definition)
        stack.append(ref)
        try:
            for spec in definition.resolve_specs(self):
                for target_registry, dep_key in self._resolve_spec(spec):
                    handler.dependency_handlers.append(
                        (spec, target_registry._link(dep_key, stack, inclusion, span)))
        except Exception:
            # Unlink the dependencies linked so far, so a failed subscribe
            # leaves the system unchanged.
            handler.retire_lock()
            self._unlink([dep for _spec, dep in handler.dependency_handlers], span)
            raise
        finally:
            stack.pop()
        handler.pending = inclusion
        handler.include_count = 1
        self._handlers[key] = handler
        inclusion.created.append((handler, len(stack)))
        return handler

    def _activate(self, handler: MetadataHandler, depth: int, span: int) -> None:
        """Phase 2, with no graph lock held: attach ``handler`` to its (ready)
        inputs, activate its probes and run its initial computation.

        On failure the handler is left linked but inactive — detached, its
        probes deactivated, flagged removed so a wave that raced the window
        skips it — for the caller to unlink.
        """
        activated = []
        try:
            # Waves reach the handler through these edges, so it is attached
            # only once every input is ready.
            for _spec, dep_handler in handler.dependency_handlers:
                dep_handler.attach_dependent(handler)
            for probe_name in handler.definition.monitors:
                probe = self.probe(probe_name)
                probe.activate()
                activated.append(probe)
            handler.on_included()
        except Exception:
            handler.removed = True
            for probe in activated:
                try:
                    probe.deactivate()
                except Exception:
                    log.exception(
                        "undo of failed inclusion %s/%r: could not "
                        "deactivate probe %r",
                        self._owner_name(), handler.key, probe.name,
                    )
            for _spec, dep_handler in handler.dependency_handlers:
                dep_handler.detach_dependent(handler)
            raise
        handler.pending = None
        tel = self.system.telemetry
        if tel is not None:
            tel.emit(IncludeEvent(span=span, node=self._owner_name(),
                                  key=key_of(handler.key), shared=False,
                                  depth=depth,
                                  mechanism=handler.mechanism.value))
        self.system.handler_created()

    def _unlink(self, handlers: Sequence[MetadataHandler], span: int) -> None:
        """Exclude each of ``handlers`` once, under the graph write lock — the
        rollback of a failed include.  A failing step is logged, not raised:
        it must not mask the error being rolled back."""
        for handler in reversed(handlers):
            try:
                handler.registry._exclude(handler.key, span)
            except Exception:
                log.exception(
                    "rollback of failed include on %s: could not exclude "
                    "%s/%r", self._owner_name(),
                    handler.registry._owner_name(), handler.key,
                )

    def _exclude(self, key: MetadataKey, span: int = 0) -> None:
        """Decrement ``key``'s counter; remove and cascade at zero.  A
        handler that never became ready has no probes to deactivate and was
        never counted as created."""
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
                                      key=key_of(key), removed=False,
                                      mechanism=handler.mechanism.value))
            return
        del self._handlers[key]
        handler.on_removed()
        # Invalidate cached wave plans: even a handler with no remaining
        # edges must not linger in the plan cache (its id could be reused).
        self.system.propagation.bump_topology()
        ready = handler.pending is None
        if ready:
            if tel is not None:
                tel.emit(ExcludeEvent(span=span, node=self._owner_name(),
                                      key=key_of(key), removed=True,
                                      mechanism=handler.mechanism.value))
            for probe_name in handler.definition.monitors:
                self.probe(probe_name).deactivate()
        for spec, dep_handler in handler.dependency_handlers:
            dep_handler.detach_dependent(handler)
            dep_handler.registry._exclude(dep_handler.key, span)
        handler.retire_lock()
        if ready:
            self.system.handler_removed()

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
