"""Metadata handlers — the update mechanisms of Section 3.

A :class:`MetadataHandler` is created when a metadata item is included for the
first time and removed when its inclusion counter drops back to zero
(Section 2.1).  There is exactly one handler per included item; it acts as a
proxy that

* synchronizes concurrent access of multiple consumers (item-level lock),
* guarantees a consistent view on the value during updates, and
* carries the reference counter that implements handler sharing.

Four concrete handler types implement Figure 2's maintenance concepts:

=====================  ====================================================
:class:`StaticHandler`     computes/stores the value once (static metadata)
:class:`OnDemandHandler`   recomputes the value on every access
:class:`PeriodicHandler`   refreshes the value every ``period`` time units
:class:`TriggeredHandler`  refreshes when a dependency changes or an event
                           notification fires
=====================  ====================================================
"""

from __future__ import annotations

import logging
import threading
import time
from typing import TYPE_CHECKING, Any, Sequence

from repro.common.errors import HandlerError, MetadataNotIncludedError
from repro.metadata.item import (
    ComputeContext,
    DependencySpec,
    Mechanism,
    MetadataDefinition,
    MetadataKey,
)
from repro.reliability.breaker import CircuitBreaker, CircuitState
from repro.telemetry.events import (
    CircuitClose,
    CircuitHalfOpen,
    CircuitOpen,
    HandlerFailure,
    HandlerRefresh,
    RetryScheduled,
    key_of,
    node_of,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.metadata.registry import MetadataRegistry

__all__ = [
    "MetadataHandler",
    "StaticHandler",
    "OnDemandHandler",
    "PeriodicHandler",
    "TriggeredHandler",
    "create_handler",
]

log = logging.getLogger(__name__)

_UNSET = object()


class MetadataHandler:
    """Base class of all metadata handlers.

    Subclasses implement :meth:`get` (consumer access) and may override the
    lifecycle hooks :meth:`on_included` / :meth:`on_removed` and the change
    reaction :meth:`on_dependency_changed`.
    """

    mechanism: Mechanism

    #: Whether every refresh is published to dependents even when the value
    #: is numerically unchanged.  True for periodic handlers: each refresh is
    #: a new *measurement sample*, and dependent aggregates (the average input
    #: rate of Section 3.2.3) must fold every sample.  False for triggered
    #: handlers, whose value is a function of their inputs — an unchanged
    #: value cannot affect dependents, so propagation is cut short.
    publishes_every_update = False

    def __init__(self, registry: "MetadataRegistry", definition: MetadataDefinition) -> None:
        self.registry = registry
        self.definition = definition
        self.key: MetadataKey = definition.key
        # (spec, handler) pairs resolved by the registry at inclusion time.
        self.dependency_handlers: list[tuple[DependencySpec, "MetadataHandler"]] = []
        # (length of the list above when indexed, key -> its handlers in
        # resolution order), for compute-time reads; one tuple so a rebuild
        # is published atomically.
        self._dependency_index: tuple[
            int, dict[MetadataKey, list["MetadataHandler"]]] = (0, {})
        # Handlers that depend on this one and expect change notifications.
        # Kept as an ordered identity set; duplicates are rejected so that a
        # node subscribing via several paths is notified once (Section 3.2.3:
        # "duplicate subscriptions by the same node are detected to avoid
        # redundant notifications").  Guarded by its own mutex: the registry
        # attaches outside the graph lock and detaches under it, and
        # propagation waves read it from scheduler worker threads without
        # taking the graph lock (taking it there would invert the graph ->
        # item lock hierarchy).
        self._dependents: dict[int, "MetadataHandler"] = {}
        self._dependents_mutex = threading.Lock()
        self.include_count = 0
        self.consumer_count = 0  # explicit consumer subscriptions only
        self._value: Any = _UNSET
        self._lock = registry.lock_policy.item_lock(self)
        self.update_count = 0
        self.access_count = 0
        self.compute_count = 0
        self.last_update_time: float | None = None
        self.removed = False
        #: The registry's in-flight include that created this handler, until
        #: its initial computation succeeded (``None`` from then on).
        self.pending: Any = None
        self._compare_warned = False
        # Set here, filled on first use (see ``names``): caching through
        # ``functools.cached_property`` writes via ``__dict__``, which
        # takes every later attribute load of the handler off CPython's
        # inline-values fast path.
        self._names: tuple[str, str] | None = None
        self._ident: str | None = None
        # Handlers without a failure policy carry no breaker at all: the
        # refresh hot path then pays one `is None` check, mirroring the
        # telemetry discipline (bench_fault_overhead.py records what a
        # breaker costs on top).
        policy = definition.failure_policy
        self.breaker: CircuitBreaker | None = (
            CircuitBreaker(policy, registry.clock, salt=self.ident)
            if policy is not None else None)

    # -- identity ----------------------------------------------------------

    @property
    def ref(self) -> tuple:
        """Globally unique ``(owner, key)`` reference of the item."""
        return (self.registry.owner, self.key)

    @property
    def names(self) -> tuple[str, str]:
        """``(node, key)``: the item's name in trace records, computed once."""
        names = self._names
        if names is None:
            names = self._names = (node_of(self), key_of(self.key))
        return names

    @property
    def ident(self) -> str:
        """``node/key``: the item's name in a ``wave.refresh``'s ``via``."""
        ident = self._ident
        if ident is None:
            ident = self._ident = "/".join(self.names)
        return ident

    def __repr__(self) -> str:
        owner = getattr(self.registry.owner, "name", self.registry.owner)
        return (
            f"{type(self).__name__}({owner}/{self.key!r}, "
            f"includes={self.include_count}, updates={self.update_count})"
        )

    # -- value management ----------------------------------------------------

    def _compute(self) -> Any:
        """Evaluate the definition's compute function."""
        self.compute_count += 1
        ctx = ComputeContext(self.registry, self)
        try:
            return self.definition.compute(ctx)
        except MetadataNotIncludedError:
            raise
        except Exception as exc:  # noqa: BLE001 - wrap provider failures
            raise HandlerError(
                f"computing metadata {self.ref} failed: {exc}"
            ) from exc

    def _store(self, value: Any) -> bool:
        """Replace the cached value; return True when it actually changed."""
        old = self._value
        self._value = value
        self.update_count += 1
        self.last_update_time = self.registry.clock.now()
        if old is _UNSET:
            return True
        try:
            return bool(old != value)
        except (TypeError, ValueError):
            # Non-comparable value types: assume changed.  Narrowed from a
            # bare Exception so a provider bug in __eq__ (KeyError and
            # friends) surfaces instead of being masked as "changed";
            # logged once per handler to keep the hot path quiet.
            if not self._compare_warned:
                self._compare_warned = True
                log.debug(
                    "metadata %r on %s: value comparison raised; treating "
                    "every store as a change", self.key,
                    getattr(self.registry.owner, "name", self.registry.owner))
            return True

    @property
    def propagates_always(self) -> bool:
        """Publish every refresh, not only value changes (see class docs)."""
        return self.publishes_every_update or self.definition.always_propagate

    def refresh(self) -> None:
        """Recompute the value now and propagate to dependents — a lone
        refresh is a one-source wave (a scheduler tick publishes through its
        own wave instead, see :meth:`PeriodicHandler.periodic_refresh`)."""
        tel = self.registry.system.telemetry
        t0 = time.monotonic() if tel is not None else 0.0
        publish = self._refresh_value()
        if tel is not None:
            node, key = self.names
            tel.emit(HandlerRefresh(node=node, key=key, changed=publish,
                                    duration=time.monotonic() - t0))
        if publish:
            self.registry.propagation.value_changed(self)

    def _refresh_value(self) -> bool:
        """Recompute and store the value now; return whether dependents must
        be told (value changed, or this handler publishes every update).

        With a failure policy attached, the attempt is circuit-governed: a
        quarantined handler returns quietly (consumers keep the stale
        last-good value), and the final failure of the retry budget still
        raises — the caller (typically the periodic scheduler) owns logging
        and the backoff re-arm.
        """
        self._ensure_included()
        if self.breaker is not None:
            outcome = self._guarded_attempt(retries=0)
            if outcome is None:
                return False  # quarantined: rest until the next probe is due
            changed = outcome
        else:
            with self._lock.write():
                changed = self._store(self._compute())
        # Re-check after releasing the item lock: a concurrent exclusion that
        # won the race gets a quiet exit instead of a post-removal wave.
        return not self.removed and (changed or self.propagates_always)

    def recompute_for_propagation(self) -> bool:
        """Recompute during a propagation wave; return whether dependents
        must be told (value changed, or this handler publishes every update).

        Unlike :meth:`refresh` this does *not* start a new wave — the running
        wave already covers the dependent closure in topological order.
        With a failure policy the wave retries immediately (a wave cannot
        sleep); quarantine skips return False so the wave serves the stale
        value downstream, and the final failure raises into the engine's
        error accounting, which poisons exactly this dependent subtree.
        """
        self._ensure_included()
        if self.breaker is not None:
            outcome = self._guarded_attempt(
                retries=self.breaker.policy.max_retries)
            if outcome is None:
                return False  # quarantined mid-wave: keep last-good value
            return outcome or self.propagates_always
        with self._lock.write():
            changed = self._store(self._compute())
        return changed or self.propagates_always

    # -- failure-policy machinery ------------------------------------------

    def _guarded_attempt(self, retries: int,
                         emit_refresh: bool = False) -> bool | None:
        """Circuit-governed compute+store with up to ``1 + retries``
        immediate attempts; ``emit_refresh`` records a successful one as a
        ``handler.refresh`` (an on-demand read, which no caller records).

        Returns the changed flag, or ``None`` when the circuit is
        quarantined with no probe due (the caller serves the last-good
        value).  The last failure of the budget re-raises after the breaker
        recorded it.  Immediate retries are for paths that cannot sleep
        (waves, on-demand access); the periodic backoff retry *is* the
        scheduler re-arm, so periodic callers pass ``retries=0``.
        """
        breaker = self.breaker
        assert breaker is not None
        tel = self.registry.system.telemetry
        allowed, probing = breaker.allow_attempt()
        if probing is not None and tel is not None:
            node, key = self.names
            tel.emit(CircuitHalfOpen(node=node, key=key))
        if not allowed:
            return None
        deadline = breaker.policy.attempt_deadline
        attempt = 0
        while True:
            attempt += 1
            t0 = time.monotonic()
            try:
                with self._lock.write():
                    changed = self._store(self._compute())
            except MetadataNotIncludedError:
                raise
            except Exception as exc:  # noqa: BLE001 - every provider failure feeds the breaker
                self._record_failure(exc, tel, deadline_exceeded=False)
                if attempt <= retries and not breaker.attempt_blocked():
                    if tel is not None:
                        node, key = self.names
                        tel.emit(RetryScheduled(node=node, key=key,
                                                attempt=attempt, delay=0.0))
                    continue
                raise
            duration = time.monotonic() - t0
            if deadline is not None and duration > deadline:
                # The attempt produced (and kept) a value but overran its
                # budget: slow is failing as far as the circuit is concerned,
                # while consumers still get the fresh data.
                self._record_failure(
                    HandlerError(
                        f"metadata {self.ref} attempt exceeded deadline "
                        f"({duration:.3f}s > {deadline:.3f}s)"),
                    tel, deadline_exceeded=True)
            else:
                transition = breaker.record_success()
                if transition is not None and tel is not None:
                    node, key = self.names
                    tel.emit(CircuitClose(node=node, key=key))
            if emit_refresh and tel is not None:
                node, key = self.names
                tel.emit(HandlerRefresh(node=node, key=key, changed=changed,
                                        duration=duration))
            return changed

    def _record_failure(self, exc: BaseException, tel: Any,
                        deadline_exceeded: bool) -> None:
        breaker = self.breaker
        assert breaker is not None
        transition = breaker.record_failure(exc)
        if tel is not None:
            streak = breaker.consecutive_failures
            node, key = self.names
            tel.emit(HandlerFailure(
                node=node, key=key,
                error=f"{type(exc).__name__}: {exc}"[:200],
                consecutive=streak, deadline_exceeded=deadline_exceeded))
            if transition in ("open", "reopen"):
                tel.emit(CircuitOpen(node=node, key=key,
                                     failures=streak,
                                     reopened=transition == "reopen"))

    @property
    def stale(self) -> bool:
        """Stale-while-failing flag: True while this handler's circuit is
        unhealthy and reads are served from the last-good value."""
        breaker = self.breaker
        return (breaker is not None and self.has_value
                and breaker.state is not CircuitState.HEALTHY)

    def peek_status(self) -> tuple[Any, bool]:
        """Stale-while-failing read: ``(last-good value, stale flag)``."""
        return self.peek(), self.stale

    def peek(self) -> Any:
        """Return the cached value without recomputation or access counting.

        Raises :class:`HandlerError` when no value has been computed yet.
        """
        with self._lock.read():
            if self._value is _UNSET:
                raise HandlerError(f"metadata {self.ref} has no value yet")
            return self._value

    @property
    def has_value(self) -> bool:
        return self._value is not _UNSET

    def get(self) -> Any:
        """Consumer access; mechanism-specific, implemented by subclasses."""
        raise NotImplementedError

    def _ensure_included(self) -> None:
        if self.removed:
            raise MetadataNotIncludedError(
                f"metadata handler {self.ref} has been removed"
            )

    # -- dependency plumbing ---------------------------------------------------

    def dependencies_with_key(self, key: MetadataKey) -> Sequence["MetadataHandler"]:
        """Resolved dependencies whose key is ``key``, in resolution (port)
        order; empty when there is none."""
        resolved = self.dependency_handlers
        size, index = self._dependency_index
        if size != len(resolved):
            index = {}
            for _spec, dependency in resolved:
                index.setdefault(dependency.key, []).append(dependency)
            self._dependency_index = (len(resolved), index)
        return index.get(key, ())

    def attach_dependent(self, dependent: "MetadataHandler") -> bool:
        """Register ``dependent`` for change notifications.

        Returns ``False`` (and does nothing) when the dependent is already
        registered — the duplicate-notification suppression of Section 3.2.3.
        """
        with self._dependents_mutex:
            if id(dependent) in self._dependents:
                return False
            self._dependents[id(dependent)] = dependent
        # Outside the dependents mutex (the engine mutex is a leaf lock):
        # the dependent graph changed, so cached wave plans are stale.
        self.registry.propagation.bump_topology()
        return True

    def detach_dependent(self, dependent: "MetadataHandler") -> None:
        with self._dependents_mutex:
            detached = self._dependents.pop(id(dependent), None) is not None
        if detached:
            self.registry.propagation.bump_topology()

    def dependents(self) -> Sequence["MetadataHandler"]:
        with self._dependents_mutex:
            return tuple(self._dependents.values())

    def on_dependency_changed(self, dependency: "MetadataHandler") -> bool:
        """React to a change of a dependency.

        Returns ``True`` when this handler wants to be refreshed by the
        propagation engine.  Only triggered handlers react (Section 3.2.3).
        """
        return False

    # -- lifecycle hooks ------------------------------------------------------

    def on_included(self) -> None:
        """Called once after dependencies are resolved and monitors active."""

    def on_removed(self) -> None:
        """Called once when the handler is being removed."""
        self.removed = True

    def retire_lock(self) -> None:
        """Hand the item lock back to the lock policy.  Called by the
        registry once the handler has left it — removed at refcount zero, or
        never fully included — so the policy stops tracking the lock."""
        self.registry.lock_policy.retire(self._lock)


class StaticHandler(MetadataHandler):
    """Handler for invariable metadata: the value is fixed at inclusion."""

    mechanism = Mechanism.STATIC

    def on_included(self) -> None:
        with self._lock.write():
            if self.definition.compute is not None:
                self._store(self._compute())
            else:
                self._store(self.definition.value)

    def get(self) -> Any:
        self._ensure_included()
        self.access_count += 1
        return self.peek()


class OnDemandHandler(MetadataHandler):
    """Recomputes the value on every access (Section 3.2.1).

    Cheap or rarely accessed items use this mechanism; it offers the highest
    freshness but no isolation between consumers whose computation consumes
    shared monitoring state (Figure 4) — that is precisely the failure mode
    periodic handlers exist to fix, and the concurrent-access benchmark
    demonstrates it.
    """

    mechanism = Mechanism.ON_DEMAND

    def get(self) -> Any:
        self._ensure_included()
        self.access_count += 1
        if self.breaker is None:
            with self._lock.write():
                value = self._compute()
                self._store(value)
                return value
        # Policy-governed access: retry immediately (a consumer read cannot
        # sleep), and while quarantined — or when the retry budget is spent —
        # serve the last-good value flagged stale instead of raising.
        policy = self.breaker.policy
        try:
            outcome = self._guarded_attempt(retries=policy.max_retries,
                                            emit_refresh=True)
        except MetadataNotIncludedError:
            raise
        except Exception:  # noqa: BLE001 - breaker recorded it; stale read below
            if policy.stale_while_failing and self.has_value:
                return self.peek()
            raise
        if outcome is None:
            if policy.stale_while_failing and self.has_value:
                return self.peek()
            raise HandlerError(
                f"metadata {self.ref} is quarantined after repeated "
                f"failures and has no last-good value to serve")
        return self.peek()


class PeriodicHandler(MetadataHandler):
    """Refreshes the value every ``period`` time units (Section 3.2.2).

    Between refreshes all consumers read the same pre-computed value, which is
    at most one period old but *consistent* — the isolation condition.  The
    registry's periodic scheduler drives :meth:`periodic_refresh`.
    """

    mechanism = Mechanism.PERIODIC
    publishes_every_update = True  # every refresh is a new measurement sample

    def __init__(self, registry: "MetadataRegistry", definition: MetadataDefinition) -> None:
        super().__init__(registry, definition)
        self.period: float = float(definition.period)  # type: ignore[arg-type]
        self._task = None

    def on_included(self) -> None:
        # Seed the value so consumers never observe an empty handler, then
        # hand the refresh cadence to the scheduler.
        with self._lock.write():
            self._store(self._compute())
        self._task = self.registry.scheduler.register(self)

    def on_removed(self) -> None:
        # Set the removed flag *before* unregistering: a refresh already in
        # flight on a worker thread then observes it and becomes a no-op,
        # instead of recomputing and propagating after exclusion.
        super().on_removed()
        if self._task is not None:
            self.registry.scheduler.unregister(self._task)
            self._task = None

    def periodic_refresh(self) -> bool:
        """One scheduler tick: recompute from the information gathered during
        the elapsed window; return whether the new value is published.  The
        tick's wave calls this when its pass reaches the handler, so the
        publication needs no wave of its own."""
        if self.removed:
            return False
        try:
            return self._refresh_value()
        except MetadataNotIncludedError:
            # Removed concurrently between the check above and the refresh —
            # a clean cancellation, not an error the scheduler should count.
            return False

    def reschedule_delay(self) -> float | None:
        """Scheduler re-arm override after a tick.

        ``None`` keeps the default drift-free period grid (``deadline +
        period``) — always the case without a failure policy or while the
        circuit is healthy, so the no-fault cadence is byte-identical to
        the pre-reliability one.  With an unhealthy breaker, the periodic
        retry *is* the re-arm: backoff while retrying, the remaining
        quarantine rest while quarantined.
        """
        breaker = self.breaker
        if breaker is None:
            return None
        return breaker.reschedule_delay()

    def get(self) -> Any:
        self._ensure_included()
        self.access_count += 1
        return self.peek()


class TriggeredHandler(MetadataHandler):
    """Pre-computed value refreshed on events (Section 3.2.3).

    The value is computed on first subscription and afterwards only when one
    of the item's dependencies changes or a manual event notification fires.
    Updates arrive via the propagation engine, which orders them along the
    inverted dependency graph.
    """

    mechanism = Mechanism.TRIGGERED

    def on_included(self) -> None:
        with self._lock.write():
            self._store(self._compute())

    def on_dependency_changed(self, dependency: MetadataHandler) -> bool:
        return not self.removed

    def get(self) -> Any:
        self._ensure_included()
        self.access_count += 1
        return self.peek()


_HANDLER_TYPES: dict[Mechanism, type[MetadataHandler]] = {
    Mechanism.STATIC: StaticHandler,
    Mechanism.ON_DEMAND: OnDemandHandler,
    Mechanism.PERIODIC: PeriodicHandler,
    Mechanism.TRIGGERED: TriggeredHandler,
}


def create_handler(
    registry: "MetadataRegistry", definition: MetadataDefinition
) -> MetadataHandler:
    """Instantiate the pre-implemented handler type for ``definition``.

    This is the factory behind the paper's "PIPES provides pre-implementations
    of metadata handlers for the update mechanisms ... the developer just has
    to parameterize them with a function that evaluates the metadata value."
    """
    return _HANDLER_TYPES[definition.mechanism](registry, definition)
