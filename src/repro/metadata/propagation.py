"""Triggered-update propagation along the inverted dependency graph.

Section 3.2.3: "Whenever the value of a metadata item changes that is
maintained by a periodic or triggered handler, all dependent triggered
handlers are notified and updated automatically. ... triggering updates may
proceed recursively following the edges of the inverted dependency graph."

Section 3.2.3 (Synchronization) adds the correctness requirements this engine
implements: "(i) updates have to be performed in the right order, and (ii)
updates need to be synchronized.  The update order is basically determined by
the inverted dependency graph."

Naive recursion would recompute diamond-shaped dependents once per path,
transiently exposing inconsistent values (the ablation lives in
``benchmarks/bench_propagation_ordering.py``).  Every change therefore
starts a *wave*, and every wave is the same two steps:

**Plan** (:meth:`PropagationEngine._build_plan`, the only walker of
dependent edges) — the closure of handlers reachable from the wave's seeds,
topologically ordered, each entry carrying its in-plan predecessors.  A plan
is pure *structure*: it changes only on subscription-graph operations
(include / exclude / define / undefine), while waves fire on every metadata
change.  Single-seed plans and scheduler ticks' plans (few, and repeating)
are therefore memoized — one slot per leading seed — under a
monotonically increasing **topology epoch** that
:class:`~repro.metadata.registry.MetadataRegistry` bumps through
:meth:`~PropagationEngine.bump_topology` on every wiring change.
``plan_cache=False`` is the same engine building the plan and not storing it.

**Loop** (:meth:`PropagationEngine._wave`, the only caller of a recompute) —
one forward pass over the plan deciding, per entry and from its
predecessors' outcomes alone:

1. *membership*: reaction hooks (``on_dependency_changed``) are dynamic, so
   they are evaluated on every wave, once per edge out of a wave member;
2. *poison*: a member whose input kept a stale value (failed recompute,
   quarantined circuit, poisoned cross-shard arrival) is skipped and
   poisons its own dependents — fault containment with the exact law
   ``planned == refreshes + skipped_poisoned``;
3. *change cut*: a member none of whose inputs changed is ``suppressed``
   (unchanged values cut the propagation short, saving work);
4. otherwise the handler recomputes, exactly once per wave.

What differs between kinds of wave is only where the seeds come from:

* a **source wave** has one seed, changed by fiat (its notification said
  so).  Manual event notifications (Section 3.2.3, for on-demand sources
  whose state change must be reflected immediately) enter through
  :meth:`~PropagationEngine.event_fired`: the source is not recomputed, its
  on-demand ``get`` recomputes lazily when a refreshed dependent reads it;
* a **coalesced wave** has several, so every shared dependent recomputes
  once reading all merged source values — glitch-freedom across sources,
  the batching analogue of incremental view maintenance.  Its main producer
  is the **scheduler tick** (:meth:`~PropagationEngine.tick`): every
  periodic item due at one instant arrives as one call, and its seeds are
  *refreshed inside the pass*, each at its topological position — so a
  periodic item reads this tick's values of everything upstream, is
  computed exactly once per tick, joins the wave changed if it published
  and poisoned if its provider failed, and is not counted as a wave
  refresh (``planned`` / ``refreshes`` are about the dependents).  The
  others are event batches (:meth:`~PropagationEngine.events_fired`) and
  whatever separately enqueued calls the drainer finds queued together; an
  event seed downstream of another seed recomputes only if that one
  changed an input of it.  ``wave_count`` still counts *sources processed*
  (exact lost-wave accounting survives coalescing); ``drain_count`` counts
  physical passes and ``coalesced_source_count`` the sources that shared
  one.  One enqueue call is one queue entry under one causal span;
* a **continuation wave** is seeded by cross-shard *arrivals* (below): its
  seeds are ordinary members whose extra input, the foreign origin, arrived
  changed or poisoned.

Thread safety
-------------

Section 3.2.3 requires that triggered updates are "synchronized", and
Section 4.3 runs periodic refreshes — which feed this engine — on a pool of
worker threads.  The engine therefore serializes waves across threads:

* every :meth:`~PropagationEngine.value_changed` /
  :meth:`~PropagationEngine.event_fired` /
  :meth:`~PropagationEngine.events_fired` / :meth:`~PropagationEngine.tick`
  call enqueues exactly one entry on a mutex-guarded deque,
* at most one thread at a time (the *drainer*) pops entries and runs waves,
  run-to-completion, in FIFO order — a tick that finds the drainer busy on
  another thread refreshes its seeds on its own thread first, so a worker
  pool's computes are never serialized behind it,
* the drainer role is handed off under the mutex: a thread only gives the
  role up in the same critical section in which it observes the queue empty,
  so a source enqueued concurrently is either seen by the retiring drainer
  or its enqueuer becomes the next drainer — no wave can be lost.

Waves fired from within a running wave (a refresh that calls
``notify_changed``) are queued behind the current wave, preserving
single-threaded run-to-completion semantics.

Shard boundaries
----------------

Every metadata system propagates through a :class:`ShardedPropagationBackend`
holding one engine per shard.  With more than one shard each engine carries
a :attr:`router` and a :attr:`shard_index`; plan construction records
dependent edges whose far end lives on a *foreign* shard as **boundary
edges** instead of walking them, and the wave forwards each changed (or
poisoned) boundary crossing to the destination shard's engine through
:meth:`~PropagationEngine.remote_enqueued` — an enqueue, never a lock
acquisition, so no thread ever holds two shards' structures mid-wave.  The
destination's own drainer runs the arrivals as a continuation wave, which
carries the originating span id for causal traces and keeps ``planned ==
refreshes + skipped_poisoned`` exact per shard (and therefore globally).

Routed waves end at the values of one in-order pass because every member is
refreshed again after each change of its inputs — except through an
on-demand item, which never notifies.  A wave whose closure over every shard
reaches an on-demand item with dependents is therefore *live*: it runs over
the global plan on its shard's drainer, refreshing foreign members in place.
A scheduler tick, whose seeds may sit on several shards, always runs that
way (:meth:`ShardedPropagationBackend.tick`).
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import TYPE_CHECKING, Any, Callable, Sequence

from repro.common.errors import MetadataNotIncludedError
from repro.metadata.item import Mechanism
from repro.telemetry.events import (
    CrossShardHop,
    DrainHandoff,
    WaveCoalesced,
    WaveEnd,
    WaveEnqueued,
    WaveHop,
    WavePoisoned,
    WaveRefresh,
    WaveStart,
    WaveSuppressed,
    key_of,
    node_of,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.metadata.handler import MetadataHandler
    from repro.telemetry.hub import Telemetry

__all__ = ["FAILED", "PropagationEngine", "ShardRouter", "ShardedPropagationBackend"]

#: One due task of a scheduler tick: the handler, and the scheduler's
#: ``refresh()`` of it — recompute, book-keep, say whether it published
#: (``True`` / ``False``, :data:`FAILED` when its provider raised).
_TickSeed = tuple["MetadataHandler", Callable[[], "bool | str"]]


#: What a recompute (:meth:`PropagationEngine._recompute`, or a tick seed's
#: ``refresh``) reports in place of the changed flag when it did not
#: complete: the provider raised and the handler kept its last-good value.
FAILED = "failed"
_EXCLUDED = "excluded"

#: A wave plan ``(entries, guarded, boundary, live)``.  ``entries`` lists
#: ``(handler, predecessors)`` in topological order, predecessors being the
#: entry's (deduplicated) dependencies *within the plan* — they always
#: precede it, so one forward pass can decide everything incrementally.
#: ``guarded`` records whether any entry carries a circuit breaker.  A
#: breaker exists exactly when the definition had a failure policy, fixed
#: at handler creation — so the flag is as stable as the plan and lets the
#: loop skip breaker reads entirely on policy-free topologies (the common
#: case).  ``boundary`` holds the ``(local, foreign)`` dependent edges that
#: leave the shard — equally stable: attaching or detaching a cross-shard
#: dependent bumps the epoch like any other wiring change.  ``live`` says
#: that the closure of the seeds over every shard reaches an on-demand item
#: with dependents (see :meth:`ShardRouter.live`) — ``False`` without a
#: boundary.
_Plan = tuple[list, bool, tuple, bool]


class _WaveTrace:
    """Trace recorder of one wave: the only emitter of in-wave events, and
    the keeper of the tallies ``wave.end`` reports.

    It exists only while telemetry is attached; the wave loop guards every
    call with ``trace is not None``, so an untraced wave pays one local
    check per hook and the counters are byte-identical traced or not.
    """

    __slots__ = ("_emit", "_span", "_spans", "_started", "_stopwatch",
                 "_refreshed", "_suppressed", "_errors", "_poisoned")

    def __init__(self, tel: "Telemetry", span: int, arrivals: Sequence[tuple],
                 first: "MetadataHandler", size: int, sources: int,
                 shard: int) -> None:
        self._emit = tel.emit
        self._span = span
        #: Events of a cross-shard arrival carry the span it travelled under
        #: (the first, if it arrived more than once), not the wave's.
        self._spans = {id(a[0]): a[2] for a in reversed(arrivals)}
        self._refreshed = self._suppressed = self._errors = self._poisoned = 0
        self._started = self._stopwatch = time.monotonic()
        self._emit(WaveStart(span=span, node=node_of(first),
                             key=key_of(first.key), wave_size=size,
                             sources=sources, shard=shard))

    def suppressed(self, handler: "MetadataHandler", reason: str) -> None:
        self._suppressed += 1
        self._emit(WaveSuppressed(
            span=self._spans.get(id(handler), self._span),
            node=node_of(handler), key=key_of(handler.key), reason=reason))

    def poisoned(self, handler: "MetadataHandler", reason: str) -> None:
        self._poisoned += 1
        self._emit(WavePoisoned(
            span=self._spans.get(id(handler), self._span),
            node=node_of(handler), key=key_of(handler.key), reason=reason))

    def refreshing(self, handler: "MetadataHandler", changed_preds: list) -> None:
        """``handler`` is about to recompute: record each dependency edge
        the wave crossed into it and start the stopwatch."""
        span = self._spans.get(id(handler), self._span)
        for dep in changed_preds:
            self._emit(WaveHop(span=span, from_node=node_of(dep),
                               from_key=key_of(dep.key),
                               to_node=node_of(handler),
                               to_key=key_of(handler.key)))
        self._stopwatch = time.monotonic()

    def refreshed(self, handler: "MetadataHandler", outcome: "bool | str",
                  is_source: bool) -> None:
        duration = time.monotonic() - self._stopwatch
        if outcome is _EXCLUDED:
            self.suppressed(handler, "excluded")
            return
        error = outcome is FAILED
        if error:
            self._errors += 1
            if not is_source:
                self.poisoned(handler, "compute-failed")
        self._refreshed += 1
        self._emit(WaveRefresh(
            span=self._spans.get(id(handler), self._span),
            node=node_of(handler), key=key_of(handler.key),
            changed=outcome is True, error=error, duration=duration))

    def end(self) -> None:
        self._emit(WaveEnd(span=self._span, refreshed=self._refreshed,
                           suppressed=self._suppressed, errors=self._errors,
                           poisoned=self._poisoned,
                           duration=time.monotonic() - self._started))


class PropagationEngine:
    """Orders and executes triggered metadata updates.

    One engine is shared by all registries placed on one shard of a
    metadata system, so waves propagate across node boundaries (inter-node
    dependencies) and into exchangeable-module registries transparently.
    """

    def __init__(self, plan_cache: bool = True, coalesce: bool = True) -> None:
        #: Memoize single-seed wave plans keyed by the topology epoch.
        #: ``False`` rebuilds the plan on every wave — the reference for
        #: cache staleness and the benchmark baseline.
        self.plan_cache = plan_cache
        #: Merge simultaneously queued sources into one multi-source wave so
        #: shared dependents recompute once per batch.
        self.coalesce = coalesce
        # Counters are mutated only by the active drainer thread; the drainer
        # role is handed off under ``_mutex``, which orders those mutations.
        self.wave_count = 0        # sources processed (one per enqueued change)
        self.drain_count = 0       # physical propagation passes executed
        self.merged_wave_count = 0      # passes that merged >= 2 sources
        self.coalesced_source_count = 0  # sources folded into merged passes
        self.refresh_count = 0
        self.suppressed_count = 0  # dependents skipped because inputs were unchanged
        self.error_count = 0       # recomputes that raised (handler keeps old value)
        # Fault-containment accounting.  Every member a wave intended to
        # recompute counts as *planned*; it then either recomputes
        # (refresh_count) or is skipped because its subtree is poisoned
        # (skipped_poisoned_count).  ``planned == refreshes +
        # skipped_poisoned`` is exact, pinned by
        # tests/metadata/test_wave_poisoning.py.
        self.planned_count = 0
        self.skipped_poisoned_count = 0
        self.plan_hits = 0         # waves that reused a fresh cached plan
        self.plan_misses = 0       # waves that (re)built their cached plan
        # Cross-shard accounting: entries this engine forwarded to foreign
        # shards and entries it received from them.  At quiescence the sums
        # across all shards balance (sum(remote_out) == sum(remote_in)).
        self.remote_out_count = 0
        self.remote_in_count = 0
        self.remote_wave_count = 0  # continuation waves an arrival carried on into
        #: Sharding hooks, wired by ``ShardedPropagationBackend``.  ``None``
        #: router = unsharded: every dependent is local and every plan's
        #: boundary is the empty tuple.
        self.router: "ShardRouter | None" = None
        self.shard_index = 0
        #: Telemetry hub attached by ``MetadataSystem.enable_telemetry``;
        #: ``None`` keeps every hook below to a single local-variable check.
        self.telemetry = None
        self._mutex = threading.Lock()
        # Queue entries are ``(seeds, span)``, one per enqueue *call*: the
        # causal span id is allocated when the call is made (span 0 =
        # telemetry off) and travels with the wave so every hop/refresh it
        # causes can be traced back to it.  A seed is ``(handler, state)``:
        # state ``None`` = changed by fiat (its notification said so), a
        # callable = a tick seed to refresh when the pass reaches it, else
        # the outcome of a refresh that already ran.
        self._pending: deque[tuple[Sequence[tuple], int]] = deque()
        # Cross-shard arrivals: ``(handler, origin, span, poisoned)`` as
        # routed by a foreign shard's wave.  Drained by this engine's own
        # drainer as continuation waves; counted into ``pending`` so
        # quiescence checks cover both queues.
        self._remote: deque[tuple["MetadataHandler", "MetadataHandler",
                                  int, bool]] = deque()
        self._drainer: int | None = None  # ident of the thread running waves
        # Plan cache: id(first seed) -> (seed ids, plan) — one slot per
        # leading seed, so it is bounded by the handlers alive however the
        # seed sets vary.  Guarded by ``_mutex``; cleared eagerly on every
        # epoch bump, so an entry is never stale and never pins an excluded
        # handler in memory.
        self._topology_epoch = 0
        self._plans: dict[int, tuple[Any, _Plan]] = {}

    # -- public entry points -------------------------------------------------

    def value_changed(self, source: "MetadataHandler") -> None:
        """A handler's stored value changed; refresh dependents in order."""
        self._enqueue([(source, None)])

    def event_fired(self, source: "MetadataHandler") -> None:
        """A manual event notification for ``source`` (Section 3.2.3)."""
        self._enqueue([(source, None)])

    def events_fired(self, sources: Sequence["MetadataHandler"]) -> None:
        """Batch form of :meth:`event_fired`: all sources travel as one
        multi-source wave (shared dependents recompute once per batch)."""
        self._enqueue_batch([(source, None) for source in sources])

    def tick(self, seeds: "Sequence[_TickSeed]") -> None:
        """One scheduler tick as one wave: each seed is refreshed when the
        pass reaches it, so it reads this tick's values of everything
        upstream — periodic or triggered — and is computed exactly once.

        The pass belongs to the drainer.  When another thread holds that
        role the seeds are refreshed here instead, in the order given (by
        deadline, then registration), and queued with their outcomes: a worker pool keeps computing side by
        side (Section 4.3) and the busy drainer only propagates.  The peek
        is unlocked on purpose — either answer is correct, the choice only
        decides which thread computes.
        """
        if self._drainer is not None:
            seeds = [(handler, refresh()) for handler, refresh in seeds]
        self._enqueue_batch(seeds)

    def _enqueue_batch(self, seeds: Sequence[tuple]) -> None:
        """One call for the whole batch — or, on an engine that does not
        coalesce, one call per seed."""
        if not self.coalesce:
            for seed in seeds:
                self._enqueue([seed])
        elif seeds:
            self._enqueue(seeds)

    def remote_enqueued(self, handler: "MetadataHandler",
                        origin: "MetadataHandler", span: int,
                        poisoned: bool) -> None:
        """Cross-shard arrival: a wave on ``origin``'s shard reached the
        foreign ``handler`` owned by this engine's shard.

        Called by the :class:`ShardRouter` from the *sending* shard's
        drainer thread, which holds none of this engine's locks — so the
        same drainer hand-off as a local change applies: enqueue under the
        mutex, then either this thread becomes the drainer (and runs the
        continuation wave inline) or the active drainer is guaranteed to see
        the entry before retiring.  Re-entrant routing (a continuation wave
        routing straight back) therefore enqueues and returns — no lock
        cycles, no lost waves.
        """
        self._enqueue((), (handler, origin, span, poisoned))

    @property
    def topology_epoch(self) -> int:
        """Current epoch of the dependency wiring (monotonically increasing)."""
        with self._mutex:
            return self._topology_epoch

    def bump_topology(self) -> int:
        """Advance the topology epoch, invalidating every cached wave plan.

        Called by the registries on every include / exclude / define /
        undefine that can change dependency wiring.  The plan dict is
        cleared eagerly (not lazily) so cached plans never keep removed
        handlers alive.  Returns the new epoch.
        """
        with self._mutex:
            self._topology_epoch += 1
            if self._plans:
                self._plans.clear()
            return self._topology_epoch

    # -- queueing and the drainer hand-off ---------------------------------------

    def _enqueue(self, seeds: Sequence[tuple],
                 arrival: "tuple | None" = None) -> None:
        """Queue one call's ``seeds`` (or one cross-shard ``arrival``) and
        take the drainer role if it is free — the one entry into the engine.
        A call is one queue entry under one span, however many seeds."""
        tel = self.telemetry
        with self._mutex:
            if arrival is not None:
                self._remote.append(arrival)
                span = arrival[2]
            else:
                span = tel.bus.new_span() if tel is not None else 0
                self._pending.append((seeds, span))
            depth = self._queued() if tel is not None else 0
            acquired = self._drainer is None
            if acquired:
                self._drainer = threading.get_ident()
        if tel is not None:
            if arrival is None:
                first = seeds[0][0]
                tel.emit(WaveEnqueued(span=span, node=node_of(first),
                                      key=key_of(first.key), pending=depth))
            if acquired:
                tel.emit(DrainHandoff(span=span, acquired=True, pending=depth))
        if not acquired:
            # A drain loop is active — either on another thread, or on
            # this thread below us in the stack (a refresh inside a
            # running wave reported a change).  The entry is already
            # queued; the drainer is guaranteed to see it because it
            # only retires inside this mutex after observing an empty
            # queue.  Run-to-completion is preserved in both cases.
            return
        self._drain(tel)

    def _queued(self) -> int:
        """Sources and arrivals waiting for the drainer (under the mutex)."""
        return sum(len(seeds) for seeds, _ in self._pending) + len(self._remote)

    def _drain(self, tel: "Telemetry | None") -> None:
        """Run waves until both queues are empty, then retire the drainer
        role atomically with the emptiness check (see :meth:`_enqueue`).
        ``tel`` is the hub the acquire was reported to, so every traced
        hand-off pairs an acquire with a release."""
        try:
            while True:
                with self._mutex:
                    if not self._pending and not self._remote:
                        # Retire atomically with the emptiness check: a
                        # concurrent _enqueue either appended before we got
                        # the mutex (we loop again) or will acquire it
                        # after us and become the next drainer itself.
                        self._drainer = None
                        break
                    arrivals: "list | None" = None
                    batch: "list | None" = None
                    if self._remote:
                        arrivals = list(self._remote)
                        self._remote.clear()
                    if self._pending:
                        if self.coalesce:
                            batch = list(self._pending)
                            self._pending.clear()
                        else:
                            batch = [self._pending.popleft()]
                if arrivals is not None:
                    self._run_arrivals(arrivals)
                if batch is not None:
                    self._run_sources(batch)
            if tel is not None:
                tel.emit(DrainHandoff(acquired=False, pending=0))
        except BaseException:
            # A wave escaped (_recompute contains provider failures, so this
            # is graph-traversal trouble).  Give up the drainer role so the
            # engine is not wedged; queued sources drain on the next fire.
            with self._mutex:
                self._drainer = None
            raise

    def _run_sources(self, batch: "list[tuple[list, int]]") -> None:
        """One wave for every call queued at drain time, under the first
        call's span.  ``wave_count`` advances once per source so lost-wave
        accounting is exact; a wave of several sources — one call's or
        several calls' — counts as merged."""
        seeds, span = batch[0]
        if len(batch) > 1:
            seeds = list(seeds)
            tel = self.telemetry
            for later, later_span in batch[1:]:
                seeds += later
                if tel is not None:
                    # Separately enqueued calls have spans of their own: one
                    # linkage event per folded source ties its enqueue span
                    # to the span the wave's hops/refreshes will carry.
                    for source, _ in later:
                        tel.emit(WaveCoalesced(span=span, node=node_of(source),
                                               key=key_of(source.key),
                                               source_span=later_span))
        self.wave_count += len(seeds)
        self.drain_count += 1
        if len(seeds) > 1:
            self.merged_wave_count += 1
            self.coalesced_source_count += len(seeds)
            # Duplicate sources collapse: a batch of notifications for one
            # item is one refresh of its dependents, reading the latest state.
            handlers = list({id(handler): handler for handler, _ in seeds}.values())
        else:
            handlers = [seeds[0][0]]
        self._wave(handlers, span,
                   {id(handler) for handler, state in seeds if state is None},
                   {id(handler): state for handler, state in seeds
                    if state is not None})

    def _run_arrivals(self, batch: list) -> None:
        """One continuation wave for every arrival queued at drain time,
        seeded by the arrived handlers (several shards, or several waves,
        may have routed the same one).  ``wave_count`` does not move: the
        change was counted where it was enqueued."""
        self.remote_in_count += len(batch)
        seeds = {}
        for arrival in batch:
            seeds[id(arrival[0])] = arrival[0]
        self._wave(list(seeds.values()), batch[0][2], set(), {}, batch)

    # -- plan ----------------------------------------------------------------------

    def _build_plan(self, seeds: "list[MetadataHandler]") -> _Plan:
        """Structural wave plan: the dependent closure of ``seeds``,
        topologically ordered (see :data:`_Plan`).

        Ordering uses longest-path depth over dependent edges, which
        guarantees that within the plan every handler appears after all of
        its in-plan dependencies.  Reaction hooks are *not* consulted — the
        plan is pure structure; hooks run in the loop, once per edge.
        Dependent edges whose far end lives on a foreign shard are *not*
        walked — they become the plan's boundary, so it never contains
        another shard's handlers (always empty while :attr:`router` is
        ``None``).
        """
        router = self.router
        shard = self.shard_index
        boundary: dict[tuple[int, int], tuple] = {}
        depth: dict[int, int] = {id(s): 0 for s in seeds}
        handlers: dict[int, "MetadataHandler"] = {id(s): s for s in seeds}
        preds: dict[int, dict[int, "MetadataHandler"]] = {id(s): {} for s in seeds}
        # Repeated relaxation over a DAG; the include machinery rejects
        # cycles, so this terminates.
        frontier: list["MetadataHandler"] = list(seeds)
        while frontier:
            next_frontier: list["MetadataHandler"] = []
            for handler in frontier:
                d = depth[id(handler)] + 1
                for dependent in handler.dependents():
                    did = id(dependent)
                    if router is not None \
                            and dependent.registry.shard_index != shard:
                        boundary[(id(handler), did)] = (handler, dependent)
                        continue
                    preds.setdefault(did, {})[id(handler)] = handler
                    if did not in depth:
                        depth[did] = d
                        handlers[did] = dependent
                        next_frontier.append(dependent)
                    elif d > depth[did]:
                        depth[did] = d
                        next_frontier.append(dependent)
            frontier = next_frontier
        # dict preserves discovery order; the stable sort keeps it for ties.
        order = sorted(handlers, key=lambda h: depth[h])
        return ([(handlers[h], tuple(preds[h].values())) for h in order],
                any(handlers[h].breaker is not None for h in order),
                tuple(boundary.values()),
                bool(boundary) and router.live(seeds))

    def _plan(self, seeds: "list[MetadataHandler]", tick: bool = False) -> _Plan:
        """The plan for ``seeds``: cached while the topology epoch stands
        still for a single seed and for a ``tick`` (scheduler ticks repeat
        the same few seed sets), built and not stored otherwise (event
        batches combine without bound, and ``plan_cache=False`` asks for it).
        """
        if not self.plan_cache or not (tick or len(seeds) == 1):
            return self._build_plan(seeds)
        slot = id(seeds[0])
        ids = slot if len(seeds) == 1 else tuple(map(id, seeds))
        with self._mutex:
            epoch = self._topology_epoch
            cached = self._plans.get(slot)
            if cached is not None and cached[0] == ids:
                self.plan_hits += 1
                return cached[1]
            self.plan_misses += 1
        plan = self._build_plan(seeds)
        with self._mutex:
            # A concurrent wiring change since the epoch was sampled makes
            # this plan stale on arrival: run it (any plan can go stale
            # between construction and execution) but do not cache it.
            if self._topology_epoch == epoch:
                self._plans[slot] = (ids, plan)
        return plan

    # -- loop ----------------------------------------------------------------------

    def _wave(self, seeds: "list[MetadataHandler]", span: int,
              fiat: "set[int]", ticking: "dict[int, Any]",
              arrivals: "list | None" = None) -> None:
        """Run one wave: obtain the plan for ``seeds``, pass over it once.

        Without ``arrivals`` the seeds are wave *sources*.  Those in
        ``fiat`` changed because their notification said so, and are only
        recomputed when another merged source changed one of their
        dependencies first — keeping them consistent within the batch.
        Those in ``ticking`` (``id(seed)`` to its queued state) are tick
        seeds, refreshed here when the pass reaches them (unless the state
        is the outcome of a refresh that already ran): a tick seed joins the
        wave changed if it published, poisoned if it failed, not at all
        otherwise — and is never recomputed, whatever changed upstream.
        With ``arrivals`` (``(seed, origin, span, poisoned)`` as routed)
        this is a continuation wave: each seed is an ordinary member, and
        the foreign ``origin`` that changed — or, if ``poisoned``, kept a
        stale value — on another shard is one more predecessor of it,
        already decided.

        Counters accumulate in locals and flush once per wave (the drainer
        thread owns them, and ``stats()`` reads under the mutex after the
        drain handoff) — per-refresh attribute writes are measurable on
        the wave-storm workload of ``benchmarks/e2e``.
        """
        members = set(fiat)
        changed = set(fiat)
        poisoned: set[int] = set()
        # id(seed) -> its foreign origins, which are already decided:
        inbound: dict[int, tuple] = {}
        for seed, origin, _, stale in arrivals or ():
            # Poison dominates a concurrent change vote, because the poison
            # check below runs before the change check.
            (poisoned if stale else changed).add(id(origin))
            members.add(id(origin))
            origins = inbound.get(id(seed), ())
            if origin not in origins:
                inbound[id(seed)] = origins + (origin,)
        entries, guarded, boundary, live = self._plan(seeds, tick=bool(ticking))
        if live:
            # A member could read, through on-demand items that never
            # notify, a value another shard is yet to refresh: the wave
            # walks every shard in one global order here instead.
            entries, guarded, boundary, _ = self.router.plan(seeds)
        tel = self.telemetry
        trace = None if tel is None else _WaveTrace(
            tel, span, arrivals or (), seeds[0], len(entries), len(seeds),
            self.shard_index if self.router is not None else -1)
        refreshes = suppressed = skipped = 0
        try:
            for handler, preds in entries:
                hid = id(handler)
                if ticking and hid in ticking:
                    state = ticking[hid]
                    if callable(state):
                        ticking[hid] = None  # called, whatever comes of it
                        state = state()
                    if state is True:
                        members.add(hid)
                        changed.add(hid)
                    elif state is FAILED:
                        members.add(hid)
                        poisoned.add(hid)
                    continue
                if inbound and hid in inbound:
                    preds += inbound[hid]
                member_preds = [p for p in preds if id(p) in members] \
                    if preds else preds
                is_source = hid in fiat
                if is_source:
                    if not member_preds:
                        continue  # nothing upstream of it in this wave
                else:
                    # Membership: every hook on an edge out of a member runs
                    # (no short-circuit), exactly once per wave.
                    wanted = False
                    for pred in member_preds:
                        if handler.on_dependency_changed(pred):
                            wanted = True
                    if not wanted:
                        continue
                    members.add(hid)
                if handler.removed:
                    if trace is not None and not is_source:
                        trace.suppressed(handler, "removed")
                    continue
                # Poison spreads before anything else: an input that kept
                # its stale value makes a recompute here fold a half-updated
                # view.  Sources are exempt — their own change happened
                # before the wave and must still reach their dependents.
                if poisoned and not is_source \
                        and any(id(p) in poisoned for p in member_preds):
                    skipped += 1
                    poisoned.add(hid)
                    if trace is not None:
                        trace.poisoned(handler, "poisoned-input")
                    continue
                # Refresh only when an input actually changed.
                for pred in member_preds:
                    if id(pred) in changed:
                        break
                else:
                    if not is_source:
                        suppressed += 1
                        if trace is not None:
                            trace.suppressed(handler, "unchanged-inputs")
                    continue
                if guarded and not is_source and handler.breaker is not None \
                        and handler.breaker.attempt_blocked():
                    # Quarantined with no probe due: let it rest; dependents
                    # get its stale last-good value, so their subtree is
                    # poisoned.
                    skipped += 1
                    poisoned.add(hid)
                    if trace is not None:
                        trace.poisoned(handler, "quarantined")
                    continue
                refreshes += 1
                if trace is not None:
                    trace.refreshing(handler, [p for p in member_preds
                                               if id(p) in changed])
                outcome = self._recompute(handler)
                if outcome is True:
                    changed.add(hid)
                elif outcome is FAILED and not is_source:
                    # The handler keeps its last-good value and its
                    # dependent subtree is skipped.  Sources stay changed —
                    # their pre-wave change is still news for dependents.
                    poisoned.add(hid)
                if trace is not None:
                    trace.refreshed(handler, outcome, is_source)
        except BaseException:
            # The pass escaped, but every tick seed is owed its refresh:
            # its scheduler re-arms the task only when it has run.
            for state in ticking.values():
                if callable(state):
                    state()
            raise
        finally:
            self.refresh_count += refreshes
            self.suppressed_count += suppressed
            self.planned_count += refreshes + skipped
            self.skipped_poisoned_count += skipped
        if inbound and not (changed.isdisjoint(inbound)
                            and poisoned.isdisjoint(inbound)):
            self.remote_wave_count += 1  # an arrival had news for this shard
        if trace is not None:
            trace.end()
        # Counters are flushed before routing: a routed entry may drain the
        # destination shard inline on this thread, and that continuation
        # must observe this wave's accounting as complete.
        if boundary:
            self._route_boundary(boundary, changed, poisoned, span)

    def _recompute(self, handler: "MetadataHandler") -> "bool | str":
        """Best-effort recompute: a failing provider keeps its old value and
        does not abort the wave for its siblings.  Returns whether
        dependents must be told, or ``FAILED`` / ``_EXCLUDED`` when the
        recompute did not complete."""
        try:
            return True if handler.recompute_for_propagation() else False
        except MetadataNotIncludedError:
            # The handler was excluded between plan construction and its
            # turn to refresh — a normal hazard under concurrent
            # unsubscribe, not a provider failure.
            self.suppressed_count += 1
            return _EXCLUDED
        except Exception:  # noqa: BLE001 - contain provider failures
            self.error_count += 1
            return FAILED

    # -- cross-shard hand-off ----------------------------------------------------

    def _route_boundary(self, boundary: tuple, changed: "set[int]",
                        poisoned: "set[int]", span: int) -> None:
        """Forward this wave's boundary crossings to their owning shards.

        One routed entry per foreign dependent whose local dependency
        either changed (a change crossing) or was poisoned (a poison
        crossing); poison dominates when several local dependencies feed
        the same foreign handler.  Routing is an enqueue on the
        destination engine — never a lock acquisition on its hierarchy —
        and runs *after* this wave's counters settled, so an inline
        continuation drain observes consistent accounting.
        """
        router = self.router
        assert router is not None  # a boundary is only recorded under one
        votes: dict[int, tuple] = {}
        for local, foreign in boundary:
            lid = id(local)
            if lid in poisoned:
                current = votes.get(id(foreign))
                if current is None or not current[2]:
                    votes[id(foreign)] = (foreign, local, True)
            elif lid in changed:
                votes.setdefault(id(foreign), (foreign, local, False))
        tel = self.telemetry
        for foreign, local, poison in votes.values():
            if foreign.removed:
                continue
            self.remote_out_count += 1
            if tel is not None:
                tel.emit(CrossShardHop(
                    span=span, from_shard=self.shard_index,
                    to_shard=foreign.registry.shard_index,
                    from_node=node_of(local), from_key=key_of(local.key),
                    to_node=node_of(foreign), to_key=key_of(foreign.key),
                    poisoned=poison))
            router.route(foreign, local, span, poison)

    # -- introspection ------------------------------------------------------------

    def stats(self) -> dict[str, int]:
        """Counter snapshot for the benchmark harness.

        Taken under the engine mutex so the values are mutually consistent
        with the pending-queue state (counters themselves are only mutated
        by the drainer thread, whose handoff the mutex orders).
        """
        with self._mutex:
            return {
                "waves": self.wave_count,
                "drains": self.drain_count,
                "merged_waves": self.merged_wave_count,
                "coalesced_sources": self.coalesced_source_count,
                "refreshes": self.refresh_count,
                "suppressed": self.suppressed_count,
                "errors": self.error_count,
                "planned": self.planned_count,
                "skipped_poisoned": self.skipped_poisoned_count,
                "remote_in": self.remote_in_count,
                "remote_out": self.remote_out_count,
                "remote_waves": self.remote_wave_count,
                "pending": self._queued(),
                "topology_epoch": self._topology_epoch,
                "plan_hits": self.plan_hits,
                "plan_misses": self.plan_misses,
                "cached_plans": len(self._plans),
            }


class ShardRouter:
    """Routes a wave's boundary crossings to the owning shard's engine.

    Held by every per-shard engine; routing is an enqueue on the destination
    engine (``remote_enqueued``), never a lock acquisition on its hierarchy.
    """

    __slots__ = ("_backend",)

    def __init__(self, backend: "ShardedPropagationBackend") -> None:
        self._backend = backend

    def route(self, handler: "MetadataHandler", origin: "MetadataHandler",
              span: int, poisoned: bool) -> None:
        engine = self._backend.engines[handler.registry.shard_index]
        engine.remote_enqueued(handler, origin, span, poisoned)

    def plan(self, seeds: "list[MetadataHandler]") -> _Plan:
        """The plan of ``seeds`` over every shard, in one global order."""
        return self._backend._global._plan(seeds)

    def live(self, seeds: "list[MetadataHandler]") -> bool:
        """Whether the closure of ``seeds`` over every shard reaches an
        on-demand item that has dependents.  Such an item never notifies,
        so a dependent refreshed before a crossing reached the item's own
        inputs would keep a stale value; without one, every member is
        refreshed again after each change of its inputs and routed waves
        end at the values of one global pass."""
        return any(preds and handler.mechanism is Mechanism.ON_DEMAND
                   and handler.dependents()
                   for handler, preds in
                   self._backend._global._build_plan(seeds)[0])


class ShardedPropagationBackend:
    """The propagation surface every
    :class:`~repro.metadata.registry.MetadataSystem` programs against, over
    one :class:`PropagationEngine` per shard: the enqueue entry points
    (:meth:`value_changed`, :meth:`event_fired`, :meth:`events_fired`,
    :meth:`tick`), the wiring epoch that keys cached plans
    (:meth:`bump_topology`, :attr:`topology_epoch`), exact counters
    (:meth:`stats`) and the telemetry hook (:meth:`set_telemetry`).

    Enqueues go to the source handler's shard; crossings hop between engines
    through the shared :class:`ShardRouter`.  Counters aggregate exactly:
    every key of :meth:`PropagationEngine.stats` sums across shards, so the
    global conservation laws are the per-shard ones added up.

    A single shard is the plain engine behind one list index: it gets no
    router (plans have no boundary, traces say ``shard=-1``) and runs every
    tick itself.  Several shards run a tick on one more, routerless engine
    whose plans walk the dependent edges of every shard: the tick is then
    one wave in global dependency order, exactly as on one shard.  Split
    into per-shard waves, a member could read, through an on-demand item, a
    seed another shard is yet to refresh.
    """

    def __init__(self, shards: int, plan_cache: bool = True,
                 coalesce: bool = True) -> None:
        if shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards}")
        self.telemetry: "Telemetry | None" = None
        self.engines = [PropagationEngine(plan_cache=plan_cache, coalesce=coalesce)
                        for _ in range(shards)]
        #: Routerless, so its plans walk every dependent edge of every
        #: shard: it runs the ticks of several shards and plans their live
        #: waves.  One shard has no use for it.
        self._global: "PropagationEngine | None" = None
        if shards > 1:
            router = ShardRouter(self)
            for index, engine in enumerate(self.engines):
                engine.router = router
                engine.shard_index = index
            self._global = PropagationEngine(plan_cache=plan_cache,
                                             coalesce=coalesce)
        self._all = self.engines if self._global is None \
            else [*self.engines, self._global]

    @property
    def shard_count(self) -> int:
        return len(self.engines)

    def value_changed(self, source: "MetadataHandler") -> None:
        self.engines[source.registry.shard_index].value_changed(source)

    def event_fired(self, source: "MetadataHandler") -> None:
        self.engines[source.registry.shard_index].event_fired(source)

    def events_fired(self, sources: Sequence["MetadataHandler"]) -> None:
        by_shard: dict[int, list["MetadataHandler"]] = {}
        for source in sources:
            by_shard.setdefault(source.registry.shard_index, []).append(source)
        # Per-shard batches keep the coalescing guarantee within a shard;
        # ascending order makes the enqueue sequence deterministic.
        for index in sorted(by_shard):
            self.engines[index].events_fired(by_shard[index])

    def tick(self, seeds: "Sequence[_TickSeed]") -> None:
        (self.engines[0] if self._global is None else self._global).tick(seeds)

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
        epoch = 0
        for engine in self.engines:
            epoch += engine.bump_topology()
        if self._global is not None:
            self._global.bump_topology()
        return epoch

    def stats(self) -> dict[str, int]:
        total = self._all[0].stats()
        for engine in self._all[1:]:
            for key, value in engine.stats().items():
                total[key] += value
        return total

    def shard_stats(self) -> list[dict[str, int]]:
        """Per-shard counter snapshots, indexed by shard."""
        return [engine.stats() for engine in self.engines]

    def set_telemetry(self, telemetry: "Telemetry | None") -> None:
        self.telemetry = telemetry
        for engine in self._all:
            engine.telemetry = telemetry
