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
   quarantined circuit) is skipped and
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
  one.  One enqueue call is one queue entry under one causal span.

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
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import TYPE_CHECKING, Any, Callable, Sequence

from repro.common.errors import MetadataNotIncludedError
from repro.telemetry.events import (
    WavePoisoned,
    WaveRefresh,
    WaveSummary,
    WaveSuppressed,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.metadata.handler import MetadataHandler
    from repro.telemetry.hub import Telemetry

__all__ = ["FAILED", "PropagationEngine"]

#: One due task of a scheduler tick: the handler, and the scheduler's
#: ``refresh()`` of it — recompute, book-keep, say whether it published
#: (``True`` / ``False``, :data:`FAILED` when its provider raised).
_TickSeed = tuple["MetadataHandler", Callable[[], "bool | str"]]


#: What a recompute (:meth:`PropagationEngine._recompute`, or a tick seed's
#: ``refresh``) reports in place of the changed flag when it did not
#: complete: the provider raised and the handler kept its last-good value.
FAILED = "failed"
_EXCLUDED = "excluded"

#: A wave plan ``(entries, guarded)``.  ``entries`` lists
#: ``(handler, predecessors)`` in topological order, predecessors being the
#: entry's (deduplicated) dependencies *within the plan* — they always
#: precede it, so one forward pass can decide everything incrementally.
#: ``guarded`` records whether any entry carries a circuit breaker.  A
#: breaker exists exactly when the definition had a failure policy, fixed
#: at handler creation — so the flag is as stable as the plan and lets the
#: loop skip breaker reads entirely on policy-free topologies (the common
#: case).
_Plan = tuple[list, bool]


class _WaveTrace:
    """Trace recorder of one wave: the only emitter of in-wave events, and
    the keeper of the tallies its ``wave.summary`` reports.

    It exists only while telemetry is attached; the wave loop guards every
    call with ``trace is not None``, so an untraced wave pays one local
    check per hook and the counters are byte-identical traced or not.  Each
    member the wave reaches is one record; the summary is written by
    :meth:`end`, which the engine calls however the wave ends.
    """

    __slots__ = ("_emit", "_summary", "_started", "_stopwatch", "_via")

    def __init__(self, tel: "Telemetry", span: int, first: "MetadataHandler",
                 sources: int, folded: tuple[int, ...], pending: int) -> None:
        self._emit = tel.emit
        self._summary = WaveSummary(span=span, source=first.ident,
                                    sources=sources, folded=folded,
                                    pending=pending)
        self._via: tuple[str, ...] = ()
        self._started = self._stopwatch = time.monotonic()

    def planned(self, size: int) -> None:
        self._summary.wave_size = size

    def suppressed(self, handler: "MetadataHandler", reason: str) -> None:
        self._summary.suppressed += 1
        node, key = handler.names
        self._emit(WaveSuppressed(span=self._summary.span, node=node, key=key,
                                  reason=reason))

    def poisoned(self, handler: "MetadataHandler", reason: str) -> None:
        self._summary.poisoned += 1
        node, key = handler.names
        self._emit(WavePoisoned(span=self._summary.span, node=node, key=key,
                                reason=reason))

    def refreshing(self, changed_preds: list) -> None:
        """The next member is about to recompute: keep the dependency edges
        the wave crossed into it and start the stopwatch."""
        self._via = tuple([dep.ident for dep in changed_preds])
        self._stopwatch = time.monotonic()

    def refreshed(self, handler: "MetadataHandler", outcome: "bool | str",
                  is_source: bool) -> None:
        duration = time.monotonic() - self._stopwatch
        if outcome is _EXCLUDED:
            self.suppressed(handler, "excluded")
            return
        summary = self._summary
        error = outcome is FAILED
        if error:
            summary.errors += 1
            if not is_source:
                self.poisoned(handler, "compute-failed")
        summary.refreshed += 1
        node, key = handler.names
        self._emit(WaveRefresh(span=summary.span, node=node, key=key,
                               changed=outcome is True, error=error,
                               duration=duration, via=self._via))

    def end(self) -> None:
        self._summary.duration = time.monotonic() - self._started
        self._emit(self._summary)


class PropagationEngine:
    """Orders and executes triggered metadata updates.

    One engine is shared by every registry of a metadata system, so waves
    propagate across node boundaries (inter-node dependencies) and into
    exchangeable-module registries transparently.
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
        #: Telemetry hub attached by ``MetadataSystem.enable_telemetry``;
        #: ``None`` keeps every hook below to a single local-variable check.
        self.telemetry = None
        self._mutex = threading.Lock()
        # Queue entries are ``(seeds, span, pending)``, one per enqueue
        # *call*: the causal span id is allocated when the call is made
        # (span 0 = telemetry off) and travels with the wave so every
        # refresh it causes can be traced back to it; ``pending`` is the
        # queue depth the call found (0 with telemetry off).  A seed is
        # ``(handler, state)``: state ``None`` = changed by fiat (its
        # notification said so), a callable = a tick seed to refresh when
        # the pass reaches it, else the outcome of a refresh that already ran.
        self._pending: deque[tuple[Sequence[tuple], int, int]] = deque()
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

    def _enqueue(self, seeds: Sequence[tuple]) -> None:
        """Queue one call's ``seeds`` and take the drainer role if it is
        free — the one entry into the engine.  A call is one queue entry
        under one span, however many seeds."""
        tel = self.telemetry
        with self._mutex:
            if tel is None:
                self._pending.append((seeds, 0, 0))
            else:
                self._pending.append((seeds, tel.bus.new_span(),
                                      self._queued() + len(seeds)))
            acquired = self._drainer is None
            if acquired:
                self._drainer = threading.get_ident()
        if not acquired:
            # A drain loop is active — either on another thread, or on
            # this thread below us in the stack (a refresh inside a
            # running wave reported a change).  The entry is already
            # queued; the drainer is guaranteed to see it because it
            # only retires inside this mutex after observing an empty
            # queue.  Run-to-completion is preserved in both cases.
            return
        self._drain()

    def _queued(self) -> int:
        """Sources waiting for the drainer (under the mutex)."""
        return sum(len(seeds) for seeds, _, _ in self._pending)

    def _drain(self) -> None:
        """Run waves until the queue is empty, then retire the drainer role
        atomically with the emptiness check (see :meth:`_enqueue`)."""
        try:
            while True:
                with self._mutex:
                    if not self._pending:
                        # Retire atomically with the emptiness check: a
                        # concurrent _enqueue either appended before we got
                        # the mutex (we loop again) or will acquire it
                        # after us and become the next drainer itself.
                        self._drainer = None
                        break
                    batch = self._next_batch() if self.coalesce \
                        else [self._pending.popleft()]
                self._run_sources(batch)
        except BaseException:
            # A wave escaped (_recompute contains provider failures, so this
            # is graph-traversal trouble).  Give up the drainer role so the
            # engine is not wedged; queued sources drain on the next fire.
            with self._mutex:
                self._drainer = None
            raise

    def _next_batch(self) -> "list[tuple[Sequence[tuple], int, int]]":
        """The queued calls one pass merges (under the mutex): all of them,
        up to the first that ticks a handler an earlier one already ticks.

        A handler is ticked twice only when a busy drainer let its task run
        on a worker and come due again; merged, the later state would
        replace the earlier — and a tick seed's refresh that is never
        called leaves its scheduler waiting on the task for good.
        """
        pending = self._pending
        batch = [pending.popleft()]
        if not pending:
            return batch
        ticked = {id(handler) for handler, state in batch[0][0]
                  if state is not None}
        while pending:
            ids = {id(handler) for handler, state in pending[0][0]
                   if state is not None}
            if not ticked.isdisjoint(ids):
                break
            ticked |= ids
            batch.append(pending.popleft())
        return batch

    def _run_sources(self, batch: "list[tuple[list, int, int]]") -> None:
        """One wave for every call queued at drain time, under the first
        call's span.  ``wave_count`` advances once per source so lost-wave
        accounting is exact; a wave of several sources — one call's or
        several calls' — counts as merged."""
        seeds, span, pending = batch[0]
        if len(batch) > 1:
            seeds = list(seeds)
            for later, _, _ in batch[1:]:
                seeds += later
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
        tel = self.telemetry
        # Separately enqueued calls have spans of their own; the summary
        # ties each to the span this wave's refreshes carry.
        trace = None if tel is None else _WaveTrace(
            tel, span, handlers[0], len(handlers),
            tuple([later_span for _, later_span, _ in batch[1:]]), pending)
        try:
            self._wave(handlers, trace,
                       {id(handler) for handler, state in seeds if state is None},
                       {id(handler): state for handler, state in seeds
                        if state is not None})
        finally:
            if trace is not None:
                trace.end()

    # -- plan ----------------------------------------------------------------------

    def _build_plan(self, seeds: "list[MetadataHandler]") -> _Plan:
        """Structural wave plan: the dependent closure of ``seeds``,
        topologically ordered (see :data:`_Plan`).

        Ordering uses longest-path depth over dependent edges, which
        guarantees that within the plan every handler appears after all of
        its in-plan dependencies.  Reaction hooks are *not* consulted — the
        plan is pure structure; hooks run in the loop, once per edge.
        """
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
                any(handlers[h].breaker is not None for h in order))

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

    def _wave(self, seeds: "list[MetadataHandler]", trace: "_WaveTrace | None",
              fiat: "set[int]", ticking: "dict[int, Any]") -> None:
        """Run one wave: obtain the plan for ``seeds``, pass over it once.

        The seeds are wave *sources*.  Those in ``fiat`` changed because
        their notification said so, and are only recomputed when another
        merged source changed one of their dependencies first — keeping
        them consistent within the batch.  Those in ``ticking`` (``id(seed)``
        to its queued state) are tick seeds, refreshed here when the pass
        reaches them (unless the state is the outcome of a refresh that
        already ran): a tick seed joins the wave changed if it published,
        poisoned if it failed, not at all otherwise — and is never
        recomputed, whatever changed upstream.

        Counters accumulate in locals and flush once per wave (the drainer
        thread owns them, and ``stats()`` reads under the mutex after the
        drain handoff) — per-refresh attribute writes are measurable on
        the wave-storm workload of ``benchmarks/e2e``.
        """
        members = set(fiat)
        changed = set(fiat)
        poisoned: set[int] = set()
        entries, guarded = self._plan(seeds, tick=bool(ticking))
        if trace is not None:
            trace.planned(len(entries))
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
                    trace.refreshing([p for p in member_preds
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
                # Always 0; benchmarks/e2e/workloads.py publishes them.  The
                # ROADMAP "One benchmark contract" item deletes them.
                "remote_in": 0,
                "remote_out": 0,
                "remote_waves": 0,
                "pending": self._queued(),
                "topology_epoch": self._topology_epoch,
                "plan_hits": self.plan_hits,
                "plan_misses": self.plan_misses,
                "cached_plans": len(self._plans),
            }

    def shard_stats(self) -> list[dict[str, int]]:
        # benchmarks/e2e/workloads.py (mixed_rw) reads this; the ROADMAP
        # "One benchmark contract" item deletes it.
        return [self.stats()]
