"""Wave-plan cache + coalescing suite — the hot-path propagation gate.

Dependency wiring changes orders of magnitude less often than metadata
values change, so the engine memoizes each source's topologically ordered
closure (the *wave plan*) keyed by the registry's topology epoch.  This
benchmark measures what that buys on repeated waves over a static
500-handler plan, against the uncached engine (``plan_cache=False``) that
re-runs the longest-path relaxation on every wave:

* ``chain``  — 500 handlers in a straight line; every wave refreshes all of
  them, so recompute cost dominates and the cache win is smallest;
* ``fanout`` — one source feeding 499 leaves (widest plan, depth 1);
* ``cut``    — a saturating gate in front of a 498-deep chain: after the
  first wave the gate's value never changes again, the change-cut
  suppresses the whole tail, and wave cost is *pure traversal* — the
  workload the plan cache exists for.  This is the gated shape.

A fourth scenario measures **wave coalescing**: 32 independent sources
feeding one aggregation chain, notified per-batch through
``MetadataRegistry.notify_changed_many``.  The coalescing engine merges
each batch into one multi-source wave (shared dependents recompute once
per batch); the baseline (``coalesce=False``) runs one wave per source.

Every cached-vs-uncached pair is also checked for **accounting
equivalence**: identical ``waves`` / ``refreshes`` / ``suppressed`` /
``errors`` counters and identical final values — the cache must change
cost, never semantics.

Rounds are interleaved (cached, uncached, cached, ...) so clock drift and
cache warmth hit both engines equally; each configuration is scored by its
best round.  ``passed`` is that equivalence; ``benchmarks/runner.py``
(suite ``propagation``) gates the speedups.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.common.clock import VirtualClock
from repro.metadata.item import Mechanism, MetadataDefinition, MetadataKey, SelfDep
from repro.metadata.propagation import PropagationEngine
from repro.metadata.registry import MetadataRegistry, MetadataSystem
from repro.metadata.scheduling import VirtualTimeScheduler

PLAN_SIZE = 500          # handlers per plan, all shapes ("static 500-handler plan")
ROUNDS = 3               # best-of rounds per engine
WAVES_PER_ROUND = {"chain": 40, "fanout": 40, "cut": 150}

COALESCE_SOURCES = 32    # independent sources merged per batch
COALESCE_CHAIN = 96      # shared aggregation chain below the merge node
COALESCE_BATCHES = 30

SRC = MetadataKey("bench.src")

WORK_KEYS = ("waves", "refreshes", "suppressed", "errors")


class _Owner:
    """Minimal registry owner (no query graph needed for pure waves)."""

    name = "bench"


# ---------------------------------------------------------------------------
# Workload construction
# ---------------------------------------------------------------------------


def _fresh_registry(engine: PropagationEngine):
    clock = VirtualClock()
    system = MetadataSystem(clock, VirtualTimeScheduler(clock), propagation=engine)
    return MetadataRegistry(_Owner(), system)


def build_shape(engine: PropagationEngine, shape: str):
    """One registry holding a ``PLAN_SIZE``-handler plan of ``shape``.

    Returns ``(registry, state)``; bump ``state["v"]`` and
    ``notify_changed(SRC)`` to fire one wave over the whole plan.
    """
    registry = _fresh_registry(engine)
    state = {"v": 0}
    registry.define(MetadataDefinition(
        SRC, Mechanism.ON_DEMAND, compute=lambda ctx: state["v"],
    ))
    keys: list[MetadataKey] = []
    if shape == "chain":
        previous = SRC
        for i in range(PLAN_SIZE - 1):
            key = MetadataKey(f"bench.chain{i}")
            registry.define(MetadataDefinition(
                key, Mechanism.TRIGGERED,
                compute=lambda ctx, dep=previous: ctx.value(dep) + 1,
                dependencies=[SelfDep(previous)],
            ))
            keys.append(key)
            previous = key
        registry.subscribe(previous)
    elif shape == "fanout":
        for i in range(PLAN_SIZE - 1):
            key = MetadataKey(f"bench.leaf{i}")
            registry.define(MetadataDefinition(
                key, Mechanism.TRIGGERED,
                compute=lambda ctx, i=i: ctx.value(SRC) + i,
                dependencies=[SelfDep(SRC)],
            ))
            keys.append(key)
        registry.subscribe_many(keys)
    elif shape == "cut":
        # The gate saturates after the first wave; the change-cut then
        # suppresses the entire tail and each wave is pure plan traversal.
        gate = MetadataKey("bench.gate")
        registry.define(MetadataDefinition(
            gate, Mechanism.TRIGGERED,
            compute=lambda ctx: min(ctx.value(SRC), 1),
            dependencies=[SelfDep(SRC)],
        ))
        previous = gate
        for i in range(PLAN_SIZE - 2):
            key = MetadataKey(f"bench.cut{i}")
            registry.define(MetadataDefinition(
                key, Mechanism.TRIGGERED,
                compute=lambda ctx, dep=previous: ctx.value(dep) + 1,
                dependencies=[SelfDep(previous)],
            ))
            keys.append(key)
            previous = key
        registry.subscribe(previous)
    else:  # pragma: no cover - guarded by the SHAPES list below
        raise ValueError(f"unknown shape {shape!r}")
    return registry, state


def build_coalesce_workload(engine: PropagationEngine):
    """``COALESCE_SOURCES`` independent staged sources -> merge -> chain.

    Each source is an on-demand sample behind a *triggered* stage (the
    cached per-source view a real node maintains), all feeding one merge
    node and a shared aggregation chain.  ``notify_changed_many`` fires one
    batch: the per-source engine runs one wave per source — each wave
    refreshes that source's stage, sees the merge value move, and re-runs
    the whole chain — while the coalescing engine refreshes every stage in
    one multi-source wave and runs merge + chain exactly once per batch.
    """
    registry = _fresh_registry(engine)
    state = {"v": 0}
    source_keys = []
    stage_keys = []
    for i in range(COALESCE_SOURCES):
        key = MetadataKey(f"bench.s{i}")
        registry.define(MetadataDefinition(
            key, Mechanism.ON_DEMAND,
            compute=lambda ctx, i=i: state["v"] + i,
        ))
        source_keys.append(key)
        stage = MetadataKey(f"bench.stage{i}")
        registry.define(MetadataDefinition(
            stage, Mechanism.TRIGGERED,
            compute=lambda ctx, k=key: ctx.value(k),
            dependencies=[SelfDep(key)],
        ))
        stage_keys.append(stage)
    merge = MetadataKey("bench.merge")
    registry.define(MetadataDefinition(
        merge, Mechanism.TRIGGERED,
        compute=lambda ctx: sum(ctx.value(k) for k in stage_keys),
        dependencies=[SelfDep(k) for k in stage_keys],
    ))
    previous = merge
    tail = previous
    for i in range(COALESCE_CHAIN):
        key = MetadataKey(f"bench.agg{i}")
        registry.define(MetadataDefinition(
            key, Mechanism.TRIGGERED,
            compute=lambda ctx, dep=previous: ctx.value(dep) + 1,
            dependencies=[SelfDep(previous)],
        ))
        previous = key
        tail = key
    registry.subscribe(tail)
    return registry, state, source_keys, tail


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------


def _run_waves(registry, state, waves: int) -> float:
    notify = registry.notify_changed
    t0 = time.perf_counter()
    for _ in range(waves):
        state["v"] += 1
        notify(SRC)
    return time.perf_counter() - t0


def measure_shape(shape: str) -> dict:
    """Interleaved cached-vs-uncached rounds on one plan shape."""
    waves = WAVES_PER_ROUND[shape]
    workloads = {
        "cached": build_shape(PropagationEngine(), shape),
        "uncached": build_shape(
            PropagationEngine(plan_cache=False, coalesce=False), shape),
    }
    for registry, state in workloads.values():
        _run_waves(registry, state, 5)  # warmup: saturate the cut gate etc.
    timings: dict[str, list[float]] = {name: [] for name in workloads}
    for _ in range(ROUNDS):
        for name, (registry, state) in workloads.items():
            timings[name].append(_run_waves(registry, state, waves))
    best = {name: min(rounds) for name, rounds in timings.items()}
    stats = {name: wl[0].system.propagation.stats()
             for name, wl in workloads.items()}
    equivalent = all(
        stats["cached"][k] == stats["uncached"][k] for k in WORK_KEYS
    )
    return {
        "shape": shape,
        "plan_size": PLAN_SIZE,
        "waves_per_round": waves,
        "seconds_best": best,
        "waves_per_second": {n: waves / s for n, s in best.items()},
        "speedup": best["uncached"] / best["cached"],
        "equivalent": equivalent,
        "stats": stats,
    }


def measure_coalescing() -> dict:
    """Batched multi-source notifications: coalescing on vs off."""
    workloads = {
        "coalesced": build_coalesce_workload(PropagationEngine()),
        "per_source": build_coalesce_workload(
            PropagationEngine(coalesce=False)),
    }
    results: dict[str, dict] = {}
    for name, (registry, state, source_keys, tail) in workloads.items():
        registry.notify_changed_many(source_keys)  # warmup
        t0 = time.perf_counter()
        for _ in range(COALESCE_BATCHES):
            state["v"] += 1
            registry.notify_changed_many(source_keys)
        seconds = time.perf_counter() - t0
        results[name] = {
            "seconds": seconds,
            "batches_per_second": COALESCE_BATCHES / seconds,
            "stats": registry.system.propagation.stats(),
            "tail_value": registry.get(tail),
        }
    coalesced, per_source = results["coalesced"], results["per_source"]
    return {
        "sources": COALESCE_SOURCES,
        "chain": COALESCE_CHAIN,
        "batches": COALESCE_BATCHES,
        "results": results,
        "speedup": per_source["seconds"] / coalesced["seconds"],
        # Deterministic work ratio: how many refreshes coalescing avoided.
        "refresh_ratio": (per_source["stats"]["refreshes"]
                          / max(1, coalesced["stats"]["refreshes"])),
        # Both engines processed every notification (lost-wave accounting)
        # and agree on the final aggregate value.
        "waves_equal": (coalesced["stats"]["waves"]
                        == per_source["stats"]["waves"]),
        "values_equal": coalesced["tail_value"] == per_source["tail_value"],
    }


def measure() -> dict:
    shapes = {shape: measure_shape(shape) for shape in ("chain", "fanout", "cut")}
    coalescing = measure_coalescing()
    equivalent = (all(s["equivalent"] for s in shapes.values())
                  and coalescing["waves_equal"] and coalescing["values_equal"])
    return {
        "benchmark": "wave_cache",
        "shapes": shapes,
        "coalescing": coalescing,
        "equivalent": equivalent,
        "metrics": {
            "chain_speedup": shapes["chain"]["speedup"],
            "fanout_speedup": shapes["fanout"]["speedup"],
            "cut_speedup": shapes["cut"]["speedup"],
            "cut_waves_per_second": shapes["cut"]["waves_per_second"]["cached"],
            "coalesce_speedup": coalescing["speedup"],
            "coalesce_refresh_ratio": coalescing["refresh_ratio"],
        },
        "passed": equivalent,
    }
