#!/usr/bin/env python3
"""Analyzer throughput benchmark: verifier and static lock pass at plan scale.

Pre-flight checking is only viable if it stays far below plan-deployment
latency.  This benchmark times

* :func:`repro.analysis.plan.verify_system` over synthetic metadata systems
  of growing size (a chain-of-operators shape: every node publishes a
  periodic measurement, a triggered estimate depending on the previous
  node's estimate, and an on-demand reader), and
* :func:`repro.analysis.lockcheck.lint_paths` over the shipped runtime
  (``src/repro``) — the whole static lock pass, LK000-LK007 from one parse
  and one walk per file, over the largest tree the CI self-lint walks, and
* :func:`repro.analysis.lockgraph.analyze_payload` cycle detection over
  synthetic lock-order graphs of growing size (a ring of N locks plus one
  order-reversing edge, the worst case for SCC extraction).

Usage::

    python benchmarks/bench_analysis.py [--nodes 50 200 500] \
        [--output BENCH_analysis.json]

The module is a standalone script on purpose — it is not collected by the
tier-1 pytest run (``testpaths = ["tests"]``).
"""

from __future__ import annotations

import argparse
import json
import time
from pathlib import Path
import sys

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.analysis.lockcheck import lint_paths
from repro.analysis.lockgraph import analyze_payload
from repro.analysis.plan import build_index, verify_system
from repro.common.clock import VirtualClock
from repro.metadata.item import (
    Mechanism,
    MetadataDefinition,
    MetadataKey,
    NodeDep,
    SelfDep,
)
from repro.metadata.registry import MetadataRegistry, MetadataSystem
from repro.metadata.scheduling import VirtualTimeScheduler

SRC_REPRO = Path(__file__).resolve().parent.parent / "src" / "repro"

MEASURED = MetadataKey("measured.rate")
ESTIMATE = MetadataKey("estimate.rate")
READER = MetadataKey("ondemand.reader")


class _Owner:
    def __init__(self, name: str) -> None:
        self.name = name
        self.metadata = None
        self.upstream_nodes: list = []
        self.downstream_nodes: list = []


def build_chain(nodes: int) -> MetadataSystem:
    """A frozen chain plan: 3 items and up to 3 edges per node."""
    clock = VirtualClock()
    system = MetadataSystem(clock, VirtualTimeScheduler(clock))
    previous: _Owner | None = None
    for i in range(nodes):
        owner = _Owner(f"op{i}")
        owner.metadata = MetadataRegistry(owner, system)
        owner.metadata.define(MetadataDefinition(
            MEASURED, Mechanism.PERIODIC,
            compute=lambda ctx: 1.0, period=50.0))
        deps = [SelfDep(MEASURED)]
        if previous is not None:
            deps.append(NodeDep(previous, ESTIMATE))
        owner.metadata.define(MetadataDefinition(
            ESTIMATE, Mechanism.TRIGGERED,
            compute=lambda ctx: 1.0, dependencies=deps))
        owner.metadata.define(MetadataDefinition(
            READER, Mechanism.ON_DEMAND,
            compute=lambda ctx: 0.0, dependencies=[SelfDep(ESTIMATE)]))
        previous = owner
    return system


def build_ring_payload(locks: int) -> dict:
    """A recorder payload whose order graph is a ring of ``locks`` nodes.

    Edge i→i+1 for every lock plus the wrap-around edge back to 0, so the
    whole graph is one strongly connected component — the most expensive
    shape for cycle extraction at a given node count.
    """
    lock_rows = [
        {"serial": i, "name": f"item:k{i}", "level": "item"}
        for i in range(locks)
    ]
    stack = [{"file": "bench.py", "line": 1, "function": "bench"}]
    edges = [
        {
            "src": i, "dst": (i + 1) % locks, "count": 1,
            "threads": [f"T{i % 2}"],
            "src_mode": "write", "dst_mode": "write",
            "src_stack": stack, "dst_stack": stack,
        }
        for i in range(locks)
    ]
    return {
        "version": 1,
        "acquisitions": 2 * locks,
        "locks": lock_rows,
        "edges": edges,
        "inversions": [],
        "blocking": [],
    }


def best_of(fn, rounds: int = 5) -> float:
    timings = []
    for _ in range(rounds):
        start = time.perf_counter()
        fn()
        timings.append(time.perf_counter() - start)
    return min(timings)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--nodes", type=int, nargs="+",
                        default=[50, 200, 500])
    parser.add_argument("--lock-ring", type=int, nargs="+",
                        default=[100, 1000, 5000],
                        help="lock counts for the synthetic cycle-detection "
                             "payloads (default: %(default)s)")
    parser.add_argument("--rounds", type=int, default=5)
    parser.add_argument("--output", type=Path, default=None)
    args = parser.parse_args()

    report: dict = {"verifier": [], "lock_pass": {}}

    print(f"{'nodes':>6} {'items':>7} {'index (ms)':>11} {'verify (ms)':>12} "
          f"{'findings':>9}")
    for nodes in args.nodes:
        system = build_chain(nodes)
        index_s = best_of(lambda: build_index(system), args.rounds)
        verify_s = best_of(lambda: verify_system(system), args.rounds)
        findings = verify_system(system)
        items = 3 * nodes
        print(f"{nodes:>6} {items:>7} {index_s * 1e3:>11.2f} "
              f"{verify_s * 1e3:>12.2f} {len(findings):>9}")
        report["verifier"].append({
            "nodes": nodes, "items": items,
            "index_seconds": index_s, "verify_seconds": verify_s,
            "findings": len(findings),
        })
        if findings:
            raise SystemExit(
                "synthetic chain plan must verify clean; got: "
                + "; ".join(str(f) for f in findings))

    pass_s = best_of(lambda: lint_paths([str(SRC_REPRO)]), args.rounds)
    lock_findings = lint_paths([str(SRC_REPRO)])
    n_files = len(list(SRC_REPRO.rglob("*.py")))
    print(f"\nstatic lock pass over src/repro: {pass_s * 1e3:.1f} ms "
          f"({n_files} files, {pass_s / n_files * 1e3:.2f} ms/file), "
          f"{len(lock_findings)} findings")
    report["lock_pass"] = {"seconds": pass_s, "files": n_files,
                           "findings": len(lock_findings)}

    report["lockgraph"] = []
    print(f"\n{'locks':>6} {'edges':>7} {'cycle detect (ms)':>18} "
          f"{'findings':>9}")
    for locks in args.lock_ring:
        payload = build_ring_payload(locks)
        cycle_s = best_of(lambda: analyze_payload(payload), args.rounds)
        cycle_findings = analyze_payload(payload)
        print(f"{locks:>6} {len(payload['edges']):>7} "
              f"{cycle_s * 1e3:>18.2f} {len(cycle_findings):>9}")
        if not any(f.code == "LD001" for f in cycle_findings):
            raise SystemExit(
                f"ring payload with {locks} locks must raise LD001")
        report["lockgraph"].append({
            "locks": locks, "edges": len(payload["edges"]),
            "analyze_seconds": cycle_s, "findings": len(cycle_findings),
        })

    if args.output:
        args.output.write_text(json.dumps(report, indent=2) + "\n")
        print(f"report written to {args.output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
