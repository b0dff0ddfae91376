"""Include/exclude rollback under failure (the registry's unlink paths).

A failed subscribe must leave the system exactly as it was: shared
transitive dependencies keep their pre-failure counters, probes are
deactivated, periodic tasks are unregistered, and the global accounting in
``MetadataSystem.stats()`` stays balanced.
"""

from __future__ import annotations

import pytest

from repro.common.errors import HandlerError
from repro.metadata.item import Mechanism, MetadataDefinition, MetadataKey, SelfDep
from repro.metadata.monitor import Probe

A = MetadataKey("a")
C = MetadataKey("c")
E = MetadataKey("e")
F = MetadataKey("f")


def _failing(ctx):
    raise RuntimeError("seed computation fails")


class TestSharedTransitiveDependencyRollback:
    def test_shared_dep_counter_survives_sibling_failure(self, make_owner, system):
        """F depends on [C, E]; C is already shared with A; E's inclusion
        fails.  C must drop back to exactly its pre-subscribe counter."""
        owner = make_owner()
        registry = owner.metadata
        registry.define(MetadataDefinition(C, Mechanism.ON_DEMAND, compute=lambda ctx: 1))
        registry.define(MetadataDefinition(
            A, Mechanism.TRIGGERED, compute=lambda ctx: ctx.value(C),
            dependencies=[SelfDep(C)],
        ))
        registry.define(MetadataDefinition(E, Mechanism.TRIGGERED, compute=_failing))
        registry.define(MetadataDefinition(
            F, Mechanism.TRIGGERED,
            compute=lambda ctx: ctx.value(C),
            dependencies=[SelfDep(C), SelfDep(E)],
        ))
        sub_a = registry.subscribe(A)
        assert registry.handler(C).include_count == 1
        baseline = system.stats()

        with pytest.raises(HandlerError):
            registry.subscribe(F)

        assert registry.handler(C).include_count == 1
        assert not registry.is_included(E)
        assert not registry.is_included(F)
        # No handler leaked, none double-removed.
        assert system.stats()["handlers_created"] == baseline["handlers_created"]
        assert system.stats()["handlers_removed"] == baseline["handlers_removed"]
        # The pre-existing subscription still works.
        assert sub_a.get() == 1
        sub_a.cancel()
        assert system.included_handler_count == 0

    def test_failing_dep_probes_deactivated(self, make_owner, system):
        """E lists monitoring probes; its failed inclusion must deactivate
        them again (they are activated before on_included runs)."""
        owner = make_owner()
        registry = owner.metadata
        probe = registry.add_probe(Probe("e-probe"))
        registry.define(MetadataDefinition(
            E, Mechanism.TRIGGERED, compute=_failing, monitors=("e-probe",),
        ))
        registry.define(MetadataDefinition(
            F, Mechanism.TRIGGERED, compute=lambda ctx: ctx.value(E),
            dependencies=[SelfDep(E)],
        ))
        with pytest.raises(HandlerError):
            registry.subscribe(F)
        assert probe.active is False
        assert probe._activation_count == 0
        assert system.included_handler_count == 0

    def test_periodic_dep_task_unregistered_on_parent_failure(self, make_owner, system):
        """E (periodic) includes fine and registers a scheduler task; its
        parent F then fails — the unwind must unregister E's task."""
        owner = make_owner()
        registry = owner.metadata
        registry.define(MetadataDefinition(
            E, Mechanism.PERIODIC, period=5.0, compute=lambda ctx: ctx.now,
        ))

        def failing_parent(ctx):
            raise RuntimeError("parent seed fails")

        registry.define(MetadataDefinition(
            F, Mechanism.TRIGGERED, compute=failing_parent,
            dependencies=[SelfDep(E)],
        ))
        assert system.scheduler.active_task_count() == 0
        with pytest.raises(HandlerError):
            registry.subscribe(F)
        assert system.scheduler.active_task_count() == 0
        assert not registry.is_included(E)
        assert not registry.is_included(F)
        stats = system.stats()
        # E was fully created and fully removed; F never completed creation.
        assert stats["handlers_created"] == stats["handlers_removed"] == 1
        assert stats["handlers_included"] == 0

    def test_dependents_detached_after_rollback(self, make_owner, system):
        """The failed parent must not linger in its dependencies' dependent
        sets — otherwise later waves would touch a dead handler."""
        owner = make_owner()
        registry = owner.metadata
        registry.define(MetadataDefinition(C, Mechanism.ON_DEMAND, compute=lambda ctx: 1))
        registry.define(MetadataDefinition(
            A, Mechanism.TRIGGERED, compute=lambda ctx: ctx.value(C),
            dependencies=[SelfDep(C)],
        ))
        registry.define(MetadataDefinition(
            F, Mechanism.TRIGGERED, compute=_failing, dependencies=[SelfDep(C)],
        ))
        sub_a = registry.subscribe(A)
        with pytest.raises(HandlerError):
            registry.subscribe(F)
        c_handler = registry.handler(C)
        assert [h.key for h in c_handler.dependents()] == [A]
        # A wave over C still works and reaches only live handlers.
        registry.notify_changed(C)
        assert system.propagation.stats()["errors"] == 0
        sub_a.cancel()
        assert system.included_handler_count == 0
