"""Metadata item identities, definitions and dependency specifications.

Terminology follows the paper:

* A **metadata item** is a single piece of metadata attached to a query-graph
  node (e.g. the input rate of a join).  An item is identified by a
  :class:`MetadataKey` that is unique *within* its node; the pair
  ``(node, key)`` is globally unique.
* A node *provides* a set of items described by :class:`MetadataDefinition`
  objects registered with the node's registry.  A definition says how the
  value is computed, with which update mechanism it is maintained, and on
  which other items it depends.
* An item is **included** when a handler exists for it — either because a
  consumer subscribed to it or because another included item depends on it.

Dependency specifications (:class:`SelfDep`, :class:`UpstreamDep`,
:class:`DownstreamDep`, :class:`NodeDep`, :class:`ModuleDep`) are *symbolic*:
they are resolved against the actual graph wiring at inclusion time, which is
what lets a single operator class describe inter-node dependencies without
knowing its eventual neighbours (Section 2.3).  A definition may instead carry
a *dynamic resolver* callable, enabling the dependency redefinition of
Section 4.4.3.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Sequence, Union

from repro.common.errors import MetadataError
from repro.reliability.policy import FailurePolicy

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.metadata.registry import MetadataRegistry

__all__ = [
    "MetadataKey",
    "Mechanism",
    "MetadataClass",
    "SelfDep",
    "UpstreamDep",
    "DownstreamDep",
    "NodeDep",
    "ModuleDep",
    "DependencySpec",
    "DependencyResolver",
    "MetadataDefinition",
    "ComputeContext",
]


class MetadataKey:
    """Namespaced identifier of a metadata item within a node.

    ``name`` uses dotted namespaces (``"stream.input_rate"``); ``qualifier``
    distinguishes per-port variants, e.g. the input rate of a join's left and
    right input are ``INPUT_RATE.q(0)`` and ``INPUT_RATE.q(1)``.

    Keys are interned: constructing an equal key returns the one existing
    instance (also across threads, ``pickle`` and ``copy``), so equality is
    identity and every dict or set keyed by keys hashes in C.
    """

    __slots__ = ("name", "qualifier")

    def __new__(cls, name: str, qualifier: tuple = ()) -> "MetadataKey":
        qualifier = tuple(qualifier)
        key = _INTERNED.get((name, qualifier))
        if key is None:
            if not name:
                raise ValueError("metadata key name must be non-empty")
            key = object.__new__(cls)
            key.name = name
            key.qualifier = qualifier
            # setdefault is atomic: of two threads building one new key,
            # the one that inserts second gets the first one's instance.
            key = _INTERNED.setdefault((name, qualifier), key)
        return key

    def __reduce__(self) -> tuple:
        return MetadataKey, (self.name, self.qualifier)

    def q(self, *qualifier: Any) -> "MetadataKey":
        """Return a qualified variant of this key (e.g. per input port)."""
        return MetadataKey(self.name, self.qualifier + qualifier)

    @property
    def base(self) -> "MetadataKey":
        """The unqualified key (``name`` only)."""
        return self if not self.qualifier else MetadataKey(self.name)

    def __lt__(self, other: "MetadataKey") -> bool:
        return (self.name, self.qualifier) < (other.name, other.qualifier)

    def __repr__(self) -> str:
        if self.qualifier:
            quals = ",".join(repr(q) for q in self.qualifier)
            return f"<{self.name}[{quals}]>"
        return f"<{self.name}>"


#: ``(name, qualifier)`` -> its one :class:`MetadataKey`.  Keys name items
#: a program defines, so the table is bounded by the program, not the run.
_INTERNED: dict[tuple, MetadataKey] = {}


class Mechanism(enum.Enum):
    """Update mechanisms of Section 3.2, plus static metadata (Figure 2)."""

    STATIC = "static"
    ON_DEMAND = "on_demand"
    PERIODIC = "periodic"
    TRIGGERED = "triggered"


class MetadataClass(enum.Enum):
    """Figure 2's top-level metadata taxonomy."""

    STATIC = "static"
    DYNAMIC = "dynamic"


# ---------------------------------------------------------------------------
# Symbolic dependency specifications
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SelfDep:
    """Intra-node dependency: another item on the same node."""

    key: MetadataKey


@dataclass(frozen=True)
class UpstreamDep:
    """Inter-node dependency on the node's ``port``-th upstream input.

    ``port=None`` expands to *all* inputs, producing one dependency per input
    in port order — e.g. the join CPU estimate depends on the output rate of
    each of its inputs.
    """

    key: MetadataKey
    port: int | None = None


@dataclass(frozen=True)
class DownstreamDep:
    """Inter-node dependency on downstream consumers (e.g. sink QoS).

    ``port=None`` expands to all downstream nodes.
    """

    key: MetadataKey
    port: int | None = None


@dataclass(frozen=True)
class NodeDep:
    """Inter-node dependency on an explicitly named node object."""

    node: Any
    key: MetadataKey


@dataclass(frozen=True)
class ModuleDep:
    """Dependency on an item of an exchangeable module (Section 4.5).

    ``module`` names a module slot of the node (e.g. the join's sweep areas
    are modules ``"sweep0"`` and ``"sweep1"``).  The module owns its own
    registry, so module metadata participates in sharing, dependencies and
    triggering exactly like node metadata — recursively for nested modules
    when ``module`` contains ``"."`` separators (``"sweep0.index"``).
    """

    module: str
    key: MetadataKey


DependencySpec = Union[SelfDep, UpstreamDep, DownstreamDep, NodeDep, ModuleDep]

# A dynamic resolver inspects the node (and typically which items are already
# included) and returns the concrete dependency list for this inclusion.
DependencyResolver = Callable[["MetadataRegistry"], Sequence[DependencySpec]]


@dataclass
class MetadataDefinition:
    """Describes one metadata item a node can provide.

    Parameters
    ----------
    key:
        Identity of the item within the node.
    mechanism:
        Update mechanism used by the handler created for this item.
    compute:
        Callable evaluating the metadata value; receives a
        :class:`ComputeContext`.  Unused for ``STATIC`` items with ``value``.
    value:
        The fixed value of a ``STATIC`` item (schema, element size, ...).
    dependencies:
        Symbolic dependency specs resolved at inclusion time, or a
        :data:`DependencyResolver` for dynamic dependencies.
    period:
        Update period for ``PERIODIC`` items, in clock time units.
    monitors:
        Names of monitoring probes on the node that must be active while this
        item is included (Section 4.4.1: "the developer has to add specific
        monitoring code ... which needs to be activated by the addMetadata
        method").
    description:
        Human-readable documentation shown by metadata discovery.
    metadata_class:
        Figure 2 classification; derived from ``mechanism`` when omitted.
    always_propagate:
        Propagation normally skips dependents of a *triggered* item whose
        recomputed value did not change (a pure function of unchanged inputs
        stays unchanged).  Set this for stateful triggered items — e.g. an
        online aggregate — whose every update is a new sample that dependents
        must see even when the numeric value repeats.  Periodic items always
        propagate every refresh (each refresh is a new measurement).
    failure_policy:
        Retry/backoff/quarantine behaviour when ``compute`` fails
        (:class:`repro.reliability.FailurePolicy`).  ``None`` (default)
        keeps the pre-reliability contract: failures raise immediately and
        pay zero policy overhead.  Meaningless for ``STATIC`` items.
    """

    key: MetadataKey
    mechanism: Mechanism
    compute: Callable[["ComputeContext"], Any] | None = None
    value: Any = None
    dependencies: Sequence[DependencySpec] | DependencyResolver = ()
    period: float | None = None
    monitors: Sequence[str] = ()
    description: str = ""
    metadata_class: MetadataClass | None = None
    always_propagate: bool = False
    failure_policy: FailurePolicy | None = None

    def __post_init__(self) -> None:
        if self.mechanism is Mechanism.STATIC:
            if self.compute is None and self.value is None:
                raise MetadataError(
                    f"static metadata {self.key!r} needs a value or compute function"
                )
            if self.failure_policy is not None:
                raise MetadataError(
                    f"static metadata {self.key!r} cannot carry a failure "
                    f"policy (it is computed at most once, at inclusion)"
                )
        elif self.compute is None:
            raise MetadataError(
                f"dynamic metadata {self.key!r} needs a compute function"
            )
        if self.mechanism is Mechanism.PERIODIC:
            if self.period is None or self.period <= 0:
                raise MetadataError(
                    f"periodic metadata {self.key!r} needs a positive period"
                )
        if self.metadata_class is None:
            self.metadata_class = (
                MetadataClass.STATIC
                if self.mechanism is Mechanism.STATIC
                else MetadataClass.DYNAMIC
            )

    @property
    def dynamic_dependencies(self) -> bool:
        """True when dependencies are resolved by a callable (Section 4.4.3)."""
        return callable(self.dependencies)

    def resolve_specs(self, registry: "MetadataRegistry") -> Sequence[DependencySpec]:
        """Return the concrete symbolic specs for this inclusion."""
        if callable(self.dependencies):
            return tuple(self.dependencies(registry))
        return tuple(self.dependencies)


class ComputeContext:
    """The read interface a definition's ``compute`` callable receives.

    Gives access to the owning node, the clock, and the *current values of
    the item's dependencies*.  Dependency values are addressed by key; when a
    key resolves to several nodes (e.g. ``UpstreamDep(OUTPUT_RATE)`` on a
    binary join) :meth:`values` returns them in port order.  Every
    :class:`~repro.metadata.handler.MetadataHandler` is one and passes
    *itself* as ``ctx``, so a compute allocates nothing.
    """

    __slots__ = ()

    registry: "MetadataRegistry"
    dependency_handlers: list
    dependencies_with_key: Callable[[MetadataKey], Sequence[Any]]

    @property
    def handler(self) -> Any:
        """The handler whose value is being computed."""
        return self

    @property
    def _dep_handlers(self) -> list:
        # (spec, handler) pairs in resolution order.
        return self.dependency_handlers

    @property
    def node(self) -> Any:
        """The query-graph node (or module) owning the item."""
        return self.registry.owner

    @property
    def now(self) -> float:
        """Current clock time."""
        return self.registry.now()

    def value(self, key: MetadataKey) -> Any:
        """Value of the single dependency with ``key``.

        Raises :class:`MetadataError` if the key matches no or several
        dependencies.
        """
        matches = self.dependencies_with_key(key)
        if len(matches) == 1:
            return matches[0].get()
        if not matches:
            raise MetadataError(
                f"{self.handler.ref} has no dependency with key {key!r}"
            )
        raise MetadataError(
            f"{self.handler.ref} has {len(matches)} dependencies with key "
            f"{key!r}; use values() for multi-port dependencies"
        )

    def values(self, key: MetadataKey) -> list:
        """Values of all dependencies with ``key``, in resolution order."""
        return [h.get() for h in self.dependencies_with_key(key)]

    def dependency_refs(self) -> list:
        """``(node, key)`` references of all resolved dependencies."""
        return [h.ref for spec, h in self.dependency_handlers]
