"""Interprocedural lock-discipline analysis (codes ``LK006``/``LK007``).

The intraprocedural lint (:mod:`repro.analysis.lockcheck`) sees one function
body at a time — a helper that sleeps or grabs the graph lock three calls
deep under an item lock is invisible to it.  This pass closes that gap:

1. **Call graph** — every function/method in the analyzed tree is indexed
   by qualified name; call sites are resolved conservatively (see
   :ref:`resolution <callgraph-resolution>` below).
2. **Summaries** — per function, a *may-block* witness chain (the function
   can reach a blocking call from the shared
   :data:`~repro.analysis.lockcheck.BLOCKING_CATALOGUE`) and a
   *may-acquire(level)* witness chain per hierarchy level, computed as a
   fixpoint over the SCC condensation of the call graph (recursion and
   mutual recursion converge because summaries only grow within a
   component).
3. **Findings** — at every call site that executes under a held hierarchy
   lock:

   =====  ==============================================================
   LK006  the callee *may block* (transitively) — a convoy/latency hazard
          the intraprocedural LK002 cannot see
   LK007  the callee *may acquire* a strictly earlier hierarchy level
          (e.g. the graph lock requested somewhere below a call made
          under an item lock) — the transitive form of LK001, reported
          with the full call chain down to the offending acquisition
   =====  ==============================================================

.. _callgraph-resolution:

Call resolution is deliberately conservative — precision over recall, so
the self-lint of ``src/repro`` stays quiet without suppression noise:

* ``f(...)`` — a function in the same (nested) scope, the same module, or
  an explicit ``from m import f``;
* ``self.m(...)`` — method ``m`` of the enclosing class, else the unique
  method of that name repo-wide;
* ``mod.f(...)`` — ``f`` in an imported module;
* ``obj.m(...)`` — only when exactly one analyzed function is named ``m``
  (unique-name heuristic); ambiguous names resolve to nothing.

Lock-acquisition machinery is exempt: ``with lock.read():`` context
expressions are *acquisitions* (LK001/LK007's subject, tracked as such),
not call sites, and :mod:`repro.common.rwlock` itself never seeds a
may-block chain — waiting for the lock you are acquiring is what
acquisition *is*, and ordering hazards on it are exactly what LD001/LK007
report.

Suppression: ``# analysis: ignore[LK006]`` / ``ignore[LK007]`` on the call
site line, same comment grammar as every other analyzer.
"""

from __future__ import annotations

import ast
import os
from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import Any, Iterable, Sequence

from repro.analysis.findings import CODES, Finding
from repro.analysis.lockcheck import (
    LEVELS,
    blocking_call,
    classify_with_item,
    iter_python_files,
    suppression_covers,
)

__all__ = [
    "CallGraph",
    "build_call_graph",
    "build_call_graph_from_sources",
    "analyze_paths",
    "module_name_for",
]

#: Modules whose functions never seed nor propagate summaries: the lock
#: implementation blocks *by definition* (that is what acquiring a contended
#: lock means) and acquires no hierarchy level of its own — its callers'
#: ``with``-acquisitions carry the level information.
_EXEMPT_MODULES = {"repro.common.rwlock"}

#: Direct acquisition methods (``lock.acquire_write()`` outside a ``with``),
#: as used by the hot element path in ``graph/node.py``.
_ACQUIRE_METHODS = {"acquire_read": "read", "acquire_write": "write"}

#: Receiver-name suffixes -> hierarchy level, for direct acquire calls (the
#: ``with``-statement form reuses ``lockcheck.classify_with_item``).
_LEVEL_SUFFIXES = (
    ("structure_lock", "graph"),
    ("graph_lock", "graph"),
    ("node_lock", "node"),
    ("item_lock", "item"),
    ("_lock", "item"),
)


def _level_of_receiver(name: str) -> str | None:
    for suffix, level in _LEVEL_SUFFIXES:
        if name == suffix or name.endswith(suffix):
            return level
    return None


def module_name_for(path: str) -> str:
    """Dotted module name of a source path.

    ``src/repro/analysis/cli.py`` -> ``repro.analysis.cli``; the component
    after a ``src`` directory starts the package, falling back to a
    ``repro`` component, falling back to the bare stem.
    """
    parts = os.path.normpath(path).split(os.sep)
    if parts and parts[-1].endswith(".py"):
        parts[-1] = parts[-1][: -len(".py")]
    if parts and parts[-1] == "__init__":
        parts.pop()
    if "src" in parts:
        parts = parts[parts.index("src") + 1:]
    elif "repro" in parts:
        parts = parts[parts.index("repro"):]
    else:
        parts = parts[-1:]
    return ".".join(p for p in parts if p and p not in (".", "..")) or "<module>"


def _terminal_name(expr: ast.expr) -> str | None:
    if isinstance(expr, ast.Attribute):
        return expr.attr
    if isinstance(expr, ast.Name):
        return expr.id
    return None


@dataclass(frozen=True)
class _CallSite:
    """One call expression inside a function body."""

    line: int
    text: str                      # rendered callee expression
    kind: str                      # "name" | "self" | "dotted" | "attr"
    base: str                      # receiver name ("" for bare names)
    attr: str                      # called name
    holder_level: str | None       # innermost hierarchy lock held, if any
    holder_expr: str = ""
    holder_line: int = 0


@dataclass
class FunctionInfo:
    """Everything the summaries need about one function/method."""

    qualname: str                  # module.Class.method / module.func
    module: str
    scope: str                     # Finding scope: Class.method / func
    cls: str | None
    name: str
    file: str
    line: int
    blocking: list[tuple[int, str]] = field(default_factory=list)
    acquires: list[tuple[int, str, str, str]] = field(default_factory=list)
    #                 (line, level, expr, mode)
    calls: list[_CallSite] = field(default_factory=list)


@dataclass
class _ModuleInfo:
    name: str
    file: str
    source_lines: Sequence[str]
    imports: dict[str, str] = field(default_factory=dict)       # alias -> module
    from_imports: dict[str, tuple[str, str]] = field(default_factory=dict)


class _FunctionCollector(ast.NodeVisitor):
    """Collects blocking calls, acquisitions and call sites of one function,
    tracking the held-lock stack exactly like the intraprocedural lint."""

    def __init__(self, info: FunctionInfo, out: list[FunctionInfo],
                 module: _ModuleInfo) -> None:
        self.info = info
        self.out = out
        self.module = module
        self.held: list[Any] = []   # _HeldLock entries from classify_with_item

    def _hierarchy_holder(self) -> Any | None:
        for lock in reversed(self.held):
            if lock.level is not None:
                return lock
        return None

    # -- with regions --------------------------------------------------------

    def visit_With(self, node: ast.With) -> None:
        self._handle_with(node)

    def visit_AsyncWith(self, node: ast.AsyncWith) -> None:
        self._handle_with(node)

    def _handle_with(self, node: ast.With | ast.AsyncWith) -> None:
        acquired = []
        for item in node.items:
            lock = classify_with_item(item)
            if lock is None:
                # Not a lock acquisition: its context expression may contain
                # real call sites (e.g. ``with build() as x:``).
                self.visit(item.context_expr)
                if item.optional_vars is not None:
                    self.visit(item.optional_vars)
                continue
            if lock.level is not None:
                self.info.acquires.append(
                    (lock.line, lock.level, lock.expr, lock.mode))
            acquired.append(lock)
            self.held.append(lock)
        for stmt in node.body:
            self.visit(stmt)
        for _ in acquired:
            self.held.pop()

    # -- calls ---------------------------------------------------------------

    def visit_Call(self, node: ast.Call) -> None:
        desc = blocking_call(node)
        if desc is not None:
            self.info.blocking.append((node.lineno, desc))
        else:
            self._record_call(node)
        # Arguments may contain further calls either way.
        for arg in node.args:
            self.visit(arg)
        for kw in node.keywords:
            self.visit(kw.value)
        if isinstance(node.func, (ast.Attribute, ast.Subscript)):
            self.visit(node.func.value)

    def _record_call(self, node: ast.Call) -> None:
        func = node.func
        # Direct acquisition: ``lock.acquire_write()`` on a level-named
        # receiver counts as an acquisition, not a call site.
        if isinstance(func, ast.Attribute) and func.attr in _ACQUIRE_METHODS:
            receiver = _terminal_name(func.value) or ""
            level = _level_of_receiver(receiver)
            if level is not None:
                self.info.acquires.append(
                    (node.lineno, level, ast.unparse(func.value),
                     _ACQUIRE_METHODS[func.attr]))
            return
        holder = self._hierarchy_holder()
        kind: str
        base = ""
        attr = ""
        if isinstance(func, ast.Name):
            kind, attr = "name", func.id
        elif isinstance(func, ast.Attribute):
            attr = func.attr
            value = func.value
            if isinstance(value, ast.Name) and value.id == "self":
                kind = "self"
            elif isinstance(value, ast.Name):
                kind, base = "dotted", value.id
            else:
                kind = "attr"
        else:
            return  # calling a computed expression: unresolvable
        self.info.calls.append(_CallSite(
            line=node.lineno, text=ast.unparse(func), kind=kind, base=base,
            attr=attr,
            holder_level=holder.level if holder else None,
            holder_expr=holder.expr if holder else "",
            holder_line=holder.line if holder else 0,
        ))

    # -- nested scopes -------------------------------------------------------

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        _collect_function(node, self.info.scope, self.info.cls,
                          self.module, self.out)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        _collect_function(node, self.info.scope, self.info.cls,
                          self.module, self.out)

    def visit_Lambda(self, node: ast.Lambda) -> None:
        return  # opaque: a lambda body runs at an unknown time/lock context


def _collect_function(node: ast.FunctionDef | ast.AsyncFunctionDef,
                      parent_scope: str, cls: str | None,
                      module: _ModuleInfo, out: list[FunctionInfo]) -> None:
    scope = f"{parent_scope}.{node.name}" if parent_scope else node.name
    info = FunctionInfo(
        qualname=f"{module.name}.{scope}", module=module.name, scope=scope,
        cls=cls, name=node.name, file=module.file, line=node.lineno)
    out.append(info)
    collector = _FunctionCollector(info, out, module)
    for stmt in node.body:
        collector.visit(stmt)


def _collect_module(module: _ModuleInfo, tree: ast.Module,
                    out: list[FunctionInfo]) -> None:
    def walk(node: ast.AST, scope: str, cls: str | None) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                _collect_function(child, scope, cls, module, out)
            elif isinstance(child, ast.ClassDef):
                name = f"{scope}.{child.name}" if scope else child.name
                walk(child, name, child.name)
            elif isinstance(child, ast.Import):
                for alias in child.names:
                    module.imports[alias.asname or alias.name.split(".")[0]] \
                        = alias.name
            elif isinstance(child, ast.ImportFrom):
                if child.module and child.level == 0:
                    for alias in child.names:
                        module.from_imports[alias.asname or alias.name] = \
                            (child.module, alias.name)
            else:
                walk(child, scope, cls)

    walk(tree, "", None)


# ---------------------------------------------------------------------------
# The call graph with summaries
# ---------------------------------------------------------------------------


class CallGraph:
    """Indexed functions + resolved edges + may-block/may-acquire summaries."""

    def __init__(self, modules: dict[str, _ModuleInfo],
                 functions: dict[str, FunctionInfo]) -> None:
        self.modules = modules
        self.functions = functions
        self._by_name: dict[str, list[str]] = {}
        for qualname, info in functions.items():
            self._by_name.setdefault(info.name, []).append(qualname)
        self.edges: dict[str, dict[str, int]] = {}   # caller -> callee -> line
        self.resolved: dict[tuple[str, int, str], str] = {}
        self._resolve_all()
        #: qualname -> witness chain ending in a blocking call
        self.may_block: dict[str, list[dict[str, Any]]] = {}
        #: qualname -> level -> witness chain ending in an acquisition
        self.may_acquire: dict[str, dict[str, list[dict[str, Any]]]] = {}
        self._summarize()

    # -- resolution ----------------------------------------------------------

    def _resolve_all(self) -> None:
        for qualname, info in self.functions.items():
            if info.module in _EXEMPT_MODULES:
                continue
            targets = self.edges.setdefault(qualname, {})
            for call in info.calls:
                target = self._resolve(info, call)
                if target is None or target == qualname:
                    continue
                if self.functions[target].module in _EXEMPT_MODULES:
                    continue
                self.resolved[(qualname, call.line, call.text)] = target
                targets.setdefault(target, call.line)

    def _resolve(self, info: FunctionInfo, call: _CallSite) -> str | None:
        module = self.modules[info.module]
        if call.kind == "name":
            # Enclosing scopes innermost-first, then module level.
            parts = info.scope.split(".")
            for depth in range(len(parts) - 1, -1, -1):
                prefix = ".".join(parts[:depth])
                candidate = (f"{info.module}.{prefix}.{call.attr}"
                             if prefix else f"{info.module}.{call.attr}")
                if candidate in self.functions:
                    return candidate
            imported = module.from_imports.get(call.attr)
            if imported is not None:
                candidate = f"{imported[0]}.{imported[1]}"
                if candidate in self.functions:
                    return candidate
            return None
        if call.kind == "self":
            if info.cls is not None:
                candidate = f"{info.module}.{info.cls}.{call.attr}"
                if candidate in self.functions:
                    return candidate
            return self._unique_method(call.attr)
        if call.kind == "dotted":
            target_module = module.imports.get(call.base)
            if target_module is None:
                imported = module.from_imports.get(call.base)
                if imported is not None:
                    # ``from repro.common import rwlock`` style module import.
                    dotted = f"{imported[0]}.{imported[1]}"
                    if any(q.startswith(dotted + ".") for q in self.functions):
                        target_module = dotted
            if target_module is not None:
                candidate = f"{target_module}.{call.attr}"
                if candidate in self.functions:
                    return candidate
                return None
            # ``base`` is an object, not a module: fall through to the
            # unique-name heuristic.
            return self._unique_method(call.attr)
        return self._unique_method(call.attr)

    def _unique_method(self, name: str) -> str | None:
        candidates = self._by_name.get(name, [])
        if len(candidates) == 1:
            return candidates[0]
        return None

    # -- summaries -----------------------------------------------------------

    def _sccs(self) -> list[list[str]]:
        """Tarjan over the call graph; components come out callee-first
        (reverse topological order of the condensation), which is exactly
        the propagation order the fixpoint wants."""
        index_of: dict[str, int] = {}
        low: dict[str, int] = {}
        on_stack: set[str] = set()
        stack: list[str] = []
        sccs: list[list[str]] = []
        counter = 0
        for root in self.functions:
            if root in index_of:
                continue
            work: list[tuple[str, int]] = [(root, 0)]
            while work:
                node, child_index = work[-1]
                if child_index == 0:
                    index_of[node] = low[node] = counter
                    counter += 1
                    stack.append(node)
                    on_stack.add(node)
                children = list(self.edges.get(node, ()))
                advanced = False
                while child_index < len(children):
                    child = children[child_index]
                    child_index += 1
                    if child not in index_of:
                        work[-1] = (node, child_index)
                        work.append((child, 0))
                        advanced = True
                        break
                    if child in on_stack:
                        low[node] = min(low[node], index_of[child])
                if advanced:
                    continue
                work.pop()
                if low[node] == index_of[node]:
                    component = []
                    while True:
                        member = stack.pop()
                        on_stack.discard(member)
                        component.append(member)
                        if member == node:
                            break
                    sccs.append(component)
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[node])
        return sccs

    def _summarize(self) -> None:
        # Seed with each function's own blocking calls / acquisitions.
        for qualname, info in self.functions.items():
            if info.module in _EXEMPT_MODULES:
                continue
            if info.blocking:
                line, desc = info.blocking[0]
                self.may_block[qualname] = [{
                    "function": qualname, "file": info.file, "line": line,
                    "blocking": desc}]
            levels: dict[str, list[dict[str, Any]]] = {}
            for line, level, expr, mode in info.acquires:
                if level not in levels:
                    levels[level] = [{
                        "function": qualname, "file": info.file, "line": line,
                        "acquires": level, "lock": expr, "mode": mode}]
            if levels:
                self.may_acquire[qualname] = levels

        # Propagate callee -> caller, one SCC at a time (Tarjan's emission
        # order is callee-first); iterate inside a component until stable.
        for component in self._sccs():
            members = set(component)
            changed = True
            while changed:
                changed = False
                for caller in component:
                    info = self.functions[caller]
                    for callee, line in self.edges.get(caller, {}).items():
                        step = {"function": caller, "file": info.file,
                                "line": line, "calls": callee}
                        callee_block = self.may_block.get(callee)
                        if callee_block is not None and \
                                caller not in self.may_block:
                            self.may_block[caller] = [step] + callee_block
                            changed = True
                        callee_acq = self.may_acquire.get(callee)
                        if callee_acq:
                            mine = self.may_acquire.setdefault(caller, {})
                            for level, chain in callee_acq.items():
                                if level not in mine:
                                    mine[level] = [step] + chain
                                    changed = True
                if not members:   # pragma: no cover - defensive
                    break

    # -- findings ------------------------------------------------------------

    def findings(self) -> list[Finding]:
        """LK006/LK007 at every lock-held call site whose callee summary
        says the call can block or acquire an earlier level."""
        findings: list[Finding] = []
        for qualname, info in self.functions.items():
            if info.module in _EXEMPT_MODULES:
                continue
            module = self.modules[info.module]
            for call in info.calls:
                if call.holder_level is None:
                    continue
                target = self.resolved.get((qualname, call.line, call.text))
                if target is None:
                    continue
                chain = self.may_block.get(target)
                if chain is not None and not self._suppressed(
                        module, call.line, "LK006"):
                    path = self._render_chain(qualname, call, chain)
                    findings.append(Finding(
                        code="LK006", severity=CODES["LK006"].severity,
                        message=(
                            f"call `{call.text}` while holding "
                            f"{call.holder_level}-level lock "
                            f"`{call.holder_expr}` (line {call.holder_line}) "
                            f"can block: {' -> '.join(path)}; park the work "
                            "outside the critical section"),
                        file=info.file, line=call.line, scope=info.scope,
                        details={"call": call.text, "lock": call.holder_expr,
                                 "lock_level": call.holder_level,
                                 "path": [dict(s) for s in chain]}))
                for level, acq_chain in sorted(
                        self.may_acquire.get(target, {}).items()):
                    if LEVELS[level] >= LEVELS[call.holder_level]:
                        continue
                    if self._suppressed(module, call.line, "LK007"):
                        continue
                    path = self._render_chain(qualname, call, acq_chain)
                    findings.append(Finding(
                        code="LK007", severity=CODES["LK007"].severity,
                        message=(
                            f"transitive lock-order inversion: call "
                            f"`{call.text}` while holding "
                            f"{call.holder_level}-level lock "
                            f"`{call.holder_expr}` (line {call.holder_line}) "
                            f"eventually acquires a {level}-level lock: "
                            f"{' -> '.join(path)}; the documented hierarchy "
                            "is graph -> node -> item, never backwards"),
                        file=info.file, line=call.line, scope=info.scope,
                        details={"call": call.text, "lock": call.holder_expr,
                                 "lock_level": call.holder_level,
                                 "acquires_level": level,
                                 "path": [dict(s) for s in acq_chain]}))
        return findings

    def _suppressed(self, module: _ModuleInfo, line: int, code: str) -> bool:
        if 1 <= line <= len(module.source_lines):
            return suppression_covers(module.source_lines[line - 1], code)
        return False

    @staticmethod
    def _render_chain(caller: str, call: _CallSite,
                      chain: list[dict[str, Any]]) -> list[str]:
        path = [f"{caller}:{call.line}"]
        for step in chain:
            if "blocking" in step:
                path.append(f"`{step['blocking']}` at "
                            f"{step['file']}:{step['line']}")
            elif "acquires" in step:
                path.append(f"`{step['lock']}`.{step['mode']} at "
                            f"{step['file']}:{step['line']}")
            else:
                path.append(f"{step['function']}:{step['line']}")
        return path


def build_call_graph_from_sources(
        sources: Mapping[str, tuple[str, str]]) -> CallGraph:
    """Build a :class:`CallGraph` from in-memory sources.

    ``sources`` maps module name -> ``(path, source_text)``; used by the
    tests and by callers that already hold the file contents.
    """
    modules: dict[str, _ModuleInfo] = {}
    functions: dict[str, FunctionInfo] = {}
    for name, (path, text) in sources.items():
        try:
            tree = ast.parse(text, filename=path)
        except SyntaxError:
            continue  # the intraprocedural lint reports LK000 for these
        module = _ModuleInfo(name=name, file=path,
                             source_lines=text.splitlines())
        modules[name] = module
        collected: list[FunctionInfo] = []
        _collect_module(module, tree, collected)
        for info in collected:
            functions[info.qualname] = info
    return CallGraph(modules, functions)


def build_call_graph(paths: Iterable[str]) -> CallGraph:
    """Build a :class:`CallGraph` over every ``.py`` file under ``paths``."""
    sources: dict[str, tuple[str, str]] = {}
    for file_path in iter_python_files(paths):
        with open(file_path, "r", encoding="utf-8") as fh:
            text = fh.read()
        sources[module_name_for(file_path)] = (file_path, text)
    return build_call_graph_from_sources(sources)


def analyze_paths(paths: Iterable[str]) -> list[Finding]:
    """Interprocedural findings (LK006/LK007) for files/directories."""
    return build_call_graph(paths).findings()
