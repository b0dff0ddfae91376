"""Static lock-discipline pass over the runtime's source (codes ``LK000``+).

The runtime documents one lock hierarchy, **graph -> node -> item**
(``repro.metadata.locks.LOCK_HIERARCHY``, docs/METADATA_GUIDE.md
"Concurrency model").  This module keeps the next change from silently
violating it: a stdlib-``ast`` pass that parses every file once, walks every
function tracking the locks held along each ``with``-statement nesting, and
joins the functions into a call graph so chains across functions and
modules are checked too:

=====  ====================================================================
LK000  the file could not be parsed
LK001  acquiring an earlier-level lock while holding a later one (e.g. an
       item lock held while the node or graph lock is requested) — the
       classic lock-inversion deadlock shape
LK002  blocking calls (``join``, ``sleep``, queue ``get``) while holding a
       registry/node/item lock
LK003  ``ReentrantRWLock`` write-acquire while the same lock's read side is
       held in the same function (read->write upgrade is rejected at
       runtime; only write->read downgrade is allowed)
LK004  a bare/broad ``except`` whose body is only ``pass`` inside a
       lock-held region — errors swallowed while invariants are half-
       updated are the worst place to swallow errors
LK005  a bare/broad ``except`` anywhere whose body neither re-raises,
       logs, nor records the error (no counter increment, no assignment
       to an error-named slot) — failures that leave no trace are what
       make refresh problems undiagnosable in production
LK006  a call made under a hierarchy lock whose callee *may block*
       (transitively) — the convoy/latency hazard LK002 cannot see
LK007  a call made under a hierarchy lock whose callee *may acquire* a
       strictly earlier level (e.g. the graph lock requested somewhere
       below a call made under an item lock) — the transitive form of
       LK001, reported with the full call chain down to the acquisition
=====  ====================================================================

How the hierarchy is encoded
----------------------------

The pass recognizes hierarchy locks *by naming convention*, which the
runtime follows strictly: an expression ``E.read()`` / ``E.write()`` used as
a context manager is a hierarchy acquisition when the name or attribute at
the end of ``E`` matches

* ``structure_lock`` / ``graph_lock``  -> level **graph**
* ``node_lock``                        -> level **node**
* ``item_lock`` / ``_lock``            -> level **item**

(In this codebase ``_lock`` attributes guarded by ``.read()``/``.write()``
are always per-handler item locks; plain ``with self._lock:`` mutexes do
not match because they carry no read/write call.)  Plain mutexes and
conditions (``_mutex``, ``_cond``, names ending in ``lock``) are tracked
only as generic lock-held regions for LK004.  A direct
``lock.acquire_read()`` / ``acquire_write()`` (the hot element path in
``graph/node.py``) counts as an acquisition when the receiver's name ends
in one of the names above.

LK006/LK007 summaries
---------------------

Per function, a *may-block* witness chain (the function can reach a call
from :data:`BLOCKING_CATALOGUE`) and a *may-acquire(level)* witness chain
per hierarchy level are computed as a fixpoint over the SCC condensation of
the call graph (recursion converges because summaries only grow within a
component).  Call resolution is deliberately conservative — precision over
recall, so the self-lint of ``src/repro`` stays quiet without suppression
noise:

* ``f(...)`` — a function in the same (nested) scope, the same module, or
  an explicit ``from m import f``;
* ``self.m(...)`` — method ``m`` of the enclosing class, else the unique
  method of that name repo-wide;
* ``mod.f(...)`` — ``f`` in an imported module;
* ``obj.m(...)`` — only when exactly one analyzed function is named ``m``
  (unique-name heuristic); ambiguous names resolve to nothing.

Lock-acquisition machinery is exempt: ``with lock.read():`` context
expressions are *acquisitions*, not call sites, and
:mod:`repro.common.rwlock` itself never seeds a may-block chain — waiting
for the lock you are acquiring is what acquisition *is*, and ordering
hazards on it are exactly what LD001/LK007 report.  A blocking call directly
under the lock is LK002's finding; LK006 never repeats it.

Suppression: append ``# analysis: ignore[LK00x]`` (or a bare
``# analysis: ignore``) to the offending line — the call site for
LK006/LK007.
"""

from __future__ import annotations

import ast
import os
import re
from collections.abc import Hashable, Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass, field
from typing import Any, TypeVar

from repro.analysis.findings import CODES, Finding

__all__ = [
    "lint_source",
    "lint_sources",
    "lint_paths",
    "iter_python_files",
    "module_name_for",
    "blocking_call",
    "classify_with_item",
    "suppression_covers",
    "strongly_connected",
    "BLOCKING_CATALOGUE",
    "LEVELS",
]

#: Hierarchy levels in acquisition order (mirrors locks.LOCK_HIERARCHY).
LEVELS: dict[str, int] = {"graph": 0, "node": 1, "item": 2}

#: Lock names -> level.  ``with``-items match the name exactly; direct
#: ``acquire_*`` receivers match it as a suffix, in this order.
_LEVEL_BY_NAME: dict[str, str] = {
    "structure_lock": "graph",
    "graph_lock": "graph",
    "node_lock": "node",
    "item_lock": "item",
    "_lock": "item",
}

_GENERIC_LOCK_RE = re.compile(r"(?:^|_)(?:lock|mutex|cond)$")

_IGNORE_RE = re.compile(r"#\s*analysis:\s*ignore(?:\[(?P<codes>[A-Z0-9, ]+)\])?")

#: Modules whose functions never seed nor propagate summaries: the lock
#: implementation blocks *by definition* (that is what acquiring a contended
#: lock means) and acquires no hierarchy level of its own — its callers'
#: ``with``-acquisitions carry the level information.
_EXEMPT_MODULES = {"repro.common.rwlock"}

#: Direct acquisition methods (``lock.acquire_write()`` outside a ``with``).
_ACQUIRE_METHODS = {"acquire_read": "read", "acquire_write": "write"}


def suppression_covers(line_text: str, code: str) -> bool:
    """True when ``line_text`` carries ``# analysis: ignore`` for ``code``.

    A bare ``ignore`` covers every code; ``ignore[LK001, LD002]`` covers the
    listed codes only.  Shared by this pass and the runtime lock-order
    recorder so every analyzer honours the same comment.
    """
    match = _IGNORE_RE.search(line_text)
    if not match:
        return False
    codes = match.group("codes")
    if codes is None:
        return True
    return code in {c.strip() for c in codes.split(",")}


def _terminal_name(expr: ast.expr) -> str | None:
    """Trailing identifier of a Name/Attribute chain (``a.b.c`` -> ``c``)."""
    if isinstance(expr, ast.Attribute):
        return expr.attr
    if isinstance(expr, ast.Name):
        return expr.id
    return None


def _level_of_receiver(name: str) -> str | None:
    for suffix, level in _LEVEL_BY_NAME.items():
        if name.endswith(suffix):
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


@dataclass(frozen=True)
class _HeldLock:
    level: str | None      # hierarchy level, or None for generic mutexes
    mode: str              # "read" | "write" | "plain"
    expr: str              # ast.unparse of the lock expression
    line: int


def classify_with_item(item: ast.withitem) -> _HeldLock | None:
    """Classify one ``with`` context manager as a lock acquisition."""
    ctx = item.context_expr
    # E.read() / E.write(): RW acquisition; hierarchy level from E's name.
    if (isinstance(ctx, ast.Call) and isinstance(ctx.func, ast.Attribute)
            and ctx.func.attr in ("read", "write") and not ctx.args
            and not ctx.keywords):
        base = ctx.func.value
        name = _terminal_name(base)
        level = _LEVEL_BY_NAME.get(name or "")
        return _HeldLock(level=level, mode=ctx.func.attr,
                         expr=ast.unparse(base), line=ctx.lineno)
    # Bare ``with E:`` where E smells like a mutex/lock -> generic region.
    name = _terminal_name(ctx)
    if name is not None and _GENERIC_LOCK_RE.search(name):
        return _HeldLock(level=None, mode="plain",
                         expr=ast.unparse(ctx), line=ctx.lineno)
    return None


def _is_broad_handler(handler: ast.ExceptHandler) -> bool:
    if handler.type is None:
        return True
    types: Sequence[ast.expr]
    if isinstance(handler.type, ast.Tuple):
        types = handler.type.elts
    else:
        types = [handler.type]
    broad = {"Exception", "BaseException"}
    return any(_terminal_name(t) in broad for t in types)


def _swallows_silently(handler: ast.ExceptHandler) -> bool:
    """True when the handler body does nothing but ``pass``/``...``."""
    body = list(handler.body)
    if body and isinstance(body[0], ast.Expr) and \
            isinstance(body[0].value, ast.Constant) and \
            isinstance(body[0].value.value, str):
        body = body[1:]  # tolerate a docstring-style comment expression
    if not body:
        return True
    return all(
        isinstance(stmt, ast.Pass)
        or (isinstance(stmt, ast.Expr)
            and isinstance(stmt.value, ast.Constant)
            and stmt.value.value is Ellipsis)
        for stmt in body
    )


#: Assignment targets whose terminal name marks the handler as *recording*
#: the failure (e.g. ``report.error = exc`` in the race checker).
_FAILURE_NAME_RE = re.compile(
    r"(?:^|_)(?:err(?:or)?|exc|exception|fail(?:ed|ure)?|cause)s?$",
    re.IGNORECASE)

#: Call targets that count as observable error handling: loggers, counter
#: increments, telemetry emission, failure-recording helpers.  Generous on
#: purpose — a missed true positive is cheaper than lint noise.
_FAILURE_CALL_RE = re.compile(
    r"(?:log|warn|error|exception|critical|debug|info|print|record|fail|"
    r"inc|observe|count|emit|append|report|abort|retry|nack)",
    re.IGNORECASE)


def _records_failure(handler: ast.ExceptHandler) -> bool:
    """True when the handler body observably accounts for the error.

    Accepted evidence: a ``raise`` (re-raise or wrap), an augmented
    assignment (counter increment), an assignment whose target is an
    error-named slot (``report.error = exc``), a call whose terminal
    name looks like logging / counting / failure recording, or any use of
    the bound exception object (``except ... as exc`` followed by a body
    that references ``exc`` is stashing the error somewhere, not
    discarding it).
    """
    for stmt in handler.body:
        for node in ast.walk(stmt):
            if isinstance(node, (ast.Raise, ast.AugAssign)):
                return True
            if handler.name is not None and isinstance(node, ast.Name) \
                    and node.id == handler.name:
                return True
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    name = _terminal_name(target)
                    if name is not None and _FAILURE_NAME_RE.search(name):
                        return True
            if isinstance(node, ast.Call):
                name = _terminal_name(node.func)
                if name is not None and _FAILURE_CALL_RE.search(name):
                    return True
    return False


_BLOCKING_SLEEP = {"sleep"}

#: Human-readable catalogue of the blocking operations the analyzers
#: recognize.  :func:`blocking_call` is the executable form; this table is
#: what the documentation renders and what tests assert coverage against.
#: LK002 and the LK006 may-block summaries use the same function, and the
#: runtime recorder's blocking instrumentation
#: (:mod:`repro.analysis.lockgraph`) builds on this table, so the static and
#: dynamic checks agree on what "blocking" means.
BLOCKING_CATALOGUE: dict[str, str] = {
    "sleep": "time.sleep / bare sleep",
    "join": "thread join (str.join excluded by argument shape)",
    "queue-get": ".get on queue/pending-named receivers",
    "wait": "Condition.wait / Event.wait / Barrier.wait (any .wait call)",
    "socket": "socket recv/recvfrom/recv_into on any receiver; "
              "accept/connect/sendall on socket-named receivers",
    "subprocess": "subprocess.run / call / check_call / check_output",
    "select": "select.select / selector.select",
}

#: Socket methods that block regardless of receiver naming (``recv`` is
#: distinctive enough) vs. those needing a socket-smelling receiver
#: (``connect`` is also a graph-builder verb in this codebase).
_SOCKET_ALWAYS = {"recv", "recvfrom", "recv_into"}
_SOCKET_NAMED = {"accept", "connect", "sendall"}
_SOCKET_RECEIVER_RE = re.compile(r"sock|conn", re.IGNORECASE)

_SUBPROCESS_CALLS = {"run", "call", "check_call", "check_output"}


def blocking_call(call: ast.Call) -> str | None:
    """Name a blocking operation, or None when the call looks safe.

    Heuristics tuned against this codebase:

    * ``time.sleep(x)`` / ``sleep(x)`` — always blocking;
    * ``x.join()`` / ``x.join(timeout)`` — thread join; ``str.join`` takes
      an iterable argument, so calls whose receiver is a string literal or
      whose single argument is a comprehension/list/generator are skipped;
    * ``x.get(...)`` where the receiver's name mentions a queue — blocking
      queue read (plain ``dict.get`` receivers do not match);
    * ``x.wait(...)`` — ``Condition``/``Event``/``Barrier`` waits (every
      ``.wait`` method in this codebase parks the calling thread);
    * socket I/O — ``recv``/``recvfrom``/``recv_into`` on any receiver,
      ``accept``/``connect``/``sendall`` on receivers named like sockets;
    * ``subprocess.run``/``call``/``check_call``/``check_output``;
    * ``select.select`` / ``selector.select``.

    See :data:`BLOCKING_CATALOGUE` for the documented table.
    """
    func = call.func
    if isinstance(func, ast.Name) and func.id in _BLOCKING_SLEEP:
        return func.id
    if isinstance(func, ast.Attribute):
        receiver = func.value
        receiver_name = _terminal_name(receiver) or ""
        if func.attr == "sleep":
            return ast.unparse(func)
        if func.attr == "join":
            if isinstance(receiver, ast.Constant):
                return None  # "sep".join(...)
            if call.keywords and not all(
                    kw.arg == "timeout" for kw in call.keywords):
                return None
            if len(call.args) > 1:
                return None
            if call.args and isinstance(
                    call.args[0],
                    (ast.GeneratorExp, ast.ListComp, ast.SetComp, ast.List,
                     ast.Tuple, ast.Dict, ast.DictComp, ast.Call, ast.Name,
                     ast.Attribute, ast.Subscript)):
                # join(iterable) — overwhelmingly str.join in practice.
                return None
            return ast.unparse(func)
        if func.attr == "get":
            if "queue" in receiver_name.lower() or \
                    "pending" in receiver_name.lower():
                return ast.unparse(func)
        if func.attr == "wait" and not isinstance(receiver, ast.Constant):
            return ast.unparse(func)
        if func.attr in _SOCKET_ALWAYS:
            return ast.unparse(func)
        if func.attr in _SOCKET_NAMED and \
                _SOCKET_RECEIVER_RE.search(receiver_name):
            return ast.unparse(func)
        if func.attr in _SUBPROCESS_CALLS and receiver_name == "subprocess":
            return ast.unparse(func)
        if func.attr == "select" and \
                receiver_name in ("select", "selector", "selectors"):
            return ast.unparse(func)
    return None


# ---------------------------------------------------------------------------
# One walk per module: LK000-LK005 plus the facts the summaries need
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _CallSite:
    """One resolvable call expression inside a function body."""

    line: int
    text: str                      # rendered callee expression
    kind: str                      # "name" | "self" | "dotted" | "attr"
    base: str                      # receiver name ("" for bare names)
    attr: str                      # called name
    holder: _HeldLock | None       # innermost hierarchy lock held, if any


@dataclass
class _Function:
    qualname: str                  # module.Class.method / module.func
    module: str
    scope: str                     # Finding scope: Class.method / func
    cls: str | None
    name: str
    file: str
    blocking: list[tuple[int, str]] = field(default_factory=list)
    acquires: list[tuple[int, str, str, str]] = field(default_factory=list)
    #                 (line, level, expr, mode)
    calls: list[_CallSite] = field(default_factory=list)


@dataclass
class _Module:
    name: str
    file: str
    source_lines: Sequence[str]
    imports: dict[str, str] = field(default_factory=dict)       # alias -> module
    from_imports: dict[str, tuple[str, str]] = field(default_factory=dict)
    functions: list[_Function] = field(default_factory=list)    # walk order


def _emit(findings: list[Finding], module: _Module, code: str, line: int,
          scope: str, message: str, details: dict[str, Any]) -> None:
    """Append a finding unless its line carries a matching suppression."""
    lines = module.source_lines
    if 1 <= line <= len(lines) and suppression_covers(lines[line - 1], code):
        return
    findings.append(Finding(
        code=code, message=message, severity=CODES[code].severity,
        file=module.file, line=line, scope=scope, details=details))


class _FunctionWalker(ast.NodeVisitor):
    """Walks one function body tracking the stack of held locks: reports
    LK001-LK005 and records the function's blocking calls, acquisitions and
    call sites for the LK006/LK007 summaries."""

    def __init__(self, fn: _Function, module: _Module,
                 findings: list[Finding]) -> None:
        self.fn = fn
        self.module = module
        self.findings = findings
        self.held: list[_HeldLock] = []

    def _report(self, code: str, line: int, message: str,
                **details: object) -> None:
        _emit(self.findings, self.module, code, line, self.fn.scope,
              message, dict(details))

    def _hierarchy_held(self) -> list[_HeldLock]:
        return [lock for lock in self.held if lock.level is not None]

    # -- with regions --------------------------------------------------------

    def visit_With(self, node: ast.With) -> None:
        self._handle_with(node)

    def visit_AsyncWith(self, node: ast.AsyncWith) -> None:
        self._handle_with(node)

    def _handle_with(self, node: ast.With | ast.AsyncWith) -> None:
        acquired: list[_HeldLock] = []
        for item in node.items:
            lock = classify_with_item(item)
            if lock is None:
                # Not a lock acquisition: its expression runs under the
                # locks held so far and may block or call out itself
                # (``with closing(sock.recv(1)):``).
                self.visit(item.context_expr)
                if item.optional_vars is not None:
                    self.visit(item.optional_vars)
                continue
            if lock.level is not None:
                self._check_order(lock)
                self._check_upgrade(lock)
                self.fn.acquires.append(
                    (lock.line, lock.level, lock.expr, lock.mode))
            acquired.append(lock)
            self.held.append(lock)
        for stmt in node.body:
            self.visit(stmt)
        for _ in acquired:
            self.held.pop()

    def _check_order(self, lock: _HeldLock) -> None:
        level = LEVELS[lock.level]  # type: ignore[index]
        for held in self._hierarchy_held():
            held_level = LEVELS[held.level]  # type: ignore[index]
            if held_level > level:
                self._report(
                    "LK001", lock.line,
                    f"out-of-order lock acquisition: {lock.level}-level "
                    f"lock `{lock.expr}` requested while holding "
                    f"{held.level}-level lock `{held.expr}` (acquired at "
                    f"line {held.line}); the documented hierarchy is "
                    f"graph -> node -> item, never backwards",
                    requested=lock.expr, held=held.expr,
                    requested_level=lock.level, held_level=held.level)

    def _check_upgrade(self, lock: _HeldLock) -> None:
        if lock.mode != "write":
            return
        for held in self.held:
            if held.mode == "read" and held.expr == lock.expr:
                self._report(
                    "LK003", lock.line,
                    f"write-acquire of `{lock.expr}` while its read side "
                    f"is held (line {held.line}): ReentrantRWLock rejects "
                    f"read->write upgrades at runtime; acquire write "
                    f"first and rely on the write->read downgrade instead",
                    lock=lock.expr)

    # -- calls ---------------------------------------------------------------

    def visit_Call(self, node: ast.Call) -> None:
        hierarchy = self._hierarchy_held()
        holder = hierarchy[-1] if hierarchy else None
        blocking = blocking_call(node)
        if blocking is None:
            self._record_call(node, holder)
        else:
            self.fn.blocking.append((node.lineno, blocking))
            if holder is not None:
                self._report(
                    "LK002", node.lineno,
                    f"blocking call `{blocking}` while holding "
                    f"{holder.level}-level lock `{holder.expr}` (acquired "
                    f"at line {holder.line}); park the work outside the "
                    f"critical section",
                    call=blocking, lock=holder.expr)
        self.generic_visit(node)

    def _record_call(self, node: ast.Call, holder: _HeldLock | None) -> None:
        func = node.func
        # Direct acquisition: ``lock.acquire_write()`` on a level-named
        # receiver counts as an acquisition, not a call site.
        if isinstance(func, ast.Attribute) and func.attr in _ACQUIRE_METHODS:
            level = _level_of_receiver(_terminal_name(func.value) or "")
            if level is not None:
                self.fn.acquires.append(
                    (node.lineno, level, ast.unparse(func.value),
                     _ACQUIRE_METHODS[func.attr]))
            return
        base = ""
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
        self.fn.calls.append(_CallSite(
            line=node.lineno, text=ast.unparse(func), kind=kind, base=base,
            attr=attr, holder=holder))

    # -- swallowed errors ----------------------------------------------------

    def visit_Try(self, node: ast.Try) -> None:
        for handler in node.handlers:
            if not _is_broad_handler(handler):
                continue
            what = ("bare except" if handler.type is None
                    else f"except {ast.unparse(handler.type)}")
            if self.held and _swallows_silently(handler):
                holder = self.held[-1]
                self._report(
                    "LK004", handler.lineno,
                    f"{what}: pass inside a lock-held region "
                    f"(`{holder.expr}` since line {holder.line}) "
                    f"swallows errors while shared state may be "
                    f"half-updated; log the failure with the "
                    f"handler's key or re-raise",
                    lock=holder.expr)
            elif not _records_failure(handler):
                self._report(
                    "LK005", handler.lineno,
                    f"{what} leaves no trace of the error: the body "
                    f"neither re-raises, logs, nor records it in a "
                    f"counter; log the failure with the failing "
                    f"handler's key or account for it explicitly",
                )
        self.generic_visit(node)

    # -- nested scopes -------------------------------------------------------

    # Nested function definitions get a fresh lock context (a nested def's
    # body does not run under the enclosing with-statement).
    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        _walk_function(node, self.fn.scope, self.fn.cls, self.module,
                       self.findings)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        _walk_function(node, self.fn.scope, self.fn.cls, self.module,
                       self.findings)

    def visit_Lambda(self, node: ast.Lambda) -> None:
        return  # opaque: a lambda body runs at an unknown time/lock context


def _walk_function(node: ast.FunctionDef | ast.AsyncFunctionDef,
                   parent_scope: str, cls: str | None, module: _Module,
                   findings: list[Finding]) -> None:
    scope = f"{parent_scope}.{node.name}" if parent_scope else node.name
    fn = _Function(qualname=f"{module.name}.{scope}", module=module.name,
                   scope=scope, cls=cls, name=node.name, file=module.file)
    module.functions.append(fn)
    walker = _FunctionWalker(fn, module, findings)
    for stmt in node.body:
        walker.visit(stmt)


def _walk_module(path: str, source: str,
                 findings: list[Finding]) -> _Module | None:
    """Parse one file, report its LK000-LK005 findings and index its
    functions and imports; None when it does not parse."""
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        findings.append(Finding(
            code="LK000", severity=CODES["LK000"].severity,
            message=f"could not parse: {exc.msg}",
            file=path, line=exc.lineno or 0))
        return None
    module = _Module(name=module_name_for(path), file=path,
                     source_lines=source.splitlines())

    def walk(node: ast.AST, scope: str, cls: str | None) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                _walk_function(child, scope, cls, module, findings)
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
    return module


# ---------------------------------------------------------------------------
# The call graph with may-block / may-acquire summaries (LK006/LK007)
# ---------------------------------------------------------------------------

_Node = TypeVar("_Node", bound=Hashable)


def strongly_connected(nodes: Iterable[_Node],
                       adjacency: Mapping[_Node, Iterable[_Node]]
                       ) -> list[list[_Node]]:
    """Tarjan's SCC, iterative (call and lock-order graphs can be deep).

    Components come out callee-first (reverse topological order of the
    condensation), which is the propagation order the summaries want.
    """
    index_of: dict[_Node, int] = {}
    low: dict[_Node, int] = {}
    on_stack: set[_Node] = set()
    stack: list[_Node] = []
    sccs: list[list[_Node]] = []

    def enter(node: _Node) -> tuple[_Node, Iterator[_Node]]:
        index_of[node] = low[node] = len(index_of)
        stack.append(node)
        on_stack.add(node)
        return node, iter(adjacency.get(node, ()))

    for root in nodes:
        if root in index_of:
            continue
        work = [enter(root)]
        while work:
            node, children = work[-1]
            for child in children:
                if child not in index_of:
                    work.append(enter(child))
                    break
                if child in on_stack:
                    low[node] = min(low[node], index_of[child])
            else:
                work.pop()
                if low[node] == index_of[node]:
                    component: list[_Node] = []
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


class _CallGraph:
    """Indexed functions + resolved edges + may-block/may-acquire summaries."""

    def __init__(self, modules: Iterable[_Module]) -> None:
        # A later file with the same module name replaces the earlier one.
        self.modules = {module.name: module for module in modules}
        self.functions = {fn.qualname: fn for module in self.modules.values()
                          for fn in module.functions}
        self._by_name: dict[str, list[str]] = {}
        for qualname, fn in self.functions.items():
            self._by_name.setdefault(fn.name, []).append(qualname)
        self.edges: dict[str, dict[str, int]] = {}   # caller -> callee -> line
        #: (caller, lock-held call site, resolved callee), in walk order
        self.held_calls: list[tuple[_Function, _CallSite, str]] = []
        for qualname, fn in self.functions.items():
            if fn.module in _EXEMPT_MODULES:
                continue
            targets = self.edges.setdefault(qualname, {})
            for call in fn.calls:
                target = self._resolve(fn, call)
                if target is None or target == qualname or \
                        self.functions[target].module in _EXEMPT_MODULES:
                    continue
                targets.setdefault(target, call.line)
                if call.holder is not None:
                    self.held_calls.append((fn, call, target))
        #: qualname -> witness chain ending in a blocking call
        self.may_block: dict[str, list[dict[str, Any]]] = {}
        #: qualname -> level -> witness chain ending in an acquisition
        self.may_acquire: dict[str, dict[str, list[dict[str, Any]]]] = {}
        self._summarize()

    # -- resolution ----------------------------------------------------------

    def _resolve(self, fn: _Function, call: _CallSite) -> str | None:
        module = self.modules[fn.module]
        if call.kind == "name":
            # Enclosing scopes innermost-first, then module level.
            parts = fn.scope.split(".")
            for depth in range(len(parts) - 1, -1, -1):
                prefix = ".".join(parts[:depth])
                candidate = (f"{fn.module}.{prefix}.{call.attr}"
                             if prefix else f"{fn.module}.{call.attr}")
                if candidate in self.functions:
                    return candidate
            imported = module.from_imports.get(call.attr)
            if imported is not None:
                candidate = f"{imported[0]}.{imported[1]}"
                if candidate in self.functions:
                    return candidate
            return None
        if call.kind == "self":
            if fn.cls is not None:
                candidate = f"{fn.module}.{fn.cls}.{call.attr}"
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

    def _unique_method(self, name: str) -> str | None:
        candidates = self._by_name.get(name, [])
        if len(candidates) == 1:
            return candidates[0]
        return None

    # -- summaries -----------------------------------------------------------

    def _summarize(self) -> None:
        # Seed with each function's own blocking calls / acquisitions.
        for qualname, fn in self.functions.items():
            if fn.module in _EXEMPT_MODULES:
                continue
            if fn.blocking:
                line, desc = fn.blocking[0]
                self.may_block[qualname] = [{
                    "function": qualname, "file": fn.file, "line": line,
                    "blocking": desc}]
            levels: dict[str, list[dict[str, Any]]] = {}
            for line, level, expr, mode in fn.acquires:
                if level not in levels:
                    levels[level] = [{
                        "function": qualname, "file": fn.file, "line": line,
                        "acquires": level, "lock": expr, "mode": mode}]
            if levels:
                self.may_acquire[qualname] = levels

        # Propagate callee -> caller, one SCC at a time (Tarjan's emission
        # order is callee-first); iterate inside a component until stable.
        for component in strongly_connected(self.functions, self.edges):
            changed = True
            while changed:
                changed = False
                for caller in component:
                    fn = self.functions[caller]
                    for callee, line in self.edges.get(caller, {}).items():
                        step = {"function": caller, "file": fn.file,
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

    # -- findings ------------------------------------------------------------

    def findings(self) -> list[Finding]:
        """LK006/LK007 at every lock-held call site whose callee summary
        says the call can block or acquire an earlier level."""
        findings: list[Finding] = []
        for fn, call, target in self.held_calls:
            module = self.modules[fn.module]
            holder = call.holder
            assert holder is not None and holder.level is not None
            chain = self.may_block.get(target)
            if chain is not None:
                path = self._render_chain(fn.qualname, call, chain)
                _emit(
                    findings, module, "LK006", call.line, fn.scope,
                    f"call `{call.text}` while holding {holder.level}-level "
                    f"lock `{holder.expr}` (line {holder.line}) can block: "
                    f"{' -> '.join(path)}; park the work outside the "
                    "critical section",
                    {"call": call.text, "lock": holder.expr,
                     "lock_level": holder.level,
                     "path": [dict(s) for s in chain]})
            for level, acq_chain in sorted(
                    self.may_acquire.get(target, {}).items()):
                if LEVELS[level] >= LEVELS[holder.level]:
                    continue
                path = self._render_chain(fn.qualname, call, acq_chain)
                _emit(
                    findings, module, "LK007", call.line, fn.scope,
                    f"transitive lock-order inversion: call `{call.text}` "
                    f"while holding {holder.level}-level lock "
                    f"`{holder.expr}` (line {holder.line}) eventually "
                    f"acquires a {level}-level lock: {' -> '.join(path)}; "
                    "the documented hierarchy is graph -> node -> item, "
                    "never backwards",
                    {"call": call.text, "lock": holder.expr,
                     "lock_level": holder.level, "acquires_level": level,
                     "path": [dict(s) for s in acq_chain]})
        return findings

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


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------


def lint_sources(sources: Mapping[str, str]) -> list[Finding]:
    """Run the whole pass (LK000-LK007) over in-memory modules as one
    program; ``sources`` maps path -> source text, and each module's name
    comes from :func:`module_name_for` (``pkg/util.py`` -> ``util``)."""
    findings: list[Finding] = []
    modules = [module for path, text in sources.items()
               if (module := _walk_module(path, text, findings)) is not None]
    findings.extend(_CallGraph(modules).findings())
    return findings


def lint_source(source: str, path: str = "<string>") -> list[Finding]:
    """Run the whole pass over one module's source text."""
    return lint_sources({path: source})


def iter_python_files(paths: Iterable[str]) -> Iterator[str]:
    """Expand files/directories into a sorted stream of ``.py`` files."""
    for path in paths:
        if os.path.isdir(path):
            for root, dirs, files in os.walk(path):
                dirs[:] = sorted(d for d in dirs
                                 if d not in ("__pycache__", ".git"))
                for name in sorted(files):
                    if name.endswith(".py"):
                        yield os.path.join(root, name)
        elif path.endswith(".py"):
            yield path


def lint_paths(paths: Iterable[str]) -> list[Finding]:
    """Run the whole pass over every ``.py`` file under ``paths``."""
    sources: dict[str, str] = {}
    for file_path in iter_python_files(paths):
        with open(file_path, "r", encoding="utf-8") as fh:
            sources[file_path] = fh.read()
    return lint_sources(sources)
