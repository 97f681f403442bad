"""Threading rule: shared state in pool-reachable modules needs locks.

Per-SBS subproblem solves are independent, so callers may run them on a
thread pool, and everything a solve can reach — the subproblem oracle,
the solver kernels, the perf registry that instruments them, the trace
recorder they emit into — then executes concurrently.  In those
modules, mutating state that threads share (module globals, or ``self``
attributes on a class that owns a lock) without holding a lock is the
PR 7 perf-registry race class: usually invisible, occasionally a lost
counter or a torn dict.

* ``unguarded-shared-mutation`` — flag, inside the pool-reachable
  modules, (a) any write to a module-level global from function scope
  and (b) any mutation of ``self.<attr>`` in a class that owns a lock
  (an attribute it assigns a ``Lock()`` / ``RLock()`` or acquires in a
  ``with``), unless the mutation sits lexically inside a ``with`` on one
  of the class's locks or a module-level lock.  Setup/teardown writes
  that are documented as single-threaded carry baseline ratchet
  entries, so any *new* unguarded mutation trips CI until it is locked
  or explicitly accepted.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional, Set, Union

from ..findings import Finding
from .base import FileContext, Rule, register

__all__ = ["UnguardedSharedMutation"]

FunctionNode = Union[ast.FunctionDef, ast.AsyncFunctionDef]

#: Modules whose functions a threaded caller reaches: the agents and
#: sweeps, everything a per-SBS solve calls, and the process-global
#: instrumentation sinks those calls write to.
THREADED_MODULES = frozenset(
    {
        "repro.core.distributed",
        "repro.core.problem",
        "repro.core.subproblem",
        "repro.solvers.fractional_knapsack",
        "repro.perf.registry",
        "repro.obs.recorder",
        "repro.experiments.runner",
    }
)

#: Method names that mutate their receiver in place.
_MUTATING_METHODS = frozenset(
    {
        "append",
        "appendleft",
        "add",
        "clear",
        "discard",
        "extend",
        "insert",
        "pop",
        "popleft",
        "popitem",
        "remove",
        "setdefault",
        "sort",
        "update",
    }
)


def _self_attr(node: ast.AST) -> Optional[str]:
    """``<attr>`` when ``node`` is ``self.<attr>``, else ``None``."""
    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
        return node.attr if node.value.id == "self" else None
    return None


def _is_lock_factory(node: ast.AST) -> bool:
    """Is ``node`` a ``Lock()`` / ``RLock()`` call (bare or module-qualified)?"""
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
    return name in ("Lock", "RLock")


def _module_locks(tree: ast.Module) -> Set[str]:
    """Module-level names bound to a ``Lock()`` / ``RLock()``."""
    return {
        target.id
        for node in tree.body
        if isinstance(node, ast.Assign) and _is_lock_factory(node.value)
        for target in node.targets
        if isinstance(target, ast.Name)
    }


def _module_globals(tree: ast.Module) -> Set[str]:
    names: Set[str] = set()
    for node in tree.body:
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    names.add(target.id)
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
    return names


def _class_lock_attrs(node: ast.ClassDef) -> Set[str]:
    """The ``self.<attr>`` locks a class owns.

    An attribute is a lock when the class assigns it a ``Lock()`` /
    ``RLock()`` (also through ``object.__setattr__(self, "<attr>", ...)``)
    or acquires it in a ``with`` statement; its name does not matter.
    """
    locks: Set[str] = set()
    for child in ast.walk(node):
        if isinstance(child, ast.Assign) and _is_lock_factory(child.value):
            locks.update(filter(None, map(_self_attr, child.targets)))
        elif isinstance(child, (ast.With, ast.AsyncWith)):
            locks.update(filter(None, (_self_attr(item.context_expr) for item in child.items)))
        elif (
            isinstance(child, ast.Call)
            and isinstance(child.func, ast.Attribute)
            and child.func.attr == "__setattr__"
            and len(child.args) == 3
            and isinstance(child.args[0], ast.Name)
            and child.args[0].id == "self"
            and isinstance(child.args[1], ast.Constant)
            and isinstance(child.args[1].value, str)
            and _is_lock_factory(child.args[2])
        ):
            locks.add(child.args[1].value)
    return locks


@register
class UnguardedSharedMutation(Rule):
    """Flag unlocked shared-state mutations in pool-reachable modules."""

    code = "REPRO601"
    name = "unguarded-shared-mutation"
    summary = (
        "shared state mutated without a lock in a thread-pool-reachable "
        "module; guard it or baseline it"
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        """Flag unguarded global/self mutations in the threaded modules."""
        if ctx.module not in THREADED_MODULES:
            return
        globals_ = _module_globals(ctx.tree)
        module_locks = _module_locks(ctx.tree)
        for node in ctx.tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from self._check_function(ctx, node, globals_, module_locks, None)
            elif isinstance(node, ast.ClassDef):
                locks = _class_lock_attrs(node)
                guards = module_locks | {f"self.{attr}" for attr in locks}
                for child in node.body:
                    if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        continue
                    if child.name == "__init__":
                        # Construction happens-before sharing.
                        continue
                    yield from self._check_function(
                        ctx, child, globals_, guards, locks if locks else None
                    )

    def _check_function(
        self,
        ctx: FileContext,
        func: FunctionNode,
        globals_: Set[str],
        guards: Set[str],
        lock_attrs: Optional[Set[str]],
    ) -> Iterator[Finding]:
        # ``guards`` are the with-contexts that hold a lock, as source
        # text: module-level locks and ``self.<attr>`` for the class's.
        #
        # A `global X` statement marks X as shared even when the module
        # body never assigns it (the binding is created at runtime); a
        # mutating method call or subscript store hits a module global
        # without any `global` statement at all.
        declared_global: Set[str] = set()
        for child in ast.walk(func):
            if isinstance(child, ast.Global):
                declared_global.update(child.names)
        shared = declared_global | globals_
        yield from self._walk(
            ctx, func.body, declared_global, shared, guards, lock_attrs, locked=False
        )

    def _walk(
        self,
        ctx: FileContext,
        stmts: List[ast.stmt],
        declared_global: Set[str],
        shared: Set[str],
        guards: Set[str],
        lock_attrs: Optional[Set[str]],
        locked: bool,
    ) -> Iterator[Finding]:
        for stmt in stmts:
            if isinstance(stmt, (ast.With, ast.AsyncWith)):
                inner_locked = locked or any(
                    ast.unparse(item.context_expr) in guards for item in stmt.items
                )
                yield from self._walk(
                    ctx, stmt.body, declared_global, shared, guards, lock_attrs, inner_locked
                )
                continue
            if not locked:
                yield from self._check_stmt(ctx, stmt, declared_global, shared, lock_attrs)
            for block in self._nested_blocks(stmt):
                yield from self._walk(
                    ctx, block, declared_global, shared, guards, lock_attrs, locked
                )

    @staticmethod
    def _nested_blocks(stmt: ast.stmt) -> List[List[ast.stmt]]:
        blocks: List[List[ast.stmt]] = []
        for field in ("body", "orelse", "finalbody"):
            value = getattr(stmt, field, None)
            if isinstance(value, list) and not isinstance(stmt, (ast.With, ast.AsyncWith)):
                blocks.append(value)
        for handler in getattr(stmt, "handlers", []):
            blocks.append(handler.body)
        return blocks

    def _check_stmt(
        self,
        ctx: FileContext,
        stmt: ast.stmt,
        declared_global: Set[str],
        shared: Set[str],
        lock_attrs: Optional[Set[str]],
    ) -> Iterator[Finding]:
        targets: List[ast.expr] = []
        if isinstance(stmt, ast.Assign):
            targets = list(stmt.targets)
        elif isinstance(stmt, (ast.AugAssign, ast.AnnAssign)):
            targets = [stmt.target]
        for target in targets:
            yield from self._check_target(ctx, target, declared_global, shared, lock_attrs)
        if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Call):
            call = stmt.value
            func = call.func
            if isinstance(func, ast.Attribute) and func.attr in _MUTATING_METHODS:
                receiver = func.value
                yield from self._check_receiver(ctx, call, receiver, shared, lock_attrs)

    def _check_target(
        self,
        ctx: FileContext,
        target: ast.expr,
        declared_global: Set[str],
        shared: Set[str],
        lock_attrs: Optional[Set[str]],
    ) -> Iterator[Finding]:
        if isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                yield from self._check_target(ctx, elt, declared_global, shared, lock_attrs)
            return
        if isinstance(target, ast.Name) and target.id in declared_global:
            yield self.finding(
                ctx,
                target,
                f"module global '{target.id}' written without a lock in a "
                f"thread-pool-reachable module",
            )
            return
        if isinstance(target, ast.Subscript):
            yield from self._check_receiver(ctx, target, target.value, shared, lock_attrs)
            return
        if (
            lock_attrs is not None
            and isinstance(target, ast.Attribute)
            and isinstance(target.value, ast.Name)
            and target.value.id == "self"
            and target.attr not in lock_attrs
        ):
            yield self.finding(
                ctx,
                target,
                f"'self.{target.attr}' mutated outside 'with <lock>:' in a "
                f"lock-owning class",
            )

    def _check_receiver(
        self,
        ctx: FileContext,
        node: ast.expr,
        receiver: ast.expr,
        shared: Set[str],
        lock_attrs: Optional[Set[str]],
    ) -> Iterator[Finding]:
        if isinstance(receiver, ast.Name) and receiver.id in shared:
            yield self.finding(
                ctx,
                node,
                f"module global '{receiver.id}' mutated without a lock in a "
                f"thread-pool-reachable module",
            )
        elif (
            lock_attrs is not None
            and isinstance(receiver, ast.Attribute)
            and isinstance(receiver.value, ast.Name)
            and receiver.value.id == "self"
            and receiver.attr not in lock_attrs
        ):
            yield self.finding(
                ctx,
                node,
                f"'self.{receiver.attr}' mutated outside 'with <lock>:' in a "
                f"lock-owning class",
            )
