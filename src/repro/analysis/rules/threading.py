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
  attribute, unless the mutation sits lexically inside a ``with
  <...lock...>:`` block.  Setup/teardown writes that are documented as
  single-threaded carry baseline ratchet entries, so any *new*
  unguarded mutation trips CI until it is locked or explicitly
  accepted.
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
        "repro.solvers.subgradient",
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


def _is_lockish(node: ast.expr) -> bool:
    """Does this with-context expression look like acquiring a lock?"""
    for child in ast.walk(node):
        if isinstance(child, ast.Name) and "lock" in child.id.lower():
            return True
        if isinstance(child, ast.Attribute) and "lock" in child.attr.lower():
            return True
    return False


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
    """``self.<attr>`` names containing "lock" anywhere in the class."""
    locks: Set[str] = set()
    for child in ast.walk(node):
        if (
            isinstance(child, ast.Attribute)
            and isinstance(child.value, ast.Name)
            and child.value.id == "self"
            and "lock" in child.attr.lower()
        ):
            locks.add(child.attr)
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
        for node in ctx.tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from self._check_function(ctx, node, globals_, lock_attrs=None)
            elif isinstance(node, ast.ClassDef):
                locks = _class_lock_attrs(node)
                for child in node.body:
                    if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        continue
                    if child.name == "__init__":
                        # Construction happens-before sharing.
                        continue
                    yield from self._check_function(
                        ctx, child, globals_, lock_attrs=locks if locks else None
                    )

    def _check_function(
        self,
        ctx: FileContext,
        func: FunctionNode,
        globals_: Set[str],
        lock_attrs: Optional[Set[str]],
    ) -> Iterator[Finding]:
        # A `global X` statement marks X as shared even when the module
        # body never assigns it (the binding is created at runtime); a
        # mutating method call or subscript store hits a module global
        # without any `global` statement at all.
        declared_global: Set[str] = set()
        for child in ast.walk(func):
            if isinstance(child, ast.Global):
                declared_global.update(child.names)
        shared = declared_global | globals_
        yield from self._walk(ctx, func.body, declared_global, shared, lock_attrs, locked=False)

    def _walk(
        self,
        ctx: FileContext,
        stmts: List[ast.stmt],
        declared_global: Set[str],
        shared: Set[str],
        lock_attrs: Optional[Set[str]],
        locked: bool,
    ) -> Iterator[Finding]:
        for stmt in stmts:
            if isinstance(stmt, (ast.With, ast.AsyncWith)):
                inner_locked = locked or any(
                    _is_lockish(item.context_expr) for item in stmt.items
                )
                yield from self._walk(
                    ctx, stmt.body, declared_global, shared, lock_attrs, inner_locked
                )
                continue
            if not locked:
                yield from self._check_stmt(ctx, stmt, declared_global, shared, lock_attrs)
            for block in self._nested_blocks(stmt):
                yield from self._walk(ctx, block, declared_global, shared, lock_attrs, locked)

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
